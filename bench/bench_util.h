#ifndef P3C_BENCH_BENCH_UTIL_H_
#define P3C_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment harnesses in bench/: dataset scaling
// via the P3C_BENCH_SCALE environment variable, paper-style table
// printing, and the standard synthetic-workload builder of §7.1.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/threadpool.h"
#include "src/core/kernels/kernels.h"
#include "src/data/generator.h"

// Build metadata stamped by bench/CMakeLists.txt; empty when a bench is
// built outside the tree.
#ifndef P3C_BENCH_BUILD_TYPE
#define P3C_BENCH_BUILD_TYPE ""
#endif
#ifndef P3C_BENCH_CXX_FLAGS
#define P3C_BENCH_CXX_FLAGS ""
#endif

namespace p3c::bench {

/// Multiplier applied to every dataset size in the benches. The paper ran
/// up to 5e7 points on a 112-reducer Hadoop cluster; the default sizes
/// here divide that by ~20 for laptop runs. Set P3C_BENCH_SCALE=20 to
/// reproduce the paper's absolute sizes (given the memory/time).
inline double ScaleFactor() {
  const char* env = std::getenv("P3C_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

/// size * scale, at least `floor`.
inline size_t Scaled(size_t size, size_t floor = 500) {
  const double scaled = static_cast<double>(size) * ScaleFactor();
  return scaled < static_cast<double>(floor)
             ? floor
             : static_cast<size_t>(scaled);
}

/// The paper's synthetic workload (§7.1): 50 dimensions, clusters of 2-10
/// relevant attributes with widths 0.1-0.3, overlapping clusters, uniform
/// noise. Seed varies with every parameter so no two cells share data.
inline data::SyntheticData MakeWorkload(size_t num_points, size_t num_clusters,
                                        double noise_fraction, uint64_t seed,
                                        size_t num_dims = 50) {
  data::GeneratorConfig config;
  config.num_points = num_points;
  config.num_dims = num_dims;
  config.num_clusters = num_clusters;
  config.noise_fraction = noise_fraction;
  config.seed = seed * 1000003 + num_points * 31 + num_clusters * 7 +
                static_cast<uint64_t>(noise_fraction * 100.0);
  Result<data::SyntheticData> data = data::GenerateSynthetic(config);
  if (!data.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(data).value();
}

/// Repeat count for timing loops (min-of-repeats). Committed numbers use
/// the default; set P3C_BENCH_REPEATS to trade time for stability.
inline size_t Repeats(size_t fallback = 3) {
  const char* env = std::getenv("P3C_BENCH_REPEATS");
  if (env == nullptr) return fallback;
  const long v = std::atol(env);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

/// JSON object describing the machine and build, embedded at the head of
/// every bench artifact ("machine": {...}) so committed numbers carry
/// their provenance: core count, compiler, flags, build type, and which
/// kernel backends were available at run time.
inline std::string MachineJson() {
  std::string backends;
  for (const core::kernels::Ops* ops : core::kernels::AvailableBackends()) {
    if (!backends.empty()) backends += ", ";
    backends += '"';
    backends += ops->name;
    backends += '"';
  }
#if defined(__clang__)
  const char* compiler = "clang " __VERSION__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = __VERSION__;
#endif
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"cores\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"kernel_backends\": [%s], "
      "\"bench_scale\": %g, \"repeats\": %zu}",
      ThreadPool::HardwareConcurrency(), compiler, P3C_BENCH_BUILD_TYPE,
      P3C_BENCH_CXX_FLAGS, backends.c_str(), ScaleFactor(), Repeats());
  return std::string(buf);
}

/// Prints a horizontal rule sized for the standard tables.
inline void Rule() {
  std::printf("-------------------------------------------------------------"
              "-----------------\n");
}

/// Prints the standard experiment banner.
inline void Banner(const char* experiment, const char* paper_ref) {
  Rule();
  std::printf("%s\n(reproduces %s; sizes x%g, set P3C_BENCH_SCALE to "
              "change)\n",
              experiment, paper_ref, ScaleFactor());
  Rule();
}

}  // namespace p3c::bench

#endif  // P3C_BENCH_BENCH_UTIL_H_
