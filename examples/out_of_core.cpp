// Out-of-core scenario: cluster a binary dataset file without loading
// it — the regime that motivates the paper (its largest input is
// 0.2 TB, far beyond RAM). P3C+-MR-Light reads the file through a
// data::BinaryDatasetReader: each map task reads one map range (64 rows)
// at a time, so memory is independent of the rows. The run still holds
// the per-point ids it returns: the m' assignment (4 bytes a row) and the
// support sets.
//
//   ./build/examples/out_of_core [num_points]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/data/generator.h"
#include "src/data/io.h"
#include "src/mr/p3c_mr.h"

int main(int argc, char** argv) {
  using namespace p3c;
  const size_t n = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 200000;
  const std::string path = "out_of_core_demo.p3cd";

  // Produce the input file (in a real deployment this already exists).
  {
    data::GeneratorConfig config;
    config.num_points = n;
    config.num_dims = 50;
    config.num_clusters = 4;
    config.noise_fraction = 0.10;
    config.seed = 77;
    auto data = data::GenerateSynthetic(config).value();
    Status st = data::WriteBinary(data.dataset, path);
    if (!st.ok()) {
      std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s: %zu points x 50 dims (%.1f MB)\n", path.c_str(),
                n, static_cast<double>(n) * 50 * 8 / 1e6);
  }

  // Opening the file verifies its checksum in one pass; the rows stay on
  // disk.
  Result<data::BinaryDatasetReader> file =
      data::BinaryDatasetReader::Open(path);
  if (!file.ok()) {
    std::fprintf(stderr, "open failed: %s\n", file.status().ToString().c_str());
    return 1;
  }
  mr::P3CMROptions options;
  options.params.light = true;
  mr::P3CMR pipeline{options};
  Result<core::ClusteringResult> result = pipeline.Cluster(*file);
  if (!result.ok()) {
    std::fprintf(stderr, "clustering failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%zu clusters in %.2f s using %zu MR jobs over the file:\n",
              result->clusters.size(), result->seconds,
              pipeline.metrics().num_jobs());
  for (size_t c = 0; c < result->clusters.size(); ++c) {
    const auto& cluster = result->clusters[c];
    std::printf("  cluster %zu: support %zu, signature {", c,
                cluster.points.size());
    for (size_t j = 0; j < cluster.intervals.size(); ++j) {
      std::printf("%sa%zu:[%.2f,%.2f]", j ? ", " : "",
                  cluster.intervals[j].attr, cluster.intervals[j].lower,
                  cluster.intervals[j].upper);
    }
    std::printf("}\n");
  }
  return 0;
}
