// Support counting through Rssc::Counter (kernel-smoke): the chunked
// interval-bitmap counter must give per-point Match's counts and naive
// containment's, on every kernel backend, at every signature-count and
// split shape; and RunSupportJob must be byte-identical across threads,
// engine backends, kernel backends and retried attempts.

#include <gtest/gtest.h>

#include <csignal>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/threadpool.h"
#include "src/core/kernels/kernels.h"
#include "src/core/rssc.h"
#include "src/core/signature.h"
#include "src/core/support_counter.h"
#include "src/data/dataset.h"
#include "src/data/generator.h"
#include "src/mapreduce/counters.h"
#include "src/mapreduce/fault.h"
#include "src/mr/jobs.h"

#if defined(__SANITIZE_THREAD__)
#define P3C_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define P3C_TSAN 1
#endif
#endif

namespace p3c::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMax = std::numeric_limits<double>::max();

std::vector<std::string> KernelBackends() {
  std::vector<std::string> names;
  for (const kernels::Ops* ops : kernels::AvailableBackends()) {
    names.emplace_back(ops->name);
  }
  return names;
}

/// Runs each test under one kernel backend.
class SupportCountTest : public testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { ASSERT_TRUE(kernels::SetBackend(GetParam()).ok()); }
  void TearDown() override { ASSERT_TRUE(kernels::SetBackend("auto").ok()); }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, SupportCountTest,
                         testing::ValuesIn(KernelBackends()),
                         [](const auto& param_info) { return param_info.param; });

Signature MakeSig(std::vector<Interval> intervals) {
  return Signature::Make(std::move(intervals)).value();
}

/// Counts the way the support job does: one fresh counter per split of
/// `split_rows` rows, fed 64-row map ranges when `map_ranges` (the MR
/// mapper) or the whole split at once (CountSupports); partials summed.
std::vector<uint64_t> CountBySplits(const data::Dataset& dataset,
                                    const std::vector<Signature>& sigs,
                                    size_t split_rows, bool map_ranges) {
  const Rssc rssc(sigs, Rssc::Use::kCount);
  std::vector<uint64_t> total(sigs.size(), 0);
  std::vector<uint64_t> partial(sigs.size());
  const size_t n = dataset.num_points();
  for (size_t begin = 0; begin < n; begin += split_rows) {
    const size_t end = std::min(n, begin + split_rows);
    std::fill(partial.begin(), partial.end(), 0);
    Rssc::Counter counter(rssc, partial);
    const size_t step = map_ranges ? 64 : end - begin;
    for (size_t row = begin; row < end; row += step) {
      counter.Add(dataset, row, std::min(end, row + step));
    }
    counter.Finish();
    for (size_t j = 0; j < sigs.size(); ++j) total[j] += partial[j];
  }
  return total;
}

/// Per-point Match, bit by bit.
std::vector<uint64_t> CountByMatch(const data::Dataset& dataset,
                                   const std::vector<Signature>& sigs) {
  const Rssc rssc(sigs);
  std::vector<uint64_t> counts(sigs.size(), 0);
  std::vector<uint64_t> bits;
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < dataset.num_points(); ++i) {
    rssc.Match(dataset.Row(static_cast<data::PointId>(i)), bits);
    ids.clear();
    Rssc::BitsToIds(bits, sigs.size(), ids);
    for (uint32_t id : ids) ++counts[id];
  }
  return counts;
}

TEST_P(SupportCountTest, HostileCoordinatesLandWhereMatchPutsThem) {
  const std::vector<double> values = {
      kNan, -kInf, kInf,  -0.0, 0.0,  0.2,  0.3,
      0.4,  std::nextafter(0.4, 1.0), 0.5, 1.0, kMax, -kMax};
  const size_t m = values.size();
  data::Dataset dataset(m * m, 3);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const auto row = static_cast<data::PointId>(i * m + j);
      dataset.Set(row, 0, values[i]);
      dataset.Set(row, 1, values[j]);
      dataset.Set(row, 2, values[(i + j) % m]);
    }
  }
  const std::vector<Signature> sigs = {
      MakeSig({{0, 0.2, 0.4}}),
      MakeSig({{0, 0.4, 0.4}}),           // lower == upper
      MakeSig({{0, 0.4, kMax}}),          // upper == DBL_MAX
      MakeSig({{0, 0.4, 0.5}, {1, 0.2, 0.4}}),  // bounds shared with others
      MakeSig({{1, 0.0, 0.2}, {2, 0.2, 0.4}}),
      MakeSig({{2, -0.0, 1.0}}),
      MakeSig({{2, 0.0, 1.0}}),
      Signature(),                        // no intervals: every row
      MakeSig({{0, -kInf, 0.3}}),
      MakeSig({{1, 0.5, 0.5}, {2, 0.5, kMax}}),
      MakeSig({{0, kNan, 0.5}}),          // a NaN bound contains nothing
  };
  const std::vector<uint64_t> by_match = CountByMatch(dataset, sigs);
  const std::vector<uint64_t> naive = CountSupportsNaive(dataset, sigs, nullptr);
  for (size_t split : {size_t{1}, size_t{64}, size_t{100}, m * m}) {
    for (bool map_ranges : {false, true}) {
      EXPECT_EQ(CountBySplits(dataset, sigs, split, map_ranges), by_match)
          << "split=" << split << " map_ranges=" << map_ranges;
    }
  }
  EXPECT_EQ(by_match[7], dataset.num_points());
  // Match and naive containment agree wherever every upper bound is
  // below DBL_MAX. A NaN or +inf coordinate lands in the top bin, which
  // only an interval whose nextafter(upper) is +inf covers: there the
  // index counts it, and closed-interval containment does not. The
  // paper's intervals lie in [0, 1] and never reach that bin.
  EXPECT_EQ(by_match[10], 0u);
  for (size_t j : {0, 1, 3, 4, 5, 6, 7, 8, 10}) {
    EXPECT_EQ(by_match[j], naive[j]) << "signature " << j;
  }
  size_t top_bin_attr0 = 0;
  size_t top_bin_sig9 = 0;
  for (size_t i = 0; i < dataset.num_points(); ++i) {
    const auto row = dataset.Row(static_cast<data::PointId>(i));
    if (std::isnan(row[0]) || row[0] == kInf) ++top_bin_attr0;
    if (row[1] == 0.5 && (std::isnan(row[2]) || row[2] == kInf)) {
      ++top_bin_sig9;
    }
  }
  EXPECT_EQ(by_match[2], naive[2] + top_bin_attr0);
  EXPECT_EQ(by_match[9], naive[9] + top_bin_sig9);
}

TEST_P(SupportCountTest, AttributeBeyondTheRowReadsAsZero) {
  // Match reads a coordinate past the row's end as 0.0; so does the
  // counter.
  data::Dataset dataset(5, 2);
  for (size_t i = 0; i < 5; ++i) {
    dataset.Set(static_cast<data::PointId>(i), 0,
                0.125 * static_cast<double>(i));
  }
  const std::vector<Signature> sigs = {MakeSig({{7, 0.0, 0.5}}),
                                       MakeSig({{7, 0.5, 1.0}}),
                                       MakeSig({{0, 0.125, 0.375}, {9, 0.0, 0.0}})};
  const std::vector<uint64_t> by_match = CountByMatch(dataset, sigs);
  EXPECT_EQ(by_match, (std::vector<uint64_t>{5, 0, 3}));
  EXPECT_EQ(CountBySplits(dataset, sigs, 5, false), by_match);
}

/// Random signatures over `dims` attributes with bounds on a 0.05 grid,
/// so many intervals are shared between signatures, as in A-priori
/// batches.
std::vector<Signature> GridSignatures(size_t count, size_t dims, Rng& rng) {
  std::vector<Signature> sigs;
  sigs.reserve(count);
  while (sigs.size() < count) {
    const size_t width = 1 + rng.UniformInt(4);
    std::vector<Interval> intervals;
    for (size_t a = 0; a < width; ++a) {
      const double lo = 0.05 * static_cast<double>(rng.UniformInt(14));
      intervals.push_back(
          {rng.UniformInt(dims), lo,
           lo + 0.05 * static_cast<double>(1 + rng.UniformInt(6))});
    }
    auto made = Signature::Make(std::move(intervals));
    if (made.ok()) sigs.push_back(std::move(made).value());
  }
  return sigs;
}

TEST_P(SupportCountTest, EverySignatureCountAndSplitShape) {
  data::GeneratorConfig config;
  config.num_points = 10001;
  config.num_dims = 8;
  config.num_clusters = 3;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 4;
  config.seed = 23;
  const auto data = data::GenerateSynthetic(config).value();
  const data::Dataset& dataset = data.dataset;
  ThreadPool pool(4);
  Rng rng(5);
  for (size_t count : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                       size_t{10000}}) {
    const std::vector<Signature> sigs = GridSignatures(count, 8, rng);
    const std::vector<uint64_t> naive =
        CountSupportsNaive(dataset, sigs, &pool);
    EXPECT_EQ(CountSupports(dataset, sigs, &pool), naive) << count;
    if (count <= 65) {
      EXPECT_EQ(CountByMatch(dataset, sigs), naive) << count;
    }
    for (size_t split : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                         size_t{4095}, size_t{4096}, size_t{4097},
                         size_t{10000}}) {
      EXPECT_EQ(CountBySplits(dataset, sigs, split, /*map_ranges=*/true),
                naive)
          << "signatures=" << count << " split=" << split;
      if (split >= 64) {
        EXPECT_EQ(CountBySplits(dataset, sigs, split, /*map_ranges=*/false),
                  naive)
            << "signatures=" << count << " split=" << split;
      }
    }
  }
}

TEST_P(SupportCountTest, DroppedCounterLeavesNoTrace) {
  // A failed map attempt drops its mapper, counter and partial counts
  // mid-split; the retry's fresh counter counts the split exactly once.
  Rng rng(3);
  data::Dataset dataset(5000, 4);
  for (size_t i = 0; i < 5000; ++i) {
    for (size_t a = 0; a < 4; ++a) {
      dataset.Set(static_cast<data::PointId>(i), a, rng.Uniform());
    }
  }
  const std::vector<Signature> sigs = GridSignatures(300, 4, rng);
  const Rssc rssc(sigs, Rssc::Use::kCount);
  {
    std::vector<uint64_t> abandoned(sigs.size(), 0);
    Rssc::Counter counter(rssc, abandoned);
    counter.Add(dataset, 0, 4100);  // one flush, then pending rows
  }
  std::vector<uint64_t> retried(sigs.size(), 0);
  Rssc::Counter counter(rssc, retried);
  counter.Add(dataset, 0, dataset.num_points());
  counter.Finish();
  counter.Finish();  // a second Finish adds nothing
  EXPECT_EQ(retried, CountSupportsNaive(dataset, sigs, nullptr));
}

}  // namespace
}  // namespace p3c::core

namespace p3c::mr {
namespace {

struct SupportRun {
  std::vector<uint64_t> supports;
  std::string counters_json;
};

SupportRun RunSupports(RunnerOptions options, const data::Dataset& dataset,
                       const std::vector<core::Signature>& sigs) {
  Counters counters;
  options.counters = &counters;
  LocalRunner runner(options);
  auto supports = RunSupportJob(runner, dataset, sigs);
  EXPECT_TRUE(supports.ok()) << supports.status().ToString();
  if (!supports.ok()) return {};
  return {std::move(supports).value(), counters.Snapshot().ToJson()};
}

TEST(SupportJobDeterminismTest, ByteIdenticalAcrossThreadsBackendsAndRetries) {
  data::GeneratorConfig config;
  config.num_points = 6001;
  config.num_dims = 10;
  config.num_clusters = 3;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 4;
  config.seed = 31;
  const auto data = data::GenerateSynthetic(config).value();
  Rng rng(8);
  std::vector<core::Signature> sigs;
  sigs.push_back(core::Signature());
  while (sigs.size() < 700) {
    const size_t attr = rng.UniformInt(10);
    const double lo = 0.05 * static_cast<double>(rng.UniformInt(16));
    auto made = core::Signature::Make(
        {{attr, lo, lo + 0.2}, {(attr + 1 + rng.UniformInt(9)) % 10, 0.1, 0.7}});
    if (made.ok()) sigs.push_back(std::move(made).value());
  }
  const std::vector<uint64_t> naive =
      core::CountSupportsNaive(data.dataset, sigs, nullptr);

  std::vector<Backend> engines = {Backend::kInProcess};
#ifndef P3C_TSAN
  // TSan does not support forking a multithreaded process.
  engines.push_back(Backend::kProcess);
#endif
  SupportRun reference;
  for (const std::string& kernel : core::KernelBackends()) {
    ASSERT_TRUE(core::kernels::SetBackend(kernel).ok());
    for (Backend engine : engines) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        for (bool inject : {false, true}) {
          const std::string where = "kernel=" + kernel +
                                    " engine=" + BackendName(engine) +
                                    " threads=" + std::to_string(threads) +
                                    " inject=" + std::to_string(inject);
          RunnerOptions options;
          options.backend = engine;
          options.num_threads = threads;
          options.num_workers = 2;
          options.records_per_split = 1500;  // splits end mid map range
          ScriptedFaultInjector injector;
          if (inject) {
            // The process backend kills the worker that just took map
            // task 1, mid-split; in-process, the attempt fails.
            if (engine == Backend::kProcess) {
              injector.KillWorkerOnce("support-count", 1, 0, SIGKILL);
            } else {
              injector.FailOnce("support-count", 1, 0);
            }
            options.fault_injector = &injector;
          }
          const SupportRun run = RunSupports(options, data.dataset, sigs);
          if (inject) {
            EXPECT_EQ(injector.injected_faults(), 1u) << where;
          }
          EXPECT_EQ(run.supports, naive) << where;
          if (reference.counters_json.empty()) {
            reference = run;
            ASSERT_FALSE(reference.counters_json.empty());
            continue;
          }
          EXPECT_EQ(run.counters_json, reference.counters_json) << where;
        }
      }
    }
  }
  ASSERT_TRUE(core::kernels::SetBackend("auto").ok());
}

}  // namespace
}  // namespace p3c::mr
