// Determinism suite for the partitioned shuffle (labeled shuffle-smoke;
// tools/run_sanitizers.sh runs it under ASan/UBSan and TSan): job output
// must be byte-identical across thread counts, reducer counts, skewed
// key distributions, and under injected task faults. The reducer below
// folds its values through an order-sensitive polynomial hash, so any
// change in value order — not just in the multiset of values — flips the
// output and fails the suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/mapreduce/fault.h"
#include "src/mapreduce/partition.h"
#include "src/mapreduce/runner.h"
#include "src/mr/p3c_mr.h"

namespace p3c::mr {
namespace {

struct KeyedRecord {
  int64_t key;
  uint64_t value;
};

class KeyedMapper : public Mapper<int64_t, uint64_t> {
 public:
  explicit KeyedMapper(const std::vector<KeyedRecord>* records)
      : records_(records) {}

  void Map(RecordRange rows, Emitter<int64_t, uint64_t>& out) override {
    for (size_t i = rows.begin; i < rows.end; ++i) {
      out.Emit((*records_)[i].key, (*records_)[i].value);
    }
  }

 private:
  const std::vector<KeyedRecord>* records_;
};

/// Order-sensitive fold: h = h * 31 + v. Detects any reordering of a
/// key's values relative to the (map task, emit order) contract.
class OrderHashReducer
    : public Reducer<int64_t, uint64_t, std::pair<int64_t, uint64_t>> {
 public:
  void Reduce(const int64_t& key, std::span<const uint64_t> values,
              std::vector<std::pair<int64_t, uint64_t>>& out) override {
    uint64_t h = 1469598103934665603ull;
    for (uint64_t v : values) h = h * 31 + v;
    out.emplace_back(key, h);
  }
};

std::vector<KeyedRecord> MakeKeyedRecords(size_t n, size_t num_keys) {
  std::vector<KeyedRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].key = static_cast<int64_t>(ShuffleMix64(i) % num_keys);
    records[i].value = ShuffleMix64(i ^ 0xabcdef);
  }
  return records;
}

/// One heavy-hitter key: about 80% of the records carry key 0, the rest
/// spread over 36 cold keys, so hash routing leaves the hot key's
/// partition far above the others.
std::vector<KeyedRecord> MakeSkewedRecords(size_t n) {
  std::vector<KeyedRecord> records = MakeKeyedRecords(n, 37);
  for (size_t i = 0; i < n; ++i) {
    if (ShuffleMix64(i ^ 0x5eed) % 10 < 8) records[i].key = 0;
  }
  return records;
}

using Output = std::vector<std::pair<int64_t, uint64_t>>;

Output RunJob(const std::vector<KeyedRecord>& records, size_t num_threads,
              size_t num_reducers, FaultInjector* injector = nullptr,
              MetricsRegistry* metrics = nullptr) {
  RunnerOptions options;
  options.num_threads = num_threads;
  options.records_per_split = 64;
  options.fault_injector = injector;
  options.metrics = metrics;
  LocalRunner runner(options);
  auto result = runner.Run<int64_t, uint64_t, std::pair<int64_t, uint64_t>>(
      "determinism", records.size(),
      [&records] { return std::make_unique<KeyedMapper>(&records); },
          [] { return std::make_unique<OrderHashReducer>(); }, num_reducers);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : Output{};
}

// ---- The equivalence contract ----------------------------------------

using Param = std::tuple<size_t /*threads*/, size_t /*reducers*/,
                         bool /*skewed_keys*/, bool /*faults*/>;

class ShuffleDeterminism : public ::testing::TestWithParam<Param> {};

TEST_P(ShuffleDeterminism, ByteIdenticalToSerialSingleReducerRun) {
  const auto [threads, reducers, skewed_keys, with_faults] = GetParam();
  const auto records =
      skewed_keys ? MakeSkewedRecords(3000) : MakeKeyedRecords(3000, 37);
  // Baseline: serial, one reducer, fault-free — the configuration whose
  // reduce input order is trivially the global stable-sort order.
  const Output baseline = RunJob(records, 1, 1);
  ASSERT_EQ(baseline.size(), 37u);

  SeededFaultInjector injector(/*seed=*/23, /*fail_probability=*/1.0,
                               /*max_faults_per_task=*/1);
  MetricsRegistry metrics;
  const Output out =
      RunJob(records, threads, reducers, with_faults ? &injector : nullptr,
             &metrics);
  EXPECT_EQ(out, baseline);
  if (with_faults) {
    EXPECT_GT(injector.injected_faults(), 0u);
  }

  // Partition accounting invariants: per-partition records sum to the
  // shuffled total, and the skew factor is at least 1 by construction.
  ASSERT_EQ(metrics.num_jobs(), 1u);
  const JobMetrics& job = metrics.jobs().front();
  ASSERT_EQ(job.partition_records.size(), reducers);
  ASSERT_EQ(job.partition_shuffle_seconds.size(), reducers);
  uint64_t shuffled = 0;
  for (uint64_t r : job.partition_records) shuffled += r;
  EXPECT_EQ(shuffled, job.map_output_records);
  EXPECT_GE(job.partition_skew, 1.0);
  EXPECT_LE(job.partition_skew, static_cast<double>(reducers));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShuffleDeterminism,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4},
                                         ThreadPool::HardwareConcurrency()),
                       ::testing::Values(size_t{1}, size_t{3}, size_t{8}),
                       ::testing::Bool(), ::testing::Bool()));

// ---- Skewed key distribution ----------------------------------------

TEST(ShuffleDeterminismTest, SkewedKeysPreserveOutput) {
  const auto records = MakeSkewedRecords(2000);
  const Output baseline = RunJob(records, 1, 1);
  ASSERT_EQ(baseline.size(), 37u);
  for (size_t reducers : {size_t{1}, size_t{3}, size_t{8}}) {
    MetricsRegistry metrics;
    const Output out = RunJob(records, 4, reducers, nullptr, &metrics);
    EXPECT_EQ(out, baseline) << reducers << " reducers";
    if (reducers > 1) {
      EXPECT_GT(metrics.jobs().front().partition_skew, 2.0)
          << reducers << " reducers";
    }
  }
}

// ---- Routing contract -------------------------------------------------
//
// Key k goes to partition ShuffleKeyHash(k) % R, with no other routing
// policy. Checked on ShuffleBuffers directly (every merged group key sits
// on its hash partition) and through the runner (per-partition record
// counts match a histogram computed here), for uniform, skewed and
// single-key inputs.

enum class KeyShape { kUniform, kSkewed, kSingleKey };

std::vector<KeyedRecord> MakeShapedRecords(KeyShape shape, size_t n) {
  switch (shape) {
    case KeyShape::kUniform:
      return MakeKeyedRecords(n, 37);
    case KeyShape::kSkewed:
      return MakeSkewedRecords(n);
    case KeyShape::kSingleKey:
      return MakeKeyedRecords(n, 1);
  }
  return {};
}

using RoutingParam = std::tuple<size_t /*reducers*/, KeyShape>;

class ShuffleRouting : public ::testing::TestWithParam<RoutingParam> {};

TEST_P(ShuffleRouting, KeysLandOnTheirHashPartition) {
  const auto [reducers, shape] = GetParam();
  const auto records = MakeShapedRecords(shape, 1500);
  std::vector<uint64_t> expected(reducers, 0);
  for (const KeyedRecord& r : records) {
    ++expected[ShuffleKeyHash(r.key) % reducers];
  }

  const size_t num_maps = 4;
  ShuffleBuffers<int64_t, uint64_t> buffers(reducers, num_maps);
  for (size_t m = 0; m < num_maps; ++m) {
    std::vector<std::pair<int64_t, uint64_t>> pairs;
    for (size_t i = m; i < records.size(); i += num_maps) {
      pairs.emplace_back(records[i].key, records[i].value);
    }
    buffers.CommitMapOutput(m, std::move(pairs));
  }
  for (size_t p = 0; p < reducers; ++p) {
    buffers.MergePartition(p);
    const auto& merged = buffers.partition(p);
    EXPECT_EQ(merged.values.size(), expected[p]) << "partition " << p;
    for (int64_t key : merged.group_keys) {
      EXPECT_EQ(ShuffleKeyHash(key) % reducers, p) << "key " << key;
    }
  }

  MetricsRegistry metrics;
  const Output out = RunJob(records, 4, reducers, nullptr, &metrics);
  EXPECT_EQ(out, RunJob(records, 1, 1));
  ASSERT_EQ(metrics.num_jobs(), 1u);
  EXPECT_EQ(metrics.jobs().front().partition_records, expected);
}

std::string RoutingName(const ::testing::TestParamInfo<RoutingParam>& info) {
  static const char* const kShapes[] = {"Uniform", "Skewed", "SingleKey"};
  return "R" + std::to_string(std::get<0>(info.param)) + "_" +
         kShapes[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShuffleRouting,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                         size_t{4}, size_t{7}, size_t{8},
                                         size_t{16}),
                       ::testing::Values(KeyShape::kUniform,
                                         KeyShape::kSkewed,
                                         KeyShape::kSingleKey)),
    RoutingName);

// ---- Within-key value order ------------------------------------------

/// Emits each record's global index under one shared key; the reducer
/// must then see 0, 1, 2, ... — the (map task, emit order) order a
/// global stable sort produces.
class IndexMapper : public Mapper<int64_t, uint64_t> {
 public:
  void Map(RecordRange rows, Emitter<int64_t, uint64_t>& out) override {
    for (size_t i = rows.begin; i < rows.end; ++i) out.Emit(0, i);
  }
};

class AscendingCheckReducer
    : public Reducer<int64_t, uint64_t, std::pair<int64_t, uint64_t>> {
 public:
  void Reduce(const int64_t& key, std::span<const uint64_t> values,
              std::vector<std::pair<int64_t, uint64_t>>& out) override {
    uint64_t in_order = 1;
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      if (values[i] + 1 != values[i + 1]) in_order = 0;
    }
    out.emplace_back(key, in_order);
  }
};

TEST(ShuffleDeterminismTest, ValuesArriveInMapTaskEmitOrder) {
  RunnerOptions options;
  options.num_threads = 8;
  options.records_per_split = 33;
  LocalRunner runner(options);
  auto result = runner.Run<int64_t, uint64_t, std::pair<int64_t, uint64_t>>(
      "value-order", /*num_records=*/1000,
      [] { return std::make_unique<IndexMapper>(); },
          [] { return std::make_unique<AscendingCheckReducer>(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].second, 1u) << "values were reordered";
}

// ---- Map-only path ----------------------------------------------------

class EchoMapper : public Mapper<uint64_t, uint64_t> {
 public:
  void Map(RecordRange rows, Emitter<uint64_t, uint64_t>& out) override {
    for (size_t i = rows.begin; i < rows.end; ++i) {
      out.Emit(ShuffleMix64(i) % 97, i);
    }
  }
};

TEST(ShuffleDeterminismTest, MapOnlyMergeMatchesSerialRun) {
  const size_t num_records = 2000;
  std::vector<std::pair<uint64_t, uint64_t>> baseline;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    RunnerOptions options;
    options.num_threads = threads;
    options.records_per_split = 61;
    LocalRunner runner(options);
    auto result = runner.RunMapOnly<uint64_t, uint64_t>(
        "map-only", num_records,
        [] { return std::make_unique<EchoMapper>(); });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (threads == 1) {
      baseline = std::move(result).value();
      ASSERT_EQ(baseline.size(), num_records);
    } else {
      EXPECT_EQ(*result, baseline) << threads << " threads";
    }
  }
}

// ---- The k-way merge itself --------------------------------------------

TEST(ShuffleDeterminismTest, MergeSortedRunsEqualsStableSortOfConcatenation) {
  // Run counts around powers of two exercise every shape of the loser
  // tree; few distinct keys make ties the common case. A stable sort of
  // the runs laid end to end breaks ties by (run index, in-run order),
  // which is the merge's contract.
  for (size_t num_runs = 0; num_runs <= 9; ++num_runs) {
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> runs(num_runs);
    std::vector<std::pair<uint64_t, uint64_t>> expected;
    uint64_t serial = 0;
    for (size_t r = 0; r < num_runs; ++r) {
      const size_t length = ShuffleMix64(num_runs * 31 + r) % 40;
      for (size_t i = 0; i < length; ++i) {
        runs[r].emplace_back(ShuffleMix64(serial) % 7, serial);
        ++serial;
      }
      std::stable_sort(
          runs[r].begin(), runs[r].end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      expected.insert(expected.end(), runs[r].begin(), runs[r].end());
    }
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    EXPECT_EQ(MergeSortedRuns(std::move(runs)), expected)
        << num_runs << " runs";
  }
}

}  // namespace
}  // namespace p3c::mr
