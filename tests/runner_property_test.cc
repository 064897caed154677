// Property suite for the MapReduce engine: a randomized keyed-sum job
// must agree exactly with a direct single-threaded reference computation
// for every (threads, split size, reducers) configuration, over uniform
// and skewed key distributions.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/common/random.h"
#include "src/mapreduce/runner.h"

namespace p3c::mr {
namespace {

struct KeyedRecord {
  int key;
  int64_t value;
};

class KeyedSumMapper : public Mapper<int, int64_t> {
 public:
  explicit KeyedSumMapper(const std::vector<KeyedRecord>* records)
      : records_(records) {}

  void Map(RecordRange rows, Emitter<int, int64_t>& out) override {
    for (size_t i = rows.begin; i < rows.end; ++i) {
      out.Emit((*records_)[i].key, (*records_)[i].value);
    }
  }

 private:
  const std::vector<KeyedRecord>* records_;
};

class Int64SumReducer
    : public Reducer<int, int64_t, std::pair<int, int64_t>> {
 public:
  void Reduce(const int& key, std::span<const int64_t> values,
              std::vector<std::pair<int, int64_t>>& out) override {
    int64_t total = 0;
    for (int64_t v : values) total += v;
    out.emplace_back(key, total);
  }
};

using Param = std::tuple<uint64_t /*seed*/, size_t /*threads*/,
                         size_t /*split*/, bool /*skewed_keys*/>;

/// Random records over 40 keys; skewed, about 80% of them carry key 0,
/// so hash routing piles most of the shuffle onto one partition.
std::vector<KeyedRecord> MakeKeyedRecords(Rng& rng, bool skewed_keys,
                                          std::map<int, int64_t>& reference) {
  const size_t n = 500 + rng.UniformInt(2000);
  std::vector<KeyedRecord> records(n);
  for (auto& record : records) {
    record.key = static_cast<int>(rng.UniformInt(40));
    if (skewed_keys && rng.UniformInt(10) < 8) record.key = 0;
    record.value = static_cast<int64_t>(rng.UniformInt(1000)) - 500;
    reference[record.key] += record.value;
  }
  return records;
}

class RunnerProperties : public ::testing::TestWithParam<Param> {};

TEST_P(RunnerProperties, KeyedSumMatchesReference) {
  const auto [seed, threads, split, skewed_keys] = GetParam();
  Rng rng(seed);
  std::map<int, int64_t> reference;
  const auto records = MakeKeyedRecords(rng, skewed_keys, reference);

  RunnerOptions options;
  options.num_threads = threads;
  options.records_per_split = split;
  options.num_reducers = threads;
  LocalRunner runner(options);
  const auto result =
      runner.Run<int, int64_t, std::pair<int, int64_t>>(
          "keyed-sum", records.size(),
          [&records] { return std::make_unique<KeyedSumMapper>(&records); },
          [] { return std::make_unique<Int64SumReducer>(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& out = *result;

  ASSERT_EQ(out.size(), reference.size());
  size_t i = 0;
  for (const auto& [key, total] : reference) {
    EXPECT_EQ(out[i].first, key);
    EXPECT_EQ(out[i].second, total);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RunnerProperties,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(1u, 7u, 1000u),
                       ::testing::Bool()));

// Straggler-control variant of the property: with a (non-firing)
// deadline armed and a deliberately trigger-happy speculation policy
// (slowness 1.0, no minimum runtime), duplicate attempt copies race on
// ordinary healthy tasks — and the output must STILL match the
// reference exactly, whichever copy wins each commit. This is the
// determinism argument of DESIGN.md §11 exercised as a property.
class StragglerRunnerProperties : public ::testing::TestWithParam<Param> {};

TEST_P(StragglerRunnerProperties, KeyedSumMatchesReferenceUnderSpeculation) {
  const auto [seed, threads, split, skewed_keys] = GetParam();
  Rng rng(seed);
  std::map<int, int64_t> reference;
  const auto records = MakeKeyedRecords(rng, skewed_keys, reference);

  RunnerOptions options;
  options.num_threads = threads;
  options.records_per_split = split;
  options.num_reducers = threads;
  options.task_deadline_seconds = 30.0;  // armed, but healthy tasks fit
  options.speculative_execution = true;
  options.speculative_slowness_factor = 1.0;  // everything is "slow"
  options.speculative_min_samples = 1;
  options.speculative_min_runtime_seconds = 0.0;
  LocalRunner runner(options);
  const auto result =
      runner.Run<int, int64_t, std::pair<int, int64_t>>(
          "keyed-sum", records.size(),
          [&records] { return std::make_unique<KeyedSumMapper>(&records); },
          [] { return std::make_unique<Int64SumReducer>(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& out = *result;

  ASSERT_EQ(out.size(), reference.size());
  size_t i = 0;
  for (const auto& [key, total] : reference) {
    EXPECT_EQ(out[i].first, key);
    EXPECT_EQ(out[i].second, total);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StragglerGrid, StragglerRunnerProperties,
    ::testing::Combine(::testing::Values(1u, 2u),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(7u, 200u),
                       ::testing::Bool()));

}  // namespace
}  // namespace p3c::mr
