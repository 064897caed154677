// Tests of the in-process MapReduce engine: a word-count-style job, the
// Setup/Map/Cleanup lifecycle, map-only jobs, counters, metrics and
// determinism under varying parallelism.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>

#include "src/mapreduce/cache.h"
#include "src/mapreduce/counters.h"
#include "src/mapreduce/runner.h"

namespace p3c::mr {
namespace {

// ---- Word count ------------------------------------------------------------

class WordCountMapper : public Mapper<std::string, std::string, uint64_t> {
 public:
  void Map(const std::string& record,
           Emitter<std::string, uint64_t>& out) override {
    out.Emit(record, 1);
    out.counters().Increment("records_mapped");
  }
};

class SumReducer
    : public Reducer<std::string, uint64_t, std::pair<std::string, uint64_t>> {
 public:
  void Reduce(const std::string& key, std::span<const uint64_t> values,
              std::vector<std::pair<std::string, uint64_t>>& out) override {
    uint64_t total = 0;
    for (uint64_t v : values) total += v;
    out.emplace_back(key, total);
  }
};

std::vector<std::pair<std::string, uint64_t>> RunWordCount(
    LocalRunner& runner, const std::vector<std::string>& words) {
  auto result = runner.Run<std::string, std::string, uint64_t,
                           std::pair<std::string, uint64_t>>(
      "word-count", words, [] { return std::make_unique<WordCountMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(LocalRunnerTest, WordCount) {
  LocalRunner runner;
  const std::vector<std::string> words = {"b", "a", "b", "c", "b", "a"};
  const auto out = RunWordCount(runner, words);
  ASSERT_EQ(out.size(), 3u);
  // Output arrives in key order.
  EXPECT_EQ(out[0], (std::pair<std::string, uint64_t>{"a", 2}));
  EXPECT_EQ(out[1], (std::pair<std::string, uint64_t>{"b", 3}));
  EXPECT_EQ(out[2], (std::pair<std::string, uint64_t>{"c", 1}));
}

TEST(LocalRunnerTest, EmptyInput) {
  LocalRunner runner;
  const auto out = RunWordCount(runner, {});
  EXPECT_TRUE(out.empty());
}

TEST(LocalRunnerTest, DeterministicAcrossParallelism) {
  const std::vector<std::string> words = {"x", "y", "x", "z", "w", "x",
                                          "y", "z", "q", "r", "s", "x"};
  std::vector<std::vector<std::pair<std::string, uint64_t>>> results;
  for (size_t threads : {1u, 2u, 8u}) {
    for (size_t split : {1u, 3u, 100u}) {
      RunnerOptions options;
      options.num_threads = threads;
      options.records_per_split = split;
      options.num_reducers = threads;
      LocalRunner runner(options);
      results.push_back(RunWordCount(runner, words));
    }
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "configuration " << i;
  }
}

TEST(LocalRunnerTest, CountersMerged) {
  Counters counters;
  RunnerOptions options;
  options.records_per_split = 2;
  options.counters = &counters;
  LocalRunner runner(options);
  RunWordCount(runner, {"a", "b", "c", "d", "e"});
  EXPECT_EQ(counters.Get("records_mapped"), 5u);
  EXPECT_EQ(counters.Get("unknown"), 0u);
}

TEST(LocalRunnerTest, MetricsRecorded) {
  MetricsRegistry metrics;
  RunnerOptions options;
  options.records_per_split = 2;
  options.num_reducers = 1;  // pin the attempt count below
  options.metrics = &metrics;
  LocalRunner runner(options);
  RunWordCount(runner, {"a", "b", "c", "d", "e"});
  ASSERT_EQ(metrics.num_jobs(), 1u);
  const JobMetrics& job = metrics.jobs()[0];
  EXPECT_EQ(job.job_name, "word-count");
  EXPECT_EQ(job.input_records, 5u);
  EXPECT_EQ(job.num_splits, 3u);  // ceil(5 / 2)
  EXPECT_EQ(job.map_output_records, 5u);
  EXPECT_EQ(job.output_records, 5u);  // 5 distinct words
  EXPECT_GT(job.shuffle_bytes, 0u);
  // Fault-free run: one attempt per task (3 map + 1 reduce), no failures.
  EXPECT_EQ(job.task_attempts, 4u);
  EXPECT_EQ(job.task_failures, 0u);
  EXPECT_EQ(job.retried_tasks, 0u);
  EXPECT_TRUE(job.succeeded);
  // Single-partition shuffle: all records on partition 0, skew exactly 1.
  ASSERT_EQ(job.partition_records.size(), 1u);
  EXPECT_EQ(job.partition_records[0], 5u);
  ASSERT_EQ(job.partition_shuffle_seconds.size(), 1u);
  EXPECT_DOUBLE_EQ(job.partition_skew, 1.0);
  EXPECT_FALSE(metrics.ToString().empty());
}

TEST(MetricsTest, ProjectedOverheadAddsPerJob) {
  MetricsRegistry metrics;
  JobMetrics job;
  job.total_seconds = 1.0;
  metrics.Record(job);
  metrics.Record(job);
  EXPECT_DOUBLE_EQ(metrics.TotalSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(metrics.ProjectedSecondsWithOverhead(30.0), 62.0);
}

// ---- Mapper lifecycle -------------------------------------------------------

class LifecycleMapper : public Mapper<int, int, int> {
 public:
  void Setup(size_t split_index, std::span<const int> split,
             Emitter<int, int>& out) override {
    (void)split_index;
    (void)out;
    split_size_ = static_cast<int>(split.size());
  }
  void Map(const int& record, Emitter<int, int>& out) override {
    (void)record;
    (void)out;
    ++seen_;
  }
  void Cleanup(Emitter<int, int>& out) override {
    // Emit (split size as seen in Setup, records seen in Map).
    out.Emit(split_size_, seen_);
  }

 private:
  int split_size_ = -1;
  int seen_ = 0;
};

class IdentityReducer : public Reducer<int, int, std::pair<int, int>> {
 public:
  void Reduce(const int& key, std::span<const int> values,
              std::vector<std::pair<int, int>>& out) override {
    for (int v : values) out.emplace_back(key, v);
  }
};

TEST(LocalRunnerTest, SetupSeesWholeSplitBeforeMap) {
  RunnerOptions options;
  options.records_per_split = 4;
  LocalRunner runner(options);
  const std::vector<int> input(10, 7);  // 3 splits: 4 + 4 + 2
  const auto result = runner.Run<int, int, int, std::pair<int, int>>(
      "lifecycle", input, [] { return std::make_unique<LifecycleMapper>(); },
      [] { return std::make_unique<IdentityReducer>(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& out = *result;
  ASSERT_EQ(out.size(), 3u);
  // Each record is (split size, seen records) and they must agree.
  uint64_t total = 0;
  for (const auto& [split_size, seen] : out) {
    EXPECT_EQ(split_size, seen);
    total += static_cast<uint64_t>(seen);
  }
  EXPECT_EQ(total, 10u);
}

// ---- Map-only jobs -----------------------------------------------------------

class EchoMapper : public Mapper<int, int, int> {
 public:
  void Map(const int& record, Emitter<int, int>& out) override {
    out.Emit(record, record * record);
  }
};

TEST(LocalRunnerTest, MapOnlySortedByKey) {
  LocalRunner runner;
  const std::vector<int> input = {5, 3, 9, 1};
  const auto result = runner.RunMapOnly<int, int, int>(
      "echo", input, [] { return std::make_unique<EchoMapper>(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& pairs = *result;
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[0], (std::pair<int, int>{1, 1}));
  EXPECT_EQ(pairs[3], (std::pair<int, int>{9, 81}));
}

TEST(LocalRunnerTest, NumSplits) {
  RunnerOptions options;
  options.records_per_split = 10;
  LocalRunner runner(options);
  EXPECT_EQ(runner.NumSplits(0), 0u);
  EXPECT_EQ(runner.NumSplits(1), 1u);
  EXPECT_EQ(runner.NumSplits(10), 1u);
  EXPECT_EQ(runner.NumSplits(11), 2u);
  EXPECT_EQ(runner.NumSplits(100), 10u);
}

// ---- Counters / cache --------------------------------------------------------

TEST(CountersTest, IncrementAndMerge) {
  Counters a;
  a.Increment("x");
  a.Increment("x", 4);
  Counters b;
  b.Increment("x", 10);
  b.Increment("y");
  a.Merge(b);
  EXPECT_EQ(a.Get("x"), 15u);
  EXPECT_EQ(a.Get("y"), 1u);
  a.Clear();
  EXPECT_EQ(a.Get("x"), 0u);
}

TEST(DistributedCacheTest, TypedRoundTrip) {
  DistributedCache cache;
  cache.Put("masks", std::vector<int>{1, 2, 3});
  auto masks = cache.Get<std::vector<int>>("masks");
  ASSERT_NE(masks, nullptr);
  EXPECT_EQ(masks->size(), 3u);
  EXPECT_TRUE(cache.Contains("masks"));
}

TEST(DistributedCacheTest, WrongTypeIsNull) {
  DistributedCache cache;
  cache.Put("value", 42);
  EXPECT_EQ(cache.Get<double>("value"), nullptr);
  EXPECT_NE(cache.Get<int>("value"), nullptr);
}

TEST(DistributedCacheTest, MissingAndRemove) {
  DistributedCache cache;
  EXPECT_EQ(cache.Get<int>("nope"), nullptr);
  cache.Put("x", 1);
  cache.Remove("x");
  EXPECT_FALSE(cache.Contains("x"));
}

}  // namespace
}  // namespace p3c::mr
