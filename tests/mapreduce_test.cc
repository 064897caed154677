// Tests of the in-process MapReduce engine: a word-count-style job, the
// range Map/Cleanup contract, map-only jobs, counters, metrics and
// determinism under varying parallelism.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/mapreduce/runner.h"

namespace p3c::mr {
namespace {

// ---- Word count ------------------------------------------------------------

class WordCountMapper : public Mapper<std::string, uint64_t> {
 public:
  explicit WordCountMapper(const std::vector<std::string>* words)
      : words_(words) {}

  void Map(RecordRange rows, Emitter<std::string, uint64_t>& out) override {
    for (size_t i = rows.begin; i < rows.end; ++i) {
      out.Emit((*words_)[i], 1);
      out.counters().Increment("records_mapped");
    }
  }

 private:
  const std::vector<std::string>* words_;
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
  auto result =
      runner.Run<std::string, uint64_t, std::pair<std::string, uint64_t>>(
          "word-count", words.size(),
          [&words] { return std::make_unique<WordCountMapper>(&words); },
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
  MetricsRegistry metrics;
  RunnerOptions options;
  options.records_per_split = 2;
  options.metrics = &metrics;
  LocalRunner runner(options);
  RunWordCount(runner, {"a", "b", "c", "d", "e"});
  const MetricBag counters = metrics.MergedCounters();
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

// ---- Map ranges ---------------------------------------------------------------

/// Records every range it is handed and emits them, keyed by the first
/// record of its split, from Cleanup.
class RangeRecordingMapper : public Mapper<size_t, RecordRange> {
 public:
  void Map(RecordRange rows, Emitter<size_t, RecordRange>& out) override {
    (void)out;
    ranges_.push_back(rows);
  }
  void Cleanup(Emitter<size_t, RecordRange>& out) override {
    for (const RecordRange& rows : ranges_) out.Emit(ranges_[0].begin, rows);
  }

 private:
  std::vector<RecordRange> ranges_;
};

class SplitRangesReducer
    : public Reducer<size_t, RecordRange,
                     std::pair<size_t, std::vector<RecordRange>>> {
 public:
  void Reduce(
      const size_t& key, std::span<const RecordRange> values,
      std::vector<std::pair<size_t, std::vector<RecordRange>>>& out)
      override {
    out.emplace_back(key,
                     std::vector<RecordRange>(values.begin(), values.end()));
  }
};

TEST(LocalRunnerTest, MapRangesAreContiguousBoundedAndCoverTheSplit) {
  RunnerOptions options;
  options.records_per_split = 150;  // 3 splits: 150 + 150 + 1
  options.num_threads = 2;
  LocalRunner runner(options);
  const size_t n = 301;
  const auto result =
      runner.Run<size_t, RecordRange,
                 std::pair<size_t, std::vector<RecordRange>>>(
          "map-ranges", n,
          [] { return std::make_unique<RangeRecordingMapper>(); },
          [] { return std::make_unique<SplitRangesReducer>(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 3u);
  for (size_t s = 0; s < result->size(); ++s) {
    const auto& [split_begin, ranges] = (*result)[s];
    const size_t split_end = std::min(n, split_begin + 150);
    EXPECT_EQ(split_begin, s * 150);
    ASSERT_FALSE(ranges.empty());
    // One attempt's ranges, in call order: ascending and gap-free, each
    // non-empty and at most kMapRangeRecords long, and together exactly
    // the split.
    size_t next = split_begin;
    for (const RecordRange& rows : ranges) {
      EXPECT_EQ(rows.begin, next) << "split " << s;
      EXPECT_GT(rows.size(), 0u) << "split " << s;
      EXPECT_LE(rows.size(), kMapRangeRecords) << "split " << s;
      next = rows.end;
    }
    EXPECT_EQ(next, split_end) << "split " << s;
  }
}

// ---- Map-only jobs -----------------------------------------------------------

class EchoMapper : public Mapper<int, int> {
 public:
  explicit EchoMapper(const std::vector<int>* input) : input_(input) {}

  void Map(RecordRange rows, Emitter<int, int>& out) override {
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const int record = (*input_)[i];
      out.Emit(record, record * record);
    }
  }

 private:
  const std::vector<int>* input_;
};

TEST(LocalRunnerTest, MapOnlySortedByKey) {
  LocalRunner runner;
  const std::vector<int> input = {5, 3, 9, 1};
  const auto result = runner.RunMapOnly<int, int>(
      "echo", input.size(),
      [&input] { return std::make_unique<EchoMapper>(&input); });
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

// ---- Counters --------------------------------------------------------

TEST(CountersTest, IncrementAndMerge) {
  MetricBag a;
  a.Increment("x");
  a.Increment("x", 4);
  MetricBag b;
  b.Increment("x", 10);
  b.Increment("y");
  a.MergeFrom(b);
  EXPECT_EQ(a.Get("x"), 15u);
  EXPECT_EQ(a.Get("y"), 1u);
  a.Clear();
  EXPECT_EQ(a.Get("x"), 0u);
}

}  // namespace
}  // namespace p3c::mr
