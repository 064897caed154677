// Fault-tolerance tests: injected task faults must never change job
// output (exactly-once semantics under retry), exhausted retries must
// fail with a descriptive Status, and both MR pipelines must produce
// results identical to a fault-free run when every job loses at least
// one task attempt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/resource.h"
#include "src/core/p3c.h"
#include "src/data/generator.h"
#include "src/mapreduce/fault.h"
#include "src/mapreduce/runner.h"
#include "src/mr/p3c_mr.h"

namespace p3c::mr {
namespace {

// ---- A small keyed-sum job with counters for engine-level tests ------

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
      const KeyedRecord& record = (*records_)[i];
      out.counters().Increment("records_mapped");
      // All three metric kinds ride through the exactly-once checks
      // below: a faulty run must reproduce counter, gauge AND histogram
      // state.
      out.counters().Observe("abs_value",
                             std::abs(static_cast<double>(record.value)));
      max_abs_ = std::max<int64_t>(max_abs_, std::abs(record.value));
      out.Emit(record.key, record.value);
    }
  }

  void Cleanup(Emitter<int, int64_t>& out) override {
    out.counters().SetGauge("max_abs_value", static_cast<double>(max_abs_));
  }

 private:
  const std::vector<KeyedRecord>* records_;
  int64_t max_abs_ = 0;
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

std::vector<KeyedRecord> MakeKeyedRecords(size_t n) {
  std::vector<KeyedRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].key = static_cast<int>(i % 17);
    records[i].value = static_cast<int64_t>(i) - 100;
  }
  return records;
}

struct RunOutcome {
  Result<std::vector<std::pair<int, int64_t>>> result =
      Status::Internal("not run");
  Counters counters;
  MetricsRegistry metrics;
};

RunOutcome RunKeyedSum(
    FaultInjector* injector, size_t max_attempts,
    const std::function<void(RunnerOptions&)>& tweak = {}) {
  RunOutcome outcome;
  RunnerOptions options;
  options.num_threads = 4;
  options.records_per_split = 100;
  options.num_reducers = 3;
  options.max_attempts = max_attempts;
  options.fault_injector = injector;
  options.metrics = &outcome.metrics;
  options.counters = &outcome.counters;
  if (tweak) tweak(options);
  LocalRunner runner(options);
  const auto records = MakeKeyedRecords(1000);
  outcome.result =
      runner.Run<int, int64_t, std::pair<int, int64_t>>(
          "keyed-sum", records.size(),
          [&records] { return std::make_unique<KeyedSumMapper>(&records); },
          [] { return std::make_unique<Int64SumReducer>(); });
  return outcome;
}

// ---- Exactly-once semantics under injected faults --------------------

TEST(FaultInjectionTest, FlakyMapTaskYieldsIdenticalOutputAndCounters) {
  const RunOutcome clean = RunKeyedSum(nullptr, 4);
  ASSERT_TRUE(clean.result.ok());

  ScriptedFaultInjector injector;
  injector.FailOnce("keyed-sum", /*task_index=*/2, /*attempt=*/0);
  injector.FailOnce("keyed-sum", /*task_index=*/5, /*attempt=*/0);
  const RunOutcome flaky = RunKeyedSum(&injector, 4);
  ASSERT_TRUE(flaky.result.ok()) << flaky.result.status().ToString();
  EXPECT_EQ(injector.injected_faults(), 2u);

  // Output and framework counters are byte-identical to the fault-free
  // run: the failed attempts left no trace.
  EXPECT_EQ(*flaky.result, *clean.result);
  EXPECT_EQ(flaky.counters.values(), clean.counters.values());
  EXPECT_EQ(flaky.counters.Get("records_mapped"), 1000u);
  // Kind-specific double-count probes: a replayed attempt would inflate
  // the histogram's count and the counter, and could move the gauge.
  const Metric* hist = flaky.counters.Find("abs_value");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1000u);
  EXPECT_EQ(flaky.counters.GetGauge("max_abs_value"),
            clean.counters.GetGauge("max_abs_value"));
  // The machine-readable export is byte-identical too.
  EXPECT_EQ(flaky.counters.ToJson(), clean.counters.ToJson());
  // The job-level snapshot embedded in JobMetrics matches the sink.
  EXPECT_EQ(flaky.metrics.jobs().front().counters.values(),
            flaky.counters.values());

  // The accounting, however, shows exactly the injected faults.
  ASSERT_EQ(flaky.metrics.num_jobs(), 1u);
  const JobMetrics& job = flaky.metrics.jobs().front();
  EXPECT_TRUE(job.succeeded);
  EXPECT_EQ(job.task_failures, 2u);
  EXPECT_EQ(job.retried_tasks, 2u);
  EXPECT_EQ(job.task_attempts,
            clean.metrics.jobs().front().task_attempts + 2u);
  EXPECT_EQ(flaky.metrics.TotalTaskFailures(), 2u);
  EXPECT_EQ(flaky.metrics.TotalRetriedTasks(), 2u);
}

// ---- Exactly-once memory accounting (DESIGN.md §15) ------------------

/// Turns the global memory tracker on for one test and restores the
/// disabled default afterwards, clearing run state at both edges so no
/// peaks leak into neighbouring tests in this binary.
class ScopedMemoryTracking {
 public:
  ScopedMemoryTracking() {
    resource::MemoryTracker::Global().Enable(true);
    resource::MemoryTracker::Global().ResetRun();
  }
  ~ScopedMemoryTracking() {
    resource::MemoryTracker::Global().Enable(false);
    resource::MemoryTracker::Global().ResetRun();
  }
};

TEST(FaultInjectionTest, TaskPeakGaugeIsExactlyOnceUnderRetry) {
  ScopedMemoryTracking tracking;
  const RunOutcome clean = RunKeyedSum(nullptr, 4);
  ASSERT_TRUE(clean.result.ok());
  const double clean_peak = clean.counters.GetGauge("mem.task.peak_bytes");
  EXPECT_GT(clean_peak, 0.0);

  ScriptedFaultInjector injector;
  injector.FailOnce("keyed-sum", /*task_index=*/2, /*attempt=*/0);
  injector.FailOnce("keyed-sum", /*task_index=*/5, /*attempt=*/0);
  const RunOutcome flaky = RunKeyedSum(&injector, 4);
  ASSERT_TRUE(flaky.result.ok()) << flaky.result.status().ToString();
  EXPECT_EQ(injector.injected_faults(), 2u);

  // mem.task.peak_bytes rides the attempt-local counters: a failed
  // attempt's gauge dies with the attempt, the retry recomputes the
  // same deterministic bytes, and the cross-task max-merge counts each
  // peak exactly once — so the merged gauge matches the clean run.
  EXPECT_EQ(*flaky.result, *clean.result);
  EXPECT_EQ(flaky.counters.GetGauge("mem.task.peak_bytes"), clean_peak);
  EXPECT_EQ(flaky.counters.values(), clean.counters.values());
}

TEST(FaultInjectionTest, TaskPeakGaugeIsExactlyOnceUnderDeadlineKill) {
  ScopedMemoryTracking tracking;
  const RunOutcome clean = RunKeyedSum(nullptr, 4);
  ASSERT_TRUE(clean.result.ok());

  // A pure straggler: attempt 0 of map task 7 sleeps 30 s (with an OK
  // status — slow but correct), so the watchdog must kill it at the
  // deadline and the retry must complete the task (straggler_test
  // idiom).
  ScriptedFaultInjector injector;
  injector.DelayOnce("keyed-sum", /*task_index=*/7, /*attempt=*/0,
                     /*delay_seconds=*/30.0);

  const RunOutcome killed =
      RunKeyedSum(&injector, 4, [](RunnerOptions& o) {
        o.task_deadline_seconds = 0.2;
      });
  ASSERT_TRUE(killed.result.ok()) << killed.result.status().ToString();
  ASSERT_EQ(killed.metrics.num_jobs(), 1u);
  EXPECT_EQ(killed.metrics.jobs().front().deadline_exceeded, 1u);
  EXPECT_EQ(killed.metrics.jobs().front().retried_tasks, 1u);

  // The killed attempt's counters are dropped with it and only the
  // retry's merge, so the job gauge neither doubles nor drifts:
  // byte-identical to the kill-free run.
  EXPECT_EQ(*killed.result, *clean.result);
  EXPECT_EQ(killed.counters.GetGauge("mem.task.peak_bytes"),
            clean.counters.GetGauge("mem.task.peak_bytes"));
  EXPECT_EQ(killed.counters.values(), clean.counters.values());
}

TEST(FaultInjectionTest, CrashingTasksAreCaughtAndRetried) {
  const RunOutcome clean = RunKeyedSum(nullptr, 4);
  ASSERT_TRUE(clean.result.ok());

  // Throwing rules: one per task kind, covering map and reduce.
  ScriptedFaultInjector injector;
  for (TaskKind kind : {TaskKind::kMap, TaskKind::kReduce}) {
    ScriptedFaultInjector::Rule rule;
    rule.job_substring = "keyed-sum";
    rule.kind = kind;
    rule.task_index = 0;
    rule.attempt = 0;
    rule.throws = true;
    injector.AddRule(std::move(rule));
  }
  const RunOutcome flaky = RunKeyedSum(&injector, 4);
  ASSERT_TRUE(flaky.result.ok()) << flaky.result.status().ToString();
  EXPECT_EQ(injector.injected_faults(), 2u);
  EXPECT_EQ(*flaky.result, *clean.result);
  EXPECT_EQ(flaky.counters.values(), clean.counters.values());
  EXPECT_EQ(flaky.metrics.jobs().front().task_failures, 2u);
  EXPECT_EQ(flaky.metrics.jobs().front().retried_tasks, 2u);
}

TEST(FaultInjectionTest, ExhaustedAttemptsFailWithTaskDetail) {
  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Rule rule;
  rule.job_substring = "keyed-sum";
  rule.kind = TaskKind::kReduce;
  rule.task_index = 1;
  rule.fires = ScriptedFaultInjector::kUnlimitedFires;
  injector.AddRule(std::move(rule));

  const RunOutcome failed = RunKeyedSum(&injector, 3);
  ASSERT_FALSE(failed.result.ok());
  const Status& st = failed.result.status();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("job 'keyed-sum'"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("reduce task 1"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("3 attempt(s)"), std::string::npos)
      << st.ToString();

  // Exactly-once on the failure path: no counters escape a failed job,
  // but the failed run is recorded in the metrics log.
  EXPECT_TRUE(failed.counters.values().empty());
  ASSERT_EQ(failed.metrics.num_jobs(), 1u);
  EXPECT_FALSE(failed.metrics.jobs().front().succeeded);
  EXPECT_TRUE(failed.metrics.jobs().front().counters.empty());
  EXPECT_GE(failed.metrics.jobs().front().task_failures, 3u);
}

TEST(FaultInjectionTest, MaxAttemptsOneDisablesRetry) {
  ScriptedFaultInjector injector;
  injector.FailOnce("keyed-sum", /*task_index=*/0, /*attempt=*/0);
  const RunOutcome failed = RunKeyedSum(&injector, /*max_attempts=*/1);
  ASSERT_FALSE(failed.result.ok());
  EXPECT_NE(failed.result.status().message().find("1 attempt(s)"),
            std::string::npos);
  EXPECT_EQ(failed.metrics.jobs().front().retried_tasks, 0u);
}

// ---- Injector unit behavior ------------------------------------------

TEST(FaultInjectionTest, SeededInjectorIsDeterministicAndCapped) {
  SeededFaultInjector a(/*seed=*/7);
  SeededFaultInjector b(/*seed=*/7);
  const std::string job = "some-job";
  for (size_t task = 0; task < 8; ++task) {
    const Status sa =
        a.OnAttemptStart(TaskAttempt{job, TaskKind::kMap, task, 0});
    const Status sb =
        b.OnAttemptStart(TaskAttempt{job, TaskKind::kMap, task, 0});
    EXPECT_EQ(sa.ok(), sb.ok());
    // fail_probability = 1.0: every first attempt dies...
    EXPECT_FALSE(sa.ok());
    // ...and carries the task coordinates for debugging.
    EXPECT_NE(sa.message().find("task"), std::string::npos);
    // max_faults_per_task = 1: retries always succeed.
    EXPECT_TRUE(
        a.OnAttemptStart(TaskAttempt{job, TaskKind::kMap, task, 1}).ok());
  }
  EXPECT_EQ(a.injected_faults(), 8u);
}

TEST(FaultInjectionTest, ScriptedRulesAreOneShotByDefault) {
  ScriptedFaultInjector injector;
  injector.FailOnce("job", 0, 0);
  const std::string job = "job";
  EXPECT_FALSE(
      injector.OnAttemptStart(TaskAttempt{job, TaskKind::kMap, 0, 0}).ok());
  // Same coordinates again (a pipeline-level job re-run): rule burnt out.
  EXPECT_TRUE(
      injector.OnAttemptStart(TaskAttempt{job, TaskKind::kMap, 0, 0}).ok());
}

TEST(FaultInjectionTest, RetryableClassification) {
  EXPECT_TRUE(IsRetryableJobFailure(Status::Internal("crash")));
  EXPECT_TRUE(IsRetryableJobFailure(Status::IOError("disk")));
  // Deadline kills are environmental (a straggling attempt), so the
  // job is worth re-running — the phase budget bounds the retries.
  EXPECT_TRUE(IsRetryableJobFailure(Status::DeadlineExceeded("slow")));
  EXPECT_FALSE(IsRetryableJobFailure(Status::InvalidArgument("bad")));
  EXPECT_FALSE(IsRetryableJobFailure(Status::NotImplemented("todo")));
  EXPECT_FALSE(IsRetryableJobFailure(Status::OK()));
}

// ---- Pipeline-level recovery -----------------------------------------

data::SyntheticData MakeData(uint64_t seed, size_t n = 5000) {
  data::GeneratorConfig config;
  config.num_points = n;
  config.num_dims = 40;
  config.num_clusters = 3;
  config.noise_fraction = 0.10;
  config.seed = seed;
  return data::GenerateSynthetic(config).value();
}

void ExpectSameClusters(const core::ClusteringResult& a,
                        const core::ClusteringResult& b) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].points, b.clusters[c].points);
    EXPECT_EQ(a.clusters[c].attrs, b.clusters[c].attrs);
    ASSERT_EQ(a.clusters[c].intervals.size(), b.clusters[c].intervals.size());
    for (size_t j = 0; j < a.clusters[c].intervals.size(); ++j) {
      EXPECT_DOUBLE_EQ(a.clusters[c].intervals[j].lower,
                       b.clusters[c].intervals[j].lower);
      EXPECT_DOUBLE_EQ(a.clusters[c].intervals[j].upper,
                       b.clusters[c].intervals[j].upper);
    }
  }
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (size_t c = 0; c < a.cores.size(); ++c) {
    EXPECT_EQ(a.cores[c].signature, b.cores[c].signature);
    EXPECT_EQ(a.cores[c].support, b.cores[c].support);
  }
}

// The ISSUE's acceptance scenario: a seeded injector killing the first
// attempt of every task of every job; the pipelines must still produce
// results identical to a fault-free run and the metrics must show the
// injected failures.
void RunPipelineAcceptance(bool light) {
  const auto data = MakeData(light ? 81 : 82);
  P3CMROptions clean_options;
  clean_options.params.light = light;
  P3CMR clean{clean_options};
  auto clean_result = clean.Cluster(data.dataset);
  ASSERT_TRUE(clean_result.ok()) << clean_result.status().ToString();

  SeededFaultInjector injector(/*seed=*/17, /*fail_probability=*/1.0,
                               /*max_faults_per_task=*/1);
  P3CMROptions faulty_options;
  faulty_options.params.light = light;
  faulty_options.runner.fault_injector = &injector;
  P3CMR faulty{faulty_options};
  auto faulty_result = faulty.Cluster(data.dataset);
  ASSERT_TRUE(faulty_result.ok()) << faulty_result.status().ToString();

  EXPECT_GT(injector.injected_faults(), 0u);
  ExpectSameClusters(*faulty_result, *clean_result);
  EXPECT_EQ(faulty.counters().values(), clean.counters().values());

  // Every job lost (at least) its first attempts and recovered.
  EXPECT_EQ(faulty.metrics().num_jobs(), clean.metrics().num_jobs());
  EXPECT_GE(faulty.metrics().TotalTaskFailures(),
            faulty.metrics().num_jobs());
  for (const JobMetrics& job : faulty.metrics().jobs()) {
    EXPECT_TRUE(job.succeeded) << job.job_name;
    EXPECT_GE(job.task_failures, 1u) << job.job_name;
    EXPECT_GE(job.retried_tasks, 1u) << job.job_name;
  }
  EXPECT_EQ(clean.metrics().TotalTaskFailures(), 0u);
}

TEST(FaultInjectionTest, FullPipelineSurvivesFaultsInEveryJob) {
  RunPipelineAcceptance(/*light=*/false);
}

TEST(FaultInjectionTest, LightPipelineSurvivesFaultsInEveryJob) {
  RunPipelineAcceptance(/*light=*/true);
}

TEST(FaultInjectionTest, JobLevelRetryRecoversExhaustedJob) {
  const auto data = MakeData(83);
  P3CMROptions clean_options;
  clean_options.params.light = true;
  P3CMR clean{clean_options};
  auto clean_result = clean.Cluster(data.dataset);
  ASSERT_TRUE(clean_result.ok());

  // With max_attempts = 1 the task-level retry cannot absorb the fault:
  // the first histogram job fails outright. The one-shot rule has burnt
  // out by the time JobRetryPolicy re-runs the job, modelling a
  // transient whole-job failure (lost node).
  ScriptedFaultInjector injector;
  injector.FailOnce("histogram", /*task_index=*/0, /*attempt=*/0);
  P3CMROptions options;
  options.params.light = true;
  options.runner.max_attempts = 1;
  options.runner.fault_injector = &injector;
  options.retry.max_job_attempts = 2;
  P3CMR mr{options};
  auto result = mr.Cluster(data.dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(injector.injected_faults(), 1u);
  ExpectSameClusters(*result, *clean_result);

  // The failed job run is logged next to its successful re-run.
  size_t failed_jobs = 0;
  for (const JobMetrics& job : mr.metrics().jobs()) {
    if (!job.succeeded) ++failed_jobs;
  }
  EXPECT_EQ(failed_jobs, 1u);
  EXPECT_EQ(mr.metrics().num_jobs(), clean.metrics().num_jobs() + 1);
}

TEST(FaultInjectionTest, ExhaustedJobRetriesFailWithPhaseDetail) {
  const auto data = MakeData(84, 3000);
  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Rule rule;
  rule.job_substring = "histogram";
  rule.fires = ScriptedFaultInjector::kUnlimitedFires;
  injector.AddRule(std::move(rule));
  P3CMROptions options;
  options.params.light = true;
  options.runner.max_attempts = 2;
  options.runner.fault_injector = &injector;
  options.retry.max_job_attempts = 2;
  P3CMR mr{options};
  auto result = mr.Cluster(data.dataset);
  ASSERT_FALSE(result.ok());
  const Status& st = result.status();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("phase 'histogram'"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("2 job attempt(s)"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("attempt"), std::string::npos);
}

TEST(FaultInjectionTest, FatalFailuresAreNotRetriedAtJobLevel) {
  const auto data = MakeData(85, 3000);
  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Rule rule;
  rule.job_substring = "histogram";
  rule.fires = ScriptedFaultInjector::kUnlimitedFires;
  rule.status = Status::InvalidArgument("deterministic bug");
  injector.AddRule(std::move(rule));
  P3CMROptions options;
  options.params.light = true;
  options.runner.max_attempts = 2;
  options.runner.fault_injector = &injector;
  options.retry.max_job_attempts = 5;
  P3CMR mr{options};
  auto result = mr.Cluster(data.dataset);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Fatal → exactly one job run despite max_job_attempts = 5.
  EXPECT_NE(result.status().message().find("1 job attempt(s)"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(mr.metrics().num_jobs(), 1u);
}

}  // namespace
}  // namespace p3c::mr
