// Straggler-control tests (DESIGN.md §11): cooperative cancellation,
// the watchdog on its own, task deadlines with watchdog kills, and the
// phase budget.
//
// The acceptance scenario of the straggler layer lives here: a
// permanently hung map task completes the job via deadline-kill +
// retry, with no test-harness timeout, and its output and counters are
// byte-identical to a clean run.
// This suite builds as its own binary (p3c_straggler_tests) under the
// straggler-smoke ctest label so tools/run_sanitizers.sh can run it in
// isolation under ASan/UBSan and — the sanitizer that matters most for
// the watchdog's kill and heartbeat paths — TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/stopwatch.h"
#include "src/common/trace.h"
#include "src/data/generator.h"
#include "src/mapreduce/fault.h"
#include "src/mapreduce/runner.h"
#include "src/mapreduce/straggler.h"
#include "src/mr/p3c_mr.h"

namespace p3c::mr {
namespace {

// ---- Cooperative cancellation primitives -----------------------------

TEST(CancellationTest, DefaultTokenIsNeverCancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.CanBeCancelled());
  EXPECT_FALSE(token.cancelled());
  // Null tokens degrade to a plain timed sleep that reports "not
  // cancelled" — the non-straggler fast path.
  EXPECT_FALSE(token.WaitFor(0.001));
  // And WaitForCancel must NOT block forever on a token nobody can
  // cancel.
  token.WaitForCancel();
  EXPECT_NO_THROW(token.ThrowIfCancelled());
}

TEST(CancellationTest, CancelIsStickyAndObservable) {
  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_TRUE(token.CanBeCancelled());
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancelled());
  // An already-cancelled token returns from waits immediately.
  EXPECT_TRUE(token.WaitFor(10.0));
  token.WaitForCancel();
  EXPECT_THROW(token.ThrowIfCancelled(), CancelledError);
  // Idempotent.
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
}

// The satellite fix for SleepBackoff: a sleeper parked in WaitFor must
// wake immediately when the source cancels, not after the full wait.
TEST(CancellationTest, WaitForWakesEarlyOnCancel) {
  CancellationSource source;
  CancellationToken token = source.token();
  Stopwatch watch;
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.Cancel();
  });
  // Without the condvar wake-up this would sleep the full 30 seconds
  // and blow the test timeout.
  EXPECT_TRUE(token.WaitFor(30.0));
  canceller.join();
  EXPECT_LT(watch.ElapsedSeconds(), 10.0);
}

// ---- The watchdog (unit level) ---------------------------------------

/// Polls `done` every millisecond for up to `timeout_seconds`; true
/// once it holds. The generous timeouts below only bound a broken
/// watchdog — a working one meets each wait in milliseconds. Each test
/// declares its watchdog after the state its closures touch, so the
/// watchdog thread is joined before that state is destroyed.
template <typename Pred>
bool PollUntil(Pred done, double timeout_seconds = 5.0) {
  Stopwatch watch;
  while (!done()) {
    if (watch.ElapsedSeconds() > timeout_seconds) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TaskWatchdog::Entry DeadlineEntry(double deadline_seconds,
                                  std::function<void()> kill) {
  TaskWatchdog::Entry entry;
  entry.deadline_seconds = deadline_seconds;
  entry.kill = std::move(kill);
  return entry;
}

TEST(TaskWatchdogTest, KillFiresOnceNoEarlierThanTheDeadline) {
  std::atomic<int> kills{0};
  std::atomic<double> killed_at{0.0};
  Stopwatch watch;
  TaskWatchdog watchdog;
  const uint64_t id = watchdog.Register(DeadlineEntry(0.05, [&] {
    killed_at.store(watch.ElapsedSeconds());
    kills.fetch_add(1);
  }));
  ASSERT_TRUE(PollUntil([&] { return kills.load() > 0; }));
  EXPECT_GE(killed_at.load(), 0.05);
  // An entry stays registered after its kill until the attempt
  // deregisters; the watchdog must not kill it again meanwhile.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(kills.load(), 1);
  watchdog.Deregister(id);
}

TEST(TaskWatchdogTest, DeregisteredEntryIsNeverKilled) {
  std::atomic<int> kills{0};
  TaskWatchdog watchdog;
  const uint64_t id =
      watchdog.Register(DeadlineEntry(0.05, [&] { kills.fetch_add(1); }));
  watchdog.Deregister(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(kills.load(), 0);
}

TEST(TaskWatchdogTest, ZeroDeadlineDisablesTheKill) {
  std::atomic<int> disabled_kills{0};
  std::atomic<int> armed_kills{0};
  TaskWatchdog watchdog;
  const uint64_t disabled = watchdog.Register(
      DeadlineEntry(0.0, [&] { disabled_kills.fetch_add(1); }));
  // A second, armed entry proves the loop ran past the disabled one.
  const uint64_t armed = watchdog.Register(
      DeadlineEntry(0.02, [&] { armed_kills.fetch_add(1); }));
  ASSERT_TRUE(PollUntil([&] { return armed_kills.load() > 0; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(disabled_kills.load(), 0);
  watchdog.Deregister(armed);
  watchdog.Deregister(disabled);
}

// The loop parks until its nearest deadline (at most 1 s ahead). A
// registration carrying an earlier deadline must wake it, or the kill
// would land up to a second late.
TEST(TaskWatchdogTest, EarlierDeadlineRegisteredLaterWakesTheLoop) {
  std::atomic<int> far_kills{0};
  std::atomic<int> near_kills{0};
  TaskWatchdog watchdog;
  const uint64_t far = watchdog.Register(
      DeadlineEntry(30.0, [&] { far_kills.fetch_add(1); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Stopwatch watch;
  const uint64_t near = watchdog.Register(
      DeadlineEntry(0.02, [&] { near_kills.fetch_add(1); }));
  ASSERT_TRUE(PollUntil([&] { return near_kills.load() > 0; }));
  EXPECT_LT(watch.ElapsedSeconds(), 0.5);
  EXPECT_EQ(far_kills.load(), 0);
  watchdog.Deregister(near);
  watchdog.Deregister(far);
}

TEST(TaskWatchdogTest, EntriesAreKilledInDeadlineOrder) {
  // Registered out of deadline order, 100 ms apart in deadline.
  const double deadlines[] = {0.3, 0.1, 0.2};
  std::atomic<int> next_rank{0};
  std::atomic<int> rank[3] = {-1, -1, -1};
  TaskWatchdog watchdog;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(watchdog.Register(DeadlineEntry(
        deadlines[i], [&, i] { rank[i].store(next_rank.fetch_add(1)); })));
  }
  ASSERT_TRUE(PollUntil([&] { return next_rank.load() == 3; }));
  EXPECT_EQ(rank[1].load(), 0);
  EXPECT_EQ(rank[2].load(), 1);
  EXPECT_EQ(rank[0].load(), 2);
  for (uint64_t id : ids) watchdog.Deregister(id);
}

TEST(TaskWatchdogTest, EachOfManyEntriesIsKilledExactlyOnce) {
  constexpr int kEntries = 32;
  std::vector<std::atomic<int>> kills(kEntries);
  std::atomic<int> total{0};
  TaskWatchdog watchdog;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kEntries; ++i) {
    ids.push_back(watchdog.Register(DeadlineEntry(0.01 + 0.002 * i, [&, i] {
      kills[i].fetch_add(1);
      total.fetch_add(1);
    })));
  }
  ASSERT_TRUE(PollUntil([&] { return total.load() == kEntries; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 0; i < kEntries; ++i) EXPECT_EQ(kills[i].load(), 1) << i;
  for (uint64_t id : ids) watchdog.Deregister(id);
}

// The runner reads the flag the kill closure sets right after
// Deregister returns; that is only safe if Deregister waits out a kill
// already in flight.
TEST(TaskWatchdogTest, DeregisterWaitsForARunningKill) {
  std::atomic<bool> started{false};
  bool finished = false;  // written by the kill, read after Deregister
  TaskWatchdog watchdog;
  const uint64_t id = watchdog.Register(DeadlineEntry(0.01, [&] {
    started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished = true;
  }));
  ASSERT_TRUE(PollUntil([&] { return started.load(); }));
  watchdog.Deregister(id);
  EXPECT_TRUE(finished);
}

TEST(TaskWatchdogTest, SamplerRunsPeriodicallyUntilStopped) {
  std::atomic<int> ticks{0};
  TaskWatchdog watchdog;
  watchdog.StartSampler(0.005, [&] { ticks.fetch_add(1); });
  ASSERT_TRUE(PollUntil([&] { return ticks.load() >= 3; }));
  watchdog.StopSampler();
  const int stopped_at = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ticks.load(), stopped_at);
}

TEST(TaskWatchdogTest, StartSamplerReplacesThePreviousSampler) {
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  TaskWatchdog watchdog;
  watchdog.StartSampler(0.005, [&] { first.fetch_add(1); });
  ASSERT_TRUE(PollUntil([&] { return first.load() >= 1; }));
  watchdog.StartSampler(0.005, [&] { second.fetch_add(1); });
  // The old sampler only runs under the mutex StartSampler held, so it
  // is frozen from here on.
  const int replaced_at = first.load();
  ASSERT_TRUE(PollUntil([&] { return second.load() >= 3; }));
  EXPECT_EQ(first.load(), replaced_at);
  watchdog.StopSampler();
}

// Kills and the heartbeat sampler share one monitor thread rather than
// each spawning its own, and neither runs on the caller's thread.
TEST(TaskWatchdogTest, KillsAndSamplerRunOnTheOneWatchdogThread) {
  std::thread::id sampler_thread;
  std::thread::id kill_thread;
  std::atomic<bool> sampled{false};
  std::atomic<bool> killed{false};
  TaskWatchdog watchdog;
  watchdog.StartSampler(0.005, [&] {
    if (sampled.load()) return;
    sampler_thread = std::this_thread::get_id();
    sampled.store(true);
  });
  const uint64_t id = watchdog.Register(DeadlineEntry(0.02, [&] {
    kill_thread = std::this_thread::get_id();
    killed.store(true);
  }));
  ASSERT_TRUE(PollUntil([&] { return sampled.load() && killed.load(); }));
  watchdog.StopSampler();
  watchdog.Deregister(id);
  EXPECT_EQ(sampler_thread, kill_thread);
  EXPECT_NE(kill_thread, std::this_thread::get_id());
}

TEST(TaskWatchdogTest, RegisterAfterShutdownRestartsTheThread) {
  std::atomic<int> kills{0};
  TaskWatchdog watchdog;
  watchdog.Deregister(
      watchdog.Register(DeadlineEntry(10.0, [&] { kills.fetch_add(1); })));
  watchdog.Shutdown();
  watchdog.Shutdown();  // idempotent
  const uint64_t id =
      watchdog.Register(DeadlineEntry(0.02, [&] { kills.fetch_add(1); }));
  ASSERT_TRUE(PollUntil([&] { return kills.load() > 0; }));
  EXPECT_EQ(kills.load(), 1);
  watchdog.Deregister(id);
}

// ---- Injected delays and hangs (unit level) --------------------------

TEST(StragglerInjectionTest, DelayRuleIsSlowButSucceeds) {
  ScriptedFaultInjector injector;
  injector.DelayOnce("job", /*task_index=*/0, /*attempt=*/0,
                     /*delay_seconds=*/0.05);
  const std::string job = "job";
  Stopwatch watch;
  const Status st =
      injector.OnAttemptStart(TaskAttempt{job, TaskKind::kMap, 0, 0});
  // A pure straggler: late but correct.
  EXPECT_TRUE(st.ok());
  EXPECT_GE(watch.ElapsedSeconds(), 0.05);
  EXPECT_EQ(injector.injected_faults(), 1u);
  // One-shot: the retry is fast.
  EXPECT_TRUE(
      injector.OnAttemptStart(TaskAttempt{job, TaskKind::kMap, 0, 0}).ok());
}

TEST(StragglerInjectionTest, HangRuleBlocksUntilCancelled) {
  ScriptedFaultInjector injector;
  injector.HangOnce("job", /*task_index=*/0, /*attempt=*/0);
  CancellationSource source;
  std::atomic<bool> cancelled_seen{false};
  std::thread hung([&] {
    const std::string job = "job";
    TaskAttempt attempt{job, TaskKind::kMap, 0, 0};
    attempt.cancel = source.token();
    try {
      (void)injector.OnAttemptStart(attempt);
    } catch (const CancelledError&) {
      cancelled_seen.store(true);
    }
  });
  // Give the hang a moment to park, then kill it the way the watchdog
  // would.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(cancelled_seen.load());
  source.Cancel();
  hung.join();
  EXPECT_TRUE(cancelled_seen.load());
}

TEST(StragglerInjectionTest, DeadlineExceededIsRetryableAtJobLevel) {
  // A phase whose tasks keep timing out is worth re-running — the
  // straggler may have been environmental — until the phase budget
  // says otherwise.
  EXPECT_TRUE(IsRetryableJobFailure(Status::DeadlineExceeded("slow")));
}

// ---- A keyed-sum job with counters for engine-level tests ------------

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
      out.counters().Increment("records_mapped");
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

/// 17 keys round-robin, or — skewed — 80% of the records on key 0 with
/// the rest still spread over all 17 keys, so one reduce partition and
/// every map split's key-0 run dominate.
std::vector<KeyedRecord> MakeKeyedRecords(size_t n, bool skewed_keys = false) {
  std::vector<KeyedRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    const bool hot = skewed_keys && i % 5 != 0;
    records[i].key = hot ? 0 : static_cast<int>(i % 17);
    records[i].value = static_cast<int64_t>(i) - 100;
  }
  return records;
}

struct StragglerConfig {
  size_t threads = 4;
  double task_deadline_seconds = 0.0;
  double heartbeat_seconds = 0.0;
  bool skewed_keys = false;
  size_t max_attempts = 4;
};

struct RunOutcome {
  Result<std::vector<std::pair<int, int64_t>>> result =
      Status::Internal("not run");
  Counters counters;
  MetricsRegistry metrics;
};

RunOutcome RunKeyedSum(FaultInjector* injector, const StragglerConfig& cfg) {
  RunOutcome outcome;
  RunnerOptions options;
  options.num_threads = cfg.threads;
  options.records_per_split = 100;
  options.num_reducers = 3;
  options.max_attempts = cfg.max_attempts;
  options.task_deadline_seconds = cfg.task_deadline_seconds;
  options.heartbeat_seconds = cfg.heartbeat_seconds;
  options.fault_injector = injector;
  options.metrics = &outcome.metrics;
  options.counters = &outcome.counters;
  LocalRunner runner(options);
  const auto records = MakeKeyedRecords(1000, cfg.skewed_keys);
  outcome.result =
      runner.Run<int, int64_t, std::pair<int, int64_t>>(
          "keyed-sum", records.size(),
          [&records] { return std::make_unique<KeyedSumMapper>(&records); },
          [] { return std::make_unique<Int64SumReducer>(); });
  return outcome;
}

// ---- Deadlines: hung tasks become bounded retries --------------------

// Acceptance scenario 1: a permanently hung map task. Without the
// watchdog this test would never return; with it the hang is killed at
// the deadline and the retry completes the job.
TEST(TaskDeadlineTest, HungMapTaskRecoversViaDeadlineKillAndRetry) {
  const RunOutcome clean = RunKeyedSum(nullptr, {});
  ASSERT_TRUE(clean.result.ok());

  ScriptedFaultInjector injector;
  injector.HangOnce("keyed-sum", /*task_index=*/2, /*attempt=*/0);
  StragglerConfig cfg;
  cfg.task_deadline_seconds = 0.2;
  const RunOutcome hung = RunKeyedSum(&injector, cfg);
  ASSERT_TRUE(hung.result.ok()) << hung.result.status().ToString();
  EXPECT_EQ(injector.injected_faults(), 1u);

  // Byte-identical recovery: output and user counters match the clean
  // run exactly.
  EXPECT_EQ(*hung.result, *clean.result);
  EXPECT_EQ(hung.counters.values(), clean.counters.values());
  EXPECT_EQ(hung.counters.Get("records_mapped"), 1000u);

  // Hadoop's FAILED vs KILLED split: a deadline kill is an engine
  // decision, not a task bug — it lands in killed_attempts (and its
  // deadline_exceeded subset), never in task_failures.
  ASSERT_EQ(hung.metrics.num_jobs(), 1u);
  const JobMetrics& job = hung.metrics.jobs().front();
  EXPECT_TRUE(job.succeeded);
  EXPECT_GE(job.killed_attempts, 1u);
  EXPECT_GE(job.deadline_exceeded, 1u);
  EXPECT_EQ(job.task_failures, 0u);
  EXPECT_EQ(job.retried_tasks, 1u);
  EXPECT_EQ(hung.metrics.TotalKilledAttempts(), job.killed_attempts);
  EXPECT_EQ(hung.metrics.TotalDeadlineExceeded(), job.deadline_exceeded);
}

/// Keyed sum with in-mapper combining whose Map itself is slow for one
/// attempt: the first mapper instance handed `slow_begin` (the first
/// record of a split) sleeps inside every Map call. Map never emits —
/// the sums go out in Cleanup — so neither the fault injector nor the
/// emitter checkpoint can stop that attempt; only the engine's poll
/// between ranges can.
struct SlowMapState {
  size_t slow_begin = 0;
  double sleep_seconds = 0.0;
  std::atomic<bool> claimed{false};
  std::atomic<size_t> slow_ranges{0};  ///< Map calls of the slow attempt
};

class SlowCombiningMapper : public Mapper<int, int64_t> {
 public:
  SlowCombiningMapper(const std::vector<KeyedRecord>* records,
                      SlowMapState* state)
      : records_(records), state_(state) {}

  void Map(RecordRange rows, Emitter<int, int64_t>& out) override {
    (void)out;
    if (state_ != nullptr && rows.begin == state_->slow_begin &&
        !state_->claimed.exchange(true)) {
      slow_ = true;
    }
    if (slow_) {
      state_->slow_ranges.fetch_add(1);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(state_->sleep_seconds));
    }
    for (size_t i = rows.begin; i < rows.end; ++i) {
      sums_[(*records_)[i].key] += (*records_)[i].value;
    }
  }

  void Cleanup(Emitter<int, int64_t>& out) override {
    for (const auto& [key, sum] : sums_) out.Emit(key, sum);
  }

 private:
  const std::vector<KeyedRecord>* records_;
  SlowMapState* state_;
  bool slow_ = false;
  std::map<int, int64_t> sums_;
};

TEST(TaskDeadlineTest, SlowMapIsKilledAtTheNextRangeBoundary) {
  const auto records = MakeKeyedRecords(1000);
  auto run = [&records](SlowMapState* state, MetricsRegistry* metrics) {
    RunnerOptions options;
    options.num_threads = 4;
    options.records_per_split = 100;  // each split is two Map ranges
    options.num_reducers = 3;
    options.task_deadline_seconds = state != nullptr ? 0.15 : 0.0;
    options.metrics = metrics;
    LocalRunner runner(options);
    return runner.Run<int, int64_t, std::pair<int, int64_t>>(
        "slow-map", records.size(),
        [&records, state] {
          return std::make_unique<SlowCombiningMapper>(&records, state);
        },
        [] { return std::make_unique<Int64SumReducer>(); });
  };
  const auto clean = run(nullptr, nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Split 2's first attempt sleeps 0.6 s in its first range, well past
  // the 0.15 s deadline. The watchdog cancels it mid-sleep; the kill
  // lands when Map returns, before the split's second range.
  SlowMapState state;
  state.slow_begin = 200;
  state.sleep_seconds = 0.6;
  MetricsRegistry metrics;
  const auto slow = run(&state, &metrics);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(state.slow_ranges.load(), 1u);
  EXPECT_EQ(*slow, *clean);

  ASSERT_EQ(metrics.num_jobs(), 1u);
  const JobMetrics& job = metrics.jobs().front();
  EXPECT_EQ(job.killed_attempts, 1u);
  EXPECT_EQ(job.deadline_exceeded, 1u);
  EXPECT_EQ(job.task_failures, 0u);
  EXPECT_EQ(job.retried_tasks, 1u);
}

TEST(TaskDeadlineTest, HungReduceTaskRecoversToo) {
  const RunOutcome clean = RunKeyedSum(nullptr, {});
  ASSERT_TRUE(clean.result.ok());

  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Rule rule;
  rule.job_substring = "keyed-sum";
  rule.kind = TaskKind::kReduce;
  rule.task_index = 1;
  rule.attempt = 0;
  rule.hang = true;
  injector.AddRule(std::move(rule));
  StragglerConfig cfg;
  cfg.task_deadline_seconds = 0.2;
  const RunOutcome hung = RunKeyedSum(&injector, cfg);
  ASSERT_TRUE(hung.result.ok()) << hung.result.status().ToString();
  EXPECT_EQ(*hung.result, *clean.result);
  EXPECT_EQ(hung.counters.values(), clean.counters.values());
  EXPECT_GE(hung.metrics.jobs().front().deadline_exceeded, 1u);
}

TEST(TaskDeadlineTest, PermanentHangFailsWithDeadlineExceeded) {
  // Every attempt of the task hangs: the watchdog kills each at the
  // deadline until max_attempts is exhausted, and the job fails with a
  // kDeadlineExceeded Status naming the task — bounded, explained
  // failure instead of a wedged test harness.
  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Rule rule;
  rule.job_substring = "keyed-sum";
  rule.kind = TaskKind::kMap;
  rule.task_index = 0;
  rule.hang = true;
  rule.fires = ScriptedFaultInjector::kUnlimitedFires;
  injector.AddRule(std::move(rule));
  StragglerConfig cfg;
  cfg.task_deadline_seconds = 0.1;
  cfg.max_attempts = 2;
  const RunOutcome failed = RunKeyedSum(&injector, cfg);
  ASSERT_FALSE(failed.result.ok());
  const Status& st = failed.result.status();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("map task 0"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("2 attempt(s)"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("deadline"), std::string::npos)
      << st.ToString();

  // Both hung attempts were killed, none "failed", and no counters
  // escaped the failed job.
  const JobMetrics& job = failed.metrics.jobs().front();
  EXPECT_FALSE(job.succeeded);
  EXPECT_GE(job.killed_attempts, 2u);
  EXPECT_GE(job.deadline_exceeded, 2u);
  EXPECT_EQ(job.task_failures, 0u);
  EXPECT_TRUE(failed.counters.values().empty());
}

TEST(TaskDeadlineTest, StragglerAccountingIsZeroWhenDisabled) {
  const RunOutcome clean = RunKeyedSum(nullptr, {});
  ASSERT_TRUE(clean.result.ok());
  const JobMetrics& job = clean.metrics.jobs().front();
  EXPECT_EQ(job.killed_attempts, 0u);
  EXPECT_EQ(job.deadline_exceeded, 0u);
}

// ---- The deadline x heartbeat x fault-mode x threads x skew grid -----

enum class FaultMode { kDelay, kHang };

using GridParam = std::tuple<size_t /*threads*/, double /*deadline*/,
                             bool /*heartbeat*/, FaultMode,
                             bool /*skewed_keys*/>;

class StragglerGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(StragglerGrid, OutputIsByteIdenticalUnderStragglerControl) {
  const auto [threads, deadline, heartbeat, mode, skewed_keys] = GetParam();
  // A straggler is unrecoverable without a kill channel; such
  // configurations are excluded from the grid rather than silently
  // skipped.
  ASSERT_GT(deadline, 0.0);

  StragglerConfig base;
  base.threads = threads;
  base.skewed_keys = skewed_keys;
  const RunOutcome reference = RunKeyedSum(nullptr, base);
  ASSERT_TRUE(reference.result.ok());

  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Rule rule;
  rule.job_substring = "keyed-sum";
  rule.kind = TaskKind::kMap;
  rule.task_index = 1;
  rule.attempt = 0;
  if (mode == FaultMode::kHang) {
    rule.hang = true;
  } else {
    rule.delay_seconds = 30.0;  // rescued by the deadline kill
    rule.status = Status::OK();
  }
  injector.AddRule(std::move(rule));

  StragglerConfig cfg = base;
  cfg.task_deadline_seconds = deadline;
  // The heartbeat sampler shares the watchdog thread with the kills.
  cfg.heartbeat_seconds = heartbeat ? 0.01 : 0.0;
  const RunOutcome out = RunKeyedSum(&injector, cfg);
  ASSERT_TRUE(out.result.ok()) << out.result.status().ToString();

  // Exactly-once: output and every user counter match the unperturbed
  // reference byte for byte.
  EXPECT_EQ(*out.result, *reference.result);
  EXPECT_EQ(out.counters.values(), reference.counters.values());
  EXPECT_EQ(out.counters.ToJson(), reference.counters.ToJson());
  const JobMetrics& job = out.metrics.jobs().front();
  EXPECT_TRUE(job.succeeded);
  // The straggler was killed, not failed.
  EXPECT_GE(job.killed_attempts, 1u);
  EXPECT_EQ(job.task_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DeadlineOnly, StragglerGrid,
    ::testing::Combine(::testing::Values<size_t>(2, 4),
                       ::testing::Values(0.15),
                       ::testing::Values(false),
                       ::testing::Values(FaultMode::kDelay, FaultMode::kHang),
                       ::testing::Bool()));

INSTANTIATE_TEST_SUITE_P(
    DeadlinePlusHeartbeat, StragglerGrid,
    ::testing::Combine(::testing::Values<size_t>(2, 4),
                       ::testing::Values(0.15),
                       ::testing::Values(true),
                       ::testing::Values(FaultMode::kDelay, FaultMode::kHang),
                       ::testing::Bool()));

// ---- Trace surface of the straggler machinery ------------------------

TEST(StragglerTraceTest, DeadlineKillsAreVisibleInTheTrace) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable(true);
  if (!tracer.enabled()) {
    GTEST_SKIP() << "built with P3C_ENABLE_TRACING=OFF";
  }

  // One hung map task under a deadline: the trace shows the watchdog's
  // deadline-kill instant, the failed attempt, and the retry arrow
  // that stitches it to the attempt that completes the task.
  ScriptedFaultInjector injector;
  injector.HangOnce("keyed-sum", /*task_index=*/2, /*attempt=*/0);
  StragglerConfig cfg;
  cfg.task_deadline_seconds = 0.15;
  const RunOutcome out = RunKeyedSum(&injector, cfg);
  const std::string json = tracer.ToJson();
  tracer.Enable(false);
  tracer.Clear();

  ASSERT_TRUE(out.result.ok()) << out.result.status().ToString();
  const JobMetrics& job = out.metrics.jobs().front();
  EXPECT_EQ(job.deadline_exceeded, 1u);
  EXPECT_NE(json.find("deadline-kill map task 2 attempt 0"),
            std::string::npos);
  EXPECT_NE(json.find("map task 2 attempt 0 failed"), std::string::npos);
  EXPECT_NE(json.find("task-retry"), std::string::npos);
}

// ---- Phase-level wall-clock budget -----------------------------------

TEST(PhaseBudgetTest, HopelessPhaseFailsWithinBudget) {
  data::GeneratorConfig config;
  config.num_points = 2000;
  config.num_dims = 20;
  config.num_clusters = 3;
  config.seed = 91;
  const auto data = data::GenerateSynthetic(config).value();

  // Every attempt of every histogram task hangs; each job attempt dies
  // at the task deadline with kDeadlineExceeded, which is retryable at
  // the job level — without the budget the driver would grind through
  // all 1000 job attempts.
  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Rule rule;
  rule.job_substring = "histogram";
  rule.hang = true;
  rule.fires = ScriptedFaultInjector::kUnlimitedFires;
  injector.AddRule(std::move(rule));

  P3CMROptions options;
  options.params.light = true;
  options.runner.max_attempts = 1;
  options.runner.task_deadline_seconds = 0.05;
  options.runner.fault_injector = &injector;
  options.retry.max_job_attempts = 1000;
  options.retry.phase_budget_seconds = 0.3;
  P3CMR mr{options};
  Stopwatch watch;
  auto result = mr.Cluster(data.dataset);
  ASSERT_FALSE(result.ok());
  // Bounded: the budget stopped the retry loop shortly after 0.3s, far
  // from the 1000-attempt worst case (which would run ~50s).
  EXPECT_LT(watch.ElapsedSeconds(), 10.0);
  const Status& st = result.status();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("phase 'histogram'"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("budget"), std::string::npos) << st.ToString();
  // More than one job attempt ran before the budget tripped.
  EXPECT_GE(mr.metrics().num_jobs(), 2u);
  for (const JobMetrics& job : mr.metrics().jobs()) {
    EXPECT_FALSE(job.succeeded);
    EXPECT_GE(job.deadline_exceeded, 1u);
  }
}

TEST(PhaseBudgetTest, PipelineSurvivesDeadlineKillsWithinBudget) {
  // A transient hang (one-shot rule) under a deadline + budget: the
  // first histogram job attempt recovers via task retry, the pipeline
  // completes, and the result matches a clean run.
  data::GeneratorConfig config;
  config.num_points = 2000;
  config.num_dims = 20;
  config.num_clusters = 3;
  config.seed = 92;
  const auto data = data::GenerateSynthetic(config).value();

  P3CMROptions clean_options;
  clean_options.params.light = true;
  P3CMR clean{clean_options};
  auto clean_result = clean.Cluster(data.dataset);
  ASSERT_TRUE(clean_result.ok()) << clean_result.status().ToString();

  ScriptedFaultInjector injector;
  injector.HangOnce("histogram", /*task_index=*/0, /*attempt=*/0);
  P3CMROptions options;
  options.params.light = true;
  options.runner.task_deadline_seconds = 0.2;
  options.runner.fault_injector = &injector;
  options.retry.phase_budget_seconds = 60.0;
  P3CMR mr{options};
  auto result = mr.Cluster(data.dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(injector.injected_faults(), 1u);
  EXPECT_EQ(mr.counters().values(), clean.counters().values());
  EXPECT_GE(mr.metrics().TotalDeadlineExceeded(), 1u);
  ASSERT_EQ(result->clusters.size(), clean_result->clusters.size());
  for (size_t c = 0; c < result->clusters.size(); ++c) {
    EXPECT_EQ(result->clusters[c].points, clean_result->clusters[c].points);
    EXPECT_EQ(result->clusters[c].attrs, clean_result->clusters[c].attrs);
  }
}

}  // namespace
}  // namespace p3c::mr
