#ifndef P3C_MAPREDUCE_RUNNER_H_
#define P3C_MAPREDUCE_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/resource.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/common/sync.h"
#include "src/common/threadpool.h"
#include "src/common/trace.h"
#include "src/mapreduce/counters.h"
#include "src/mapreduce/executor.h"
#include "src/mapreduce/fault.h"
#include "src/mapreduce/job.h"
#include "src/mapreduce/metrics.h"
#include "src/mapreduce/partition.h"
#include "src/mapreduce/straggler.h"
#include "src/mapreduce/wire.h"

namespace p3c::mr {

class WorkerPoolExecutor;

/// Execution knobs for the local MapReduce engine.
struct RunnerOptions {
  /// Worker threads; 0 means hardware concurrency.
  size_t num_threads = 0;
  /// Records per input split; 0 derives a split size from the data
  /// alone ("we do not artificially split the input files" — splits grow
  /// with the data, §7.5.2): about 32 map tasks per job, at least 1024
  /// records each, independent of the worker count at typical core
  /// counts. Deriving the task count from threads (the pre-§14 policy of
  /// four splits per worker) made every added worker multiply the
  /// number of shuffle runs to merge — the measured scaling inversion.
  size_t records_per_split = 0;
  /// Number of reduce partitions per job; 0 means one partition per
  /// worker thread. Jobs may override it per job through Run's
  /// `num_reducers` argument (the src/mr wrappers cap it at their key
  /// cardinality). The partition count never changes job output — only
  /// how the shuffle and reduce work are spread across workers.
  size_t num_reducers = 0;
  /// Maximum attempts per task before the job fails — Hadoop's
  /// `mapreduce.{map,reduce}.maxattempts`, default 4. Each map and reduce
  /// task runs as up to this many attempts; a failed attempt (thrown
  /// exception or non-OK Status) is discarded wholesale and the task is
  /// re-run from its immutable input.
  size_t max_attempts = 4;
  /// Deterministic exponential backoff between attempts of one task:
  /// retry r sleeps min(retry_backoff_seconds * 2^(r-1),
  /// retry_backoff_max_seconds). 0 disables sleeping (tests).
  double retry_backoff_seconds = 0.0;
  double retry_backoff_max_seconds = 0.05;
  /// Wall-clock deadline per task attempt, Hadoop's
  /// `mapreduce.task.timeout` collapsed to elapsed time (there is no
  /// progress reporting in-process). 0 disables. An overdue attempt is
  /// cooperatively cancelled by the runner's watchdog, counted in
  /// JobMetrics::killed_attempts / deadline_exceeded, converted to
  /// StatusCode::kDeadlineExceeded, and re-run under the normal
  /// max_attempts loop. This is the in-process straggler path; the
  /// process backend also kills silent workers through
  /// worker_heartbeat_seconds.
  double task_deadline_seconds = 0.0;
  /// Optional fault-injection hook consulted at the start of every task
  /// attempt (see fault.h); the test substrate for the retry machinery.
  FaultInjector* fault_injector = nullptr;
  /// Optional sink for per-job execution metrics.
  MetricsRegistry* metrics = nullptr;
  /// Optional sink for merged framework counters across jobs.
  Counters* counters = nullptr;
  /// Task-execution backend (DESIGN.md §16). kInProcess runs task
  /// bodies inline on the pool threads (the engine's native path);
  /// kProcess runs map and reduce attempts in forked worker processes
  /// — real crash isolation: a SIGKILLed worker is a failed attempt,
  /// retried by the normal machinery. Output and counter JSON are
  /// byte-identical across backends.
  Backend backend = Backend::kInProcess;
  /// Process backend: worker processes per phase pool; 0 means one
  /// worker per pool thread.
  size_t num_workers = 0;
  /// Process backend: a worker silent for this long is declared hung,
  /// SIGKILLed, and respawned (workers heartbeat at a quarter of it).
  double worker_heartbeat_seconds = 10.0;
  /// Heartbeat progress reporting (DESIGN.md §15): every this many
  /// seconds the watchdog thread logs one structured line (job, stage,
  /// records processed, live task attempts, per-scope tracked bytes,
  /// sampled RSS) at kInfo. 0 (the default) disables it entirely —
  /// same zero-cost-when-off gating idiom as the Tracer: no thread is
  /// started and the task paths only test a null pointer.
  double heartbeat_seconds = 0.0;
};

/// In-process, multi-threaded MapReduce engine.
///
/// Preserves the framework semantics the paper's algorithm design relies
/// on: mappers over contiguous input splits with Map/Cleanup lifecycle, a
/// partitioned sort-based shuffle that groups equal keys, key-grouped
/// reducers, per-phase barriers, counters, and shuffle-volume accounting.
///
/// Map input is a record count n: split s covers records
/// [s * SplitSize(n), min(n, (s + 1) * SplitSize(n))), and the mapper
/// reads the rows it is handed from its job's own read-only payload.
///
/// The shuffle is Hadoop-shaped (partition.h, DESIGN.md §9): a
/// deterministic key hash routes each map task's committed output into
/// per-reducer partition buffers at map-commit time (key-sorted runs,
/// built inside the map workers), each partition merges its runs in one
/// pass, in parallel across partitions, after the map barrier, and
/// reducers consume only their own partition, reading value groups as
/// std::span views into the merged buffer — no per-group copies. Output
/// order is deterministic and independent of the partition count and
/// thread count: within a key, values appear in (map task, emit order)
/// order exactly as a global stable sort would produce, and reducer
/// outputs are stitched back together in global key order by a final
/// deterministic merge over the partitions.
///
/// Fault tolerance mirrors Hadoop's task-attempt model: every map and
/// reduce task executes as a sequence of attempts, each of which either
/// commits its output atomically or is discarded without a trace —
/// counters, shuffle bytes, and emitted records of failed attempts never
/// reach the job result, so a job that succeeds after retries is
/// byte-identical to a fault-free run. A task that exhausts
/// `RunnerOptions::max_attempts` fails the job with a Status naming the
/// job, task kind, task index, and attempt count; JobMetrics records the
/// attempt/failure/retry totals either way. The attempt machinery
/// (retries, deadline kills) lives in runner.cc; this header holds only
/// the templated map → shuffle → reduce dataflow.
///
/// Retryability contract: mapper/reducer factories may be invoked
/// several times per task (once per attempt) and task input is treated
/// as immutable — reducers see the merged partition through read-only
/// spans.
///
/// Substitution note (DESIGN.md §2): this replaces the paper's Hadoop
/// cluster; the job decompositions in src/mr are expressed against this
/// API exactly as §5 describes them against Hadoop.
class LocalRunner {
 public:
  explicit LocalRunner(RunnerOptions options = {});

  LocalRunner(const LocalRunner&) = delete;
  LocalRunner& operator=(const LocalRunner&) = delete;

  const RunnerOptions& options() const { return options_; }
  ThreadPool& pool() { return pool_; }
  /// The active task-execution backend ("inprocess" | "process").
  const TaskExecutor& executor() const { return *executor_; }
  /// Driver-side observability of the process backend (worker spawns,
  /// respawns, kills, spawn failures, peak worker RSS). An empty bag on
  /// the in-process backend. Deliberately separate from job counters so
  /// backend bookkeeping never perturbs the deterministic counter JSON.
  MetricBag SnapshotWorkerMetrics() const;

  /// Runs a full map-shuffle-reduce job over records [0, num_records)
  /// and returns the concatenated reducer outputs (in key order), or the
  /// failure of the first task that exhausted its attempts. `K` must be
  /// strict-weak orderable.
  ///
  /// The factories are invoked once per task *attempt* from worker
  /// threads and must be thread-safe; the produced mapper/reducer
  /// instances are used by a single thread only. `num_reducers`
  /// overrides the reduce-partition count for this job (0 defers to
  /// RunnerOptions::num_reducers).
  template <typename K, typename V, typename Out>
  Result<std::vector<Out>> Run(
      const std::string& job_name, size_t num_records,
      const std::function<std::unique_ptr<Mapper<K, V>>()>& mapper_factory,
      const std::function<std::unique_ptr<Reducer<K, V, Out>>()>&
          reducer_factory,
      size_t num_reducers = 0) {
    Stopwatch total_watch;
    JobMetrics metrics;
    metrics.job_name = job_name;
    metrics.input_records = num_records;
    const size_t num_partitions = ResolveNumReducers(num_reducers);
    metrics.num_reducers = num_partitions;
    JobExecState exec;
    HeartbeatState heartbeat;
    heartbeat.job_name = job_name;
    heartbeat.acct = &exec.acct;
    if (options_.heartbeat_seconds > 0.0) exec.heartbeat = &heartbeat;
    HeartbeatGuard heartbeat_guard(this, &heartbeat);
    Counters job_counters;
    Tracer& tracer = Tracer::Global();
    TraceSpan job_span(
        "job:" + job_name,
        tracer.enabled()
            ? StringPrintf("{\"input_records\": %zu, \"num_reducers\": %zu}",
                           num_records, num_partitions)
            : std::string());

    ShuffleBuffers<K, V> buffers(num_partitions, NumSplits(num_records));

    // ---- Map phase -----------------------------------------------------
    // Each map task's committed output is partitioned and run-sorted
    // inside the map worker, so that part of the shuffle overlaps with
    // other map tasks still running.
    Stopwatch map_watch;
    Status map_status = MapPhase<K, V>(
        job_name, num_records, mapper_factory, &metrics, &job_counters, exec,
        [&](size_t s, std::vector<std::pair<K, V>> pairs) {
          buffers.CommitMapOutput(s, std::move(pairs));
        });
    metrics.map_seconds = map_watch.ElapsedSeconds();
    if (!map_status.ok()) {
      return RecordFailure(metrics, exec.acct, total_watch, map_status);
    }

    // ---- Shuffle: one merge pass per partition (DESIGN.md §9) ----------
    // Shuffle bodies are pure engine compute — no task attempts, nothing
    // that can hang — so they are always capped at hardware concurrency,
    // even in straggler configurations where ExecWidth() leaves the task
    // phases oversubscribed.
    Stopwatch shuffle_watch;
    if (exec.heartbeat != nullptr) {
      exec.heartbeat->stage.store("shuffle", std::memory_order_relaxed);
    }
    metrics.partition_shuffle_seconds.assign(num_partitions, 0.0);
    try {
      TraceSpan shuffle_span("shuffle-phase");
      pool_.ParallelForCapped(num_partitions,
                              ThreadPool::HardwareConcurrency(),
                              /*grain=*/1, [&](size_t p) {
        // Per-partition merge spans live on synthetic partition lanes,
        // so reducer-side skew shows up as lane-length imbalance.
        const uint32_t lane =
            Tracer::kPartitionLaneBase + static_cast<uint32_t>(p);
        const bool tracing = Tracer::Global().enabled();
        if (tracing) {
          Tracer::Global().NameLane(
              lane, StringPrintf("shuffle partition %zu", p));
        }
        TraceSpan partition_span(
            tracing ? StringPrintf("merge partition %zu", p) : std::string(),
            std::string(), lane);
        Stopwatch partition_watch;
        buffers.MergePartition(p);
        metrics.partition_shuffle_seconds[p] =
            partition_watch.ElapsedSeconds();
      });
    } catch (const std::exception& e) {
      metrics.shuffle_seconds = shuffle_watch.ElapsedSeconds();
      return RecordFailure(
          metrics, exec.acct, total_watch,
          Status::Internal(StringPrintf("job '%s': shuffle merge failed: %s",
                                        job_name.c_str(), e.what())));
    }
    metrics.shuffle_seconds = shuffle_watch.ElapsedSeconds();
    metrics.partition_records.resize(num_partitions);
    uint64_t shuffled_total = 0;
    uint64_t shuffled_max = 0;
    for (size_t p = 0; p < num_partitions; ++p) {
      const uint64_t records = buffers.partition(p).values.size();
      metrics.partition_records[p] = records;
      shuffled_total += records;
      shuffled_max = std::max(shuffled_max, records);
    }
    metrics.partition_skew =
        shuffled_total == 0 ? 0.0
                            : static_cast<double>(shuffled_max) *
                                  static_cast<double>(num_partitions) /
                                  static_cast<double>(shuffled_total);

    // ---- Reduce phase --------------------------------------------------
    // One reduce task per non-empty partition; the task index is the
    // partition index (stable addressing for fault injection). Reducers
    // read value groups as spans into the merged buffer — zero-copy, and
    // naturally retry-safe because the views are immutable.
    Stopwatch reduce_watch;
    if (exec.heartbeat != nullptr) {
      exec.heartbeat->stage.store("reduce", std::memory_order_relaxed);
    }
    std::vector<std::vector<Out>> task_outputs(num_partitions);
    // Per-group output end offsets, recorded so the final merge can
    // stitch per-key output slices back into global key order.
    std::vector<std::vector<size_t>> task_group_ends(num_partitions);
    FailureSlot failure(&exec.job_cancel);

    // Shared attempt computation of one reduce partition: the inline
    // body and the worker-process child run exactly this (the child
    // with a default, never-cancelling token — workers are stopped
    // with signals, not cooperatively).
    auto compute_partition = [&](size_t p, const CancellationToken& cancel) {
      const MergedPartition<K, V>& part = buffers.partition(p);
      std::unique_ptr<Reducer<K, V, Out>> reducer = reducer_factory();
      // Fresh output per attempt; the merged partition is read-only
      // so a failed attempt leaves the shuffled input intact.
      std::pair<std::vector<Out>, std::vector<size_t>> result;
      result.second.reserve(part.num_groups());
      for (size_t g = 0; g < part.num_groups(); ++g) {
        if ((g & 63u) == 0) cancel.ThrowIfCancelled();
        reducer->Reduce(part.key(g), part.group_values(g), result.first);
        result.second.push_back(result.first.size());
      }
      return result;
    };

    // Remote form of the reduce phase, when Out can cross the process
    // boundary: the child reduces its partition from the merged
    // buffers it inherited at fork and ships back the outputs plus
    // group-end offsets; the driver decodes and commits through the
    // same CAS slot as the inline body.
    PhaseTaskFn reduce_run;
    PhaseCommitFn reduce_commit;
    if constexpr (wire::kIsWireSerializable<Out>) {
      reduce_run = [&](uint64_t p) -> Result<std::string> {
        auto result =
            compute_partition(static_cast<size_t>(p), CancellationToken{});
        wire::WireWriter w;
        w.Put(result.first);
        w.Put(std::vector<uint64_t>(result.second.begin(),
                                    result.second.end()));
        return w.Take();
      };
      reduce_commit = [&task_outputs, &task_group_ends](
                          const TaskContext& ctx, uint64_t p,
                          std::string payload) -> Status {
        wire::WireReader r(payload, "reduce task payload");
        std::vector<Out> out;
        std::vector<uint64_t> ends;
        r.Get(&out);
        r.Get(&ends);
        P3C_RETURN_NOT_OK(r.Finish());
        ctx.Commit([&] {
          task_outputs[p] = std::move(out);
          task_group_ends[p].assign(ends.begin(), ends.end());
        });
        return Status::OK();
      };
    }

    {
      TraceSpan reduce_span("reduce-phase");
      ScopedExecutorPhase reduce_phase(
          executor_.get(), job_name, TaskKind::kReduce, num_partitions,
          std::move(reduce_run), std::move(reduce_commit));
      pool_.ParallelForCapped(num_partitions, ExecWidth(), /*grain=*/1,
                              [&](size_t p) {
        const MergedPartition<K, V>& part = buffers.partition(p);
        if (part.num_groups() == 0) return;
        if (failure.has_failed()) return;
        // Reduce attempts render on the same partition lane as the
        // partition's shuffle merge (stable addressing: task index ==
        // partition index).
        const uint32_t lane =
            Tracer::kPartitionLaneBase + static_cast<uint32_t>(p);
        Status st = ExecuteTask(
            job_name, TaskKind::kReduce, p, exec,
            [&](const TaskContext& ctx) {
              auto result = compute_partition(p, ctx.cancel);
              ctx.Commit([&] {
                task_outputs[p] = std::move(result.first);
                task_group_ends[p] = std::move(result.second);
              });
              return Status::OK();
            },
            lane);
        if (st.ok() && exec.heartbeat != nullptr) {
          exec.heartbeat->records.fetch_add(part.values.size(),
                                            std::memory_order_relaxed);
        }
        if (!st.ok()) failure.Set(std::move(st));
      });
    }
    if (failure.has_failed()) {
      metrics.reduce_seconds = reduce_watch.ElapsedSeconds();
      return RecordFailure(metrics, exec.acct, total_watch, failure.Take());
    }

    // ---- Output merge: partition slices back into global key order ----
    // Keys are unique across partitions (equal keys share a partition),
    // so merging the partitions' sorted group keys and concatenating
    // each group's output slice reproduces exactly the key-ordered
    // output of a single global sort — byte-identical for any partition
    // count and thread count.
    std::vector<Out> output;
    {
      if (exec.heartbeat != nullptr) {
        exec.heartbeat->stage.store("output-merge", std::memory_order_relaxed);
      }
      TraceSpan merge_span("output-merge");
      size_t total_out = 0;
      for (const auto& t : task_outputs) total_out += t.size();
      // The stitched output coexists with the per-task outputs until
      // the moves below complete, so its top-level bytes are a real
      // peak; charge them to the emitter scope for the window.
      resource::ScopedBytes output_mem{resource::MemScope::kEmitter};
      output_mem.Set(static_cast<int64_t>(total_out * sizeof(Out)));
      output.reserve(total_out);
      struct Cursor {
        size_t p;
        size_t g;
      };
      std::vector<Cursor> heap;
      for (size_t p = 0; p < num_partitions; ++p) {
        if (buffers.partition(p).num_groups() > 0) heap.push_back({p, 0});
      }
      const auto after = [&buffers](const Cursor& a, const Cursor& b) {
        return buffers.partition(b.p).key(b.g) <
               buffers.partition(a.p).key(a.g);
      };
      std::make_heap(heap.begin(), heap.end(), after);
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), after);
        Cursor cur = heap.back();
        heap.pop_back();
        auto& slice = task_outputs[cur.p];
        const auto& ends = task_group_ends[cur.p];
        const size_t begin = cur.g == 0 ? 0 : ends[cur.g - 1];
        output.insert(output.end(),
                      std::make_move_iterator(slice.begin() + begin),
                      std::make_move_iterator(slice.begin() + ends[cur.g]));
        if (++cur.g < buffers.partition(cur.p).num_groups()) {
          heap.push_back(cur);
          std::push_heap(heap.begin(), heap.end(), after);
        }
      }
    }
    metrics.reduce_seconds = reduce_watch.ElapsedSeconds();
    metrics.output_records = output.size();
    FinishSucceeded(metrics, exec.acct, total_watch, job_counters);
    return output;
  }

  /// Runs a map-only job (the paper's OD job, §5.5) over records
  /// [0, num_records): the mappers' emissions are the job output, sorted
  /// by key for determinism. Each split's output is sorted inside its map
  /// worker (a stable per-split run); the only serial work left is the
  /// final k-way merge, whose lower-run-index tie-break reproduces the
  /// order of a global stable sort exactly.
  template <typename K, typename V>
  Result<std::vector<std::pair<K, V>>> RunMapOnly(
      const std::string& job_name, size_t num_records,
      const std::function<std::unique_ptr<Mapper<K, V>>()>& mapper_factory) {
    Stopwatch total_watch;
    JobMetrics metrics;
    metrics.job_name = job_name;
    metrics.input_records = num_records;
    metrics.num_reducers = 0;
    JobExecState exec;
    HeartbeatState heartbeat;
    heartbeat.job_name = job_name;
    heartbeat.acct = &exec.acct;
    if (options_.heartbeat_seconds > 0.0) exec.heartbeat = &heartbeat;
    HeartbeatGuard heartbeat_guard(this, &heartbeat);
    Counters job_counters;
    TraceSpan job_span(
        "job:" + job_name,
        Tracer::Global().enabled()
            ? StringPrintf("{\"input_records\": %zu, \"map_only\": true}",
                           num_records)
            : std::string());

    std::vector<std::vector<std::pair<K, V>>> runs(NumSplits(num_records));
    Stopwatch map_watch;
    Status map_status = MapPhase<K, V>(
        job_name, num_records, mapper_factory, &metrics, &job_counters, exec,
        [&runs](size_t s, std::vector<std::pair<K, V>> pairs) {
          std::stable_sort(
              pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
          runs[s] = std::move(pairs);
        });
    metrics.map_seconds = map_watch.ElapsedSeconds();
    if (!map_status.ok()) {
      return RecordFailure(metrics, exec.acct, total_watch, map_status);
    }

    Stopwatch shuffle_watch;
    if (exec.heartbeat != nullptr) {
      exec.heartbeat->stage.store("output-merge", std::memory_order_relaxed);
    }
    std::vector<std::pair<K, V>> pairs;
    {
      TraceSpan merge_span("output-merge");
      pairs = MergeSortedRuns(std::move(runs));
    }
    metrics.shuffle_seconds = shuffle_watch.ElapsedSeconds();

    metrics.output_records = pairs.size();
    FinishSucceeded(metrics, exec.acct, total_watch, job_counters);
    return pairs;
  }

  /// Number of splits the engine would cut `n` records into.
  size_t NumSplits(size_t n) const {
    if (n == 0) return 0;
    const size_t per_split = SplitSize(n);
    return (n + per_split - 1) / per_split;
  }

  /// Reduce-partition count a job gets when neither the job's
  /// `num_reducers` argument nor RunnerOptions::num_reducers overrides it: one
  /// partition per worker thread. Job wrappers cap their per-job reducer
  /// count against this (e.g. min(number of distinct keys, default)).
  size_t DefaultNumReducers() const { return pool_.num_threads(); }

 private:
  /// Attempt/failure/retry totals of one job, accumulated lock-free from
  /// worker threads and copied into JobMetrics when the job finishes.
  /// `failures` counts genuine failures (thrown exception / non-OK
  /// Status); cancelled attempts (a deadline kill, or a body that
  /// surfaced CancelledError on its own) count in `killed` instead so
  /// the two causes stay distinguishable, exactly like Hadoop's FAILED
  /// vs KILLED attempt states.
  struct AttemptAccounting {
    std::atomic<uint64_t> attempts{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> retried{0};
    std::atomic<uint64_t> killed{0};
    std::atomic<uint64_t> deadline_exceeded{0};
  };

  /// Live progress counters one job exposes to the heartbeat sampler.
  /// All relaxed atomics — the sampler renders an instantaneous
  /// snapshot, never a synchronized one. `stage` holds string literals
  /// only (static storage), so the sampler can read it lock-free.
  struct HeartbeatState {
    std::string job_name;
    std::atomic<const char*> stage{"map"};
    std::atomic<uint64_t> records{0};
    std::atomic<int64_t> live_attempts{0};
    const AttemptAccounting* acct = nullptr;
  };

  /// Per-job execution state shared by every task of the job: the
  /// attempt accounting, the job-wide cancellation source that wakes
  /// retry-backoff sleepers the moment the job has already failed, and
  /// the heartbeat hook (null unless --heartbeat-seconds is set — the
  /// task paths pay one null test when heartbeat is off).
  struct JobExecState {
    AttemptAccounting acct;
    CancellationSource job_cancel;
    HeartbeatState* heartbeat = nullptr;
  };

  /// Starts the heartbeat sampler on the runner's watchdog thread for
  /// one job and stops it on scope exit; inert when heartbeat_seconds
  /// is 0. Declared after the HeartbeatState it samples, so the
  /// sampler is always stopped before the state dies.
  class HeartbeatGuard {
   public:
    HeartbeatGuard(LocalRunner* runner, const HeartbeatState* state) {
      if (runner->options_.heartbeat_seconds <= 0.0) return;
      watchdog_ = &runner->watchdog_;
      watchdog_->StartSampler(runner->options_.heartbeat_seconds,
                              [state] { EmitHeartbeat(*state); });
    }
    ~HeartbeatGuard() {
      if (watchdog_ != nullptr) watchdog_->StopSampler();
    }

    HeartbeatGuard(const HeartbeatGuard&) = delete;
    HeartbeatGuard& operator=(const HeartbeatGuard&) = delete;

   private:
    TaskWatchdog* watchdog_ = nullptr;
  };

  /// First-error-wins slot shared by the tasks of one phase: the first
  /// task to exhaust its attempts parks its Status here and later tasks
  /// short-circuit via has_failed(). Setting the slot also cancels the
  /// job's cancellation source (when wired), so workers sleeping in
  /// retry backoff wake immediately instead of delaying the failure.
  class FailureSlot {
   public:
    FailureSlot() = default;
    explicit FailureSlot(CancellationSource* wake) : wake_(wake) {}

    void Set(Status status) {
      {
        MutexLock lock(mu_);
        if (!failed_.load(std::memory_order_relaxed)) {
          status_ = std::move(status);
          failed_.store(true, std::memory_order_release);
        }
      }
      if (wake_ != nullptr) wake_->Cancel();
    }
    bool has_failed() const {
      return failed_.load(std::memory_order_acquire);
    }
    Status Take() {
      MutexLock lock(mu_);
      return status_;
    }

   private:
    /// Leaf lock (Cancel() is called after it is released, so the
    /// cancellation mutex is never nested under it).
    Mutex mu_{"FailureSlot::mu_"};
    Status status_ P3C_GUARDED_BY(mu_);
    /// Atomic (not guarded): has_failed() is the workers' per-task
    /// short-circuit poll and must stay lock-free.
    std::atomic<bool> failed_{false};
    CancellationSource* wake_ = nullptr;
  };

  /// The attempts of one task — retry loop, deadline kills and their
  /// accounting. Defined in runner.cc.
  class TaskAttempts;

  // ---- Non-template engine code (runner.cc) ----------------------------

  /// Records per split for an n-record input.
  size_t SplitSize(size_t n) const;
  /// Claimant cap for the map and reduce task phases; 0 means uncapped.
  size_t ExecWidth() const;
  /// Effective reduce-partition count: per-job override, then
  /// RunnerOptions::num_reducers, then one partition per worker.
  size_t ResolveNumReducers(size_t job_override) const;

  /// Runs one task as up to `max_attempts` attempts of `body`. The body
  /// must publish side effects only through TaskContext::Commit on its
  /// success path. `lane` is the trace lane of the attempt spans (0 =
  /// the executing thread's lane; reduce tasks pass their partition
  /// lane).
  Status ExecuteTask(const std::string& job_name, TaskKind kind, size_t task,
                     JobExecState& exec, const TaskBody& body,
                     uint32_t lane = 0);

  /// One heartbeat line for the sampler (runs on the watchdog thread).
  static void EmitHeartbeat(const HeartbeatState& state);

  /// Failure epilogue: records the failed job's metrics and passes the
  /// status through. Framework counters are NOT merged — a failed job
  /// has no observable side effects, so a pipeline-level re-run starts
  /// from a clean slate (exactly-once).
  Status RecordFailure(JobMetrics& metrics, const AttemptAccounting& acct,
                       const Stopwatch& total_watch, Status status);
  /// Success epilogue: snapshots the job's merged user counters into its
  /// JobMetrics row, records it, and commits the counters to the
  /// cross-job sink in one merge.
  void FinishSucceeded(JobMetrics& metrics, const AttemptAccounting& acct,
                       const Stopwatch& total_watch, Counters& job_counters);
  /// Stamps the attempt accounting and wall time into `metrics` and
  /// hands the row to RunnerOptions::metrics.
  void RecordJob(JobMetrics& metrics, const AttemptAccounting& acct,
                 const Stopwatch& total_watch, bool succeeded);

  // ---- Map phase --------------------------------------------------------

  template <typename K, typename V>
  class VectorEmitter : public Emitter<K, V> {
   public:
    void Emit(K key, V value) override {
      // Cooperative cancellation checkpoint: a wide-emit mapper that
      // never returns to the engine's range loop is still killable.
      // One relaxed load every 256 emits; null tokens never cancel.
      // The memory charge refreshes at the same cadence — bounded
      // staleness without per-emit tracker traffic.
      if (((++emit_calls_) & 255u) == 0) {
        cancel_.ThrowIfCancelled();
        mem_.Set(static_cast<int64_t>(pairs_.capacity() *
                                      sizeof(std::pair<K, V>)));
      }
      bytes_ += SerializedSize(key) + SerializedSize(value);
      pairs_.emplace_back(std::move(key), std::move(value));
    }
    Counters& counters() override { return counters_; }

    void set_cancel(CancellationToken token) { cancel_ = std::move(token); }

    /// Size hint from the engine (records-per-split heuristic): most of
    /// the paper's mappers emit at least one pair per record, so
    /// reserving the split size up front removes the early reallocation
    /// churn of wide-emit jobs. The capacity is transient — commit moves
    /// the pairs into tight shuffle buckets.
    void Reserve(size_t expected_pairs) {
      pairs_.reserve(expected_pairs);
      mem_.Set(static_cast<int64_t>(pairs_.capacity() *
                                    sizeof(std::pair<K, V>)));
    }

    std::vector<std::pair<K, V>> pairs_;
    Counters counters_;
    uint64_t bytes_ = 0;
    /// Scoped charge shadowing pairs_'s top-level capacity; moves with
    /// the emitter, released on destruction (or explicitly after the
    /// pairs are handed to the shuffle).
    resource::ScopedBytes mem_{resource::MemScope::kEmitter};

   private:
    CancellationToken cancel_{};
    uint64_t emit_calls_ = 0;
  };

  /// Runs the map tasks and hands each split's committed output to
  /// `commit` — still inside the worker, so per-split shuffle work
  /// (partitioning, run sorting) overlaps with other map tasks. `commit`
  /// is engine code, not a task attempt: it runs exactly once per split,
  /// only after the split's attempts succeeded.
  template <typename K, typename V>
  Status MapPhase(
      const std::string& job_name, size_t n,
      const std::function<std::unique_ptr<Mapper<K, V>>()>& mapper_factory,
      JobMetrics* metrics, Counters* job_counters, JobExecState& exec,
      const std::function<void(size_t split,
                               std::vector<std::pair<K, V>> pairs)>&
          commit) {
    const size_t per_split = SplitSize(std::max<size_t>(1, n));
    const size_t num_splits = n == 0 ? 0 : (n + per_split - 1) / per_split;
    metrics->num_splits = num_splits;
    TraceSpan map_span(
        "map-phase",
        Tracer::Global().enabled()
            ? StringPrintf("{\"num_splits\": %zu}", num_splits)
            : std::string());

    std::vector<VectorEmitter<K, V>> emitters(num_splits);
    std::atomic<uint64_t> map_output_records{0};
    FailureSlot failure(&exec.job_cancel);

    // Shared attempt computation: the inline body and the worker-
    // process child run exactly this, so the two backends cannot
    // diverge. A worker child passes a default (never-cancelling)
    // token — workers are stopped with signals, not cooperatively.
    auto compute_split = [&](size_t s, const CancellationToken& cancel) {
      const size_t begin = s * per_split;
      const size_t end = std::min(n, begin + per_split);
      // Fresh emitter per attempt: records, counters, and byte
      // accounting of a failed attempt are discarded wholesale; only
      // the successful attempt's output is committed to the split slot.
      VectorEmitter<K, V> out;
      out.set_cancel(cancel);
      out.Reserve(end - begin);
      std::unique_ptr<Mapper<K, V>> mapper = mapper_factory();
      for (size_t row = begin; row < end; row += kMapRangeRecords) {
        // Cooperative cancellation checkpoint between ranges, for
        // mappers that emit rarely (the emitter checkpoint never fires).
        cancel.ThrowIfCancelled();
        mapper->Map(RecordRange{row, std::min(end, row + kMapRangeRecords)},
                    out);
      }
      mapper->Cleanup(out);
      if (resource::MemoryTracker::Global().enabled()) {
        // Deterministic task-footprint gauge: serialized emit bytes,
        // identical for every attempt of this task (and for a
        // worker child, whose tracker enabled flag is inherited at
        // fork). It rides the attempt-local counters, so failed
        // attempts drop it with the attempt and the job-level merge
        // (gauge = max) is exactly-once under retries and kills.
        out.counters_.SetGauge("mem.task.peak_bytes",
                               static_cast<double>(out.bytes_));
      }
      return out;
    };

    // Remote form of the map phase, when K/V can cross the process
    // boundary: the child computes the split and serializes the
    // emitter's observable state; the driver decodes it and commits
    // through the same CAS slot the inline body uses. Jobs whose types
    // are not wire-serializable leave the fns null and run inline on
    // every backend.
    PhaseTaskFn map_run;
    PhaseCommitFn map_commit;
    if constexpr (wire::kIsWireSerializable<std::pair<K, V>>) {
      map_run = [&](uint64_t s) -> Result<std::string> {
        VectorEmitter<K, V> out =
            compute_split(static_cast<size_t>(s), CancellationToken{});
        wire::WireWriter w;
        w.PutU64(out.bytes_);
        wire::EncodeMetricBag(out.counters_.Snapshot(), w);
        w.Put(out.pairs_);
        return w.Take();
      };
      map_commit = [&emitters](const TaskContext& ctx, uint64_t s,
                               std::string payload) -> Status {
        wire::WireReader r(payload, "map task payload");
        VectorEmitter<K, V> out;
        out.bytes_ = r.GetU64();
        auto bag = wire::DecodeMetricBag(r);
        P3C_RETURN_NOT_OK(bag.status());
        r.Get(&out.pairs_);
        P3C_RETURN_NOT_OK(r.Finish());
        out.counters_.MergeBag(*bag);
        out.mem_.Set(static_cast<int64_t>(out.pairs_.capacity() *
                                          sizeof(std::pair<K, V>)));
        ctx.Commit([&] { emitters[s] = std::move(out); });
        return Status::OK();
      };
    }
    ScopedExecutorPhase map_phase(executor_.get(), job_name, TaskKind::kMap,
                                  num_splits, std::move(map_run),
                                  std::move(map_commit));

    pool_.ParallelForCapped(num_splits, ExecWidth(), /*grain=*/0,
                            [&](size_t s) {
      if (failure.has_failed()) return;
      Status st = ExecuteTask(
          job_name, TaskKind::kMap, s, exec, [&](const TaskContext& ctx) {
            VectorEmitter<K, V> out = compute_split(s, ctx.cancel);
            ctx.Commit([&] { emitters[s] = std::move(out); });
            return Status::OK();
          });
      if (st.ok()) {
        map_output_records.fetch_add(emitters[s].pairs_.size(),
                                     std::memory_order_relaxed);
        if (exec.heartbeat != nullptr) {
          const size_t split_records =
              std::min(n, (s + 1) * per_split) - s * per_split;
          exec.heartbeat->records.fetch_add(split_records,
                                            std::memory_order_relaxed);
        }
        commit(s, std::move(emitters[s].pairs_));
        // The pairs now live in the shuffle buffers (charged there);
        // drop the emitter's charge instead of holding it until the
        // emitters vector dies at the end of the phase.
        emitters[s].mem_.Set(0);
      }
      if (!st.ok()) failure.Set(std::move(st));
    });
    if (failure.has_failed()) return failure.Take();

    for (auto& e : emitters) {
      metrics->shuffle_bytes += e.bytes_;
      job_counters->Merge(e.counters_);
    }
    metrics->map_output_records =
        map_output_records.load(std::memory_order_relaxed);
    return Status::OK();
  }

  RunnerOptions options_;
  ThreadPool pool_;
  /// Deadline and heartbeat monitor; its thread starts lazily on the
  /// first registered attempt or sampler, so runners with neither never
  /// create it. Destroyed (and joined) after the executor, while the
  /// pool and options are still alive.
  TaskWatchdog watchdog_;
  /// Pluggable task-execution backend (executor.h); every task attempt
  /// funnels through executor_->RunAttempt. Declared last so a process
  /// backend's worker pool is torn down before anything it observes.
  std::unique_ptr<TaskExecutor> executor_;
  /// Aliases executor_ when the process backend is active (worker
  /// metrics access); null on the in-process backend.
  WorkerPoolExecutor* worker_executor_ = nullptr;
};

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_RUNNER_H_
