#ifndef P3C_MAPREDUCE_RUNNER_H_
#define P3C_MAPREDUCE_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/logging.h"
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
#include "src/mapreduce/worker_backend.h"

namespace p3c::mr {

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
  /// Target records per shuffle merge chunk; 0 means the default
  /// (128 Ki). Each partition's merge is split at sampled key boundaries
  /// into about partition_records / merge_chunk_records chunks that
  /// merge independently (intra-partition parallelism for skewed or
  /// single-partition jobs). The chunk plan never changes job output —
  /// chunks split at key boundaries and concatenate in key order.
  /// Tests pin small values to force many chunks on small inputs.
  size_t merge_chunk_records = 0;
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
  /// Wall-clock deadline per task-attempt copy, Hadoop's
  /// `mapreduce.task.timeout` collapsed to elapsed time (there is no
  /// progress reporting in-process). 0 disables. An overdue copy is
  /// cooperatively cancelled by the runner's watchdog, counted in
  /// JobMetrics::killed_attempts / deadline_exceeded, converted to
  /// StatusCode::kDeadlineExceeded, and re-run under the normal
  /// max_attempts loop.
  double task_deadline_seconds = 0.0;
  /// Hadoop-style speculative execution: once an attempt has run
  /// `speculative_slowness_factor ×` the median completed-attempt
  /// duration of its (job, task kind) population, the watchdog launches
  /// a duplicate copy of the SAME attempt on a dedicated thread; the
  /// first copy to finish commits (exactly once, via a CAS commit
  /// slot) and the loser is cancelled. Output is byte-identical to a
  /// non-speculative run: copies execute the same deterministic body
  /// over the same immutable input, and results are always assembled
  /// in task-index order, never finish order.
  bool speculative_execution = false;
  /// Slowness multiple over the median that marks a straggler
  /// (Hadoop's 1.0-progress-score analog). Values <= 1 are treated
  /// as 1 (the CLI rejects them outright).
  double speculative_slowness_factor = 4.0;
  /// Completed attempts of the same (job, kind) required before the
  /// median is trusted.
  size_t speculative_min_samples = 3;
  /// Never speculate before an attempt has run at least this long —
  /// a near-zero median must not turn every task into a speculation
  /// candidate.
  double speculative_min_runtime_seconds = 0.02;
  /// Cap on concurrently running speculative copies (each runs on its
  /// own dedicated thread, never on a pool worker — a speculative copy
  /// queued behind the hung task it is meant to bypass would deadlock
  /// the job).
  size_t max_concurrent_speculative = 2;
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
/// on: record-parallel mappers over splits with Setup/Map/Cleanup
/// lifecycle, a partitioned sort-based shuffle that groups equal keys,
/// key-grouped reducers, per-phase barriers, counters, and
/// shuffle-volume accounting.
///
/// The shuffle is Hadoop-shaped (partition.h, DESIGN.md §9): a
/// deterministic key hash routes each map task's committed output into
/// per-reducer partition buffers at map-commit time (key-sorted runs,
/// built inside the map workers), each partition k-way merges its runs in
/// parallel after the map barrier, and reducers consume only their own
/// partition, reading value groups as std::span views into the merged
/// buffer — no per-group copies. Output order is deterministic and
/// independent of the partition count and thread count: within a key,
/// values appear in (map task, emit order) order exactly as a global
/// stable sort would produce, and reducer outputs are stitched back
/// together in global key order by a final deterministic merge over the
/// partitions.
///
/// Fault tolerance mirrors Hadoop's task-attempt model: every map and
/// reduce task executes as a sequence of attempts, each of which either
/// commits its output atomically or is discarded without a trace —
/// counters, shuffle bytes, and emitted records of failed attempts never
/// reach the job result, so a job that succeeds after retries is
/// byte-identical to a fault-free run. A task that exhausts
/// `RunnerOptions::max_attempts` fails the job with a Status naming the
/// job, task kind, task index, and attempt count; JobMetrics records the
/// attempt/failure/retry totals either way.
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
  explicit LocalRunner(RunnerOptions options = {})
      : options_(std::move(options)), pool_(options_.num_threads) {
    if (options_.backend == Backend::kProcess) {
      WorkerBackendOptions wb;
      wb.num_workers = options_.num_workers > 0 ? options_.num_workers
                                                : pool_.num_threads();
      wb.heartbeat_seconds = options_.worker_heartbeat_seconds;
      wb.fault_injector = options_.fault_injector;
      auto workers = std::make_unique<WorkerPoolExecutor>(std::move(wb));
      worker_executor_ = workers.get();
      executor_ = std::move(workers);
    } else {
      executor_ = std::make_unique<InProcessExecutor>();
    }
  }

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
  MetricBag SnapshotWorkerMetrics() const {
    if (worker_executor_ == nullptr) return MetricBag();
    return worker_executor_->SnapshotMetrics();
  }

  /// Runs a full map-shuffle-reduce job and returns the concatenated
  /// reducer outputs (in key order), or the failure of the first task
  /// that exhausted its attempts. `K` must be strict-weak orderable.
  ///
  /// The factories are invoked once per task *attempt* from worker
  /// threads and must be thread-safe; the produced mapper/reducer
  /// instances are used by a single thread only. `num_reducers`
  /// overrides the reduce-partition count for this job (0 defers to
  /// RunnerOptions::num_reducers).
  template <typename Record, typename K, typename V, typename Out>
  Result<std::vector<Out>> Run(
      const std::string& job_name, std::span<const Record> input,
      const std::function<std::unique_ptr<Mapper<Record, K, V>>()>&
          mapper_factory,
      const std::function<std::unique_ptr<Reducer<K, V, Out>>()>&
          reducer_factory,
      size_t num_reducers = 0) {
    Stopwatch total_watch;
    JobMetrics metrics;
    metrics.job_name = job_name;
    metrics.input_records = input.size();
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
                           input.size(), num_partitions)
            : std::string());

    ShuffleBuffers<K, V> buffers(num_partitions, NumSplits(input.size()));

    // ---- Map phase -----------------------------------------------------
    // Each map task's committed output is partitioned and run-sorted
    // inside the map worker, so that part of the shuffle overlaps with
    // other map tasks still running.
    Stopwatch map_watch;
    Status map_status = MapPhase<Record, K, V>(
        job_name, input, mapper_factory, &metrics, &job_counters, exec,
        [&](size_t s, std::vector<std::pair<K, V>> pairs) {
          buffers.CommitMapOutput(s, std::move(pairs));
        });
    metrics.map_seconds = map_watch.ElapsedSeconds();
    if (!map_status.ok()) {
      return RecordFailure(metrics, exec.acct, total_watch, map_status);
    }

    // ---- Shuffle: staged chunked merge (DESIGN.md §14) -----------------
    // Plan (per partition) -> chunk merges (parallel across ALL chunks
    // of all partitions, so a single skewed partition still spreads over
    // the pool) -> finalize (per partition). Chunk plans depend only on
    // the data, so the merge work — and the merged bytes — are identical
    // at every thread count.
    Stopwatch shuffle_watch;
    if (exec.heartbeat != nullptr) {
      exec.heartbeat->stage.store("shuffle", std::memory_order_relaxed);
    }
    metrics.partition_shuffle_seconds.assign(num_partitions, 0.0);
    const size_t chunk_records = options_.merge_chunk_records > 0
                                     ? options_.merge_chunk_records
                                     : kDefaultMergeChunkRecords;
    // Shuffle bodies are pure engine compute — no task attempts, nothing
    // that can hang — so they are always capped at hardware concurrency,
    // even in straggler configurations where ExecWidth() leaves the task
    // phases oversubscribed.
    const size_t shuffle_width = ThreadPool::HardwareConcurrency();
    try {
      TraceSpan shuffle_span("shuffle-phase");
      pool_.ParallelForCapped(num_partitions, shuffle_width, /*grain=*/1,
                              [&](size_t p) {
        buffers.PlanMerge(p, chunk_records);
      });
      const size_t total_chunks = buffers.FinishPlan();
      std::vector<double> chunk_seconds(total_chunks, 0.0);
      pool_.ParallelForCapped(total_chunks, shuffle_width, /*grain=*/1,
                              [&](size_t c) {
        Stopwatch chunk_watch;
        buffers.MergeChunk(c);
        chunk_seconds[c] = chunk_watch.ElapsedSeconds();
      });
      buffers.ReleaseRuns();
      for (size_t c = 0; c < total_chunks; ++c) {
        metrics.partition_shuffle_seconds[buffers.ChunkPartition(c)] +=
            chunk_seconds[c];
      }
      pool_.ParallelForCapped(num_partitions, shuffle_width, /*grain=*/1,
                              [&](size_t p) {
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
        Stopwatch finalize_watch;
        buffers.FinalizePartition(p);
        metrics.partition_shuffle_seconds[p] +=
            finalize_watch.ElapsedSeconds();
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
      // Fresh output per attempt copy; the merged partition is
      // read-only so a failed attempt leaves the shuffled input
      // intact, and racing speculative copies never share output
      // buffers.
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

  /// Runs a map-only job (the paper's OD job, §5.5): the mappers'
  /// emissions are the job output, sorted by key for determinism. Each
  /// split's output is sorted inside its map worker (a stable per-split
  /// run); the only serial work left is the final k-way merge, whose
  /// lower-run-index tie-break reproduces the order of a global stable
  /// sort exactly.
  template <typename Record, typename K, typename V>
  Result<std::vector<std::pair<K, V>>> RunMapOnly(
      const std::string& job_name, std::span<const Record> input,
      const std::function<std::unique_ptr<Mapper<Record, K, V>>()>&
          mapper_factory) {
    Stopwatch total_watch;
    JobMetrics metrics;
    metrics.job_name = job_name;
    metrics.input_records = input.size();
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
                           input.size())
            : std::string());

    std::vector<std::vector<std::pair<K, V>>> runs(NumSplits(input.size()));
    Stopwatch map_watch;
    Status map_status = MapPhase<Record, K, V>(
        job_name, input, mapper_factory, &metrics, &job_counters, exec,
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
  /// Status); engine kills (deadline, speculation loser) count in
  /// `killed` instead so the two causes stay distinguishable, exactly
  /// like Hadoop's FAILED vs KILLED attempt states.
  struct AttemptAccounting {
    std::atomic<uint64_t> attempts{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> retried{0};
    std::atomic<uint64_t> speculative{0};
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
  /// attempt accounting, the completed-duration populations feeding
  /// speculation, the job-wide cancellation source that wakes
  /// retry-backoff sleepers the moment the job has already failed, and
  /// the heartbeat hook (null unless --heartbeat-seconds is set — the
  /// task paths pay one null test when heartbeat is off).
  struct JobExecState {
    AttemptAccounting acct;
    TaskDurationStats durations[2];  ///< indexed by TaskKind
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

  /// One heartbeat line: progress counters, tracked per-scope bytes
  /// (when the MemoryTracker is on), and sampled RSS (where /proc
  /// exists). Runs on the watchdog thread under its mutex — reads
  /// relaxed atomics, formats, logs; nothing blocking.
  static void EmitHeartbeat(const HeartbeatState& state) {
    std::string line = StringPrintf(
        "heartbeat job=%s stage=%s records=%llu live_attempts=%lld "
        "attempts=%llu",
        state.job_name.c_str(), state.stage.load(std::memory_order_relaxed),
        static_cast<unsigned long long>(
            state.records.load(std::memory_order_relaxed)),
        static_cast<long long>(
            state.live_attempts.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            state.acct == nullptr
                ? 0
                : state.acct->attempts.load(std::memory_order_relaxed)));
    const resource::MemoryTracker& tracker =
        resource::MemoryTracker::Global();
    if (tracker.enabled()) line += " mem{" + tracker.DebugString() + "}";
    if (const auto rss = resource::MemoryTracker::SampleRss()) {
      line += StringPrintf(" rss_bytes=%lld",
                           static_cast<long long>(rss->vm_rss_bytes));
    }
    P3C_LOG(kInfo) << line;
  }

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

  /// Kill flags of one attempt copy. The watchdog (deadline) or the
  /// rival copy (speculation) sets the flag explaining WHY before
  /// cancelling, so the resolution can classify a cancelled copy.
  struct CopyControl {
    CancellationSource cancel;
    std::atomic<bool> deadline_killed{false};
    std::atomic<bool> loser_killed{false};
  };

  /// How one attempt copy ended: its status, and whether it ended by
  /// cooperative cancellation (CancelledError) rather than on its own.
  struct CopyOutcome {
    Status status;
    bool cancelled = false;
  };

  /// Rendezvous between the primary copy (inline on the pool worker)
  /// and the speculative copy (dedicated thread, launched by the
  /// watchdog). Guarded by `mu`; the worker always joins `spec_thread`
  /// before the attempt resolves, so copy-local state outlives both
  /// copies.
  /// Lock order: the watchdog's launch closure takes `mu` while
  /// holding TaskWatchdog::mu_, so `mu` sits below the watchdog lock;
  /// nothing is acquired while `mu` is held.
  struct AttemptRace {
    Mutex mu{"AttemptRace::mu"};
    CondVar cv;
    bool spec_launched P3C_GUARDED_BY(mu) = false;
    bool spec_done P3C_GUARDED_BY(mu) = false;
    CopyOutcome spec_outcome P3C_GUARDED_BY(mu);
    std::thread spec_thread P3C_GUARDED_BY(mu);
    std::shared_ptr<CopyControl> spec_ctl P3C_GUARDED_BY(mu);
  };

  // TaskContext and TaskBody (the per-copy view and the in-memory body
  // form) live in executor.h since the backend split — they are the
  // currency both backends trade in.

  /// Auto split policy (SplitSize): ~32 map tasks per job, never tiny.
  static constexpr size_t kDefaultTargetSplits = 32;
  static constexpr size_t kMinSplitRecords = 1024;
  /// Default shuffle merge chunk target (RunnerOptions::
  /// merge_chunk_records == 0): big enough that chunk bookkeeping is
  /// noise, small enough that a 1M-record single-partition merge still
  /// yields ~8 parallelizable chunks.
  static constexpr size_t kDefaultMergeChunkRecords = size_t{128} * 1024;

  size_t SplitSize(size_t n) const {
    if (options_.records_per_split > 0) return options_.records_per_split;
    // Thread-count-independent by design (DESIGN.md §14): the map-task
    // count is derived from the data, so the number of sorted runs the
    // shuffle merges — and with it the merge work — stays flat as
    // workers are added. (Beyond 8 workers the task count grows again
    // purely to keep every worker busy.)
    const size_t target_tasks =
        std::max<size_t>(kDefaultTargetSplits, pool_.num_threads() * 4);
    const size_t per_split = (n + target_tasks - 1) / target_tasks;
    return std::max<size_t>(kMinSplitRecords, per_split);
  }

  /// Claimant cap for the task phases (map/reduce): the attempts are
  /// CPU-bound, so claimants beyond the machine's core count add context
  /// switches without adding throughput — `--threads 8` on a 1-core box
  /// must not run slower than `--threads 1`. The straggler machinery is
  /// the deliberate exception: deadline kills and speculative copies
  /// assume a victim can sit on a lane while its replacement proceeds,
  /// so those configurations keep the full (oversubscribed) pool.
  size_t ExecWidth() const {
    if (options_.speculative_execution ||
        options_.task_deadline_seconds > 0) {
      return 0;  // uncapped
    }
    return ThreadPool::HardwareConcurrency();
  }

  /// Effective reduce-partition count: per-job override, then
  /// RunnerOptions::num_reducers, then one partition per worker.
  size_t ResolveNumReducers(size_t job_override) const {
    if (job_override > 0) return job_override;
    if (options_.num_reducers > 0) return options_.num_reducers;
    return pool_.num_threads();
  }

  /// Deterministic exponential backoff before retry number `retry`
  /// (1-based): min(base * 2^(retry-1), max). No jitter — retry timing
  /// must not introduce nondeterminism into tests. The sleep waits on
  /// the job's cancellation token, so a job that has already failed
  /// (FailureSlot::Set) wakes its sleeping workers immediately instead
  /// of holding a pool thread hostage for the full backoff.
  void SleepBackoff(size_t retry, const CancellationToken& wake) const {
    double seconds = options_.retry_backoff_seconds;
    if (seconds <= 0.0) return;
    for (size_t r = 1; r < retry; ++r) seconds *= 2.0;
    seconds = std::min(seconds, options_.retry_backoff_max_seconds);
    if (seconds > 0.0) wake.WaitFor(seconds);
  }

  bool StragglerControlEnabled() const {
    return options_.task_deadline_seconds > 0.0 ||
           options_.speculative_execution;
  }

  /// Runs one task as up to `max_attempts` attempts of `body`. Each
  /// attempt first consults the fault injector, then runs the body;
  /// exceptions from either are converted to Status so a crashing task
  /// is indistinguishable from a cleanly failing one. The body must
  /// publish side effects only through TaskContext::Commit on its
  /// success path (attempt isolation is the body's contract; the loop
  /// supplies the retry policy, the watchdog supplies deadlines and
  /// speculation).
  ///
  /// Tracing: each attempt copy is its own span on `lane` (0 = the
  /// executing thread's lane; reduce tasks pass their partition lane),
  /// a retry is stitched to the attempt it replaces with a "task-retry"
  /// flow arrow, and a speculative copy is stitched to its launch
  /// decision with a "speculative-copy" flow arrow.
  Status ExecuteTask(const std::string& job_name, TaskKind kind, size_t task,
                     JobExecState& exec, const TaskBody& body,
                     uint32_t lane = 0) {
    const size_t max_attempts = std::max<size_t>(1, options_.max_attempts);
    const CancellationToken job_token = exec.job_cancel.token();
    std::atomic<bool> commit_slot{false};
    Status last;
    uint64_t pending_flow = 0;
    for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) SleepBackoff(attempt, job_token);
      Stopwatch attempt_watch;
      Status st = RunAttemptRace(job_name, kind, task, attempt, exec, body,
                                 lane, commit_slot, pending_flow);
      if (st.ok()) {
        if (options_.speculative_execution) {
          exec.durations[static_cast<size_t>(kind)].Add(
              attempt_watch.ElapsedSeconds());
        }
        return st;
      }
      if (attempt == 0 && max_attempts > 1) {
        exec.acct.retried.fetch_add(1, std::memory_order_relaxed);
      }
      last = std::move(st);
    }
    return Status(
        last.code(),
        StringPrintf("job '%s': %s task %zu failed after %zu attempt(s): %s",
                     job_name.c_str(), TaskKindName(kind), task, max_attempts,
                     last.message().c_str()));
  }

  /// One attempt of one task, run as a race between the primary copy
  /// (inline, on the calling pool worker) and at most one speculative
  /// copy (dedicated thread, launched by the watchdog when the primary
  /// looks like a straggler). The attempt succeeds when EITHER copy
  /// succeeds; the commit slot guarantees exactly one of them
  /// published. The loser is cancelled and counted as killed, never as
  /// failed. Always joins the speculative thread before returning, so
  /// attempt-local state (the body's captures, the race object) is
  /// never touched after the attempt resolves.
  Status RunAttemptRace(const std::string& job_name, TaskKind kind,
                        size_t task, size_t attempt, JobExecState& exec,
                        const TaskBody& body, uint32_t lane,
                        std::atomic<bool>& commit_slot,
                        uint64_t& pending_flow) {
    auto primary_ctl = std::make_shared<CopyControl>();
    auto race = std::make_shared<AttemptRace>();
    Tracer& tracer = Tracer::Global();
    TaskWatchdog* watchdog =
        StragglerControlEnabled() ? &watchdog_ : nullptr;
    uint64_t entry_id = 0;
    if (watchdog != nullptr) {
      TaskWatchdog::Entry entry;
      entry.deadline_seconds = options_.task_deadline_seconds;
      entry.kill = MakeKillClosure(primary_ctl, job_name, kind, task, attempt,
                                   /*speculative=*/false, lane);
      if (options_.speculative_execution) {
        entry.stats = &exec.durations[static_cast<size_t>(kind)];
        entry.slowness_factor = options_.speculative_slowness_factor;
        entry.min_samples = options_.speculative_min_samples;
        entry.min_runtime_seconds = options_.speculative_min_runtime_seconds;
        entry.max_concurrent = std::max<size_t>(
            1, options_.max_concurrent_speculative);
        // Runs on the watchdog thread, under the watchdog mutex. Spawns
        // the speculative copy on its own thread — NEVER on the pool,
        // where it could queue behind the very straggler it bypasses.
        entry.launch = [this, race, primary_ctl, &job_name, kind, task,
                        attempt, &exec, &body, lane, &commit_slot,
                        watchdog] {
          LaunchSpeculativeCopy(race, primary_ctl, job_name, kind, task,
                                attempt, exec, body, lane, commit_slot,
                                watchdog);
        };
      }
      entry_id = watchdog->Register(std::move(entry));
    }

    CopyOutcome primary =
        RunAttemptCopy(job_name, kind, task, attempt, /*speculative=*/false,
                       primary_ctl, exec, body, lane, commit_slot,
                       &pending_flow, /*spec_flow=*/0);
    if (watchdog != nullptr) watchdog->Deregister(entry_id);

    // Resolve the race. Deregister happened first, so spec_launched is
    // stable: no new launch can occur, and any launch that did occur
    // has fully stored the thread handle (both run under the watchdog
    // mutex).
    bool spec_launched = false;
    CopyOutcome spec;
    std::shared_ptr<CopyControl> spec_ctl;
    std::thread spec_thread;
    {
      MutexLock lock(race->mu);
      spec_launched = race->spec_launched;
      if (spec_launched) {
        spec_ctl = race->spec_ctl;
        if (primary.status.ok() && !race->spec_done) {
          // Primary won; the speculative copy is the loser.
          spec_ctl->loser_killed.store(true, std::memory_order_relaxed);
          spec_ctl->cancel.Cancel();
        }
        race->cv.Wait(race->mu,
                      [&race]() P3C_REQUIRES(race->mu) {
                        return race->spec_done;
                      });
        spec = std::move(race->spec_outcome);
        spec_thread = std::move(race->spec_thread);
      }
    }
    if (spec_thread.joinable()) spec_thread.join();

    // Classify both copies for the accounting (Hadoop FAILED vs
    // KILLED): a cancelled copy was killed by the engine, anything
    // else that ended non-OK genuinely failed.
    ClassifyCopy(exec.acct, primary, *primary_ctl);
    if (spec_launched) ClassifyCopy(exec.acct, spec, *spec_ctl);

    const bool primary_ok = primary.status.ok();
    const bool spec_ok = spec_launched && spec.status.ok();
    if (primary_ok || spec_ok) return Status::OK();

    Status st = FailureStatusFor(primary, *primary_ctl);
    if (tracer.enabled()) {
      tracer.RecordInstant(
          StringPrintf("%s task %zu attempt %zu failed", TaskKindName(kind),
                       task, attempt),
          StringPrintf("{\"job\": \"%s\", \"error\": \"%s\"}",
                       JsonEscape(job_name).c_str(),
                       JsonEscape(st.message()).c_str()),
          lane);
      if (attempt + 1 < std::max<size_t>(1, options_.max_attempts)) {
        pending_flow = tracer.NextFlowId();
        tracer.RecordFlowStart(pending_flow, "task-retry", lane);
      }
    }
    return st;
  }

  /// Executes one copy of one attempt: fault injector, then body, with
  /// every exception converted to a CopyOutcome. CancelledError is the
  /// cooperative-cancellation channel and is flagged separately so the
  /// resolution can tell a killed copy from a failed one.
  CopyOutcome RunAttemptCopy(const std::string& job_name, TaskKind kind,
                             size_t task, size_t attempt, bool speculative,
                             const std::shared_ptr<CopyControl>& ctl,
                             JobExecState& exec, const TaskBody& body,
                             uint32_t lane, std::atomic<bool>& commit_slot,
                             uint64_t* pending_flow, uint64_t spec_flow) {
    exec.acct.attempts.fetch_add(1, std::memory_order_relaxed);
    if (speculative) {
      exec.acct.speculative.fetch_add(1, std::memory_order_relaxed);
    }
    if (exec.heartbeat != nullptr) {
      exec.heartbeat->live_attempts.fetch_add(1, std::memory_order_relaxed);
    }
    Tracer& tracer = Tracer::Global();
    const bool tracing = tracer.enabled();
    // Speculative copies run on their own thread and therefore on
    // their own trace lane; forcing them onto the primary's lane would
    // overlap two concurrent spans on one row.
    const uint32_t copy_lane = speculative ? 0 : lane;
    TraceSpan attempt_span(
        tracing ? StringPrintf("%s task %zu attempt %zu%s",
                               TaskKindName(kind), task, attempt,
                               speculative ? " (speculative)" : "")
                : std::string(),
        tracing ? StringPrintf("{\"job\": \"%s\"}",
                               JsonEscape(job_name).c_str())
                : std::string(),
        copy_lane);
    if (tracing && pending_flow != nullptr && *pending_flow != 0) {
      tracer.RecordFlowEnd(*pending_flow, "task-retry", copy_lane);
      *pending_flow = 0;
    }
    if (tracing && spec_flow != 0) {
      tracer.RecordFlowEnd(spec_flow, "speculative-copy", copy_lane);
    }
    TaskContext ctx;
    ctx.attempt = attempt;
    ctx.speculative = speculative;
    ctx.cancel = ctl->cancel.token();
    ctx.commit_slot = &commit_slot;
    CopyOutcome out;
    try {
      Status st;
      if (options_.fault_injector != nullptr) {
        st = options_.fault_injector->OnAttemptStart(TaskAttempt{
            job_name, kind, task, attempt, speculative, ctx.cancel});
      }
      if (st.ok()) {
        // The backend seam: the in-process executor runs `body` inline
        // right here; the process backend ships the task to a worker
        // process (falling back to `body` for phases without an
        // installed remote form — non-wire types, degraded pools).
        st = executor_->RunCopy(
            TaskAttempt{job_name, kind, task, attempt, speculative,
                        ctx.cancel},
            ctx, body);
      }
      out.status = std::move(st);
    } catch (const CancelledError&) {
      out.status = Status::Internal("task attempt cancelled");
      out.cancelled = true;
    } catch (const std::exception& e) {
      out.status =
          Status::Internal(StringPrintf("uncaught exception: %s", e.what()));
    } catch (...) {
      out.status = Status::Internal("uncaught non-standard exception");
    }
    if (exec.heartbeat != nullptr) {
      exec.heartbeat->live_attempts.fetch_sub(1, std::memory_order_relaxed);
    }
    return out;
  }

  /// Launched on the watchdog thread (under the watchdog mutex) when
  /// the primary copy looks like a straggler. Stores the speculative
  /// thread handle into the race under its mutex; the primary joins it
  /// at resolution.
  void LaunchSpeculativeCopy(const std::shared_ptr<AttemptRace>& race,
                             const std::shared_ptr<CopyControl>& primary_ctl,
                             const std::string& job_name, TaskKind kind,
                             size_t task, size_t attempt, JobExecState& exec,
                             const TaskBody& body, uint32_t lane,
                             std::atomic<bool>& commit_slot,
                             TaskWatchdog* watchdog) {
    MutexLock lock(race->mu);
    if (race->spec_launched) return;
    race->spec_launched = true;
    race->spec_ctl = std::make_shared<CopyControl>();
    std::shared_ptr<CopyControl> spec_ctl = race->spec_ctl;
    Tracer& tracer = Tracer::Global();
    uint64_t flow = 0;
    if (tracer.enabled()) {
      flow = tracer.NextFlowId();
      tracer.RecordInstant(
          StringPrintf("speculating %s task %zu attempt %zu",
                       TaskKindName(kind), task, attempt),
          StringPrintf("{\"job\": \"%s\"}", JsonEscape(job_name).c_str()),
          lane);
      tracer.RecordFlowStart(flow, "speculative-copy", lane);
    }
    race->spec_thread = std::thread([this, race, primary_ctl, spec_ctl,
                                     &job_name, kind, task, attempt, &exec,
                                     &body, lane, &commit_slot, watchdog,
                                     flow] {
      // The speculative copy gets its own deadline entry — a hung
      // speculative copy must be killable too.
      uint64_t spec_entry = 0;
      if (options_.task_deadline_seconds > 0.0) {
        TaskWatchdog::Entry entry;
        entry.deadline_seconds = options_.task_deadline_seconds;
        entry.kill = MakeKillClosure(spec_ctl, job_name, kind, task, attempt,
                                     /*speculative=*/true, /*lane=*/0);
        spec_entry = watchdog->Register(std::move(entry));
      }
      CopyOutcome out = RunAttemptCopy(job_name, kind, task, attempt,
                                       /*speculative=*/true, spec_ctl, exec,
                                       body, lane, commit_slot,
                                       /*pending_flow=*/nullptr, flow);
      if (spec_entry != 0) watchdog->Deregister(spec_entry);
      if (out.status.ok()) {
        // Speculative winner: cancel the straggling primary so the
        // pool worker unblocks. If the primary already finished, the
        // flags are set but never observed — harmless.
        primary_ctl->loser_killed.store(true, std::memory_order_relaxed);
        primary_ctl->cancel.Cancel();
      }
      {
        MutexLock inner(race->mu);
        race->spec_outcome = std::move(out);
        race->spec_done = true;
      }
      race->cv.NotifyAll();
      watchdog->OnSpeculativeFinished();
    });
  }

  /// Kill closure for the watchdog: flags the copy as deadline-killed,
  /// cancels it, and drops a trace instant at the kill decision.
  std::function<void()> MakeKillClosure(
      const std::shared_ptr<CopyControl>& ctl, std::string job_name,
      TaskKind kind, size_t task, size_t attempt, bool speculative,
      uint32_t lane) const {
    const double deadline = options_.task_deadline_seconds;
    return [ctl, job_name = std::move(job_name), kind, task, attempt,
            speculative, lane, deadline] {
      ctl->deadline_killed.store(true, std::memory_order_relaxed);
      ctl->cancel.Cancel();
      Tracer& tracer = Tracer::Global();
      if (tracer.enabled()) {
        tracer.RecordInstant(
            StringPrintf("deadline-kill %s task %zu attempt %zu%s",
                         TaskKindName(kind), task, attempt,
                         speculative ? " (speculative)" : ""),
            StringPrintf("{\"job\": \"%s\", \"deadline_seconds\": %.3f}",
                         JsonEscape(job_name).c_str(), deadline),
            lane);
      }
    };
  }

  static void ClassifyCopy(AttemptAccounting& acct, const CopyOutcome& out,
                           const CopyControl& ctl) {
    if (!out.cancelled) {
      if (!out.status.ok()) {
        acct.failures.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    acct.killed.fetch_add(1, std::memory_order_relaxed);
    if (ctl.deadline_killed.load(std::memory_order_relaxed)) {
      acct.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Failure status of a resolved attempt whose copies all failed,
  /// converting engine kills into kDeadlineExceeded (the retryable
  /// "too slow" failure class).
  Status FailureStatusFor(const CopyOutcome& primary,
                          const CopyControl& ctl) const {
    if (primary.cancelled &&
        ctl.deadline_killed.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded(
          StringPrintf("attempt exceeded the %.3fs task deadline and was "
                       "killed by the watchdog",
                       options_.task_deadline_seconds));
    }
    return primary.status;
  }

  static void StampAccounting(JobMetrics& metrics,
                              const AttemptAccounting& acct, bool succeeded) {
    metrics.task_attempts = acct.attempts.load(std::memory_order_relaxed);
    metrics.task_failures = acct.failures.load(std::memory_order_relaxed);
    metrics.retried_tasks = acct.retried.load(std::memory_order_relaxed);
    metrics.speculative_attempts =
        acct.speculative.load(std::memory_order_relaxed);
    metrics.killed_attempts = acct.killed.load(std::memory_order_relaxed);
    metrics.deadline_exceeded =
        acct.deadline_exceeded.load(std::memory_order_relaxed);
    metrics.succeeded = succeeded;
  }

  /// Failure epilogue: stamps the accounting, records the (failed) job
  /// metrics, and passes the status through. Framework counters are NOT
  /// merged — a failed job has no observable side effects, so a
  /// pipeline-level re-run starts from a clean slate (exactly-once).
  Status RecordFailure(JobMetrics& metrics, const AttemptAccounting& acct,
                       const Stopwatch& total_watch, Status status) {
    StampAccounting(metrics, acct, /*succeeded=*/false);
    metrics.total_seconds = total_watch.ElapsedSeconds();
    if (options_.metrics != nullptr) options_.metrics->Record(metrics);
    return status;
  }

  /// Success epilogue: stamps the accounting, snapshots the job's
  /// merged user counters into its JobMetrics row, and commits them to
  /// the cross-job sink in one merge.
  void FinishSucceeded(JobMetrics& metrics, const AttemptAccounting& acct,
                       const Stopwatch& total_watch, Counters& job_counters) {
    StampAccounting(metrics, acct, /*succeeded=*/true);
    metrics.total_seconds = total_watch.ElapsedSeconds();
    metrics.counters = job_counters.Snapshot();
    if (options_.metrics != nullptr) options_.metrics->Record(metrics);
    if (options_.counters != nullptr) options_.counters->Merge(job_counters);
  }

  template <typename Record, typename K, typename V>
  class VectorEmitter : public Emitter<K, V> {
   public:
    void Emit(K key, V value) override {
      // Cooperative cancellation checkpoint: a wide-emit mapper that
      // never returns to the engine's record loop is still killable.
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
  template <typename Record, typename K, typename V>
  Status MapPhase(
      const std::string& job_name, std::span<const Record> input,
      const std::function<std::unique_ptr<Mapper<Record, K, V>>()>&
          mapper_factory,
      JobMetrics* metrics, Counters* job_counters, JobExecState& exec,
      const std::function<void(size_t split,
                               std::vector<std::pair<K, V>> pairs)>&
          commit) {
    const size_t n = input.size();
    const size_t per_split = SplitSize(std::max<size_t>(1, n));
    const size_t num_splits = n == 0 ? 0 : (n + per_split - 1) / per_split;
    metrics->num_splits = num_splits;
    TraceSpan map_span(
        "map-phase",
        Tracer::Global().enabled()
            ? StringPrintf("{\"num_splits\": %zu}", num_splits)
            : std::string());

    std::vector<VectorEmitter<Record, K, V>> emitters(num_splits);
    std::atomic<uint64_t> map_output_records{0};
    FailureSlot failure(&exec.job_cancel);

    // Shared attempt computation: the inline body and the worker-
    // process child run exactly this, so the two backends cannot
    // diverge. A worker child passes a default (never-cancelling)
    // token — workers are stopped with signals, not cooperatively.
    auto compute_split = [&](size_t s, const CancellationToken& cancel) {
      const size_t begin = s * per_split;
      const size_t end = std::min(n, begin + per_split);
      std::span<const Record> split = input.subspan(begin, end - begin);
      // Fresh emitter per attempt copy: records, counters, and byte
      // accounting of a failed attempt are discarded wholesale; only
      // the winning copy's output is committed to the split slot.
      VectorEmitter<Record, K, V> out;
      out.set_cancel(cancel);
      out.Reserve(split.size());
      std::unique_ptr<Mapper<Record, K, V>> mapper = mapper_factory();
      mapper->Setup(s, split, out);
      size_t record_index = 0;
      for (const Record& record : split) {
        // Cooperative cancellation checkpoint for mappers that
        // emit rarely (the emitter checkpoint never fires).
        if ((record_index++ & 63u) == 0) cancel.ThrowIfCancelled();
        mapper->Map(record, out);
      }
      mapper->Cleanup(out);
      if (resource::MemoryTracker::Global().enabled()) {
        // Deterministic task-footprint gauge: serialized emit bytes,
        // identical for every attempt copy of this task (and for a
        // worker child, whose tracker enabled flag is inherited at
        // fork). It rides the attempt-local counters, so failed
        // attempts drop it with the attempt and the job-level merge
        // (gauge = max) is exactly-once under retry and speculation.
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
        VectorEmitter<Record, K, V> out =
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
        VectorEmitter<Record, K, V> out;
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
            VectorEmitter<Record, K, V> out = compute_split(s, ctx.cancel);
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
  /// Deadline/speculation monitor; its thread starts lazily on the
  /// first registered attempt, so runners with straggler control
  /// disabled never create it. Destroyed (and joined) after the
  /// executor, while the pool and options are still alive.
  TaskWatchdog watchdog_;
  /// Pluggable task-execution backend (executor.h); every attempt copy
  /// funnels through executor_->RunCopy. Declared last so a process
  /// backend's worker pool is torn down before anything it observes.
  std::unique_ptr<TaskExecutor> executor_;
  /// Aliases executor_ when the process backend is active (worker
  /// metrics access); null on the in-process backend.
  WorkerPoolExecutor* worker_executor_ = nullptr;
};

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_RUNNER_H_
