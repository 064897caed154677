// The non-template half of LocalRunner: executor selection, the split and
// width policies, the per-task attempt machinery (retries, deadline kills,
// speculative copies and their accounting), the heartbeat line and the
// job epilogues. runner.h keeps only the templated dataflow.

#include "src/mapreduce/runner.h"

#include <thread>

#include "src/common/logging.h"
#include "src/mapreduce/worker_backend.h"

namespace p3c::mr {

namespace {

/// Auto split policy (SplitSize): ~32 map tasks per job, never tiny.
constexpr size_t kDefaultTargetSplits = 32;
constexpr size_t kMinSplitRecords = 1024;

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

/// Deterministic exponential backoff before retry number `retry`
/// (1-based): min(base * 2^(retry-1), max). No jitter — retry timing
/// must not introduce nondeterminism into tests. The sleep waits on
/// the job's cancellation token, so a job that has already failed
/// (FailureSlot::Set) wakes its sleeping workers immediately instead
/// of holding a pool thread hostage for the full backoff.
void SleepBackoff(const RunnerOptions& options, size_t retry,
                  const CancellationToken& wake) {
  double seconds = options.retry_backoff_seconds;
  if (seconds <= 0.0) return;
  for (size_t r = 1; r < retry; ++r) seconds *= 2.0;
  seconds = std::min(seconds, options.retry_backoff_max_seconds);
  if (seconds > 0.0) wake.WaitFor(seconds);
}

/// Kill closure for the watchdog: flags the copy as deadline-killed,
/// cancels it, and drops a trace instant at the kill decision.
std::function<void()> MakeKillClosure(const std::shared_ptr<CopyControl>& ctl,
                                      std::string job_name, TaskKind kind,
                                      size_t task, size_t attempt,
                                      bool speculative, uint32_t lane,
                                      double deadline) {
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

/// Failure status of a resolved attempt whose copies all failed,
/// converting engine kills into kDeadlineExceeded (the retryable
/// "too slow" failure class).
Status FailureStatusFor(const CopyOutcome& primary, const CopyControl& ctl,
                        double deadline) {
  if (primary.cancelled &&
      ctl.deadline_killed.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded(
        StringPrintf("attempt exceeded the %.3fs task deadline and was "
                     "killed by the watchdog",
                     deadline));
  }
  return primary.status;
}

}  // namespace

// ---- Construction and policies -------------------------------------------

LocalRunner::LocalRunner(RunnerOptions options)
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

MetricBag LocalRunner::SnapshotWorkerMetrics() const {
  if (worker_executor_ == nullptr) return MetricBag();
  return worker_executor_->SnapshotMetrics();
}

size_t LocalRunner::SplitSize(size_t n) const {
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

// The attempts are CPU-bound, so claimants beyond the machine's core
// count add context switches without adding throughput — `--threads 8`
// on a 1-core box must not run slower than `--threads 1`. The straggler
// machinery is the deliberate exception: deadline kills and speculative
// copies assume a victim can sit on a lane while its replacement
// proceeds, so those configurations keep the full (oversubscribed) pool.
size_t LocalRunner::ExecWidth() const {
  if (options_.speculative_execution || options_.task_deadline_seconds > 0) {
    return 0;  // uncapped
  }
  return ThreadPool::HardwareConcurrency();
}

size_t LocalRunner::ResolveNumReducers(size_t job_override) const {
  if (job_override > 0) return job_override;
  if (options_.num_reducers > 0) return options_.num_reducers;
  return pool_.num_threads();
}

// ---- Task attempts ----------------------------------------------------------

/// Each attempt first consults the fault injector, then runs the body;
/// exceptions from either are converted to Status so a crashing task is
/// indistinguishable from a cleanly failing one. Attempt isolation is
/// the body's contract; this class supplies the retry policy, and the
/// watchdog supplies deadlines and speculation.
///
/// Tracing: each attempt copy is its own span on `lane`, a retry is
/// stitched to the attempt it replaces with a "task-retry" flow arrow,
/// and a speculative copy is stitched to its launch decision with a
/// "speculative-copy" flow arrow.
class LocalRunner::TaskAttempts {
 public:
  TaskAttempts(LocalRunner& runner, const std::string& job_name,
               TaskKind kind, size_t task, JobExecState& exec,
               const TaskBody& body, uint32_t lane)
      : runner_(runner),
        options_(runner.options_),
        job_name_(job_name),
        kind_(kind),
        task_(task),
        exec_(exec),
        body_(body),
        lane_(lane) {}

  Status Run() {
    const size_t max_attempts = std::max<size_t>(1, options_.max_attempts);
    const CancellationToken job_token = exec_.job_cancel.token();
    Status last;
    for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) SleepBackoff(options_, attempt, job_token);
      Stopwatch attempt_watch;
      Status st = RunAttemptRace(attempt);
      if (st.ok()) {
        if (options_.speculative_execution) {
          exec_.durations[static_cast<size_t>(kind_)].Add(
              attempt_watch.ElapsedSeconds());
        }
        return st;
      }
      if (attempt == 0 && max_attempts > 1) {
        exec_.acct.retried.fetch_add(1, std::memory_order_relaxed);
      }
      last = std::move(st);
    }
    return Status(
        last.code(),
        StringPrintf("job '%s': %s task %zu failed after %zu attempt(s): %s",
                     job_name_.c_str(), TaskKindName(kind_), task_,
                     max_attempts, last.message().c_str()));
  }

 private:
  bool StragglerControlEnabled() const {
    return options_.task_deadline_seconds > 0.0 ||
           options_.speculative_execution;
  }

  /// One attempt, run as a race between the primary copy (inline, on
  /// the calling pool worker) and at most one speculative copy
  /// (dedicated thread, launched by the watchdog when the primary looks
  /// like a straggler). The attempt succeeds when EITHER copy succeeds;
  /// the commit slot guarantees exactly one of them published. The
  /// loser is cancelled and counted as killed, never as failed. Always
  /// joins the speculative thread before returning, so attempt-local
  /// state (the body's captures, the race object) is never touched
  /// after the attempt resolves.
  Status RunAttemptRace(size_t attempt) {
    auto primary_ctl = std::make_shared<CopyControl>();
    auto race = std::make_shared<AttemptRace>();
    Tracer& tracer = Tracer::Global();
    TaskWatchdog* watchdog =
        StragglerControlEnabled() ? &runner_.watchdog_ : nullptr;
    uint64_t entry_id = 0;
    if (watchdog != nullptr) {
      TaskWatchdog::Entry entry;
      entry.deadline_seconds = options_.task_deadline_seconds;
      entry.kill = MakeKillClosure(primary_ctl, job_name_, kind_, task_,
                                   attempt, /*speculative=*/false, lane_,
                                   options_.task_deadline_seconds);
      if (options_.speculative_execution) {
        entry.stats = &exec_.durations[static_cast<size_t>(kind_)];
        entry.slowness_factor = options_.speculative_slowness_factor;
        entry.min_samples = options_.speculative_min_samples;
        entry.min_runtime_seconds = options_.speculative_min_runtime_seconds;
        entry.max_concurrent =
            std::max<size_t>(1, options_.max_concurrent_speculative);
        // Runs on the watchdog thread, under the watchdog mutex. Spawns
        // the speculative copy on its own thread — NEVER on the pool,
        // where it could queue behind the very straggler it bypasses.
        entry.launch = [this, race, primary_ctl, attempt, watchdog] {
          LaunchSpeculativeCopy(race, primary_ctl, attempt, watchdog);
        };
      }
      entry_id = watchdog->Register(std::move(entry));
    }

    CopyOutcome primary = RunAttemptCopy(attempt, /*speculative=*/false,
                                         *primary_ctl, /*spec_flow=*/0);
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
    ClassifyCopy(primary, *primary_ctl);
    if (spec_launched) ClassifyCopy(spec, *spec_ctl);

    const bool primary_ok = primary.status.ok();
    const bool spec_ok = spec_launched && spec.status.ok();
    if (primary_ok || spec_ok) return Status::OK();

    Status st = FailureStatusFor(primary, *primary_ctl,
                                 options_.task_deadline_seconds);
    if (tracer.enabled()) {
      tracer.RecordInstant(
          StringPrintf("%s task %zu attempt %zu failed", TaskKindName(kind_),
                       task_, attempt),
          StringPrintf("{\"job\": \"%s\", \"error\": \"%s\"}",
                       JsonEscape(job_name_).c_str(),
                       JsonEscape(st.message()).c_str()),
          lane_);
      if (attempt + 1 < std::max<size_t>(1, options_.max_attempts)) {
        pending_flow_ = tracer.NextFlowId();
        tracer.RecordFlowStart(pending_flow_, "task-retry", lane_);
      }
    }
    return st;
  }

  /// Executes one copy of one attempt: fault injector, then body, with
  /// every exception converted to a CopyOutcome. CancelledError is the
  /// cooperative-cancellation channel and is flagged separately so the
  /// resolution can tell a killed copy from a failed one.
  CopyOutcome RunAttemptCopy(size_t attempt, bool speculative,
                             const CopyControl& ctl, uint64_t spec_flow) {
    exec_.acct.attempts.fetch_add(1, std::memory_order_relaxed);
    if (speculative) {
      exec_.acct.speculative.fetch_add(1, std::memory_order_relaxed);
    }
    if (exec_.heartbeat != nullptr) {
      exec_.heartbeat->live_attempts.fetch_add(1, std::memory_order_relaxed);
    }
    Tracer& tracer = Tracer::Global();
    const bool tracing = tracer.enabled();
    // Speculative copies run on their own thread and therefore on
    // their own trace lane; forcing them onto the primary's lane would
    // overlap two concurrent spans on one row.
    const uint32_t copy_lane = speculative ? 0 : lane_;
    TraceSpan attempt_span(
        tracing ? StringPrintf("%s task %zu attempt %zu%s",
                               TaskKindName(kind_), task_, attempt,
                               speculative ? " (speculative)" : "")
                : std::string(),
        tracing ? StringPrintf("{\"job\": \"%s\"}",
                               JsonEscape(job_name_).c_str())
                : std::string(),
        copy_lane);
    // Only the primary (pool-worker) copy touches pending_flow_.
    if (tracing && !speculative && pending_flow_ != 0) {
      tracer.RecordFlowEnd(pending_flow_, "task-retry", copy_lane);
      pending_flow_ = 0;
    }
    if (tracing && spec_flow != 0) {
      tracer.RecordFlowEnd(spec_flow, "speculative-copy", copy_lane);
    }
    TaskContext ctx;
    ctx.attempt = attempt;
    ctx.speculative = speculative;
    ctx.cancel = ctl.cancel.token();
    ctx.commit_slot = &commit_slot_;
    const TaskAttempt identity{job_name_, kind_,       task_,
                               attempt,   speculative, ctx.cancel};
    CopyOutcome out;
    try {
      Status st;
      if (options_.fault_injector != nullptr) {
        st = options_.fault_injector->OnAttemptStart(identity);
      }
      if (st.ok()) {
        // The backend seam: the in-process executor runs `body_` inline
        // right here; the process backend ships the task to a worker
        // process (falling back to `body_` for phases without an
        // installed remote form — non-wire types, degraded pools).
        st = runner_.executor_->RunCopy(identity, ctx, body_);
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
    if (exec_.heartbeat != nullptr) {
      exec_.heartbeat->live_attempts.fetch_sub(1, std::memory_order_relaxed);
    }
    return out;
  }

  /// Launched on the watchdog thread (under the watchdog mutex) when
  /// the primary copy looks like a straggler. Stores the speculative
  /// thread handle into the race under its mutex; the primary joins it
  /// at resolution.
  void LaunchSpeculativeCopy(const std::shared_ptr<AttemptRace>& race,
                             const std::shared_ptr<CopyControl>& primary_ctl,
                             size_t attempt, TaskWatchdog* watchdog) {
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
                       TaskKindName(kind_), task_, attempt),
          StringPrintf("{\"job\": \"%s\"}", JsonEscape(job_name_).c_str()),
          lane_);
      tracer.RecordFlowStart(flow, "speculative-copy", lane_);
    }
    race->spec_thread = std::thread([this, race, primary_ctl, spec_ctl,
                                     attempt, watchdog, flow] {
      // The speculative copy gets its own deadline entry — a hung
      // speculative copy must be killable too.
      uint64_t spec_entry = 0;
      if (options_.task_deadline_seconds > 0.0) {
        TaskWatchdog::Entry entry;
        entry.deadline_seconds = options_.task_deadline_seconds;
        entry.kill = MakeKillClosure(spec_ctl, job_name_, kind_, task_,
                                     attempt, /*speculative=*/true,
                                     /*lane=*/0,
                                     options_.task_deadline_seconds);
        spec_entry = watchdog->Register(std::move(entry));
      }
      CopyOutcome out =
          RunAttemptCopy(attempt, /*speculative=*/true, *spec_ctl, flow);
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

  void ClassifyCopy(const CopyOutcome& out, const CopyControl& ctl) {
    AttemptAccounting& acct = exec_.acct;
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

  LocalRunner& runner_;
  const RunnerOptions& options_;
  const std::string& job_name_;
  const TaskKind kind_;
  const size_t task_;
  JobExecState& exec_;
  const TaskBody& body_;
  const uint32_t lane_;
  /// Shared by every copy of every attempt: exactly one ever commits.
  std::atomic<bool> commit_slot_{false};
  /// Flow id of the "task-retry" arrow the next primary copy ends.
  uint64_t pending_flow_ = 0;
};

Status LocalRunner::ExecuteTask(const std::string& job_name, TaskKind kind,
                                size_t task, JobExecState& exec,
                                const TaskBody& body, uint32_t lane) {
  return TaskAttempts(*this, job_name, kind, task, exec, body, lane).Run();
}

// ---- Heartbeat and epilogues --------------------------------------------

/// Progress counters, tracked per-scope bytes (when the MemoryTracker is
/// on), and sampled RSS (where /proc exists). Runs on the watchdog thread
/// under its mutex — reads relaxed atomics, formats, logs; nothing
/// blocking.
void LocalRunner::EmitHeartbeat(const HeartbeatState& state) {
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
  const resource::MemoryTracker& tracker = resource::MemoryTracker::Global();
  if (tracker.enabled()) line += " mem{" + tracker.DebugString() + "}";
  if (const auto rss = resource::MemoryTracker::SampleRss()) {
    line += StringPrintf(" rss_bytes=%lld",
                         static_cast<long long>(rss->vm_rss_bytes));
  }
  P3C_LOG(kInfo) << line;
}

void LocalRunner::RecordJob(JobMetrics& metrics, const AttemptAccounting& acct,
                            const Stopwatch& total_watch, bool succeeded) {
  metrics.task_attempts = acct.attempts.load(std::memory_order_relaxed);
  metrics.task_failures = acct.failures.load(std::memory_order_relaxed);
  metrics.retried_tasks = acct.retried.load(std::memory_order_relaxed);
  metrics.speculative_attempts =
      acct.speculative.load(std::memory_order_relaxed);
  metrics.killed_attempts = acct.killed.load(std::memory_order_relaxed);
  metrics.deadline_exceeded =
      acct.deadline_exceeded.load(std::memory_order_relaxed);
  metrics.succeeded = succeeded;
  metrics.total_seconds = total_watch.ElapsedSeconds();
  if (options_.metrics != nullptr) options_.metrics->Record(metrics);
}

Status LocalRunner::RecordFailure(JobMetrics& metrics,
                                  const AttemptAccounting& acct,
                                  const Stopwatch& total_watch,
                                  Status status) {
  RecordJob(metrics, acct, total_watch, /*succeeded=*/false);
  return status;
}

void LocalRunner::FinishSucceeded(JobMetrics& metrics,
                                  const AttemptAccounting& acct,
                                  const Stopwatch& total_watch,
                                  Counters& job_counters) {
  metrics.counters = job_counters.Snapshot();
  RecordJob(metrics, acct, total_watch, /*succeeded=*/true);
  if (options_.counters != nullptr) options_.counters->Merge(job_counters);
}

}  // namespace p3c::mr
