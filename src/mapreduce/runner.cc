// The non-template half of LocalRunner: executor selection, the split and
// width policies, the per-task attempt machinery (retries, deadline kills
// and their accounting), the heartbeat line and the job epilogues.
// runner.h keeps only the templated dataflow.

#include "src/mapreduce/runner.h"

#include <optional>

#include "src/common/logging.h"
#include "src/mapreduce/worker_backend.h"

namespace p3c::mr {

namespace {

/// Auto split policy (SplitSize): ~32 map tasks per job, never tiny.
constexpr size_t kDefaultTargetSplits = 32;
constexpr size_t kMinSplitRecords = 1024;

/// Cancellation of one task attempt. The watchdog sets
/// `deadline_killed` before cancelling, so the attempt can tell a
/// deadline kill from any other cancellation.
struct AttemptControl {
  CancellationSource cancel;
  std::atomic<bool> deadline_killed{false};
};

/// How one attempt ended: its status, and whether it ended by
/// cooperative cancellation (CancelledError) rather than on its own.
struct AttemptOutcome {
  Status status;
  bool cancelled = false;
};

/// Keeps one attempt registered with the watchdog for its lifetime.
/// Deregistering in the destructor means the kill closure never runs
/// after the attempt's AttemptControl dies, even when an exception
/// unwinds the attempt.
class DeadlineRegistration {
 public:
  DeadlineRegistration(TaskWatchdog& watchdog, TaskWatchdog::Entry entry)
      : watchdog_(watchdog), id_(watchdog.Register(std::move(entry))) {}
  ~DeadlineRegistration() { watchdog_.Deregister(id_); }

  DeadlineRegistration(const DeadlineRegistration&) = delete;
  DeadlineRegistration& operator=(const DeadlineRegistration&) = delete;

 private:
  TaskWatchdog& watchdog_;
  const uint64_t id_;
};

/// Kill closure for the watchdog: flags the attempt as deadline-killed,
/// cancels it, and drops a trace instant at the kill decision. The
/// watchdog never runs it after Deregister, so `ctl` outlives every
/// call.
std::function<void()> MakeKillClosure(AttemptControl* ctl,
                                      std::string job_name, TaskKind kind,
                                      size_t task, size_t attempt,
                                      uint32_t lane, double deadline) {
  return [ctl, job_name = std::move(job_name), kind, task, attempt, lane,
          deadline] {
    ctl->deadline_killed.store(true, std::memory_order_relaxed);
    ctl->cancel.Cancel();
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled()) {
      tracer.RecordInstant(
          StringPrintf("deadline-kill %s task %zu attempt %zu",
                       TaskKindName(kind), task, attempt),
          StringPrintf("{\"job\": \"%s\", \"deadline_seconds\": %.3f}",
                       JsonEscape(job_name).c_str(), deadline),
          lane);
    }
  };
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
// on a 1-core box must not run slower than `--threads 1`. Task deadlines
// are the deliberate exception: a deadline kill assumes a hung attempt
// can sit on a lane while other tasks proceed, so an armed deadline keeps
// the full (oversubscribed) pool.
size_t LocalRunner::ExecWidth() const {
  if (options_.task_deadline_seconds > 0) return 0;  // uncapped
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
/// watchdog supplies deadlines.
///
/// Tracing: each attempt is its own span on `lane`, and a retry is
/// stitched to the attempt it replaces with a "task-retry" flow arrow.
class LocalRunner::TaskAttempts {
 public:
  TaskAttempts(LocalRunner& runner, const std::string& job_name,
               TaskKind kind, size_t task, JobExecState& exec,
               const TaskBody& body, const RemoteTask* remote, uint32_t lane)
      : runner_(runner),
        options_(runner.options_),
        job_name_(job_name),
        kind_(kind),
        task_(task),
        exec_(exec),
        body_(body),
        remote_(remote),
        lane_(lane) {}

  Status Run() {
    const size_t max_attempts = std::max<size_t>(1, options_.max_attempts);
    Status last;
    for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
      Status st = RunAttempt(attempt);
      if (st.ok()) return st;
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
  /// One attempt: register a deadline entry (when armed), run the body,
  /// deregister, and classify the attempt as ok, failed (Hadoop FAILED)
  /// or killed (Hadoop KILLED). A deadline kill fails the attempt with
  /// kDeadlineExceeded, the retryable "too slow" failure class.
  Status RunAttempt(size_t attempt) {
    const double deadline = options_.task_deadline_seconds;
    AttemptControl ctl;
    std::optional<DeadlineRegistration> registration;
    if (deadline > 0.0) {
      TaskWatchdog::Entry entry;
      entry.deadline_seconds = deadline;
      entry.kill = MakeKillClosure(&ctl, job_name_, kind_, task_, attempt,
                                   lane_, deadline);
      registration.emplace(runner_.watchdog_, std::move(entry));
    }
    AttemptOutcome out = RunBody(attempt, ctl);
    // Deregistered first, so the flag the kill closure sets is stable.
    registration.reset();
    const bool deadline_killed =
        out.cancelled && ctl.deadline_killed.load(std::memory_order_relaxed);

    AttemptAccounting& acct = exec_.acct;
    if (out.cancelled) {
      acct.killed.fetch_add(1, std::memory_order_relaxed);
      if (deadline_killed) {
        acct.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (!out.status.ok()) {
      acct.failures.fetch_add(1, std::memory_order_relaxed);
    }
    if (out.status.ok()) return Status::OK();

    Status st = deadline_killed
                    ? Status::DeadlineExceeded(StringPrintf(
                          "attempt exceeded the %.3fs task deadline and was "
                          "killed by the watchdog",
                          deadline))
                    : std::move(out.status);
    Tracer& tracer = Tracer::Global();
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

  /// Executes one attempt: fault injector, then body, with every
  /// exception converted to an AttemptOutcome. CancelledError is the
  /// cooperative-cancellation channel and is flagged separately so the
  /// attempt can tell a killed body from a failed one; a StatusError
  /// fails the attempt with the Status it carries.
  AttemptOutcome RunBody(size_t attempt, const AttemptControl& ctl) {
    exec_.acct.attempts.fetch_add(1, std::memory_order_relaxed);
    if (exec_.heartbeat != nullptr) {
      exec_.heartbeat->live_attempts.fetch_add(1, std::memory_order_relaxed);
    }
    Tracer& tracer = Tracer::Global();
    const bool tracing = tracer.enabled();
    TraceSpan attempt_span(
        tracing ? StringPrintf("%s task %zu attempt %zu", TaskKindName(kind_),
                               task_, attempt)
                : std::string(),
        tracing ? StringPrintf("{\"job\": \"%s\"}",
                               JsonEscape(job_name_).c_str())
                : std::string(),
        lane_);
    if (tracing && pending_flow_ != 0) {
      tracer.RecordFlowEnd(pending_flow_, "task-retry", lane_);
      pending_flow_ = 0;
    }
    TaskContext ctx;
    ctx.attempt = attempt;
    ctx.cancel = ctl.cancel.token();
    ctx.commit_slot = &commit_slot_;
    const TaskAttempt identity{job_name_, kind_, task_, attempt, ctx.cancel};
    AttemptOutcome out;
    try {
      Status st;
      if (options_.fault_injector != nullptr) {
        st = options_.fault_injector->OnAttemptStart(identity);
      }
      if (st.ok()) {
        // The backend seam: the in-process executor runs `body_` inline
        // right here; the process backend ships the task to a worker
        // process (falling back to `body_` for tasks without a remote
        // form — non-wire types, degraded pools).
        st = runner_.executor_->RunAttempt(identity, ctx, body_, remote_);
      }
      out.status = std::move(st);
    } catch (const CancelledError&) {
      out.status = Status::Internal("task attempt cancelled");
      out.cancelled = true;
    } catch (const StatusError& e) {
      out.status = e.status();
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

  LocalRunner& runner_;
  const RunnerOptions& options_;
  const std::string& job_name_;
  const TaskKind kind_;
  const size_t task_;
  JobExecState& exec_;
  const TaskBody& body_;
  const RemoteTask* const remote_;
  const uint32_t lane_;
  /// Shared by every attempt of the task: at most one ever commits.
  std::atomic<bool> commit_slot_{false};
  /// Flow id of the "task-retry" arrow the next attempt ends.
  uint64_t pending_flow_ = 0;
};

Status LocalRunner::ExecuteTask(const std::string& job_name, TaskKind kind,
                                size_t task, JobExecState& exec,
                                const TaskBody& body,
                                const RemoteTask* remote, uint32_t lane) {
  return TaskAttempts(*this, job_name, kind, task, exec, body, remote, lane)
      .Run();
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
  metrics.counters.Clear();
  RecordJob(metrics, acct, total_watch, /*succeeded=*/false);
  return status;
}

}  // namespace p3c::mr
