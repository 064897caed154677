#ifndef P3C_MAPREDUCE_WORKER_BACKEND_H_
#define P3C_MAPREDUCE_WORKER_BACKEND_H_

// Worker-process backend for LocalRunner (DESIGN.md §16): task
// attempts execute in forked worker processes, so a task that dies
// does so in a *process* — SIGKILL and all — and the engine's
// attempt-retry machinery recovers exactly as Hadoop's does when a
// task tracker vanishes.
//
// Architecture (job-scoped worker pools):
//   - When a job's map phase begins the driver forks a pool of workers
//     and keeps it for the job's reduce phase. A forked child inherits
//     the job's closures and immutable input (the split span) by
//     copy-on-write — the C++ analog of shipping the job JAR. A map
//     task's TASK frame names the split; a reduce task's carries its
//     merged shuffle partition as bytes, the way a Hadoop reducer
//     fetches its map output. Task results come back as bytes.
//   - Driver ↔ worker speak the checksummed frame protocol of wire.h
//     over two pipes. The worker runs one task at a time: TASK in,
//     RESULT (payload + counters + peak RSS) out, PING heartbeats in
//     between from a dedicated writer thread.
//   - Crash detection is real: pipe EOF + waitpid. A dead, hung
//     (heartbeat-silent), or frozen (SIGSTOP) worker is SIGKILLed and
//     respawned with capped exponential backoff; the in-flight
//     attempt fails with a descriptive Status and the normal
//     max_attempts loop re-runs it on a healthy worker.
//   - When fork itself fails the pool degrades to inline execution on
//     the driver's pool threads with one logged notice — the job
//     still completes, byte-identical, just without crash isolation.
//
// Determinism: workers compute exactly the task bodies the in-process
// backend runs, results are committed through the same exactly-once
// CAS slots, and worker observability lands in a driver-side
// MetricBag (never in job counters) — so output and counter JSON are
// byte-identical across backends, thread counts, reducer counts, and
// injected worker kills.

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/counters.h"
#include "src/common/status.h"
#include "src/mapreduce/executor.h"
#include "src/mapreduce/fault.h"

namespace p3c::mr {

/// Knobs of the worker-process backend (RunnerOptions carries them).
struct WorkerBackendOptions {
  /// Worker processes per job pool (>= 1; the pool also never forks
  /// more workers than the job's larger task phase has tasks).
  size_t num_workers = 1;
  /// A worker silent for this long (no PING, no RESULT, no HELLO) is
  /// declared hung, SIGKILLed, and respawned. Workers ping at a quarter
  /// of the interval, so a healthy worker misses ~4 pings before dying.
  double heartbeat_seconds = 10.0;
  /// Worker-kill crash points (FaultInjector::OnWorkerKill).
  FaultInjector* fault_injector = nullptr;
};

/// TaskExecutor running the installed job's tasks in forked worker
/// processes. Thread-safe for concurrent RunAttempt calls (pool workers
/// lease workers under a mutex); BeginJob/EndJob run on the job thread
/// outside the parallel loops.
class WorkerPoolExecutor final : public TaskExecutor {
 public:
  explicit WorkerPoolExecutor(WorkerBackendOptions options);
  ~WorkerPoolExecutor() override;

  const char* name() const override { return "process"; }
  void BeginJob(size_t max_tasks, JobTaskFn run) override;
  void EndJob() override;
  Status RunAttempt(const TaskAttempt& attempt, const TaskContext& ctx,
                    const TaskBody& inline_body,
                    const RemoteTask* remote) override;

  /// Driver-side worker observability: `worker.spawn_total`,
  /// `worker.respawn_total`, `worker.kill_total`,
  /// `worker.spawn_failures`, the `worker.peak_rss_bytes` gauge, and
  /// the running totals `worker.fork_seconds` (the driver's time inside
  /// fork) and `worker.shutdown_seconds` (EndJob's SHUTDOWN-to-reaped
  /// time). Every value accumulates over the executor's lifetime.
  /// Deliberately a separate bag from job counters, so backend
  /// bookkeeping never perturbs the deterministic counter JSON
  /// (same split as checkpoint resume bookkeeping, §13).
  MetricBag SnapshotMetrics() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Sends `signum` to every live worker process of this driver (the
/// CLI's SIGINT/SIGTERM forwarding path — Ctrl-C must never leave
/// orphaned workers). Returns how many workers were signalled. Safe to
/// call from any thread, but NOT from a signal handler (takes a lock);
/// the CLI calls it from its shutdown watcher thread.
size_t SignalLiveWorkers(int signum);

/// Non-blocking best-effort reap of exited worker children (waitpid
/// WNOHANG per registered pid). Returns how many were reaped. Pool
/// teardown already reaps its own workers; this is the CLI's final
/// sweep before exiting on a forwarded signal.
size_t ReapWorkers();

/// Number of currently registered live worker processes (tests).
size_t LiveWorkerCount();

/// Test hook: when set, worker spawns fail as if fork() failed, so the
/// graceful-degradation path is testable without exhausting real
/// process limits.
void SetWorkerSpawnFailureForTesting(bool fail);

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_WORKER_BACKEND_H_
