#ifndef P3C_MAPREDUCE_EXECUTOR_H_
#define P3C_MAPREDUCE_EXECUTOR_H_

// Pluggable task-execution backends for LocalRunner (DESIGN.md §16).
//
// The runner's phase drivers (map / reduce loops, attempt retry,
// deadline watchdog) are backend-agnostic: every task attempt funnels
// through TaskExecutor::RunAttempt. The in-process backend
// runs the typed task body inline on the calling pool worker — the
// zero-overhead path the engine always had. The worker-process backend
// (worker_backend.h) ships the task to a forked worker process over
// the wire protocol (wire.h) and decodes the result back, giving task
// attempts real crash isolation: a SIGKILLed worker surfaces as a
// failed attempt and the normal retry machinery re-runs the task.
//
// Job installation: when a job's map phase begins, the runner installs
// the job's *remote form* — one child-side compute function for every
// task of the job — via BeginJob (RAII: ScopedExecutorJob), and tears
// it down with EndJob once the job's reduce phase is over. Backends
// that execute remotely fork their worker pool at BeginJob and keep it
// for both task phases: a map task runs from the input the workers
// inherited at fork, a reduce task from its merged shuffle partition,
// which the driver ships in the TASK frame (a Hadoop reducer fetching
// its map output). The driver-side half of each task's remote form —
// its input bytes and the decode+commit of its result — rides along
// with every attempt (RemoteTask). The in-process backend ignores
// both. Tasks without a remote form (jobs with non-wire-serializable
// types) always run inline, on every backend.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/mapreduce/fault.h"

namespace p3c::mr {

/// Which task-execution backend a runner uses.
enum class Backend {
  kInProcess = 0,  ///< task bodies run on the driver's pool threads
  kProcess = 1,    ///< task bodies run in forked worker processes
};

inline const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kInProcess:
      return "inprocess";
    case Backend::kProcess:
      return "process";
  }
  return "unknown";
}

/// Parses the CLI spelling ("inprocess" | "process"); kInvalidArgument
/// on anything else.
inline Result<Backend> ParseBackend(const std::string& name) {
  if (name == "inprocess") return Backend::kInProcess;
  if (name == "process") return Backend::kProcess;
  return Status::InvalidArgument("unknown backend '" + name +
                                 "' (expected inprocess|process)");
}

/// Per-attempt view handed to task bodies. Bodies must (a) poll
/// `cancel` in their long loops (emit / per-record / per-group) and
/// surface it via ThrowIfCancelled, and (b) publish their side effects
/// only through Commit. The CAS commit slot is shared by all attempts
/// of one task, so at most one attempt ever publishes: a body that
/// fails after its Commit (throws, returns an error, or is cancelled)
/// is retried, and the retry's result is discarded here instead of
/// being published twice.
struct TaskContext {
  size_t attempt = 0;
  CancellationToken cancel{};
  std::atomic<bool>* commit_slot = nullptr;

  template <typename Fn>
  bool Commit(Fn&& fn) const {
    bool expected = false;
    if (commit_slot == nullptr ||
        commit_slot->compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      std::forward<Fn>(fn)();
      return true;
    }
    return false;
  }
};

/// In-memory body of one task attempt (the engine's native form).
using TaskBody = std::function<Status(const TaskContext&)>;

/// Child-side compute of one task of the installed job: runs task
/// `task_index` of `kind` from the job's immutable state and `input`,
/// the bytes its TASK frame carried (empty for a map task, the encoded
/// shuffle partition for a reduce task), and returns the serialized
/// result payload. Executes inside a worker process — it must not touch
/// driver-side mutable state, and it has no cancellation token (a
/// worker is stopped with a signal, not cooperatively).
using JobTaskFn = std::function<Result<std::string>(
    TaskKind kind, uint64_t task_index, std::string_view input)>;

/// Driver-side half of the remote form of one task phase's tasks.
struct RemoteTask {
  /// The TASK frame's input bytes for `task_index`; null means none.
  std::function<std::string(uint64_t task_index)> input;
  /// Decode+commit of a payload JobTaskFn produced for `task_index`.
  /// Publishes through ctx.Commit so remote results ride the same
  /// exactly-once CAS slot as inline bodies.
  std::function<Status(const TaskContext& ctx, uint64_t task_index,
                       std::string payload)>
      commit;
};

/// Backend interface. One executor belongs to one LocalRunner; RunAttempt
/// is called concurrently from pool workers, BeginJob/EndJob only from
/// the job thread, outside the parallel loops.
class TaskExecutor {
 public:
  virtual ~TaskExecutor() = default;

  virtual const char* name() const = 0;

  /// Installs the remote form of the next job, whose task phases have
  /// at most `max_tasks` tasks each. `run` is null when no task of the
  /// job can cross the process boundary — the job then runs inline on
  /// every backend.
  virtual void BeginJob(size_t max_tasks, JobTaskFn run) = 0;

  /// Tears the installed job down (process backends stop their worker
  /// pool here). Paired with every BeginJob.
  virtual void EndJob() = 0;

  /// Runs `attempt` once and publishes its result through `ctx`.
  /// `inline_body` is always available as the native in-memory
  /// execution of this attempt; backends without a usable remote path
  /// for this task (`remote` null, or no pool) must fall back to it.
  virtual Status RunAttempt(const TaskAttempt& attempt,
                            const TaskContext& ctx,
                            const TaskBody& inline_body,
                            const RemoteTask* remote) = 0;
};

/// The engine's native backend: every attempt runs its typed body inline
/// on the calling thread. BeginJob/EndJob are no-ops.
class InProcessExecutor final : public TaskExecutor {
 public:
  const char* name() const override { return "inprocess"; }
  void BeginJob(size_t, JobTaskFn) override {}
  void EndJob() override {}
  Status RunAttempt(const TaskAttempt&, const TaskContext& ctx,
                    const TaskBody& inline_body,
                    const RemoteTask*) override {
    return inline_body(ctx);
  }
};

/// RAII BeginJob/EndJob pairing for the runner's job drivers.
class ScopedExecutorJob {
 public:
  ScopedExecutorJob(TaskExecutor* executor, size_t max_tasks, JobTaskFn run)
      : executor_(executor) {
    executor_->BeginJob(max_tasks, std::move(run));
  }
  ~ScopedExecutorJob() { executor_->EndJob(); }

  ScopedExecutorJob(const ScopedExecutorJob&) = delete;
  ScopedExecutorJob& operator=(const ScopedExecutorJob&) = delete;

 private:
  TaskExecutor* executor_;
};

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_EXECUTOR_H_
