#ifndef P3C_MAPREDUCE_EXECUTOR_H_
#define P3C_MAPREDUCE_EXECUTOR_H_

// Pluggable task-execution backends for LocalRunner (DESIGN.md §16).
//
// The runner's phase drivers (map / reduce loops, attempt
// retry, speculation, watchdog) are backend-agnostic: every attempt
// copy funnels through TaskExecutor::RunCopy. The in-process backend
// runs the typed task body inline on the calling pool worker — the
// zero-overhead path the engine always had. The worker-process backend
// (worker_backend.h) ships the task to a forked worker process over
// the wire protocol (wire.h) and decodes the result back, giving task
// attempts real crash isolation: a SIGKILLed worker surfaces as a
// failed attempt and the normal retry machinery re-runs the task.
//
// Phase installation: before a phase's parallel loop starts, the
// runner installs the phase's *remote form* — a child-side compute
// function returning serialized bytes, and a driver-side decode+commit
// function — via BeginPhase (RAII: ScopedExecutorPhase). Backends that
// execute remotely fork their phase pool here; the in-process backend
// ignores it. Phases without an installed remote form (jobs with
// non-wire-serializable types) always run inline, on every backend.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
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

/// Per-copy view handed to task bodies. Bodies must (a) poll `cancel`
/// in their long loops (emit / per-record / per-group) and surface it
/// via ThrowIfCancelled, and (b) publish their side effects only
/// through Commit. The CAS commit slot is shared by all copies of all
/// attempts of one task, so exactly one copy ever commits — racing
/// copies compute identical results from the same immutable input,
/// and whichever loses the CAS simply discards its (identical) work.
struct TaskContext {
  size_t attempt = 0;
  bool speculative = false;
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

/// In-memory body of one attempt copy (the engine's native form).
using TaskBody = std::function<Status(const TaskContext&)>;

/// Child-side compute of one task of the installed phase: runs the
/// task from the phase's immutable input and returns the serialized
/// result payload. Executes inside a worker process — it must not
/// touch driver-side mutable state, and it has no cancellation token
/// (a worker is stopped with a signal, not cooperatively).
using PhaseTaskFn = std::function<Result<std::string>(uint64_t task_index)>;

/// Driver-side decode+commit of a payload produced by PhaseTaskFn for
/// `task_index`. Publishes through ctx.Commit so remote results ride
/// the same exactly-once CAS slot as inline bodies.
using PhaseCommitFn = std::function<Status(
    const TaskContext& ctx, uint64_t task_index, std::string payload)>;

/// Backend interface. One executor belongs to one LocalRunner; RunCopy
/// is called concurrently from pool workers (and speculative-copy
/// threads), BeginPhase/EndPhase only from the job thread between
/// parallel loops.
class TaskExecutor {
 public:
  virtual ~TaskExecutor() = default;

  virtual const char* name() const = 0;

  /// Installs the remote form of the next task phase. `run`/`commit`
  /// may be null when the phase's types cannot cross the process
  /// boundary — the phase then runs inline on every backend.
  virtual void BeginPhase(const std::string& job_name, TaskKind kind,
                          size_t num_tasks, PhaseTaskFn run,
                          PhaseCommitFn commit) = 0;

  /// Tears the installed phase down (process backends stop their
  /// worker pool here). Paired with every BeginPhase.
  virtual void EndPhase() = 0;

  /// Runs one attempt copy of `attempt` and publishes its result
  /// through `ctx`. `inline_body` is always available as the native
  /// in-memory execution of this copy; backends without a usable
  /// remote path for this task must fall back to it.
  virtual Status RunCopy(const TaskAttempt& attempt, const TaskContext& ctx,
                         const TaskBody& inline_body) = 0;
};

/// The engine's native backend: every copy runs its typed body inline
/// on the calling thread. BeginPhase/EndPhase are no-ops.
class InProcessExecutor final : public TaskExecutor {
 public:
  const char* name() const override { return "inprocess"; }
  void BeginPhase(const std::string&, TaskKind, size_t, PhaseTaskFn,
                  PhaseCommitFn) override {}
  void EndPhase() override {}
  Status RunCopy(const TaskAttempt&, const TaskContext& ctx,
                 const TaskBody& inline_body) override {
    return inline_body(ctx);
  }
};

/// RAII BeginPhase/EndPhase pairing for the runner's phase drivers.
class ScopedExecutorPhase {
 public:
  ScopedExecutorPhase(TaskExecutor* executor, const std::string& job_name,
                      TaskKind kind, size_t num_tasks, PhaseTaskFn run,
                      PhaseCommitFn commit)
      : executor_(executor) {
    executor_->BeginPhase(job_name, kind, num_tasks, std::move(run),
                          std::move(commit));
  }
  ~ScopedExecutorPhase() { executor_->EndPhase(); }

  ScopedExecutorPhase(const ScopedExecutorPhase&) = delete;
  ScopedExecutorPhase& operator=(const ScopedExecutorPhase&) = delete;

 private:
  TaskExecutor* executor_;
};

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_EXECUTOR_H_
