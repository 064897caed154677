#include "src/mapreduce/worker_backend.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/resource.h"
#include "src/common/string_util.h"
#include "src/common/sync.h"
#include "src/common/trace.h"
#include "src/mapreduce/wire.h"

namespace p3c::mr {
namespace {

// ---------------------------------------------------------------------------
// Process-global live-worker registry (CLI signal forwarding / reaping)
// ---------------------------------------------------------------------------

// Leaked so late reapers (CLI atexit paths) stay safe. The registry
// set below is only ever touched under this lock; it is a function-
// local static, which the capability annotations cannot name, so the
// discipline is by convention here.
Mutex& RegistryMutex() {
  static Mutex* mu = new Mutex("worker::RegistryMutex");
  return *mu;
}

std::unordered_set<pid_t>& Registry() {
  static std::unordered_set<pid_t>* pids = new std::unordered_set<pid_t>;
  return *pids;
}

void RegisterWorker(pid_t pid) {
  MutexLock lock(RegistryMutex());
  Registry().insert(pid);
}

void UnregisterWorker(pid_t pid) {
  MutexLock lock(RegistryMutex());
  Registry().erase(pid);
}

std::atomic<bool> g_force_spawn_failure{false};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Human-readable cause of a reaped child's death.
std::string DescribeExit(int wait_status) {
  if (WIFSIGNALED(wait_status)) {
    return StringPrintf("killed by signal %d", WTERMSIG(wait_status));
  }
  if (WIFEXITED(wait_status)) {
    return StringPrintf("exited with status %d", WEXITSTATUS(wait_status));
  }
  return "ended in an unknown state";
}

// ---------------------------------------------------------------------------
// Worker child
// ---------------------------------------------------------------------------

/// Main loop of a forked worker. The child is a fork of a
/// multithreaded driver, so only the forking thread survived into it;
/// it deliberately touches nothing that could depend on another
/// thread's state — no logging, no tracing, no stdio — and leaves via
/// _exit (which also skips LSan teardown under ASan). Reads TASK
/// frames from `rfd`, runs the installed phase function, writes RESULT
/// frames (and heartbeat PINGs from a dedicated thread) to `wfd`.
[[noreturn]] void WorkerChildMain(int rfd, int wfd, const PhaseTaskFn& run,
                                  double ping_seconds) {
  ::signal(SIGPIPE, SIG_IGN);
  // Deliberately unnamed: the forked child inherits the forking
  // thread's held-lock stack (SpawnLocked forks under the pool mutex),
  // and an unnamed mutex stays out of the inherited order graph.
  Mutex write_mu;
  {
    wire::HelloFrame hello;
    hello.pid = static_cast<uint64_t>(::getpid());
    const Status st = wire::WriteFrame(wfd, wire::FrameType::kHello,
                                       wire::EncodeHelloFrame(hello));
    if (!st.ok()) ::_exit(3);
  }
  std::atomic<bool> done{false};
  std::thread ping_thread([&] {
    // Sleep in small steps so SHUTDOWN never waits a full ping
    // interval for this thread to notice `done`.
    const auto step = std::chrono::milliseconds(5);
    double slept = 0.0;
    while (!done.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(step);
      slept += 0.005;
      if (slept + 1e-9 < ping_seconds) continue;
      slept = 0.0;
      MutexLock lock(write_mu);
      if (!wire::WriteFrame(wfd, wire::FrameType::kPing, "").ok()) return;
    }
  });

  wire::FrameReader reader;
  char buf[4096];
  int exit_code = 0;
  bool running = true;
  while (running) {
    auto next = reader.Next();
    if (!next.ok()) {
      exit_code = 3;  // protocol error: driver and worker disagree
      break;
    }
    if (next->has_value()) {
      wire::Frame frame = std::move(**next);
      if (frame.type == wire::FrameType::kShutdown) break;
      if (frame.type != wire::FrameType::kTask) continue;
      wire::ResultFrame result;
      auto task = wire::DecodeTaskFrame(frame.payload);
      if (!task.ok()) {
        result.status_code =
            static_cast<uint32_t>(task.status().code());
        result.message = task.status().message();
      } else {
        try {
          auto payload = run(task->task_index);
          if (payload.ok()) {
            result.payload = std::move(*payload);
          } else {
            result.status_code =
                static_cast<uint32_t>(payload.status().code());
            result.message = payload.status().message();
          }
        } catch (const std::exception& e) {
          result.status_code = static_cast<uint32_t>(StatusCode::kInternal);
          result.message =
              StringPrintf("uncaught exception in worker: %s", e.what());
        } catch (...) {
          result.status_code = static_cast<uint32_t>(StatusCode::kInternal);
          result.message = "uncaught non-standard exception in worker";
        }
      }
      if (const auto rss = resource::MemoryTracker::SampleRss()) {
        result.peak_rss_bytes = rss->vm_rss_bytes;
      }
      MutexLock lock(write_mu);
      if (!wire::WriteFrame(wfd, wire::FrameType::kResult,
                            wire::EncodeResultFrame(result))
               .ok()) {
        exit_code = 2;  // driver went away mid-result
        running = false;
      }
      continue;  // drain buffered frames before blocking in read
    }
    const ssize_t n = ::read(rfd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // driver closed its end: orphan-proof exit
    reader.Append(buf, static_cast<size_t>(n));
  }
  done.store(true, std::memory_order_relaxed);
  ping_thread.join();
  ::_exit(exit_code);
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver side
// ---------------------------------------------------------------------------

struct WorkerPoolExecutor::Impl {
  struct Slot {
    size_t index = 0;
    pid_t pid = -1;
    int to_child = -1;    ///< driver writes TASK/SHUTDOWN here
    int from_child = -1;  ///< driver reads HELLO/PING/RESULT here
    bool live = false;
    bool leased = false;
    uint64_t deaths = 0;  ///< crashes/kills in this phase (respawn count)
    uint64_t consecutive_respawns = 0;  ///< backoff driver; reset on RESULT
    wire::FrameReader reader;           ///< persists across tasks (PINGs)
  };

  explicit Impl(WorkerBackendOptions opts) : options(std::move(opts)) {}

  WorkerBackendOptions options;

  /// Guards the slot inventory and phase state. A *leased* slot's
  /// fields are exclusively the leaseholder's and are touched without
  /// `mu` (the lease flag itself only flips under `mu`).
  ///
  /// Lock order: mu → metrics_mu (Count under SpawnLocked), and
  /// mu → worker::RegistryMutex (Register/UnregisterWorker); never the
  /// reverse.
  Mutex mu{"WorkerPoolExecutor::Impl::mu"};
  CondVar free_cv;
  std::vector<Slot> slots P3C_GUARDED_BY(mu);
  bool phase_active P3C_GUARDED_BY(mu) = false;
  bool phase_remote P3C_GUARDED_BY(mu) = false;
  TaskKind phase_kind P3C_GUARDED_BY(mu) = TaskKind::kMap;
  std::string phase_job P3C_GUARDED_BY(mu);
  PhaseTaskFn run P3C_GUARDED_BY(mu);
  PhaseCommitFn commit P3C_GUARDED_BY(mu);
  /// Spawn failed: the rest of this phase executes inline.
  bool degraded P3C_GUARDED_BY(mu) = false;
  bool degraded_logged P3C_GUARDED_BY(mu) = false;

  /// Leaf lock below `mu` in the order graph.
  mutable Mutex metrics_mu{"WorkerPoolExecutor::Impl::metrics_mu"};
  MetricBag metrics P3C_GUARDED_BY(metrics_mu);

  // -- metrics helpers ------------------------------------------------------

  void Count(const char* name, uint64_t delta = 1) {
    MutexLock lock(metrics_mu);
    metrics.Increment(name, delta);
  }

  void GaugeMax(const char* name, double value) {
    MutexLock lock(metrics_mu);
    if (value > metrics.GetGauge(name)) metrics.SetGauge(name, value);
  }

  // -- tracing helpers ------------------------------------------------------

  static uint32_t SlotLane(const Slot& slot) {
    return Tracer::kWorkerLaneBase + static_cast<uint32_t>(slot.index);
  }

  static void TraceWorker(const Slot& slot, const char* what) {
    Tracer& tracer = Tracer::Global();
    if (!tracer.enabled()) return;
    tracer.NameLane(SlotLane(slot),
                    StringPrintf("worker slot %zu", slot.index));
    tracer.RecordInstant(
        what, StringPrintf("{\"pid\": %d}", static_cast<int>(slot.pid)),
        SlotLane(slot));
  }

  // -- lifecycle ------------------------------------------------------------

  /// Forks one worker for the installed phase. Called with `mu` held
  /// (the slot fd inventory must be stable while the child closes the
  /// other slots' pipes).
  Status SpawnLocked(Slot& slot) P3C_REQUIRES(mu) {
    if (g_force_spawn_failure.load(std::memory_order_relaxed)) {
      return Status::Internal("worker spawn failed (forced by test hook)");
    }
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    if (::pipe(to_child) != 0) {
      return Status::IOError(
          StringPrintf("pipe: %s", std::strerror(errno)));
    }
    if (::pipe(from_child) != 0) {
      const int saved = errno;
      ::close(to_child[0]);
      ::close(to_child[1]);
      return Status::IOError(
          StringPrintf("pipe: %s", std::strerror(saved)));
    }
    // Pipes of the other slots, closed in the child: a crashed worker's
    // EOF must not be masked by a sibling still holding its write end.
    std::vector<int> sibling_fds;
    for (const Slot& other : slots) {
      if (other.to_child >= 0) sibling_fds.push_back(other.to_child);
      if (other.from_child >= 0) sibling_fds.push_back(other.from_child);
    }
    const double ping_seconds =
        std::max(0.01, options.heartbeat_seconds / 4.0);
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int saved = errno;
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      return Status::Internal(
          StringPrintf("fork: %s", std::strerror(saved)));
    }
    if (pid == 0) {
      // Child: keep only this worker's two pipe ends.
      ::close(to_child[1]);
      ::close(from_child[0]);
      for (int fd : sibling_fds) ::close(fd);
      WorkerChildMain(to_child[0], from_child[1], run, ping_seconds);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    slot.pid = pid;
    slot.to_child = to_child[1];
    slot.from_child = from_child[0];
    slot.live = true;
    slot.reader = wire::FrameReader();
    RegisterWorker(pid);
    Count("worker.spawn_total");
    TraceWorker(slot, "worker spawn");
    return Status::OK();
  }

  /// Declares a leased worker dead: closes its pipes, reaps the child,
  /// and records why. `signum` != 0 first delivers that signal (the
  /// engine's SIGKILL paths). Caller must hold the lease, not `mu`.
  std::string ReapSlot(Slot& slot, int signum) {
    if (signum != 0 && slot.pid > 0) {
      ::kill(slot.pid, signum);
      Count("worker.kill_total");
    }
    int wait_status = 0;
    std::string cause = "already gone";
    if (slot.pid > 0) {
      pid_t reaped;
      do {
        reaped = ::waitpid(slot.pid, &wait_status, 0);
      } while (reaped < 0 && errno == EINTR);
      if (reaped == slot.pid) cause = DescribeExit(wait_status);
      UnregisterWorker(slot.pid);
    }
    if (slot.to_child >= 0) ::close(slot.to_child);
    if (slot.from_child >= 0) ::close(slot.from_child);
    slot.to_child = -1;
    slot.from_child = -1;
    slot.pid = -1;
    slot.live = false;
    slot.deaths += 1;
    return cause;
  }

  void ReleaseSlot(Slot& slot) {
    {
      MutexLock lock(mu);
      slot.leased = false;
    }
    free_cv.NotifyOne();
  }

  /// Marks the pool degraded (inline execution for the rest of the
  /// phase) after a failed spawn. One notice per pool.
  void Degrade(const Status& why) {
    bool log_it = false;
    {
      MutexLock lock(mu);
      degraded = true;
      if (!degraded_logged) {
        degraded_logged = true;
        log_it = true;
      }
    }
    Count("worker.spawn_failures");
    if (log_it) {
      P3C_LOG(kWarning)
          << "worker backend: process spawn failed (" << why.ToString()
          << "); degrading to in-process execution for this phase";
    }
  }

  // -- dispatch -------------------------------------------------------------

  /// Leases a slot, spawning (or respawning with capped exponential
  /// backoff) its worker if needed. Returns nullptr when the pool has
  /// degraded to inline execution. Throws CancelledError when `cancel`
  /// fires while waiting.
  Slot* LeaseSlot(const CancellationToken& cancel) {
    for (;;) {
      cancel.ThrowIfCancelled();
      Slot* chosen = nullptr;
      {
        MutexLock lock(mu);
        if (degraded) return nullptr;
        for (Slot& slot : slots) {
          if (slot.leased) continue;
          // Prefer a live worker over respawning a dead slot.
          if (chosen == nullptr || (!chosen->live && slot.live)) {
            chosen = &slot;
          }
        }
        if (chosen == nullptr) {
          // Predicate-looped wait: wake when a lease frees up or the
          // pool degrades. Cancellation is not signalled through
          // free_cv, so the 50ms bound re-runs the outer loop's
          // cancellation check regardless.
          free_cv.WaitFor(mu, std::chrono::milliseconds(50),
                          [this]() P3C_REQUIRES(mu) {
                            if (degraded) return true;
                            for (const Slot& slot : slots) {
                              if (!slot.leased) return true;
                            }
                            return false;
                          });
          continue;
        }
        chosen->leased = true;
      }
      if (chosen->live) return chosen;
      // Respawn path, outside `mu` (the slot is leased, so it is
      // exclusively ours), re-checking cancellation across the backoff.
      const double backoff = std::min(
          0.02 * static_cast<double>(
                     uint64_t{1} << std::min<uint64_t>(
                         chosen->consecutive_respawns, 6)),
          0.5);
      if (chosen->consecutive_respawns > 0 && backoff > 0.0 &&
          cancel.WaitFor(backoff)) {
        ReleaseSlot(*chosen);
        throw CancelledError();
      }
      chosen->consecutive_respawns += 1;
      Status st;
      {
        MutexLock lock(mu);
        st = SpawnLocked(*chosen);
      }
      if (!st.ok()) {
        Degrade(st);
        ReleaseSlot(*chosen);
        return nullptr;
      }
      Count("worker.respawn_total");
      TraceWorker(*chosen, "worker respawn");
      return chosen;
    }
  }

  /// Ships one task to a worker and waits for its RESULT, policing the
  /// heartbeat. Returns the task's serialized payload, the task's own
  /// failure Status, or an Internal status describing a worker death.
  /// kNotImplemented is the internal "pool degraded, run inline"
  /// marker. Throws CancelledError when the attempt is cancelled
  /// mid-wait (the leased worker is SIGKILLed first — it may be mid-
  /// task and nobody will collect its result).
  Result<std::string> Dispatch(const TaskAttempt& attempt,
                               const TaskContext& ctx) {
    Slot* slot = LeaseSlot(ctx.cancel);
    if (slot == nullptr) {
      return Status::NotImplemented("worker pool degraded");
    }

    const wire::TaskFrame task{static_cast<uint32_t>(attempt.kind),
                               attempt.task_index, attempt.attempt};
    Status sent = wire::WriteFrame(slot->to_child, wire::FrameType::kTask,
                                   wire::EncodeTaskFrame(task));
    if (!sent.ok()) {
      // The worker died between tasks; its pipe is broken. Reap and
      // surface as a crashed attempt so the retry loop respawns.
      const std::string cause = ReapSlot(*slot, 0);
      TraceWorker(*slot, "worker died");
      ReleaseSlot(*slot);
      return Status::Internal(StringPrintf(
          "worker for %s task %zu died before accepting the task (%s)",
          TaskKindName(attempt.kind), attempt.task_index, cause.c_str()));
    }
    TraceWorker(*slot, "task dispatched");

    // Scripted worker kills land here, after the task frame is on the
    // wire, so the worker genuinely dies (or freezes) mid-task.
    if (options.fault_injector != nullptr) {
      const int signum = options.fault_injector->OnWorkerKill(attempt);
      if (signum != 0 && slot->pid > 0) {
        ::kill(slot->pid, signum);
        Count("worker.kill_total");
        TraceWorker(*slot, signum == SIGSTOP ? "worker frozen (injected)"
                                             : "worker killed (injected)");
      }
    }

    const double silence_budget =
        options.heartbeat_seconds > 0.0 ? options.heartbeat_seconds : 10.0;
    double deadline = NowSeconds() + silence_budget;
    char buf[4096];
    for (;;) {
      // Drain every buffered frame before blocking again.
      for (;;) {
        auto next = slot->reader.Next();
        if (!next.ok()) {
          ReapSlot(*slot, SIGKILL);
          TraceWorker(*slot, "worker protocol error");
          ReleaseSlot(*slot);
          return Status::Internal(StringPrintf(
              "worker stream corrupted (%s); worker killed",
              next.status().message().c_str()));
        }
        if (!next->has_value()) break;
        const wire::Frame& frame = **next;
        deadline = NowSeconds() + silence_budget;  // any frame is liveness
        if (frame.type == wire::FrameType::kPing) continue;
        if (frame.type == wire::FrameType::kHello) {
          auto hello = wire::DecodeHelloFrame(frame.payload);
          if (!hello.ok() || hello->version != wire::kVersion) {
            ReapSlot(*slot, SIGKILL);
            ReleaseSlot(*slot);
            return Status::Internal(
                "worker handshake failed (protocol version skew)");
          }
          continue;
        }
        if (frame.type == wire::FrameType::kResult) {
          auto result = wire::DecodeResultFrame(frame.payload);
          if (!result.ok()) {
            ReapSlot(*slot, SIGKILL);
            ReleaseSlot(*slot);
            return Status::Internal(StringPrintf(
                "worker RESULT frame corrupted (%s); worker killed",
                result.status().message().c_str()));
          }
          slot->consecutive_respawns = 0;
          if (result->peak_rss_bytes > 0) {
            GaugeMax("worker.peak_rss_bytes",
                     static_cast<double>(result->peak_rss_bytes));
          }
          TraceWorker(*slot, "task result");
          ReleaseSlot(*slot);
          if (result->status_code != 0) {
            return Status(static_cast<StatusCode>(result->status_code),
                          result->message);
          }
          return std::move(result->payload);
        }
        // Unexpected frame type from a worker: ignore (forward compat).
      }

      if (ctx.cancel.cancelled()) {
        // Deadline kill: the worker may be mid-task with nobody left
        // to read its result — kill it; the slot respawns on its next
        // lease.
        ReapSlot(*slot, SIGKILL);
        TraceWorker(*slot, "worker killed (attempt cancelled)");
        ReleaseSlot(*slot);
        ctx.cancel.ThrowIfCancelled();
      }
      if (NowSeconds() > deadline) {
        Count("worker.heartbeat_timeouts");
        const std::string cause = ReapSlot(*slot, SIGKILL);
        TraceWorker(*slot, "worker killed (heartbeat timeout)");
        ReleaseSlot(*slot);
        return Status::Internal(StringPrintf(
            "worker pid went silent for %.2fs on %s task %zu and was "
            "killed (%s)",
            silence_budget, TaskKindName(attempt.kind), attempt.task_index,
            cause.c_str()));
      }

      struct pollfd pfd;
      pfd.fd = slot->from_child;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int rc = ::poll(&pfd, 1, /*timeout_ms=*/50);
      if (rc < 0 && errno != EINTR) {
        ReapSlot(*slot, SIGKILL);
        ReleaseSlot(*slot);
        return Status::IOError(
            StringPrintf("poll on worker pipe: %s", std::strerror(errno)));
      }
      if (rc <= 0) continue;
      const ssize_t n = ::read(slot->from_child, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        // EOF: the worker is dead (crashed, SIGKILLed, or exited).
        const std::string cause = ReapSlot(*slot, 0);
        TraceWorker(*slot, "worker died");
        ReleaseSlot(*slot);
        return Status::Internal(StringPrintf(
            "worker died mid-%s-task %zu (%s)", TaskKindName(attempt.kind),
            attempt.task_index, cause.c_str()));
      }
      slot->reader.Append(buf, static_cast<size_t>(n));
    }
  }

  void ShutdownAllWorkers() {
    MutexLock lock(mu);
    for (Slot& slot : slots) {
      if (!slot.live) continue;
      // Best-effort graceful shutdown; a wedged worker is killed below.
      (void)wire::WriteFrame(slot.to_child, wire::FrameType::kShutdown, "");
    }
    const double deadline = NowSeconds() + 1.0;
    for (Slot& slot : slots) {
      if (!slot.live) continue;
      bool reaped = false;
      while (NowSeconds() < deadline) {
        int wait_status = 0;
        const pid_t rc = ::waitpid(slot.pid, &wait_status, WNOHANG);
        if (rc == slot.pid || (rc < 0 && errno != EINTR)) {
          reaped = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!reaped) {
        ::kill(slot.pid, SIGKILL);
        int wait_status = 0;
        while (::waitpid(slot.pid, &wait_status, 0) < 0 && errno == EINTR) {
        }
        Count("worker.kill_total");
      }
      UnregisterWorker(slot.pid);
      if (slot.to_child >= 0) ::close(slot.to_child);
      if (slot.from_child >= 0) ::close(slot.from_child);
      slot.to_child = -1;
      slot.from_child = -1;
      slot.pid = -1;
      slot.live = false;
    }
    slots.clear();
  }
};

WorkerPoolExecutor::WorkerPoolExecutor(WorkerBackendOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  if (impl_->options.num_workers == 0) impl_->options.num_workers = 1;
  // A worker that died between tasks leaves a broken pipe behind; the
  // dispatch path handles the EPIPE as a crashed attempt, but only if
  // the default SIGPIPE disposition doesn't kill the driver first.
  ::signal(SIGPIPE, SIG_IGN);
}

WorkerPoolExecutor::~WorkerPoolExecutor() { impl_->ShutdownAllWorkers(); }

void WorkerPoolExecutor::BeginPhase(const std::string& job_name,
                                    TaskKind kind, size_t num_tasks,
                                    PhaseTaskFn run, PhaseCommitFn commit) {
  Impl& impl = *impl_;
  {
    MutexLock lock(impl.mu);
    impl.phase_active = true;
    impl.phase_kind = kind;
    impl.phase_job = job_name;
    impl.phase_remote = run != nullptr && commit != nullptr;
    impl.run = std::move(run);
    impl.commit = std::move(commit);
    impl.degraded = false;
  }
  if (!impl.phase_remote || num_tasks == 0) return;

  // Phase pool: fork now, while the phase's immutable state (input
  // span, merged partitions) is exactly what the tasks will read —
  // the children inherit it copy-on-write. Never more workers than
  // tasks.
  const size_t workers = std::min(impl.options.num_workers,
                                  std::max<size_t>(1, num_tasks));
  MutexLock lock(impl.mu);
  impl.slots.resize(workers);
  for (size_t i = 0; i < workers; ++i) {
    impl.slots[i].index = i;
    const Status st = impl.SpawnLocked(impl.slots[i]);
    if (!st.ok()) {
      impl.degraded = true;
      if (!impl.degraded_logged) {
        impl.degraded_logged = true;
        P3C_LOG(kWarning)
            << "worker backend: process spawn failed (" << st.ToString()
            << "); degrading to in-process execution for this phase";
      }
      {
        MutexLock mlock(impl.metrics_mu);
        impl.metrics.Increment("worker.spawn_failures");
      }
      break;
    }
  }
}

void WorkerPoolExecutor::EndPhase() {
  Impl& impl = *impl_;
  impl.ShutdownAllWorkers();
  MutexLock lock(impl.mu);
  impl.phase_active = false;
  impl.phase_remote = false;
  impl.run = nullptr;
  impl.commit = nullptr;
}

Status WorkerPoolExecutor::RunAttempt(const TaskAttempt& attempt,
                                      const TaskContext& ctx,
                                      const TaskBody& inline_body) {
  Impl& impl = *impl_;
  PhaseCommitFn commit;
  {
    MutexLock lock(impl.mu);
    const bool remote = impl.phase_active && impl.phase_remote &&
                        !impl.degraded && impl.phase_kind == attempt.kind &&
                        !impl.slots.empty();
    if (!remote) return inline_body(ctx);
    commit = impl.commit;
  }
  auto payload = impl.Dispatch(attempt, ctx);
  if (!payload.ok()) {
    if (payload.status().code() == StatusCode::kNotImplemented) {
      // Pool degraded mid-phase (spawn failure): inline fallback.
      return inline_body(ctx);
    }
    return payload.status();
  }
  return commit(ctx, attempt.task_index, std::move(*payload));
}

MetricBag WorkerPoolExecutor::SnapshotMetrics() const {
  MutexLock lock(impl_->metrics_mu);
  return impl_->metrics;
}

size_t SignalLiveWorkers(int signum) {
  std::vector<pid_t> pids;
  {
    MutexLock lock(RegistryMutex());
    pids.assign(Registry().begin(), Registry().end());
  }
  size_t signalled = 0;
  for (pid_t pid : pids) {
    if (::kill(pid, signum) == 0) ++signalled;
  }
  return signalled;
}

size_t ReapWorkers() {
  std::vector<pid_t> pids;
  {
    MutexLock lock(RegistryMutex());
    pids.assign(Registry().begin(), Registry().end());
  }
  size_t reaped = 0;
  for (pid_t pid : pids) {
    int wait_status = 0;
    if (::waitpid(pid, &wait_status, WNOHANG) == pid) {
      UnregisterWorker(pid);
      ++reaped;
    }
  }
  return reaped;
}

size_t LiveWorkerCount() {
  MutexLock lock(RegistryMutex());
  return Registry().size();
}

void SetWorkerSpawnFailureForTesting(bool fail) {
  g_force_spawn_failure.store(fail, std::memory_order_relaxed);
}

}  // namespace p3c::mr
