#include "src/mapreduce/worker_backend.h"

#include <errno.h>
#include <fcntl.h>
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
#include "src/common/stopwatch.h"
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

// The fork lock. Process-global, because a fork copies every fd of the
// process: each child closes the driver-side pipe ends of every live
// worker, of every executor, so that a crashed worker's EOF is never
// masked by a sibling holding its write end. The set of those ends must
// therefore not change while a fork runs, and a fd number must not be
// closed (and reused, say by the input file) after a child listed it.
// So every pipe creation, fork, and assignment or close of a
// driver-side pipe end happens under this lock.
//
// Lock order: WorkerPoolExecutor::Impl::mu → ForkMutex, and ForkMutex →
// worker::RegistryMutex and → metrics_mu (Register, Count under Spawn);
// never the reverse. A namespace-scope object (not a leaked function-
// local static like the registry's), so the capability annotations can
// name it.
Mutex g_fork_mu{"worker::ForkMutex"};

/// The driver-side pipe ends of every live worker of this process.
std::vector<int> g_driver_fds P3C_GUARDED_BY(g_fork_mu);

/// Closes a driver-side pipe end and drops it from g_driver_fds.
void CloseDriverFd(int fd) P3C_REQUIRES(g_fork_mu) {
  if (fd < 0) return;
  std::erase(g_driver_fds, fd);
  ::close(fd);
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
/// frames from `rfd`, runs the installed job function, writes RESULT
/// frames (and heartbeat PINGs from a dedicated thread) to `wfd`.
[[noreturn]] void WorkerChildMain(int rfd, int wfd, const JobTaskFn& run,
                                  double ping_seconds) {
  ::signal(SIGPIPE, SIG_IGN);
  // Deliberately unnamed: the forked child inherits the forking
  // thread's held-lock stack (Spawn forks under the fork lock),
  // and an unnamed mutex stays out of the inherited order graph.
  Mutex write_mu;
  {
    wire::HelloFrame hello;
    hello.pid = static_cast<uint64_t>(::getpid());
    const Status st = wire::WriteFrame(wfd, wire::FrameType::kHello,
                                       wire::EncodeHelloFrame(hello));
    if (!st.ok()) ::_exit(3);
  }
  // The ping thread waits out each interval on `done_cv`, so SHUTDOWN
  // wakes it at once instead of after the rest of an interval.
  Mutex done_mu;
  CondVar done_cv;
  bool done = false;
  std::thread ping_thread([&] {
    const std::chrono::duration<double> interval(ping_seconds);
    for (;;) {
      {
        MutexLock lock(done_mu);
        if (done_cv.WaitFor(done_mu, interval, [&] { return done; })) return;
      }
      MutexLock lock(write_mu);
      if (!wire::WriteFrame(wfd, wire::FrameType::kPing, "").ok()) return;
    }
  });

  wire::FrameReader reader;
  // Reduce TASK frames carry whole partitions: read in pipe-sized gulps.
  char buf[1 << 16];
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
      auto task = wire::DecodeTaskFrame(std::move(frame.payload));
      if (task.ok() && task->kind > static_cast<uint32_t>(TaskKind::kReduce)) {
        task = Status::IOError(
            StringPrintf("TASK frame: unknown task kind %u", task->kind));
      }
      if (!task.ok()) {
        result.status_code =
            static_cast<uint32_t>(task.status().code());
        result.message = task.status().message();
      } else {
        try {
          auto payload = run(static_cast<TaskKind>(task->kind),
                             task->task_index, task->input);
          if (payload.ok()) {
            result.payload = std::move(*payload);
          } else {
            result.status_code =
                static_cast<uint32_t>(payload.status().code());
            result.message = payload.status().message();
          }
        } catch (const StatusError& e) {
          result.status_code = static_cast<uint32_t>(e.status().code());
          result.message = e.status().message();
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
                            {wire::EncodeResultFrameHead(result),
                             result.payload})
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
  {
    MutexLock lock(done_mu);
    done = true;
  }
  done_cv.NotifyAll();
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
    /// The driver's pipe ends. Assigned and closed only under the fork
    /// lock, by the slot's leaseholder or, with no lease out, by the job
    /// thread; the leaseholder reads its own through ToChild/FromChild.
    int to_child P3C_GUARDED_BY(g_fork_mu) = -1;    ///< TASK/SHUTDOWN
    int from_child P3C_GUARDED_BY(g_fork_mu) = -1;  ///< HELLO/PING/RESULT
    bool forked = false;  ///< a worker was forked for it in this job
    bool live = false;
    bool leased = false;
    uint64_t consecutive_respawns = 0;  ///< backoff driver; reset on RESULT
    wire::FrameReader reader;           ///< persists across tasks (PINGs)
  };

  /// A worker of an ended job: SHUTDOWN sent, pipes closed, not reaped.
  struct Retiree {
    pid_t pid = -1;
    double deadline = 0.0;  ///< SIGKILLed if still running past it
    bool killed = false;
  };

  explicit Impl(WorkerBackendOptions opts) : options(std::move(opts)) {}

  WorkerBackendOptions options;

  /// Guards the slot inventory and job state. A *leased* slot's
  /// fields are exclusively the leaseholder's and are touched without
  /// `mu` (the lease flag itself only flips under `mu`).
  ///
  /// Lock order: mu → worker::ForkMutex → {metrics_mu,
  /// worker::RegistryMutex}, and mu → metrics_mu, mu →
  /// worker::RegistryMutex; never the reverse.
  Mutex mu{"WorkerPoolExecutor::Impl::mu"};
  CondVar free_cv;
  std::vector<Slot> slots P3C_GUARDED_BY(mu);
  /// Workers of ended jobs, registered until reaped
  /// (ReapRetireesLocked).
  std::vector<Retiree> retirees P3C_GUARDED_BY(mu);
  /// Set between BeginJob and EndJob for a job with a remote form.
  bool job_remote P3C_GUARDED_BY(mu) = false;
  JobTaskFn run P3C_GUARDED_BY(mu);
  /// Spawn failed: the rest of this job executes inline.
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

  /// Adds `seconds` to a running-total gauge.
  void AddSeconds(const char* name, double seconds) {
    MutexLock lock(metrics_mu);
    metrics.SetGauge(name, metrics.GetGauge(name) + seconds);
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

  // -- pipe ends ------------------------------------------------------------

  // The leaseholder's reads of its own slot's pipe ends. Only the
  // leaseholder assigns or closes them while the lease is out, so its
  // reads cannot race; the analysis cannot see a lease.
  static int ToChild(const Slot& slot) P3C_NO_THREAD_SAFETY_ANALYSIS {
    return slot.to_child;
  }
  static int FromChild(const Slot& slot) P3C_NO_THREAD_SAFETY_ANALYSIS {
    return slot.from_child;
  }

  static void ClosePipes(Slot& slot) P3C_REQUIRES(g_fork_mu) {
    CloseDriverFd(slot.to_child);
    CloseDriverFd(slot.from_child);
    slot.to_child = -1;
    slot.from_child = -1;
  }

  // -- lifecycle ------------------------------------------------------------

  /// Forks one worker for `job` into `slot`, which the caller owns: its
  /// leaseholder, on a pool thread outside `mu`, so the other
  /// leaseholders keep running their tasks; or BeginJob, with no lease
  /// out. Runs under the fork lock.
  Status Spawn(Slot& slot, const JobTaskFn& job) P3C_EXCLUDES(g_fork_mu) {
    if (g_force_spawn_failure.load(std::memory_order_relaxed)) {
      return Status::Internal("worker spawn failed (forced by test hook)");
    }
    const double ping_seconds =
        std::max(0.01, options.heartbeat_seconds / 4.0);
    MutexLock fork_lock(g_fork_mu);
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
    const Stopwatch fork_watch;
    pid_t pid = -1;
    {
      TraceSpan span("worker:fork",
                     Tracer::Global().enabled()
                         ? StringPrintf("{\"slot\": %zu}", slot.index)
                         : std::string());
      pid = ::fork();
      if (pid == 0) {
        // Child: keep only this worker's two pipe ends. Never returns,
        // so the span's end is recorded by the driver alone.
        ::close(to_child[1]);
        ::close(from_child[0]);
        for (int fd : g_driver_fds) ::close(fd);
        WorkerChildMain(to_child[0], from_child[1], job, ping_seconds);
      }
    }
    AddSeconds("worker.fork_seconds", fork_watch.ElapsedSeconds());
    if (pid < 0) {
      const int saved = errno;
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      return Status::Internal(
          StringPrintf("fork: %s", std::strerror(saved)));
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    // The driver's write end never blocks: Dispatch writes a TASK frame
    // as the worker reads it, under the attempt's heartbeat deadline.
    ::fcntl(to_child[1], F_SETFL, ::fcntl(to_child[1], F_GETFL) | O_NONBLOCK);
    g_driver_fds.push_back(to_child[1]);
    g_driver_fds.push_back(from_child[0]);
    slot.to_child = to_child[1];
    slot.from_child = from_child[0];
    slot.pid = pid;
    slot.forked = true;
    slot.live = true;
    slot.reader = wire::FrameReader();
    RegisterWorker(pid);
    Count("worker.spawn_total");
    return Status::OK();
  }

  /// Declares a leased worker dead: reaps the child, closes its pipes,
  /// and records why. `signum` != 0 first delivers that signal (the
  /// engine's SIGKILL paths). Caller must hold the lease, not `mu`.
  std::string ReapSlot(Slot& slot, int signum) P3C_EXCLUDES(g_fork_mu) {
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
    {
      MutexLock fork_lock(g_fork_mu);
      ClosePipes(slot);
    }
    slot.pid = -1;
    slot.live = false;
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
  /// job) after a failed spawn. One notice per pool.
  void DegradeLocked(const Status& why) P3C_REQUIRES(mu) {
    degraded = true;
    Count("worker.spawn_failures");
    if (!degraded_logged) {
      degraded_logged = true;
      P3C_LOG(kWarning)
          << "worker backend: process spawn failed (" << why.ToString()
          << "); degrading to in-process execution for this job";
    }
  }

  /// Retires the installed job's pool without waiting for it: SHUTDOWN
  /// to every live worker, the driver's pipe ends closed, and the
  /// workers moved to `retirees` with a 1 s deadline. A retiree runs no
  /// task, but stays registered, so SignalLiveWorkers still reaches it.
  /// Called with no lease out.
  void RetireSlotsLocked() P3C_REQUIRES(mu) {
    const double deadline = NowSeconds() + 1.0;
    MutexLock fork_lock(g_fork_mu);
    for (Slot& slot : slots) {
      if (!slot.live) continue;
      // Best-effort: a worker also exits on its pipe's EOF, and one that
      // does neither (wedged, or SIGSTOPped) is killed at its deadline.
      (void)wire::WriteFrame(slot.to_child, wire::FrameType::kShutdown, "");
      ClosePipes(slot);
      retirees.push_back({slot.pid, deadline});
    }
    slots.clear();
  }

  /// Reaps the retirees that have exited (waitpid WNOHANG) and SIGKILLs
  /// each one still running past its deadline, once, counting it in
  /// `worker.kill_total`. With `wait`, returns only once all are reaped.
  void ReapRetireesLocked(bool wait) P3C_REQUIRES(mu) {
    for (;;) {
      const double now = NowSeconds();
      std::erase_if(retirees, [&](Retiree& retiree) {
        int wait_status = 0;
        const pid_t reaped = ::waitpid(retiree.pid, &wait_status, WNOHANG);
        if (reaped == 0 || (reaped < 0 && errno == EINTR)) {
          if (!retiree.killed && now >= retiree.deadline) {
            ::kill(retiree.pid, SIGKILL);
            Count("worker.kill_total");
            retiree.killed = true;
          }
          return false;
        }
        // Reaped here, or already by ReapWorkers (ECHILD).
        UnregisterWorker(retiree.pid);
        return true;
      });
      if (!wait || retirees.empty()) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // -- dispatch -------------------------------------------------------------

  /// Lease preference: a slot not yet forked in this job, so that the
  /// job's first leases each fork their own worker; then a live worker;
  /// then a dead slot to respawn.
  static int LeaseRank(const Slot& slot) {
    return !slot.forked ? 0 : slot.live ? 1 : 2;
  }

  /// Leases a slot, forking its worker on first use and respawning it
  /// (with capped exponential backoff) after a death. Returns nullptr
  /// when the pool has degraded to inline execution. Throws
  /// CancelledError when `cancel` fires while waiting.
  Slot* LeaseSlot(const CancellationToken& cancel) {
    for (;;) {
      cancel.ThrowIfCancelled();
      Slot* chosen = nullptr;
      // Stable while a lease is out: BeginJob/EndJob run outside the
      // task phases.
      const JobTaskFn* job = nullptr;
      {
        MutexLock lock(mu);
        if (degraded) return nullptr;
        for (Slot& slot : slots) {
          if (slot.leased) continue;
          if (chosen == nullptr || LeaseRank(slot) < LeaseRank(*chosen)) {
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
        job = &run;
      }
      if (chosen->live) return chosen;
      // Fork path, outside `mu` (the slot is leased, so it is exclusively
      // ours). A respawn re-checks cancellation across its backoff.
      const bool respawn = chosen->forked;
      if (respawn) {
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
      }
      const Status st = Spawn(*chosen, *job);
      if (!st.ok()) {
        {
          MutexLock lock(mu);
          DegradeLocked(st);
        }
        ReleaseSlot(*chosen);
        return nullptr;
      }
      if (respawn) {
        Count("worker.respawn_total");
        TraceWorker(*chosen, "worker respawn");
      }
      return chosen;
    }
  }

  /// The checks an attempt makes between polls while it waits on its
  /// worker, writing the TASK frame or reading the RESULT. A cancelled
  /// attempt kills the worker (it may be mid-task, with nobody left to
  /// read its result) and throws CancelledError; a worker silent past
  /// `deadline` is killed and the heartbeat timeout returned. Either
  /// way the slot is reaped and released, and respawns on its next
  /// lease. OK while the wait may go on.
  Status CheckWait(Slot& slot, const TaskAttempt& attempt,
                   const TaskContext& ctx, double deadline,
                   double silence_budget) {
    if (ctx.cancel.cancelled()) {
      ReapSlot(slot, SIGKILL);
      TraceWorker(slot, "worker killed (attempt cancelled)");
      ReleaseSlot(slot);
      ctx.cancel.ThrowIfCancelled();
    }
    if (NowSeconds() <= deadline) return Status::OK();
    Count("worker.heartbeat_timeouts");
    const std::string cause = ReapSlot(slot, SIGKILL);
    TraceWorker(slot, "worker killed (heartbeat timeout)");
    ReleaseSlot(slot);
    return Status::Internal(StringPrintf(
        "worker pid went silent for %.2fs on %s task %zu and was killed "
        "(%s)",
        silence_budget, TaskKindName(attempt.kind), attempt.task_index,
        cause.c_str()));
  }

  /// Ships one task (with its input bytes) to a worker and waits for
  /// its RESULT, policing the heartbeat. Returns the task's serialized
  /// payload, the task's own failure Status, or an Internal status
  /// describing a worker death. kNotImplemented is the internal "pool
  /// degraded, run inline" marker. Throws CancelledError when the
  /// attempt is cancelled mid-wait (CheckWait).
  Result<std::string> Dispatch(const TaskAttempt& attempt,
                               const TaskContext& ctx, std::string input) {
    Slot* slot = LeaseSlot(ctx.cancel);
    if (slot == nullptr) {
      return Status::NotImplemented("worker pool degraded");
    }

    const double silence_budget =
        options.heartbeat_seconds > 0.0 ? options.heartbeat_seconds : 10.0;
    const wire::TaskFrame task{static_cast<uint32_t>(attempt.kind),
                               attempt.task_index, attempt.attempt,
                               std::move(input)};
    const std::string head = wire::EncodeTaskFrameHead(task);
    // A reduce task's frame carries its partition, more than a pipe
    // holds: it goes out as the worker reads it, and a worker that
    // stops reading times out like one that stops pinging.
    wire::FrameWriter sending(wire::FrameType::kTask, {head, task.input});
    double deadline = NowSeconds() + silence_budget;
    for (;;) {
      auto wrote = sending.WriteSome(ToChild(*slot));
      if (!wrote.ok()) {
        // The worker died between tasks; its pipe is broken. Reap and
        // surface as a crashed attempt so the retry loop respawns.
        const std::string cause = ReapSlot(*slot, 0);
        TraceWorker(*slot, "worker died");
        ReleaseSlot(*slot);
        return Status::Internal(StringPrintf(
            "worker for %s task %zu died before accepting the task (%s)",
            TaskKindName(attempt.kind), attempt.task_index, cause.c_str()));
      }
      if (sending.done()) break;
      if (*wrote > 0) deadline = NowSeconds() + silence_budget;
      P3C_RETURN_NOT_OK(
          CheckWait(*slot, attempt, ctx, deadline, silence_budget));
      struct pollfd pfd;
      pfd.fd = ToChild(*slot);
      pfd.events = POLLOUT;
      pfd.revents = 0;
      if (::poll(&pfd, 1, /*timeout_ms=*/50) < 0 && errno != EINTR) {
        ReapSlot(*slot, SIGKILL);
        ReleaseSlot(*slot);
        return Status::IOError(
            StringPrintf("poll on worker pipe: %s", std::strerror(errno)));
      }
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

    deadline = NowSeconds() + silence_budget;
    char buf[1 << 16];
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
        wire::Frame frame = std::move(**next);
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
          auto result = wire::DecodeResultFrame(std::move(frame.payload));
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

      P3C_RETURN_NOT_OK(
          CheckWait(*slot, attempt, ctx, deadline, silence_budget));

      struct pollfd pfd;
      pfd.fd = FromChild(*slot);
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
      const ssize_t n = ::read(FromChild(*slot), buf, sizeof(buf));
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

};

WorkerPoolExecutor::WorkerPoolExecutor(WorkerBackendOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  if (impl_->options.num_workers == 0) impl_->options.num_workers = 1;
  // A worker that died between tasks leaves a broken pipe behind; the
  // dispatch path handles the EPIPE as a crashed attempt, but only if
  // the default SIGPIPE disposition doesn't kill the driver first.
  ::signal(SIGPIPE, SIG_IGN);
  // Workers fork while other pool threads run tasks, and a child blocks
  // forever on a function-local static that another thread was still
  // initializing at the fork. So the singletons a worker's tasks read
  // (the memory tracker their emitters charge, the tracer it consults)
  // are initialized here, before any fork.
  (void)resource::MemoryTracker::Global();
  (void)Tracer::Global();
}

WorkerPoolExecutor::~WorkerPoolExecutor() {
  Impl& impl = *impl_;
  MutexLock lock(impl.mu);
  impl.RetireSlotsLocked();
  impl.ReapRetireesLocked(/*wait=*/true);
}

void WorkerPoolExecutor::BeginJob(size_t max_tasks, JobTaskFn run) {
  Impl& impl = *impl_;
  MutexLock lock(impl.mu);
  impl.ReapRetireesLocked(/*wait=*/false);
  impl.job_remote = run != nullptr;
  impl.run = std::move(run);
  impl.degraded = false;
  if (!impl.job_remote || max_tasks == 0) return;

  // Job pool: the job's first leases each fork their slot's worker
  // (LeaseSlot), so the first tasks start while the rest of the pool
  // forks; only where forking beside running tasks is unsafe does the
  // pool fork here. A child inherits the job's immutable state (its
  // closures, the input the map tasks read) copy-on-write; reduce tasks
  // receive their partitions over the pipe. Never more workers than
  // tasks.
  impl.slots.resize(std::min(impl.options.num_workers, max_tasks));
  for (size_t i = 0; i < impl.slots.size(); ++i) {
    Impl::Slot& slot = impl.slots[i];
    slot.index = i;
    if (kWorkersForkOnLease || impl.degraded) continue;
    const Status st = impl.Spawn(slot, impl.run);
    if (!st.ok()) impl.DegradeLocked(st);
  }
}

void WorkerPoolExecutor::EndJob() {
  Impl& impl = *impl_;
  MutexLock lock(impl.mu);
  impl.job_remote = false;
  impl.run = nullptr;
  if (impl.slots.empty()) {
    impl.ReapRetireesLocked(/*wait=*/false);
    return;
  }
  TraceSpan span("worker:retire");
  const Stopwatch watch;
  impl.RetireSlotsLocked();
  impl.ReapRetireesLocked(/*wait=*/false);
  impl.AddSeconds("worker.shutdown_seconds", watch.ElapsedSeconds());
}

Status WorkerPoolExecutor::RunAttempt(const TaskAttempt& attempt,
                                      const TaskContext& ctx,
                                      const TaskBody& inline_body,
                                      const RemoteTask* remote) {
  Impl& impl = *impl_;
  bool remote_ok = false;
  {
    MutexLock lock(impl.mu);
    remote_ok = remote != nullptr && impl.job_remote && !impl.degraded &&
                !impl.slots.empty();
  }
  // Outside `mu`: inline bodies of concurrent attempts run in parallel.
  if (!remote_ok) return inline_body(ctx);
  std::string input;
  if (remote->input != nullptr) input = remote->input(attempt.task_index);
  auto payload = impl.Dispatch(attempt, ctx, std::move(input));
  if (!payload.ok()) {
    if (payload.status().code() == StatusCode::kNotImplemented) {
      // Pool degraded mid-job (spawn failure): inline fallback.
      return inline_body(ctx);
    }
    return payload.status();
  }
  return remote->commit(ctx, attempt.task_index, std::move(*payload));
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
