#ifndef P3C_MAPREDUCE_FAULT_H_
#define P3C_MAPREDUCE_FAULT_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/common/string_util.h"

namespace p3c::mr {

/// The two retryable task kinds of a LocalRunner job.
enum class TaskKind { kMap = 0, kReduce = 1 };

inline const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kMap:
      return "map";
    case TaskKind::kReduce:
      return "reduce";
  }
  return "unknown";
}

/// Identity of one task attempt: Hadoop's `attempt_<job>_<task>_<n>`
/// naming collapsed to the coordinates the in-process engine has.
struct TaskAttempt {
  const std::string& job_name;
  TaskKind kind;
  size_t task_index;
  size_t attempt;  ///< 0-based attempt number within the task
  /// True for the duplicate copy launched by speculative execution;
  /// the primary copy of the same attempt number has this false.
  bool speculative = false;
  /// Cancellation token of this attempt copy. Injected delays and
  /// hangs wait on it so a watchdog kill (or a speculation loser-kill)
  /// unblocks them immediately; a default token never cancels.
  CancellationToken cancel{};
};

/// Identity of one committed pipeline phase: consulted right after the
/// P3C+-MR driver has durably written the phase's checkpoint. The
/// crash-point substrate for the kill-and-resume suite — an injector
/// that fails (or exits the process) here models a driver death at the
/// exact instant the phase boundary hit disk.
struct PhaseCommit {
  const std::string& phase_name;
  size_t phase_index;
};

/// Fault-injection hook consulted by LocalRunner at the start of every
/// task attempt — the test substrate for the engine's retry machinery.
///
/// Implementations are called concurrently from worker threads and must
/// be thread-safe. Returning a non-OK Status makes the attempt fail
/// with that status (as if the user code had failed); implementations
/// may instead throw to simulate a crashing task. Either way the
/// engine discards the attempt wholesale and re-runs it, so a correctly
/// configured injector never changes job *output*, only the attempt
/// accounting in JobMetrics.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  virtual Status OnAttemptStart(const TaskAttempt& attempt) = 0;

  /// Driver-side crash point: called by the P3C+-MR pipeline after each
  /// phase checkpoint commit (never from engine worker threads, but an
  /// injector shared with the engine must still be thread-safe).
  /// Returning a non-OK Status aborts the pipeline with that status —
  /// the in-process stand-in for a SIGKILL at the phase boundary, since
  /// the checkpoint is already durable when the hook fires.
  virtual Status OnPhaseCommit(const PhaseCommit& commit) {
    (void)commit;
    return Status::OK();
  }

  /// Worker-kill crash point: consulted by the worker-process backend
  /// right after `attempt`'s TASK frame went out on the wire. A
  /// non-zero return is a signal number the backend delivers to the
  /// worker that just accepted the task — SIGKILL for a genuine
  /// mid-task crash, SIGSTOP for a frozen worker the heartbeat must
  /// catch. Returning 0 injects nothing. The in-process backend never
  /// consults this hook.
  virtual int OnWorkerKill(const TaskAttempt& attempt) {
    (void)attempt;
    return 0;
  }
};

/// Script-driven injector: fails exactly the (job, kind, task, attempt)
/// coordinates its rules name. Rules are one-shot by default, so a job
/// that is re-run at the pipeline level (attempt numbers restart at 0)
/// sails through the second time — the "transient task failure" model.
class ScriptedFaultInjector : public FaultInjector {
 public:
  static constexpr size_t kUnlimitedFires =
      std::numeric_limits<size_t>::max();

  struct Rule {
    /// Substring of the job name; empty matches every job.
    std::string job_substring;
    /// Unset fields match every kind / task / attempt.
    std::optional<TaskKind> kind;
    std::optional<size_t> task_index;
    std::optional<size_t> attempt;
    /// How many attempts this rule kills before burning out.
    size_t fires = 1;
    /// Unset matches both copies; set, it matches only the primary
    /// (false) or only the speculative (true) copy of an attempt.
    std::optional<bool> speculative;
    /// Throw instead of returning the status (simulates a crash the
    /// engine must catch rather than a clean failure).
    bool throws = false;
    /// Straggler injection: sleep this long before resolving the rule.
    /// The sleep waits on the attempt's cancellation token, so a
    /// watchdog deadline-kill or a speculation loser-kill interrupts
    /// it immediately (the delayed attempt then fails as cancelled).
    double delay_seconds = 0.0;
    /// Hang injection: block until the attempt is cancelled, then fail
    /// as cancelled — a task that never finishes on its own, the
    /// failure mode deadlines exist for. A hung attempt whose token is
    /// never cancelled (no deadline configured) blocks forever, which
    /// is exactly what the uninstrumented engine would do.
    bool hang = false;
    /// Failure returned (or wrapped in the thrown exception). Delay
    /// rules with an OK status model a pure straggler: slow but
    /// correct.
    Status status = Status::Internal("injected fault");
  };

  void AddRule(Rule rule) {
    MutexLock lock(mu_);
    rules_.push_back(std::move(rule));
  }

  /// Convenience: one-shot kill of `attempt` of `task` in jobs matching
  /// `job_substring` (any kind).
  void FailOnce(std::string job_substring, size_t task_index,
                size_t attempt) {
    Rule rule;
    rule.job_substring = std::move(job_substring);
    rule.task_index = task_index;
    rule.attempt = attempt;
    AddRule(std::move(rule));
  }

  /// Convenience: one-shot pure straggler — `attempt` of `task` runs
  /// `delay_seconds` late but succeeds (status OK).
  void DelayOnce(std::string job_substring, size_t task_index, size_t attempt,
                 double delay_seconds) {
    Rule rule;
    rule.job_substring = std::move(job_substring);
    rule.task_index = task_index;
    rule.attempt = attempt;
    rule.delay_seconds = delay_seconds;
    rule.status = Status::OK();
    AddRule(std::move(rule));
  }

  /// Convenience: one-shot permanent hang of `attempt` of `task` —
  /// blocks until the engine cancels the attempt (deadline kill or
  /// speculation loser-kill).
  void HangOnce(std::string job_substring, size_t task_index,
                size_t attempt) {
    Rule rule;
    rule.job_substring = std::move(job_substring);
    rule.task_index = task_index;
    rule.attempt = attempt;
    rule.hang = true;
    AddRule(std::move(rule));
  }

  /// Crash-point rule for OnPhaseCommit: kills the pipeline right after
  /// the named phase's checkpoint reached disk.
  struct PhaseRule {
    /// Substring of the phase name; empty matches every phase.
    std::string phase_substring;
    /// How many commits this rule kills before burning out.
    size_t fires = 1;
    /// Throw instead of returning the status.
    bool throws = false;
    Status status = Status::Internal("injected crash at phase commit");
  };

  void AddPhaseRule(PhaseRule rule) {
    MutexLock lock(mu_);
    phase_rules_.push_back(std::move(rule));
  }

  /// Convenience: one-shot driver kill right after `phase_substring`'s
  /// checkpoint commit.
  void FailAfterPhase(std::string phase_substring) {
    PhaseRule rule;
    rule.phase_substring = std::move(phase_substring);
    AddPhaseRule(std::move(rule));
  }

  Status OnPhaseCommit(const PhaseCommit& commit) override {
    PhaseRule fired;
    bool matched = false;
    {
      MutexLock lock(mu_);
      for (PhaseRule& rule : phase_rules_) {
        if (rule.fires == 0) continue;
        if (!rule.phase_substring.empty() &&
            commit.phase_name.find(rule.phase_substring) ==
                std::string::npos) {
          continue;
        }
        if (rule.fires != kUnlimitedFires) --rule.fires;
        ++injected_;
        fired = rule;
        matched = true;
        break;
      }
    }
    if (!matched) return Status::OK();
    if (fired.throws) {
      throw std::runtime_error(StringPrintf(
          "injected crash after phase '%s' (index %zu) committed",
          commit.phase_name.c_str(), commit.phase_index));
    }
    return Status(fired.status.code(),
                  StringPrintf("%s (after phase '%s', index %zu)",
                               fired.status.message().c_str(),
                               commit.phase_name.c_str(),
                               commit.phase_index));
  }

  /// Worker-kill rule for OnWorkerKill: delivers `signum` to the worker
  /// process that just accepted a matching task attempt.
  struct WorkerRule {
    /// Substring of the job name; empty matches every job.
    std::string job_substring;
    /// Unset fields match every kind / task / attempt.
    std::optional<TaskKind> kind;
    std::optional<size_t> task_index;
    std::optional<size_t> attempt;
    /// How many workers this rule kills before burning out.
    size_t fires = 1;
    /// Signal delivered to the worker (SIGKILL, SIGSTOP, ...).
    int signum = 9;
  };

  void AddWorkerRule(WorkerRule rule) {
    MutexLock lock(mu_);
    worker_rules_.push_back(std::move(rule));
  }

  /// Convenience: one-shot `signum` (default SIGKILL) to the worker
  /// running `attempt` of `task` in jobs matching `job_substring`.
  void KillWorkerOnce(std::string job_substring, size_t task_index,
                      size_t attempt, int signum = 9) {
    WorkerRule rule;
    rule.job_substring = std::move(job_substring);
    rule.task_index = task_index;
    rule.attempt = attempt;
    rule.signum = signum;
    AddWorkerRule(std::move(rule));
  }

  int OnWorkerKill(const TaskAttempt& attempt) override {
    MutexLock lock(mu_);
    for (WorkerRule& rule : worker_rules_) {
      if (rule.fires == 0) continue;
      if (!rule.job_substring.empty() &&
          attempt.job_name.find(rule.job_substring) == std::string::npos) {
        continue;
      }
      if (rule.kind.has_value() && *rule.kind != attempt.kind) continue;
      if (rule.task_index.has_value() &&
          *rule.task_index != attempt.task_index) {
        continue;
      }
      if (rule.attempt.has_value() && *rule.attempt != attempt.attempt) {
        continue;
      }
      if (rule.fires != kUnlimitedFires) --rule.fires;
      ++injected_;
      return rule.signum;
    }
    return 0;
  }

  Status OnAttemptStart(const TaskAttempt& attempt) override {
    // Match and consume the rule under the lock, but perform blocking
    // actions (delay, hang) outside it — a hanging attempt must not
    // wedge every other attempt's injector consult.
    Rule fired;
    bool matched = false;
    {
      MutexLock lock(mu_);
      for (Rule& rule : rules_) {
        if (rule.fires == 0) continue;
        if (!rule.job_substring.empty() &&
            attempt.job_name.find(rule.job_substring) == std::string::npos) {
          continue;
        }
        if (rule.kind.has_value() && *rule.kind != attempt.kind) continue;
        if (rule.task_index.has_value() &&
            *rule.task_index != attempt.task_index) {
          continue;
        }
        if (rule.attempt.has_value() && *rule.attempt != attempt.attempt) {
          continue;
        }
        if (rule.speculative.has_value() &&
            *rule.speculative != attempt.speculative) {
          continue;
        }
        if (rule.fires != kUnlimitedFires) --rule.fires;
        ++injected_;
        fired = rule;
        matched = true;
        break;
      }
    }
    if (!matched) return Status::OK();
    if (fired.hang) {
      // Block until the engine gives up on this copy. A null token
      // (cancellation disabled) blocks forever — the honest rendition
      // of a hung task on an engine without deadlines.
      attempt.cancel.WaitForCancel();
      throw CancelledError();
    }
    if (fired.delay_seconds > 0.0) {
      if (attempt.cancel.WaitFor(fired.delay_seconds)) {
        // Killed mid-delay: the attempt dies as cancelled, not with
        // the rule's status.
        throw CancelledError();
      }
    }
    if (fired.throws) {
      throw std::runtime_error(StringPrintf(
          "injected crash: job '%s' %s task %zu attempt %zu",
          attempt.job_name.c_str(), TaskKindName(attempt.kind),
          attempt.task_index, attempt.attempt));
    }
    return fired.status;
  }

  uint64_t injected_faults() const {
    MutexLock lock(mu_);
    return injected_;
  }

 private:
  /// Leaf lock: held only around rule matching and bookkeeping; every
  /// blocking action (delay, hang) happens after it is released.
  mutable Mutex mu_{"ScriptedFaultInjector::mu_"};
  std::vector<Rule> rules_ P3C_GUARDED_BY(mu_);
  std::vector<PhaseRule> phase_rules_ P3C_GUARDED_BY(mu_);
  std::vector<WorkerRule> worker_rules_ P3C_GUARDED_BY(mu_);
  uint64_t injected_ P3C_GUARDED_BY(mu_) = 0;
};

/// Seeded pseudo-random injector: attempt k of a task fails with
/// `fail_probability` when k < max_faults_per_task, decided by a
/// deterministic hash of (seed, job, kind, task, attempt). Because only
/// the first `max_faults_per_task` attempts can be killed, a runner
/// configured with max_attempts > max_faults_per_task always makes
/// progress — with fail_probability = 1.0 this kills the first attempt
/// of every task of every job, the acceptance scenario for retry
/// exactly-once semantics.
class SeededFaultInjector : public FaultInjector {
 public:
  explicit SeededFaultInjector(uint64_t seed, double fail_probability = 1.0,
                               size_t max_faults_per_task = 1)
      : seed_(seed),
        fail_probability_(fail_probability),
        max_faults_per_task_(max_faults_per_task) {}

  Status OnAttemptStart(const TaskAttempt& attempt) override {
    if (attempt.attempt >= max_faults_per_task_) return Status::OK();
    // FNV-1a over the job name, then splitmix64 finalization over the
    // task coordinates: stable across runs and platforms.
    uint64_t h = 14695981039346656037ull ^ seed_;
    for (char c : attempt.job_name) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    h ^= static_cast<uint64_t>(attempt.kind) * 0x9e3779b97f4a7c15ull;
    h = Mix(h + attempt.task_index);
    h = Mix(h + attempt.attempt);
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0, 1)
    if (u >= fail_probability_) return Status::OK();
    injected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal(StringPrintf(
        "injected fault: job '%s' %s task %zu attempt %zu",
        attempt.job_name.c_str(), TaskKindName(attempt.kind),
        attempt.task_index, attempt.attempt));
  }

  uint64_t injected_faults() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  uint64_t seed_;
  double fail_probability_;
  size_t max_faults_per_task_;
  std::atomic<uint64_t> injected_{0};
};

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_FAULT_H_
