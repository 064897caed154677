#ifndef P3C_COMMON_CANCELLATION_H_
#define P3C_COMMON_CANCELLATION_H_

// Cooperative cancellation for the MapReduce engine's straggler
// machinery (DESIGN.md §11): a CancellationSource owns a cancel flag; a
// CancellationToken is a cheap, copyable observer handle that long
// loops poll and that interruptible sleeps wait on.
//
// Design constraints:
//   - Polling (`cancelled()`) must be one relaxed atomic load — it sits
//     in per-record map loops and per-group reduce loops.
//   - Waiting (`WaitFor`) must wake *immediately* on Cancel(): the
//     fault injector's delay/hang rules and the worker pool's respawn
//     backoff block in it, and a watchdog deadline kill must not be
//     delayed by a sleeping worker (condvar, not sleep_for).
//   - A default-constructed token is a valid "never cancelled" token so
//     the non-straggler fast path carries no state (null shared_ptr).
//
// There is deliberately no asynchronous-abort mechanism: cancellation
// is cooperative, exactly like Hadoop's task umbilical — a task body
// that never polls its token cannot be stopped (only its job can be
// failed around it by the phase budget, see P3CMROptions).

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

#include "src/common/sync.h"

namespace p3c {

/// Thrown by cooperative checkpoints (Emitter::Emit, FaultInjector
/// delay/hang rules) when their token is cancelled mid-operation. The
/// engine catches it at the attempt boundary and converts it to a
/// Status — like every other exception, it must not escape the library.
class CancelledError : public std::exception {
 public:
  const char* what() const noexcept override {
    return "task attempt cancelled";
  }
};

namespace internal {

/// State shared between one source and its tokens. The flag is atomic
/// so polls never touch the mutex (deliberately NOT guarded_by: it is
/// read lock-free everywhere); the mutex/condvar pair exists only for
/// the WaitFor sleep/wake protocol — Cancel() stores under `mu` so a
/// sleeper cannot check, decide to wait, and miss the notify.
///
/// Lock order: the watchdog's kill closures call Cancel() while
/// holding TaskWatchdog::mu_, so `mu` sits BELOW the watchdog lock in
/// the order graph and must never be held while calling into the
/// watchdog.
struct CancellationState {
  std::atomic<bool> cancelled{false};
  Mutex mu{"CancellationState::mu"};
  CondVar cv;
};

}  // namespace internal

/// Copyable observer handle. Null-state tokens (default-constructed)
/// are never cancelled and WaitFor degenerates to a plain timed sleep.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// True once the owning source called Cancel(). One relaxed load.
  [[nodiscard]] bool cancelled() const {
    return state_ != nullptr &&
           state_->cancelled.load(std::memory_order_relaxed);
  }

  /// True when this token is connected to a source at all.
  [[nodiscard]] bool CanBeCancelled() const { return state_ != nullptr; }

  /// Sleeps up to `seconds` but wakes immediately on cancellation.
  /// Returns true when the wait ended because of cancellation (or the
  /// token was already cancelled). Null tokens sleep the full duration.
  bool WaitFor(double seconds) const;

  /// Blocks until cancelled. Null tokens return immediately — blocking
  /// forever on a token that nobody can cancel is never intended.
  void WaitForCancel() const;

  /// Convenience checkpoint: throws CancelledError when cancelled.
  void ThrowIfCancelled() const {
    if (cancelled()) throw CancelledError();
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(
      std::shared_ptr<internal::CancellationState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::CancellationState> state_;
};

/// Owner side: created by whoever may need to stop the work (a task
/// attempt's control, which the watchdog's deadline kill cancels; the
/// pipeline caller). Cancel is idempotent, sticky, and safe to call
/// concurrently with polls and waits.
class CancellationSource {
 public:
  CancellationSource()
      : state_(std::make_shared<internal::CancellationState>()) {}

  CancellationSource(const CancellationSource&) = delete;
  CancellationSource& operator=(const CancellationSource&) = delete;

  CancellationToken token() const { return CancellationToken(state_); }

  [[nodiscard]] bool cancelled() const {
    return state_->cancelled.load(std::memory_order_relaxed);
  }

  /// Sets the flag and wakes every WaitFor/WaitForCancel sleeper.
  void Cancel();

 private:
  std::shared_ptr<internal::CancellationState> state_;
};

}  // namespace p3c

#endif  // P3C_COMMON_CANCELLATION_H_
