#ifndef P3C_COMMON_STATUS_H_
#define P3C_COMMON_STATUS_H_

#include <cassert>
#include <exception>
#include <optional>
#include <string>
#include <utility>

namespace p3c {

/// Error categories used across the library. Mirrors the coarse-grained
/// code sets of RocksDB/Arrow style status objects: the code selects the
/// class of failure, the message carries the human-readable detail.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kIOError = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kNotImplemented = 7,
  /// A wall-clock bound was exceeded: a task attempt outlived
  /// RunnerOptions::task_deadline_seconds and was killed by the
  /// watchdog, or a pipeline phase blew through its
  /// P3CMROptions::phase_budget_seconds. Retryable at the task level
  /// (stragglers are transient), bounded at the phase level.
  kDeadlineExceeded = 8,
  /// The caller asked the work to stop (SIGINT/SIGTERM routed through a
  /// CancellationSource, or a driver noticing its CancellationToken).
  /// Never retryable: retrying cancelled work defeats the point of
  /// cancelling it.
  kCancelled = 9,
};

/// Returns a stable, human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// Value-semantic error carrier used instead of exceptions across all
/// public API boundaries of this library.
///
/// Functions that can fail return `Status` (or `Result<T>` when they also
/// produce a value). A default-constructed `Status` is OK. Statuses are
/// cheap to copy for the OK case and carry a message otherwise.
///
/// The class itself is `[[nodiscard]]`: any call that returns a Status
/// and ignores it fails the build (the root CMakeLists.txt compiles with
/// -Werror=unused-result). Discard deliberately with `(void)Expr();`
/// plus a comment.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return msg_; }

  /// "OK" or "<Code>: <message>".
  [[nodiscard]] std::string ToString() const;

 private:
  StatusCode code_;
  std::string msg_;
};

/// Result<T> is either a value or an error Status; the library's analog of
/// `arrow::Result` / `absl::StatusOr`. Access the value only after
/// checking `ok()`; accessing the value of a failed result aborts in debug
/// builds (assert) and is undefined otherwise.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value makes `return value;` work in
  /// functions returning Result<T>.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}
  /// Implicit construction from an error status makes
  /// `return Status::InvalidArgument(...)` work.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status with no value");
  }

  [[nodiscard]] bool ok() const { return status_.ok(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] const T& value() const& {
    assert(ok());
    return *value_;
  }
  [[nodiscard]] T& value() & {
    assert(ok());
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value or `fallback` if this result failed.
  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Carries a failed Status out of code that cannot return one, such as a
/// mapper's Map. The engine's attempt boundary catches it and fails the
/// attempt with the Status it carries, code and message unchanged; like
/// every exception, it must not escape the library.
class StatusError : public std::exception {
 public:
  explicit StatusError(Status status) : status_(std::move(status)) {}

  [[nodiscard]] const Status& status() const { return status_; }
  const char* what() const noexcept override {
    return status_.message().c_str();
  }

 private:
  Status status_;
};

}  // namespace p3c

/// Propagates a failing Status from an expression, RocksDB style:
///   P3C_RETURN_NOT_OK(DoThing());
#define P3C_RETURN_NOT_OK(expr)          \
  do {                                   \
    ::p3c::Status _st = (expr);          \
    if (!_st.ok()) return _st;           \
  } while (0)

#endif  // P3C_COMMON_STATUS_H_
