// Lightweight error-handling vocabulary for ADA-HEALTH.
//
// The project follows the Google C++ style guide and does not use
// exceptions: fallible operations return `Status` (or `StatusOr<T>` when
// they also produce a value). Programmer errors are handled with the
// ADA_CHECK macros in common/check.h instead.
//
// Example:
//   StatusOr<ExamLog> log = ExamLog::FromCsv(path);
//   if (!log.ok()) return log.status();
//   Use(log.value());
#ifndef ADAHEALTH_COMMON_STATUS_H_
#define ADAHEALTH_COMMON_STATUS_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace adahealth {
namespace common {

/// Canonical error space, modelled after absl::StatusCode.
enum class StatusCode : int32_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kFailedPrecondition = 4,
  kOutOfRange = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kDataLoss = 8,
  kUnavailable = 9,
  kDeadlineExceeded = 10,
  /// A bounded resource (admission queue, byte budget, worker slots)
  /// is full; the caller should back off and retry later. Used by the
  /// service layer for load shedding.
  kResourceExhausted = 11,
};

/// Returns the canonical name of `code` (e.g. "INVALID_ARGUMENT").
const char* StatusCodeName(StatusCode code);

/// Inverse of StatusCodeName: resolves a canonical name back to its
/// code. INVALID_ARGUMENT for unknown names. Shared by the failpoint
/// spec grammar and the service NDJSON wire protocol.
template <typename T>
class [[nodiscard]] StatusOr;
[[nodiscard]] StatusOr<StatusCode> StatusCodeFromName(std::string_view name);

/// Value-type result of a fallible operation: either OK or an error code
/// with a human-readable message.
///
/// The class itself is [[nodiscard]]: every function returning a Status
/// by value warns if a call site ignores the result. Call sites that
/// intentionally drop a Status must say why and cast through
/// `static_cast<void>` (see e.g. bench code that best-effort-writes
/// metrics files).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  /// Constructs a status with `code` and diagnostic `message`.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Renders "OK" or "CODE: message" for logs and test failures.
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// Convenience factories, mirroring absl.
[[nodiscard]] Status OkStatus();
[[nodiscard]] Status InvalidArgumentError(std::string message);
[[nodiscard]] Status NotFoundError(std::string message);
[[nodiscard]] Status AlreadyExistsError(std::string message);
[[nodiscard]] Status FailedPreconditionError(std::string message);
[[nodiscard]] Status OutOfRangeError(std::string message);
[[nodiscard]] Status InternalError(std::string message);
[[nodiscard]] Status DataLossError(std::string message);
[[nodiscard]] Status UnavailableError(std::string message);
[[nodiscard]] Status DeadlineExceededError(std::string message);
[[nodiscard]] Status ResourceExhaustedError(std::string message);

/// Union of a `Status` and a `T`: holds a value exactly when ok().
///
/// Accessing value() on a non-OK StatusOr aborts the process (it is a
/// programmer error, equivalent to dereferencing a disengaged optional).
///
/// Like Status, the class is [[nodiscard]] so that silently dropping a
/// fallible result is a compile-time warning (an error under
/// -DADA_WERROR=ON).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Constructs from a value (implicit by design, like absl::StatusOr).
  StatusOr(T value) : status_(OkStatus()), value_(std::move(value)) {}
  /// Constructs from a non-OK status.
  StatusOr(Status status) : status_(std::move(status)) {}

  [[nodiscard]] bool ok() const { return status_.ok(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] const T& value() const& {
    AbortIfNotOk();
    return *value_;
  }
  T& value() & {
    AbortIfNotOk();
    return *value_;
  }
  T&& value() && {
    AbortIfNotOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void AbortIfNotOk() const;

  Status status_;
  std::optional<T> value_;
};

namespace internal {
[[noreturn]] void DieBecauseStatusOrNotOk(const Status& status);
}  // namespace internal

template <typename T>
void StatusOr<T>::AbortIfNotOk() const {
  if (!status_.ok()) internal::DieBecauseStatusOrNotOk(status_);
}

}  // namespace common
}  // namespace adahealth

/// Evaluates `expr` (a Status expression) and returns it from the calling
/// function if it is not OK.
#define ADA_RETURN_IF_ERROR(expr)                          \
  do {                                                     \
    ::adahealth::common::Status ada_status_tmp_ = (expr);  \
    if (!ada_status_tmp_.ok()) return ada_status_tmp_;     \
  } while (false)

/// Evaluates `rexpr` (a StatusOr<T> expression); on error returns the
/// status, otherwise moves the value into `lhs`.
#define ADA_ASSIGN_OR_RETURN(lhs, rexpr)                 \
  ADA_ASSIGN_OR_RETURN_IMPL_(                            \
      ADA_STATUS_CONCAT_(ada_statusor_, __LINE__), lhs, rexpr)

#define ADA_ASSIGN_OR_RETURN_IMPL_(statusor, lhs, rexpr) \
  auto statusor = (rexpr);                               \
  if (!statusor.ok()) return statusor.status();          \
  lhs = std::move(statusor).value()

#define ADA_STATUS_CONCAT_(a, b) ADA_STATUS_CONCAT_IMPL_(a, b)
#define ADA_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // ADAHEALTH_COMMON_STATUS_H_
