#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace adahealth {
namespace common {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
  }
  return "UNKNOWN";
}

StatusOr<StatusCode> StatusCodeFromName(std::string_view name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,
      StatusCode::kInvalidArgument,
      StatusCode::kNotFound,
      StatusCode::kAlreadyExists,
      StatusCode::kFailedPrecondition,
      StatusCode::kOutOfRange,
      StatusCode::kUnimplemented,
      StatusCode::kInternal,
      StatusCode::kDataLoss,
      StatusCode::kUnavailable,
      StatusCode::kDeadlineExceeded,
      StatusCode::kResourceExhausted,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeName(code)) return code;
  }
  return InvalidArgumentError("unknown status code name '" +
                              std::string(name) + "'");
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

Status OkStatus() { return Status(); }
Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status AlreadyExistsError(std::string message) {
  return Status(StatusCode::kAlreadyExists, std::move(message));
}
Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
Status OutOfRangeError(std::string message) {
  return Status(StatusCode::kOutOfRange, std::move(message));
}
Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}
Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}
Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}

namespace internal {
void DieBecauseStatusOrNotOk(const Status& status) {
  std::fprintf(stderr, "StatusOr::value() called on error status: %s\n",
               status.ToString().c_str());
  std::abort();
}
}  // namespace internal

}  // namespace common
}  // namespace adahealth
