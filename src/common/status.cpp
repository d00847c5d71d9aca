#include "common/status.hpp"

namespace rhsd {

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kPermissionDenied: return "PERMISSION_DENIED";
    case StatusCode::kCorruption: return "CORRUPTION";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kUnimplemented: return "UNIMPLEMENTED";
    case StatusCode::kAborted: return "ABORTED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

Status::Status(StatusCode code, std::string message) {
  if (code != StatusCode::kOk) {
    rep_ = std::make_unique<Rep>(Rep{code, std::move(message)});
  }
}

const std::string& Status::message() const {
  static const std::string kNone;
  return rep_ ? rep_->message : kNone;
}

std::string Status::to_string() const {
  if (ok()) return "OK";
  std::string out = rhsd::to_string(rep_->code);
  if (!rep_->message.empty()) {
    out += ": ";
    out += rep_->message;
  }
  return out;
}

Status InvalidArgument(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
Status OutOfRange(std::string msg) {
  return {StatusCode::kOutOfRange, std::move(msg)};
}
Status NotFound(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
Status AlreadyExists(std::string msg) {
  return {StatusCode::kAlreadyExists, std::move(msg)};
}
Status PermissionDenied(std::string msg) {
  return {StatusCode::kPermissionDenied, std::move(msg)};
}
Status Corruption(std::string msg) {
  return {StatusCode::kCorruption, std::move(msg)};
}
Status ResourceExhausted(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}
Status FailedPrecondition(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
Status Unimplemented(std::string msg) {
  return {StatusCode::kUnimplemented, std::move(msg)};
}
Status Aborted(std::string msg) {
  return {StatusCode::kAborted, std::move(msg)};
}
Status DeadlineExceeded(std::string msg) {
  return {StatusCode::kDeadlineExceeded, std::move(msg)};
}
Status Unavailable(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}

}  // namespace rhsd
