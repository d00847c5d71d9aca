// Status / StatusOr<T>: error propagation for expected runtime failures.
//
// Programming errors use RHSD_CHECK (check.hpp); environmental and
// protocol failures (bad LBA from a tenant, permission denied, corrupt
// filesystem metadata — which this library *deliberately produces*) are
// values of type Status so that callers can observe and react to them.
//
// A Status is one owning pointer: null means OK, and the code and
// message live in a heap block made only for errors.  Every layer of a
// command returns one (DRAM, FTL, controller, queue pair), so the OK
// path costs a null pointer, not a string, per return.  Copies are
// deep: an error copy keeps its code and message after the source dies.
#pragma once

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace rhsd {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller passed an out-of-domain value
  kOutOfRange,        // address outside a partition / device
  kNotFound,          // no such file, unmapped LBA, ...
  kAlreadyExists,     // create over an existing name
  kPermissionDenied,  // FS access control said no
  kCorruption,        // checksum mismatch, invalid on-media structure
  kResourceExhausted, // no free blocks / inodes / pages
  kFailedPrecondition,// operation not valid in current state
  kUnimplemented,
  kAborted,           // operation cut short (power loss)
  kDeadlineExceeded,  // command timed out (retries exhausted)
  kUnavailable,       // transient device failure (may succeed on retry)
};

[[nodiscard]] const char* to_string(StatusCode code);

class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  /// An error; StatusCode::kOk yields OK and drops the message.
  Status(StatusCode code, std::string message);
  Status(const Status& other)
      : rep_(other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      rep_ = other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr;
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;
  ~Status() = default;

  [[nodiscard]] static Status Ok() { return Status(); }

  [[nodiscard]] bool ok() const { return rep_ == nullptr; }
  [[nodiscard]] StatusCode code() const {
    return rep_ ? rep_->code : StatusCode::kOk;
  }
  /// Empty for OK.
  [[nodiscard]] const std::string& message() const;

  [[nodiscard]] std::string to_string() const;

  friend std::ostream& operator<<(std::ostream& os, const Status& s) {
    return os << s.to_string();
  }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<Rep> rep_;  // null = OK
};

[[nodiscard]] Status InvalidArgument(std::string msg);
[[nodiscard]] Status OutOfRange(std::string msg);
[[nodiscard]] Status NotFound(std::string msg);
[[nodiscard]] Status AlreadyExists(std::string msg);
[[nodiscard]] Status PermissionDenied(std::string msg);
[[nodiscard]] Status Corruption(std::string msg);
[[nodiscard]] Status ResourceExhausted(std::string msg);
[[nodiscard]] Status FailedPrecondition(std::string msg);
[[nodiscard]] Status Unimplemented(std::string msg);
[[nodiscard]] Status Aborted(std::string msg);
[[nodiscard]] Status DeadlineExceeded(std::string msg);
[[nodiscard]] Status Unavailable(std::string msg);

/// Value-or-Status. Minimal std::expected stand-in (C++20 toolchain).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(implicit)
    RHSD_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }
  StatusOr(T value)  // NOLINT(implicit)
      : value_(std::move(value)) {}

  [[nodiscard]] bool ok() const { return status_.ok(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] const T& value() const& {
    RHSD_CHECK_MSG(ok(), "StatusOr::value on error: " << status_);
    return *value_;
  }
  [[nodiscard]] T& value() & {
    RHSD_CHECK_MSG(ok(), "StatusOr::value on error: " << status_);
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    RHSD_CHECK_MSG(ok(), "StatusOr::value on error: " << status_);
    return std::move(*value_);
  }

  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace rhsd

/// Propagate a non-OK Status to the caller.
#define RHSD_RETURN_IF_ERROR(expr)                \
  do {                                            \
    ::rhsd::Status rhsd_status_ = (expr);         \
    if (!rhsd_status_.ok()) return rhsd_status_;  \
  } while (0)

/// Bind `lhs` to the value of a StatusOr expression or propagate its error.
#define RHSD_ASSIGN_OR_RETURN(lhs, expr)                   \
  RHSD_ASSIGN_OR_RETURN_IMPL_(                             \
      RHSD_STATUS_CONCAT_(rhsd_statusor_, __LINE__), lhs, expr)
#define RHSD_STATUS_CONCAT_INNER_(a, b) a##b
#define RHSD_STATUS_CONCAT_(a, b) RHSD_STATUS_CONCAT_INNER_(a, b)
#define RHSD_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()
