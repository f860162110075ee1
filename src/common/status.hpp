// Status / StatusOr: error handling without exceptions on core paths.
//
// Modeled on the Arrow/RocksDB idiom: fallible operations return a Status (or
// a StatusOr<T> when they produce a value). Callers must check `ok()` before
// using the value. Statuses carry a code and a human-readable message.
#ifndef TREEDL_COMMON_STATUS_HPP_
#define TREEDL_COMMON_STATUS_HPP_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace treedl {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  // A configured work/memory budget was exhausted (used by the MSO evaluator
  // to emulate MONA-style out-of-memory failures; see docs/ARCHITECTURE.md,
  // "Query execution").
  kResourceExhausted,
  // Input text could not be parsed.
  kParseError,
  // A cooperative deadline (WorkBudget deadline units) expired before the
  // computation finished.
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for a status code, e.g. "InvalidArgument".
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error result. Copyable and cheap when OK.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value of type T or an error Status. Never both.
template <typename T>
class StatusOr {
 public:
  /// Implicit-from-value so `return value;` works in functions returning
  /// StatusOr<T>.
  StatusOr(T value) : status_(Status::OK()), value_(std::move(value)) {}
  /// Implicit-from-status so `return Status::...;` works. Must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Precondition: ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value or `fallback` when in error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

// Propagates errors to the caller (function must return Status or StatusOr).
#define TREEDL_RETURN_IF_ERROR(expr)            \
  do {                                          \
    ::treedl::Status _st = (expr);              \
    if (!_st.ok()) return _st;                  \
  } while (0)

// Evaluates a StatusOr expression, propagating errors; on success assigns the
// value to `lhs`. `lhs` may be a declaration, e.g.
//   TREEDL_ASSIGN_OR_RETURN(auto td, BuildDecomposition(g));
#define TREEDL_ASSIGN_OR_RETURN(lhs, expr)                    \
  TREEDL_ASSIGN_OR_RETURN_IMPL_(                              \
      TREEDL_STATUS_CONCAT_(_statusor, __LINE__), lhs, expr)
#define TREEDL_STATUS_CONCAT_INNER_(a, b) a##b
#define TREEDL_STATUS_CONCAT_(a, b) TREEDL_STATUS_CONCAT_INNER_(a, b)
#define TREEDL_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

}  // namespace treedl

#endif  // TREEDL_COMMON_STATUS_HPP_
