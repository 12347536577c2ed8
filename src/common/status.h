// Status: lightweight error propagation in the style of Apache Arrow /
// RocksDB. No exceptions cross public API boundaries in rdfmr; fallible
// functions return Status (or Result<T>, see result.h).

#ifndef RDFMR_COMMON_STATUS_H_
#define RDFMR_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace rdfmr {

/// \brief Machine-readable classification of an error.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfSpace = 4,    // simulated cluster ran out of HDFS capacity
  kIoError = 5,       // serialization / parse / file errors
  kExecutionError = 6,  // a MapReduce job failed mid-flight
  kNotImplemented = 7,
  kUnknown = 8,
  kUnavailable = 9,        // admission control rejected the request
  kCancelled = 10,         // caller cancelled a queued request
  kDeadlineExceeded = 11,  // request deadline expired before completion
  kResourceExhausted = 12,  // projected footprint exceeds cluster capacity
  kDataLoss = 13,  // persistent data failed validation (checksum, truncation)
};

/// \brief Human-readable name of a StatusCode ("OutOfSpace", ...).
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: a code plus an optional message.
///
/// An OK status carries no allocation; error statuses hold a heap state with
/// code and message. Statuses are cheap to move and to copy-on-ok.
class Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  Status(StatusCode code, std::string msg)
      : state_(code == StatusCode::kOk
                   ? nullptr
                   : std::make_shared<State>(State{code, std::move(msg)})) {}

  /// \brief Returns an OK status.
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
  static Status OutOfSpace(std::string msg) {
    return Status(StatusCode::kOutOfSpace, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecutionError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Unknown(std::string msg) {
    return Status(StatusCode::kUnknown, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  bool IsOutOfSpace() const { return code() == StatusCode::kOutOfSpace; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsIoError() const { return code() == StatusCode::kIoError; }

  StatusCode code() const {
    return state_ == nullptr ? StatusCode::kOk : state_->code;
  }

  /// \brief Error message; empty for OK.
  const std::string& message() const {
    static const std::string kEmpty;
    return state_ == nullptr ? kEmpty : state_->msg;
  }

  /// \brief "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// \brief Returns this status with extra context prepended to the message.
  Status WithContext(const std::string& context) const;

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };
  std::shared_ptr<State> state_;  // nullptr == OK
};

/// \brief Propagates a non-OK Status to the caller.
#define RDFMR_RETURN_NOT_OK(expr)             \
  do {                                        \
    ::rdfmr::Status _st = (expr);             \
    if (!_st.ok()) return _st;                \
  } while (0)

}  // namespace rdfmr

#endif  // RDFMR_COMMON_STATUS_H_
