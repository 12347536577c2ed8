#include "service/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/address.h"

namespace rdfmr {
namespace service {

namespace {

bool TransientConnectErrno(int err) {
  // The server may not be up yet (socket file not created / listener not
  // bound) or may be briefly saturated.
  return err == ECONNREFUSED || err == ENOENT || err == EAGAIN ||
         err == ECONNRESET || err == EINTR;
}

}  // namespace

Result<ServiceClient> ServiceClient::Connect(const std::string& target) {
  RDFMR_ASSIGN_OR_RETURN(net::Address address, net::Address::Parse(target));
  RDFMR_ASSIGN_OR_RETURN(int fd, net::Dial(address));
  return ServiceClient(fd);
}

Result<ServiceClient> ServiceClient::ConnectWithRetry(
    const std::string& target, uint32_t attempts, uint64_t backoff_ms) {
  RDFMR_ASSIGN_OR_RETURN(net::Address address, net::Address::Parse(target));
  if (attempts == 0) attempts = 1;
  uint64_t sleep_ms = backoff_ms;
  for (uint32_t attempt = 1;; ++attempt) {
    int dial_errno = 0;
    Result<int> fd = net::Dial(address, &dial_errno);
    if (fd.ok()) return ServiceClient(*fd);
    if (attempt >= attempts || !TransientConnectErrno(dial_errno)) {
      return fd.status();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    sleep_ms *= 2;
  }
}

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      decoder_(std::move(other.decoder_)),
      lines_(std::move(other.lines_)),
      next_(other.next_) {}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
    lines_ = std::move(other.lines_);
    next_ = other.next_;
  }
  return *this;
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status ServiceClient::SendLine(const std::string& line) {
  return SendRaw(net::EncodeLine(line));
}

Status ServiceClient::SendRaw(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ServiceClient::Send(const JsonValue& request) {
  return SendLine(request.Dump());
}

Result<std::string> ServiceClient::ReceiveLine() {
  char chunk[4096];
  while (next_ == lines_.size()) {
    lines_.clear();
    next_ = 0;
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return Status::IoError("server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    decoder_.Feed(chunk, static_cast<size_t>(n), &lines_);
  }
  return std::move(lines_[next_++]);
}

Result<JsonValue> ServiceClient::Receive() {
  RDFMR_ASSIGN_OR_RETURN(std::string line, ReceiveLine());
  return ParseJson(line);
}

Result<std::string> ServiceClient::CallLine(const std::string& line) {
  RDFMR_RETURN_NOT_OK(SendLine(line));
  return ReceiveLine();
}

Result<JsonValue> ServiceClient::Call(const JsonValue& request) {
  RDFMR_ASSIGN_OR_RETURN(std::string line, CallLine(request.Dump()));
  return ParseJson(line);
}

Result<std::vector<JsonValue>> ServiceClient::CallPipelined(
    std::vector<JsonValue> requests) {
  // Responses come back in completion order, so every request needs a
  // distinguishable echoed "id" to find its slot again.
  std::unordered_map<std::string, size_t> slot_by_id;
  slot_by_id.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].is_object()) {
      return Status::InvalidArgument(
          "pipelined request must be a JSON object");
    }
    if (!requests[i].Has("id")) {
      requests[i].Set("id", static_cast<uint64_t>(i));
    }
    if (!slot_by_id.emplace(requests[i].Get("id").Dump(), i).second) {
      return Status::InvalidArgument(
          "pipelined requests carry a duplicate \"id\": " +
          requests[i].Get("id").Dump());
    }
  }
  // One send for the whole window: the server reads the batch in one
  // wakeup and its responses coalesce the same way, which is where
  // pipelining's syscall amortization comes from.
  std::string batch;
  for (const JsonValue& request : requests) {
    batch += net::EncodeLine(request.Dump());
  }
  RDFMR_RETURN_NOT_OK(SendRaw(batch));
  std::vector<JsonValue> responses(requests.size());
  std::vector<bool> matched(requests.size(), false);
  for (size_t received = 0; received < requests.size(); ++received) {
    RDFMR_ASSIGN_OR_RETURN(std::string line, ReceiveLine());
    RDFMR_ASSIGN_OR_RETURN(JsonValue response, ParseJson(line));
    if (!response.is_object() || !response.Has("id")) {
      return Status::IoError("pipelined response carries no \"id\": " +
                             line);
    }
    auto it = slot_by_id.find(response.Get("id").Dump());
    if (it == slot_by_id.end() || matched[it->second]) {
      return Status::IoError(
          "pipelined response \"id\" matches no outstanding request: " +
          line);
    }
    matched[it->second] = true;
    responses[it->second] = std::move(response);
  }
  return responses;
}

}  // namespace service
}  // namespace rdfmr
