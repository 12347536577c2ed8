// Blocking client for the query service's NDJSON socket protocol. Two
// usage modes over one connection:
//
//   * Serial: Call()/CallLine() — one request line out, one response
//     line back.
//   * Pipelined: Send() any number of requests without waiting, then
//     Receive() responses as the server finishes them (possibly out of
//     request order — correlate by "id"), or use CallPipelined() which
//     stamps ids, sends the whole batch, and hands back the responses
//     re-matched to request order.
//
// Targets are `unix:PATH`, `tcp:HOST:PORT`, or a bare AF_UNIX path (the
// pre-TCP spelling). Used by the rdfmr CLI's `client` subcommand, the
// service tests, the fuzz harness, and bench_net.

#ifndef RDFMR_SERVICE_CLIENT_H_
#define RDFMR_SERVICE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "net/frame.h"

namespace rdfmr {
namespace service {

class ServiceClient {
 public:
  /// \brief Connects to a listening server; IoError when nobody listens.
  static Result<ServiceClient> Connect(const std::string& target);

  /// \brief Connect() with retry on transient failures (server not up
  /// yet: ECONNREFUSED, ENOENT, EAGAIN, ECONNRESET). Sleeps
  /// `backoff_ms` before the second attempt, doubling each retry. Permanent
  /// errors (bad address, unresolvable host) fail immediately.
  static Result<ServiceClient> ConnectWithRetry(const std::string& target,
                                                uint32_t attempts,
                                                uint64_t backoff_ms = 50);

  ServiceClient(ServiceClient&& other) noexcept;
  ServiceClient& operator=(ServiceClient&& other) noexcept;
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;
  ~ServiceClient();

  /// \brief Sends `request` and blocks for the next response line.
  Result<JsonValue> Call(const JsonValue& request);

  /// \brief Raw line round-trip (request must not contain '\n').
  Result<std::string> CallLine(const std::string& line);

  // ---- pipelined mode ------------------------------------------------------

  /// \brief Queues one request on the wire without waiting. Pair each
  /// Send with exactly one later Receive; carry an "id" to correlate.
  Status Send(const JsonValue& request);
  Status SendLine(const std::string& line);

  /// \brief Writes pre-framed bytes as-is (callers terminate each
  /// request with '\n' themselves). One SendRaw carrying N lines reaches
  /// the server as one wakeup — the cheapest way to open a pipeline
  /// window.
  Status SendRaw(const std::string& bytes);

  /// \brief Blocks for the next response line, whichever request it
  /// answers (the server responds in completion order by default). Empty
  /// lines are keepalive padding and are skipped.
  Result<JsonValue> Receive();
  Result<std::string> ReceiveLine();

  /// \brief Sends every request back-to-back, then collects every
  /// response and returns them matched back to request order. Requests
  /// without an "id" get one stamped (their index); duplicate ids are an
  /// error since they make matching ambiguous.
  Result<std::vector<JsonValue>> CallPipelined(
      std::vector<JsonValue> requests);

 private:
  explicit ServiceClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  net::LineDecoder decoder_;        ///< no line cap
  std::vector<std::string> lines_;  ///< decoded, from index next_ unread
  size_t next_ = 0;
};

}  // namespace service
}  // namespace rdfmr

#endif  // RDFMR_SERVICE_CLIENT_H_
