// Socket front end for the query service, built on the src/net event
// loop: one poll(2) thread owns every listener (AF_UNIX and TCP may be
// served simultaneously) and every connection, speaking the
// newline-delimited JSON protocol with request pipelining.
//
// Concurrency model: the loop thread parses and dispatches each line via
// HandleRequestLineAsync — fast verbs complete inline, query/batch verbs
// run on the query service's worker pool and complete back through
// NetServer::Complete(). A connection may therefore have many requests in
// flight; responses are emitted in completion order (correlate by "id")
// unless the connection's first request carried "ordered":true.
//
// The transport enforces the operational limits (connection cap, per-line
// byte cap, outbound backpressure, idle eviction) and reports them as
// structured protocol errors; query admission (concurrency/queue bounds)
// stays in the service where it always was.
//
// Shutdown is cooperative and TSan-clean: Stop() (or a client's
// "shutdown" verb) finishes every in-flight request and flushes every
// connection before the loop exits — see net/net_server.h.

#ifndef RDFMR_SERVICE_SERVER_H_
#define RDFMR_SERVICE_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/net_server.h"
#include "service/query_service.h"

namespace rdfmr {
namespace service {

/// \brief The transport's options: endpoints, connection cap, line cap,
/// outbound watermark and idle timeout (see net::NetServerOptions). The
/// server sets reject_line and oversize_line to protocol error lines.
using ServerOptions = net::NetServerOptions;

class ServiceServer {
 public:
  /// \brief Serves `query_service` (not owned, must outlive the server)
  /// at every endpoint in `options.listeners`. Call Start() to begin.
  ServiceServer(QueryService* query_service, ServerOptions options);

  /// \brief Single-AF_UNIX-socket convenience (the pre-TCP signature).
  ServiceServer(QueryService* query_service, std::string socket_path);

  /// \brief Stops and joins if still running.
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// \brief Binds every listener (replacing stale unix socket files) and
  /// starts the event-loop thread. On any failure nothing is listening.
  Status Start();

  /// \brief Blocks until Stop() is called or a client sends "shutdown".
  void Wait();

  /// \brief Requests shutdown, drains in-flight requests, joins the loop
  /// thread, unlinks unix sockets. Idempotent.
  void Stop();

  bool stopped() const { return net_.stopped(); }

  /// \brief The first unix listener's path (empty for TCP-only servers).
  const std::string& socket_path() const { return socket_path_; }

  /// \brief Every bound endpoint, TCP port 0 already resolved. Valid
  /// after a successful Start().
  const std::vector<net::Address>& bound_addresses() const {
    return net_.bound_addresses();
  }

  /// \brief Transport counters (accepts, rejections, stalls, ...).
  net::NetServerStats transport_stats() const { return net_.stats(); }

 private:
  void OnLine(uint64_t conn_id, uint64_t seq, std::string line);

  QueryService* const query_service_;
  std::string socket_path_;
  net::NetServer net_;
};

}  // namespace service
}  // namespace rdfmr

#endif  // RDFMR_SERVICE_SERVER_H_
