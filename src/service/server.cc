#include "service/server.h"

#include <utility>

#include "common/json.h"
#include "service/protocol.h"

namespace rdfmr {
namespace service {

namespace {

/// One pre-framed protocol error line (no '\n') for transport-level
/// rejections, shaped exactly like a dispatch error so clients need one
/// error path.
std::string ProtocolErrorLine(const Status& status) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("ok", false);
  o.Set("error", status.message());
  o.Set("code", StatusCodeToString(status.code()));
  o.Set("v", kProtocolVersion);
  return o.Dump();
}

ServerOptions WithProtocolErrorLines(ServerOptions options) {
  options.reject_line = ProtocolErrorLine(
      Status::Unavailable("server connection limit reached"));
  options.oversize_line = ProtocolErrorLine(Status::InvalidArgument(
      "request line exceeds the server's line cap"));
  return options;
}

std::string FirstUnixPath(const std::vector<net::Address>& listeners) {
  for (const net::Address& address : listeners) {
    if (address.kind == net::AddressKind::kUnix) return address.path;
  }
  return std::string();
}

}  // namespace

ServiceServer::ServiceServer(QueryService* query_service,
                             ServerOptions options)
    : query_service_(query_service),
      socket_path_(FirstUnixPath(options.listeners)),
      net_(WithProtocolErrorLines(std::move(options)),
           [this](uint64_t conn_id, uint64_t seq, std::string line) {
             OnLine(conn_id, seq, std::move(line));
           }) {}

ServiceServer::ServiceServer(QueryService* query_service,
                             std::string socket_path)
    : ServiceServer(query_service, [&socket_path] {
        ServerOptions options;
        options.listeners.push_back(
            net::Address::Unix(std::move(socket_path)));
        return options;
      }()) {}

ServiceServer::~ServiceServer() { Stop(); }

Status ServiceServer::Start() { return net_.Start(); }

void ServiceServer::Wait() { net_.Wait(); }

void ServiceServer::Stop() { net_.Stop(); }

void ServiceServer::OnLine(uint64_t conn_id, uint64_t seq,
                           std::string line) {
  // The completion may fire inline (fast verbs, admission rejections) or
  // later from a query worker thread; Complete() is safe for both, and
  // Stop() drains every pending completion before `this` can die.
  AsyncDispatch dispatch = HandleRequestLineAsync(
      query_service_, line,
      [this, conn_id, seq](JsonValue response, bool shutdown) {
        net_.Complete(conn_id, seq, response.Dump());
        if (shutdown) net_.RequestStop();
      });
  if (seq == 0 && dispatch.ordered_requested) net_.SetOrdered(conn_id);
}

}  // namespace service
}  // namespace rdfmr
