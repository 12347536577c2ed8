// Newline-delimited JSON protocol of the query service.
//
// One request per line, one response per line. Every response is an
// object with "ok": true|false and "v" (the protocol version it speaks);
// errors carry "error" (message) and "code" (status code name); a
// request's "id" member, when present, is echoed. Requests may carry
// "v": a request whose "v" is not kProtocolVersion is rejected with a
// structured kInvalidArgument error; an absent "v" means version 1.
// docs/PROTOCOL.md documents the full wire contract.
//
// Verbs (the "verb" member):
//   ping      -> {"ok":true}
//   load      dataset + one source: "path" (host file, lazy), "family" +
//             "scale"/"seed" (generator, lazy), or "triples" ([[s,p,o],..],
//             eager). "eager":true forces immediate materialization.
//   drop      dataset
//   list      -> {"ok":true,"datasets":[{name,epoch,loaded,triples,bytes}]}
//   query     dataset + one query source: "query_id" (testbed catalog),
//             "sparql" (inline text), or "patterns" (see PatternFromJson)
//             with optional "name" and "aggregate". Options: "engine",
//             "phi", "threads", "deadline_ms", "no_result_cache",
//             "max_answers" ("no_plan_cache" is accepted as a no-op).
//   batch     dataset + "query_ids" or "queries" (array of query objects),
//             "mode":"batch"|"union". Same options as query.
//   stats     -> {"ok":true,"stats":{...ServiceStats...}}; with
//             "format":"prometheus" the snapshot is returned instead as
//             text exposition format in a "prometheus" string member.
//   metrics   -> {"ok":true,"prometheus":...} — the process-wide
//             MetricsRegistry plus the service snapshot, as Prometheus
//             text; "format":"json" returns the registry as a "metrics"
//             JSON object (plus "stats") instead.
//   shutdown  -> {"ok":true}; the server stops after responding.
//
// The dispatch is a function of (service, request line) alone, so tests can
// exercise the whole protocol without a socket.

#ifndef RDFMR_SERVICE_PROTOCOL_H_
#define RDFMR_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/json.h"
#include "common/result.h"
#include "engine/engine.h"
#include "query/aggregate.h"
#include "query/pattern.h"
#include "service/query_service.h"

namespace rdfmr {
namespace service {

/// \brief Version of the NDJSON wire protocol this build speaks. Stamped
/// as "v" on every response; requests carrying a different "v" are
/// rejected before dispatch.
inline constexpr uint64_t kProtocolVersion = 1;

/// \brief The largest "threads" a query or batch request may ask for; a
/// request beyond it is rejected rather than spawning that many workers.
inline constexpr uint32_t kMaxRequestThreads = 256;

/// \brief Outcome of one protocol line.
struct HandleResult {
  JsonValue response;
  bool shutdown = false;  ///< the request asked the server to stop
};

/// \brief Parses and executes one request line against `query_service`,
/// blocking until its response is ready: HandleRequestLineAsync's dispatch
/// waited on. Never fails: malformed input yields an "ok":false response
/// object.
HandleResult HandleRequestLine(QueryService* query_service,
                               const std::string& line);

/// \brief Completion of one asynchronously dispatched line: the response
/// (envelope stamped: "v", echoed "id") plus whether the request asked
/// the server to stop.
using HandleDone = std::function<void(JsonValue response, bool shutdown)>;

/// \brief Transport-level facts the dispatcher learned from the request
/// before execution; the event-loop server acts on them.
struct AsyncDispatch {
  /// The request carried "ordered":true. Only honored by the transport on
  /// a connection's first request (see NetServer::SetOrdered).
  bool ordered_requested = false;
};

/// \brief The protocol's one dispatcher, used by the event-loop server and
/// by HandleRequestLine: the slow verbs ("query"/"batch") are parsed and
/// validated inline but executed on the query service's worker pool, so
/// `done` may fire later from a worker thread (or inline, on admission
/// rejection). Every other verb executes inline and `done` fires before
/// this returns. `done` is called exactly once either way, and must be
/// safe to call from any thread.
AsyncDispatch HandleRequestLineAsync(QueryService* query_service,
                                     const std::string& line,
                                     HandleDone done);

// ---- conversions (exposed for the client helper and the fuzz harness) ------

/// \brief {"s":{"var":..|"const":..,"contains":..},"p":{..},"o":{..},
/// "optional":bool} <-> TriplePattern. The property position accepts only
/// "var" (unbound) or "const" (bound edge label).
Result<TriplePattern> PatternFromJson(const JsonValue& value);
JsonValue PatternToJson(const TriplePattern& pattern);

/// \brief {"group":[vars],"counted":var,"as":var,"distinct":bool,
/// "min_count":n} <-> AggregateSpec.
Result<AggregateSpec> AggregateFromJson(const JsonValue& value);
JsonValue AggregateToJson(const AggregateSpec& spec);

/// \brief Stable JSON rendering of the deterministic ExecStats fields
/// (plus the host wall-clock phase seconds, which are not deterministic).
JsonValue ExecStatsToJson(const ExecStats& stats);

}  // namespace service
}  // namespace rdfmr

#endif  // RDFMR_SERVICE_PROTOCOL_H_
