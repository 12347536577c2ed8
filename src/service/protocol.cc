#include "service/protocol.h"

#include <cmath>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "datagen/testbed.h"
#include "query/solution.h"
#include "query/sparql_parser.h"
#include "service/dataset_io.h"
#include "storage/rdx_reader.h"

namespace rdfmr {
namespace service {

namespace {

JsonValue ErrorResponse(const Status& status) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("ok", false);
  o.Set("error", status.message());
  o.Set("code", StatusCodeToString(status.code()));
  return o;
}

JsonValue OkResponse() {
  JsonValue o = JsonValue::MakeObject();
  o.Set("ok", true);
  return o;
}

JsonValue PlanCandidateJson(const PlanCandidate& candidate) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("engine", EngineKindToString(candidate.kind));
  o.Set("modeled_seconds", candidate.modeled_seconds);
  o.Set("cycles", static_cast<uint64_t>(candidate.planned_cycles));
  o.Set("star_bytes", candidate.star_bytes);
  o.Set("peak_bytes", candidate.peak_bytes);
  o.Set("fits", candidate.fits);
  o.Set("feasible", candidate.feasible);
  o.Set("chosen", candidate.chosen);
  if (!candidate.note.empty()) o.Set("note", candidate.note);
  return o;
}

JsonValue DatasetInfoJson(const DatasetInfo& info) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("name", info.name);
  o.Set("epoch", info.epoch);
  o.Set("loaded", info.loaded);
  o.Set("triples", static_cast<uint64_t>(info.num_triples));
  o.Set("bytes", info.base_bytes);
  o.Set("mapped", info.mapped);
  if (info.mapped) {
    o.Set("mapped_bytes", info.mapped_bytes);
    o.Set("mapped_scans", info.mapped_scans);
  }
  return o;
}

Result<NodePattern> NodeFromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("pattern position must be an object");
  }
  const bool has_var = value.Has("var");
  const bool has_const = value.Has("const");
  if (has_var == has_const) {
    return Status::InvalidArgument(
        "pattern position needs exactly one of \"var\" or \"const\"");
  }
  if (has_const) {
    if (value.Has("contains")) {
      return Status::InvalidArgument(
          "\"contains\" applies to variables only");
    }
    return NodePattern::Const(value.GetString("const"));
  }
  return NodePattern::Var(value.GetString("var"),
                          value.GetString("contains"));
}

JsonValue NodeToJson(const NodePattern& node) {
  JsonValue o = JsonValue::MakeObject();
  if (node.is_constant()) {
    o.Set("const", node.value);
  } else {
    o.Set("var", node.value);
    if (!node.contains_filter.empty()) o.Set("contains", node.contains_filter);
  }
  return o;
}

/// Builds the executable query + optional aggregate out of one query spec
/// object ("query_id" | "sparql" | "patterns").
struct ParsedQuerySpec {
  std::shared_ptr<const GraphPatternQuery> query;
  std::optional<AggregateSpec> aggregate;
};

Result<ParsedQuerySpec> QuerySpecFromJson(const JsonValue& spec) {
  ParsedQuerySpec out;
  const bool has_id = spec.Has("query_id");
  const bool has_sparql = spec.Has("sparql");
  const bool has_patterns = spec.Has("patterns");
  if (has_id + has_sparql + has_patterns != 1) {
    return Status::InvalidArgument(
        "query spec needs exactly one of \"query_id\", \"sparql\", or "
        "\"patterns\"");
  }
  if (has_id) {
    RDFMR_ASSIGN_OR_RETURN(out.query,
                           GetTestbedQuery(spec.GetString("query_id")));
  } else if (has_sparql) {
    RDFMR_ASSIGN_OR_RETURN(
        ParsedQuery parsed,
        ParseSparqlQuery(spec.GetString("name", "inline"),
                         spec.GetString("sparql")));
    out.query = std::make_shared<const GraphPatternQuery>(
        std::move(parsed.query));
    out.aggregate = std::move(parsed.aggregate);
  } else {
    const JsonValue& patterns = spec.Get("patterns");
    if (!patterns.is_array() || patterns.AsArray().empty()) {
      return Status::InvalidArgument(
          "\"patterns\" must be a non-empty array");
    }
    std::vector<TriplePattern> parsed;
    parsed.reserve(patterns.AsArray().size());
    for (const JsonValue& p : patterns.AsArray()) {
      RDFMR_ASSIGN_OR_RETURN(TriplePattern tp, PatternFromJson(p));
      parsed.push_back(std::move(tp));
    }
    RDFMR_ASSIGN_OR_RETURN(
        GraphPatternQuery query,
        GraphPatternQuery::Create(spec.GetString("name", "adhoc"),
                                  std::move(parsed)));
    out.query =
        std::make_shared<const GraphPatternQuery>(std::move(query));
  }
  if (spec.Has("aggregate")) {
    RDFMR_ASSIGN_OR_RETURN(AggregateSpec agg,
                           AggregateFromJson(spec.Get("aggregate")));
    out.aggregate = std::move(agg);
  }
  return out;
}

Result<EngineOptions> OptionsFromJson(const JsonValue& request) {
  EngineOptions options;
  if (request.Has("engine")) {
    RDFMR_ASSIGN_OR_RETURN(options.kind,
                           EngineKindFromString(request.GetString("engine")));
  }
  if (request.Has("phi")) {
    const double phi = request.Get("phi").AsDouble(0.0);
    if (!(phi >= 1.0 && phi < 4294967296.0) || phi != std::floor(phi)) {
      return Status::InvalidArgument(
          "\"phi\" must be an integer in [1, 2^32)");
    }
    options.phi_partitions = static_cast<uint32_t>(phi);
  }
  if (request.Has("threads")) {
    const double threads = request.Get("threads").AsDouble(-1.0);
    if (!(threads >= 0.0 && threads <= kMaxRequestThreads) ||
        threads != std::floor(threads)) {
      return Status::InvalidArgument(StringFormat(
          "\"threads\" must be an integer in [0, %u]", kMaxRequestThreads));
    }
    options.runtime.num_threads = static_cast<uint32_t>(threads);
  }
  return options;
}

JsonValue AnswersJson(const SolutionSet& answers, uint64_t max_answers) {
  JsonValue array = JsonValue::MakeArray();
  const size_t count = max_answers > 0 && max_answers < answers.size()
                           ? static_cast<size_t>(max_answers)
                           : answers.size();
  for (size_t row = 0; row < count; ++row) {
    std::string line;
    answers.AppendSerialized(row, &line);
    array.Append(std::move(line));
  }
  return array;
}

/// Response shaping for the query/batch verbs, run on the Submit()
/// completion path. A terse response carries only the verdict and the
/// answers: the stats envelope is ~1 KB and costs more to serialize than
/// the whole rest of the warm path, so pipelined high-throughput clients
/// opt out of it.
JsonValue ShapeQueryResponse(const ServiceResponse& response,
                             uint64_t max_answers, bool per_query,
                             bool terse) {
  if (!response.ok()) return ErrorResponse(response.status);
  JsonValue o = OkResponse();
  if (!terse) {
    o.Set("epoch", response.epoch);
    o.Set("plan_cache_hit", false);  // wire v1 field; there is no plan cache
    o.Set("result_cache_hit", response.result_cache_hit);
    o.Set("queue_micros", response.queue_micros);
    o.Set("exec_micros", response.exec_micros);
    o.Set("stats", ExecStatsToJson(response.stats));
  }
  if (per_query) {
    JsonValue answers = JsonValue::MakeArray();
    JsonValue counts = JsonValue::MakeArray();
    for (const SolutionSet& set : response.batch_answer_sets()) {
      answers.Append(AnswersJson(set, max_answers));
      counts.Append(static_cast<uint64_t>(set.size()));
    }
    o.Set("answers", std::move(answers));
    o.Set("num_answers", std::move(counts));
  } else {
    o.Set("answers", AnswersJson(response.answer_set(), max_answers));
    o.Set("num_answers",
          static_cast<uint64_t>(response.answer_set().size()));
  }
  return o;
}

JsonValue HandleLoad(QueryService* query_service, const JsonValue& request) {
  const std::string dataset = request.GetString("dataset");
  if (dataset.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("load: need a \"dataset\" name"));
  }
  const bool has_path = request.Has("path");
  const bool has_family = request.Has("family");
  const bool has_triples = request.Has("triples");
  if (has_path + has_family + has_triples != 1) {
    return ErrorResponse(Status::InvalidArgument(
        "load: need exactly one of \"path\", \"family\", or \"triples\""));
  }
  Result<DatasetInfo> info = Status::Unknown("unreachable");
  if (has_triples) {
    const JsonValue& rows = request.Get("triples");
    if (!rows.is_array()) {
      return ErrorResponse(Status::InvalidArgument(
          "load: \"triples\" must be an array of [s,p,o] arrays"));
    }
    std::vector<Triple> triples;
    triples.reserve(rows.AsArray().size());
    for (const JsonValue& row : rows.AsArray()) {
      if (!row.is_array() || row.AsArray().size() != 3) {
        return ErrorResponse(Status::InvalidArgument(
            "load: each triple must be a [s,p,o] array"));
      }
      const JsonValue::Array& fields = row.AsArray();
      if (!fields[0].is_string() || !fields[1].is_string() ||
          !fields[2].is_string()) {
        return ErrorResponse(Status::InvalidArgument(
            "load: each triple's s, p and o must be strings"));
      }
      triples.emplace_back(fields[0].AsString(), fields[1].AsString(),
                           fields[2].AsString());
    }
    Status terms = CheckSubjectAndProperty(triples, "load:");
    if (!terms.ok()) return ErrorResponse(terms);
    info = query_service->LoadDataset(dataset, std::move(triples));
  } else {
    TripleLoader loader;
    if (has_path) {
      const std::string path = request.GetString("path");
      if (storage::IsRdxPath(path) && !request.GetBool("eager")) {
        // rdx files map zero-copy: validated now, served by mapped scans
        // from the first query on; "eager" still forces an immediate
        // parse-and-decode below.
        info = query_service->RegisterMappedDataset(dataset, path);
        if (!info.ok()) return ErrorResponse(info.status());
        JsonValue mapped_ok = OkResponse();
        mapped_ok.Set("dataset", DatasetInfoJson(*info));
        return mapped_ok;
      }
      loader = [path] { return ReadDatasetFile(path); };
    } else {
      const std::string family = request.GetString("family");
      const uint64_t scale = request.GetUint("scale", 100);
      const uint64_t seed = request.GetUint("seed", 42);
      loader = [family, scale, seed] {
        return GenerateFamilyDataset(family, scale, seed);
      };
    }
    if (request.GetBool("eager")) {
      Result<std::vector<Triple>> triples = loader();
      if (!triples.ok()) return ErrorResponse(triples.status());
      info = query_service->LoadDataset(dataset, *std::move(triples));
    } else {
      info = query_service->RegisterDataset(dataset, std::move(loader));
    }
  }
  if (!info.ok()) return ErrorResponse(info.status());
  JsonValue o = OkResponse();
  o.Set("dataset", DatasetInfoJson(*info));
  return o;
}

/// Options shared by the query and batch verbs.
Status FillCommonQueryFields(const JsonValue& request,
                             ServiceRequest* service_request) {
  RDFMR_ASSIGN_OR_RETURN(service_request->options,
                         OptionsFromJson(request));
  service_request->deadline_ms = request.GetUint("deadline_ms", 0);
  // "no_plan_cache" is accepted and ignored (wire v1).
  service_request->use_result_cache = !request.GetBool("no_result_cache");
  return Status::OK();
}

Result<ServiceRequest> BuildQueryRequest(const JsonValue& request) {
  ServiceRequest service_request;
  service_request.dataset = request.GetString("dataset");
  RDFMR_ASSIGN_OR_RETURN(ParsedQuerySpec spec, QuerySpecFromJson(request));
  service_request.query = spec.query;
  service_request.aggregate = spec.aggregate;
  RDFMR_RETURN_NOT_OK(FillCommonQueryFields(request, &service_request));
  return service_request;
}

Result<ServiceRequest> BuildBatchRequest(const JsonValue& request) {
  ServiceRequest service_request;
  service_request.dataset = request.GetString("dataset");
  if (request.Has("query_ids")) {
    const JsonValue& ids = request.Get("query_ids");
    if (!ids.is_array()) {
      return Status::InvalidArgument(
          "batch: \"query_ids\" must be an array of catalog ids");
    }
    for (const JsonValue& id : ids.AsArray()) {
      RDFMR_ASSIGN_OR_RETURN(auto query, GetTestbedQuery(id.AsString()));
      service_request.batch.push_back(std::move(query));
    }
  } else if (request.Has("queries")) {
    const JsonValue& specs = request.Get("queries");
    if (!specs.is_array()) {
      return Status::InvalidArgument(
          "batch: \"queries\" must be an array of query objects");
    }
    for (const JsonValue& spec : specs.AsArray()) {
      RDFMR_ASSIGN_OR_RETURN(ParsedQuerySpec parsed,
                             QuerySpecFromJson(spec));
      if (parsed.aggregate.has_value()) {
        return Status::InvalidArgument(
            "batch: aggregation is not supported in batches");
      }
      service_request.batch.push_back(parsed.query);
    }
  }
  if (service_request.batch.empty()) {
    return Status::InvalidArgument(
        "batch: need a non-empty \"query_ids\" or \"queries\" array");
  }
  const std::string mode = request.GetString("mode", "batch");
  if (mode == "union") {
    service_request.batch_mode = BatchMode::kUnion;
  } else if (mode == "batch") {
    service_request.batch_mode = BatchMode::kPerQuery;
  } else {
    return Status::InvalidArgument(
        "batch: \"mode\" must be \"batch\" or \"union\"");
  }
  RDFMR_RETURN_NOT_OK(FillCommonQueryFields(request, &service_request));
  return service_request;
}

/// The `explain` verb: scores every candidate engine for the request's
/// query (or batch) against the dataset's statistics catalog and returns
/// the table WITHOUT executing anything. Accepts the same body as the
/// query verb (single spec) or the batch verb ("query_ids"/"queries").
JsonValue HandleExplain(QueryService* query_service,
                        const JsonValue& request) {
  const bool batch_shape =
      request.Has("query_ids") || request.Has("queries");
  Result<ServiceRequest> built = batch_shape ? BuildBatchRequest(request)
                                             : BuildQueryRequest(request);
  if (!built.ok()) return ErrorResponse(built.status());
  Result<PlanChoice> choice = query_service->Explain(*built);
  if (!choice.ok()) return ErrorResponse(choice.status());
  JsonValue o = OkResponse();
  o.Set("chosen", EngineKindToString(choice->kind));
  o.Set("rationale", choice->rationale);
  JsonValue candidates = JsonValue::MakeArray();
  for (const PlanCandidate& candidate : choice->candidates) {
    candidates.Append(PlanCandidateJson(candidate));
  }
  o.Set("candidates", std::move(candidates));
  return o;
}

JsonValue HandleStats(QueryService* query_service, const JsonValue& request) {
  const std::string format = request.GetString("format", "json");
  ServiceStatsSnapshot snapshot = query_service->SnapshotNow();
  if (format == "prometheus") {
    JsonValue o = OkResponse();
    o.Set("prometheus", snapshot.ToPrometheus());
    return o;
  }
  if (format != "json") {
    return ErrorResponse(Status::InvalidArgument(
        "stats: \"format\" must be \"json\" or \"prometheus\""));
  }
  auto stats = ParseJson(snapshot.ToJson());
  JsonValue o = OkResponse();
  o.Set("stats", stats.ok() ? *stats : JsonValue());
  return o;
}

JsonValue HandleMetrics(QueryService* query_service,
                        const JsonValue& request) {
  const std::string format = request.GetString("format", "prometheus");
  ServiceStatsSnapshot snapshot = query_service->SnapshotNow();
  if (format == "prometheus") {
    JsonValue o = OkResponse();
    o.Set("prometheus", MetricsRegistry::Global().ToPrometheusText() +
                            snapshot.ToPrometheus());
    return o;
  }
  if (format != "json") {
    return ErrorResponse(Status::InvalidArgument(
        "metrics: \"format\" must be \"prometheus\" or \"json\""));
  }
  auto metrics = ParseJson(MetricsRegistry::Global().ToJson());
  auto stats = ParseJson(snapshot.ToJson());
  JsonValue o = OkResponse();
  o.Set("metrics", metrics.ok() ? *metrics : JsonValue());
  o.Set("stats", stats.ok() ? *stats : JsonValue());
  return o;
}

}  // namespace

Result<TriplePattern> PatternFromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("pattern must be an object");
  }
  RDFMR_ASSIGN_OR_RETURN(NodePattern subject, NodeFromJson(value.Get("s")));
  RDFMR_ASSIGN_OR_RETURN(NodePattern object, NodeFromJson(value.Get("o")));
  const JsonValue& property = value.Get("p");
  if (!property.is_object() ||
      (property.Has("var") == property.Has("const"))) {
    return Status::InvalidArgument(
        "pattern \"p\" needs exactly one of \"var\" or \"const\"");
  }
  TriplePattern tp;
  if (property.Has("const")) {
    tp = TriplePattern::Bound(std::move(subject),
                              property.GetString("const"),
                              std::move(object));
  } else {
    tp = TriplePattern::Unbound(std::move(subject),
                                property.GetString("var"),
                                std::move(object));
  }
  tp.optional = value.GetBool("optional");
  return tp;
}

JsonValue PatternToJson(const TriplePattern& pattern) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("s", NodeToJson(pattern.subject));
  JsonValue p = JsonValue::MakeObject();
  p.Set(pattern.property_bound ? "const" : "var", pattern.property);
  o.Set("p", std::move(p));
  o.Set("o", NodeToJson(pattern.object));
  if (pattern.optional) o.Set("optional", true);
  return o;
}

Result<AggregateSpec> AggregateFromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("aggregate must be an object");
  }
  AggregateSpec spec;
  const JsonValue& group = value.Get("group");
  if (!group.is_array() || group.AsArray().empty()) {
    return Status::InvalidArgument(
        "aggregate \"group\" must be a non-empty array of variables");
  }
  for (const JsonValue& var : group.AsArray()) {
    spec.group_vars.push_back(var.AsString());
  }
  spec.counted_var = value.GetString("counted");
  if (spec.counted_var.empty()) {
    return Status::InvalidArgument("aggregate needs a \"counted\" variable");
  }
  spec.count_var = value.GetString("as", spec.count_var);
  spec.distinct = value.GetBool("distinct", true);
  spec.min_count = value.GetUint("min_count", 0);
  return spec;
}

JsonValue AggregateToJson(const AggregateSpec& spec) {
  JsonValue o = JsonValue::MakeObject();
  JsonValue group = JsonValue::MakeArray();
  for (const std::string& var : spec.group_vars) group.Append(var);
  o.Set("group", std::move(group));
  o.Set("counted", spec.counted_var);
  o.Set("as", spec.count_var);
  o.Set("distinct", spec.distinct);
  o.Set("min_count", spec.min_count);
  return o;
}

JsonValue ExecStatsToJson(const ExecStats& stats) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("engine", stats.engine);
  o.Set("query", stats.query);
  o.Set("ok", stats.ok());
  if (!stats.ok()) {
    o.Set("error", stats.status.ToString());
    o.Set("failed_job_index", static_cast<int64_t>(stats.failed_job_index));
  }
  o.Set("mr_cycles", static_cast<uint64_t>(stats.mr_cycles));
  o.Set("planned_cycles", static_cast<uint64_t>(stats.planned_cycles));
  o.Set("full_scans", static_cast<uint64_t>(stats.full_scans));
  o.Set("hdfs_read_bytes", stats.hdfs_read_bytes);
  o.Set("hdfs_write_bytes", stats.hdfs_write_bytes);
  o.Set("hdfs_write_bytes_replicated", stats.hdfs_write_bytes_replicated);
  o.Set("shuffle_bytes", stats.shuffle_bytes);
  o.Set("star_phase_write_bytes", stats.star_phase_write_bytes);
  o.Set("intermediate_write_bytes", stats.intermediate_write_bytes);
  o.Set("final_output_bytes", stats.final_output_bytes);
  o.Set("peak_dfs_used_bytes", stats.peak_dfs_used_bytes);
  o.Set("redundancy_factor", stats.redundancy_factor);
  o.Set("final_redundancy_factor", stats.final_redundancy_factor);
  o.Set("modeled_seconds", stats.modeled_seconds);
  o.Set("map_seconds", stats.map_seconds);
  o.Set("shuffle_sort_seconds", stats.shuffle_sort_seconds);
  o.Set("reduce_seconds", stats.reduce_seconds);
  // engine=auto runs carry the chooser's decision alongside the stats of
  // the concrete engine it resolved to.
  if (!stats.chosen_engine.empty()) {
    o.Set("chosen_engine", stats.chosen_engine);
    o.Set("plan_rationale", stats.plan_rationale);
    JsonValue candidates = JsonValue::MakeArray();
    for (const PlanCandidate& candidate : stats.plan_candidates) {
      candidates.Append(PlanCandidateJson(candidate));
    }
    o.Set("plan_candidates", std::move(candidates));
  }
  return o;
}

namespace {

bool VersionOk(const JsonValue& request) {
  if (!request.Has("v")) return true;
  const JsonValue& version = request.Get("v");
  return version.is_number() && version.AsUint() == kProtocolVersion;
}

void StampEnvelope(const JsonValue& request, JsonValue* response) {
  response->Set("v", kProtocolVersion);
  if (request.is_object() && request.Has("id")) {
    response->Set("id", request.Get("id"));
  }
}

/// The one dispatcher of an already-parsed request. The slow verbs
/// ("query"/"batch") are built and validated inline, then submitted to the
/// service's worker pool; every other verb completes inline.
AsyncDispatch Dispatch(QueryService* query_service, const JsonValue& request,
                       HandleDone done) {
  AsyncDispatch dispatch;
  auto finish = [&request, &done](JsonValue response, bool shutdown) {
    StampEnvelope(request, &response);
    done(std::move(response), shutdown);
  };
  if (!request.is_object()) {
    finish(ErrorResponse(
               Status::InvalidArgument("request must be a JSON object")),
           false);
    return dispatch;
  }
  dispatch.ordered_requested = request.GetBool("ordered");
  if (!VersionOk(request)) {
    finish(ErrorResponse(Status::InvalidArgument(
               "unsupported protocol version (supported: " +
               std::to_string(kProtocolVersion) + ")")),
           false);
    return dispatch;
  }
  const std::string verb = request.GetString("verb");
  if (verb == "query" || verb == "batch") {
    Result<ServiceRequest> built = verb == "query"
                                       ? BuildQueryRequest(request)
                                       : BuildBatchRequest(request);
    if (!built.ok()) {
      finish(ErrorResponse(built.status()), false);
      return dispatch;
    }
    const uint64_t max_answers = request.GetUint("max_answers", 0);
    const bool per_query =
        built->query == nullptr && built->batch_mode == BatchMode::kPerQuery;
    const bool terse = request.GetBool("terse");
    const bool has_id = request.Has("id");
    JsonValue id = has_id ? request.Get("id") : JsonValue();
    query_service->Submit(
        *std::move(built),
        [done = std::move(done), max_answers, per_query, terse, has_id,
         id = std::move(id)](ServiceResponse response) {
          JsonValue shaped =
              ShapeQueryResponse(response, max_answers, per_query, terse);
          shaped.Set("v", kProtocolVersion);
          if (has_id) shaped.Set("id", id);
          done(std::move(shaped), false);
        });
    return dispatch;
  }
  if (verb == "ping") {
    finish(OkResponse(), false);
  } else if (verb == "load") {
    finish(HandleLoad(query_service, request), false);
  } else if (verb == "drop") {
    Status st = query_service->DropDataset(request.GetString("dataset"));
    finish(st.ok() ? OkResponse() : ErrorResponse(st), false);
  } else if (verb == "list") {
    JsonValue datasets = JsonValue::MakeArray();
    for (const DatasetInfo& info : query_service->ListDatasets()) {
      datasets.Append(DatasetInfoJson(info));
    }
    JsonValue o = OkResponse();
    o.Set("datasets", std::move(datasets));
    finish(std::move(o), false);
  } else if (verb == "explain") {
    finish(HandleExplain(query_service, request), false);
  } else if (verb == "stats") {
    finish(HandleStats(query_service, request), false);
  } else if (verb == "metrics") {
    finish(HandleMetrics(query_service, request), false);
  } else if (verb == "shutdown") {
    finish(OkResponse(), true);
  } else {
    finish(ErrorResponse(Status::InvalidArgument(
               "unknown verb: \"" + verb +
               "\" (want ping|load|drop|list|explain|query|batch|stats|"
               "metrics|shutdown)")),
           false);
  }
  return dispatch;
}

}  // namespace

AsyncDispatch HandleRequestLineAsync(QueryService* query_service,
                                     const std::string& line,
                                     HandleDone done) {
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    JsonValue response = ErrorResponse(parsed.status());
    response.Set("v", kProtocolVersion);
    done(std::move(response), false);
    return AsyncDispatch();
  }
  return Dispatch(query_service, *parsed, std::move(done));
}

HandleResult HandleRequestLine(QueryService* query_service,
                               const std::string& line) {
  std::promise<HandleResult> promise;
  std::future<HandleResult> future = promise.get_future();
  HandleRequestLineAsync(query_service, line,
                         [&promise](JsonValue response, bool shutdown) {
                           promise.set_value(
                               HandleResult{std::move(response), shutdown});
                         });
  return future.get();
}

}  // namespace service
}  // namespace rdfmr
