// explore: the analyst's ad-hoc path. One unix connection to an in-process
// ServiceServer sends, closed loop, SPARQL it has never sent before in the
// run: seeded variants of the A- and B-series templates with a different
// CONTAINS literal each. engine=auto, answers capped by max_answers. The
// datasets are indexed to .rdx and registered mapped. No cache can hit.
//
// The traced run replays every traced request in-process on the same
// mapped files (parse, chooser, compile, Exec under spans, decode) to
// attribute the server's time to layers.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "attribution.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "engine/plan_chooser.h"
#include "query/sparql_parser.h"
#include "service/client.h"
#include "service/query_service.h"
#include "service/server.h"
#include "storage/mapped_dataset.h"
#include "storage/rdx_reader.h"
#include "workloads.h"

namespace perfbench {

using rdfmr::JsonValue;
using rdfmr::Result;
using rdfmr::Status;

namespace {

/// Bio2RDF-like at 1500 genes is about 42k triples, BSBM at 400 products
/// about 13k.
constexpr uint64_t kGenes = 1500;
constexpr uint64_t kProducts = 400;
constexpr uint64_t kSmokeGenes = 400;
constexpr uint64_t kSmokeProducts = 40;
/// One request executes at a time, on 4 engine threads.
constexpr uint32_t kEngineThreads = 4;
constexpr uint32_t kMaxConcurrent = 1;
static_assert(kEngineThreads * kMaxConcurrent <= 4, "sized for 4 cores");
constexpr uint64_t kMaxAnswers = 100;

/// A query shape with one CONTAINS literal `$` drawn per request.
struct Template {
  const char* dataset;  // "bio" | "bsbm"
  const char* id;
  const char* sparql;
  const char* literal;  // printf format for the literal, one %llu
  enum Pool { kGoTerms, kArticles, kGenes, kProducers, kVendors } pool;
};

const Template kTemplates[] = {
    {"bio", "A1",
     "SELECT * WHERE { ?g <label> ?l . ?g <xRef> ?ref . ?g ?up ?x . "
     "FILTER(CONTAINS(STR(?x), \"$\")) }",
     "go_%llu", Template::kGoTerms},
    {"bio", "A2",
     "SELECT * WHERE { ?g <subType> ?st . ?g <xTaxon> ?tx . ?g ?up ?x . "
     "FILTER(CONTAINS(STR(?x), \"$\")) }",
     "pmid_%llu", Template::kArticles},
    {"bio", "A3",
     "SELECT * WHERE { ?g <label> ?l . ?g <xRef> ?ref . ?g ?up1 ?go . "
     "FILTER(CONTAINS(STR(?go), \"$\")) ?go <goLabel> ?gl . ?go ?up2 ?y . }",
     "go_%llu", Template::kGoTerms},
    {"bio", "A4",
     "SELECT * WHERE { ?g <subType> ?st . ?g <xGO> ?go . ?g ?up1 ?r . "
     "FILTER(CONTAINS(STR(?r), \"$\")) ?r <articleTitle> ?t . ?r ?up2 ?y . }",
     "pmid_%llu", Template::kArticles},
    {"bio", "A6",
     "SELECT * WHERE { ?g <label> ?l . ?g <xGO> ?go . ?g ?up ?x . "
     "FILTER(CONTAINS(STR(?x), \"$\")) ?go <goLabel> ?gl . "
     "?go <goNamespace> ?ns . }",
     "gene %llu", Template::kGenes},
    {"bsbm", "B2",
     "SELECT * WHERE { ?p <label> ?l . ?p <prodFeature> ?f . ?p ?up ?x . "
     "FILTER(CONTAINS(STR(?x), \"$\")) ?o <product> ?p . ?o <vendor> ?v . "
     "?o <price> ?pr . }",
     "producer%llu", Template::kProducers},
    {"bsbm", "B3",
     "SELECT * WHERE { ?p <label> ?l . ?p ?up1 ?x1 . "
     "FILTER(CONTAINS(STR(?x1), \"$\")) ?p ?up2 ?x2 . ?o <product> ?p . "
     "?o <vendor> ?v . ?o <price> ?pr . }",
     "producer%llu", Template::kProducers},
    {"bsbm", "B6",
     "SELECT * WHERE { ?p <label> ?l . ?p ?up1 ?x . ?x <featureLabel> ?fl . "
     "?o <product> ?p . ?o ?up2 ?y . FILTER(CONTAINS(STR(?y), \"$\")) "
     "?o <price> ?pr . }",
     "vendor%llu", Template::kVendors},
};

struct Variant {
  const Template* shape;
  std::string name;
  std::string sparql;
};

/// Every (template, literal) pair in a seeded order: drawing them in turn
/// never repeats a query within a run.
///
/// Literals take every value from the first one with as many digits as the
/// pool's last, so a literal matches a handful of terms, not a tenth of
/// them ("go_1" would also match go_10..go_199): the variants stay ad hoc
/// but comparable in cost.
std::vector<Variant> DrawVariants(uint64_t seed, uint64_t genes) {
  const uint64_t pool_sizes[] = {genes * 2 / 5, genes * 8 / 15, genes, 50, 30};
  std::vector<Variant> variants;
  for (const Template& shape : kTemplates) {
    const uint64_t size = pool_sizes[shape.pool];
    uint64_t first = 1;
    while (first * 10 <= size / 2) first *= 10;
    for (uint64_t k = first; k < size; ++k) {
      const std::string literal = rdfmr::StringFormat(
          shape.literal, static_cast<unsigned long long>(k));
      std::string sparql = shape.sparql;
      sparql.replace(sparql.find('$'), 1, literal);
      variants.push_back(Variant{&shape, std::string(shape.id) + "[" +
                                             literal + "]",
                                 std::move(sparql)});
    }
  }
  uint64_t state = seed * 0x5851f42d4c957f2dULL + 17;
  for (size_t i = variants.size(); i > 1; --i) {
    std::swap(variants[i - 1], variants[Mix(&state) % i]);
  }
  return variants;
}

rdfmr::ClusterConfig ExploreCluster() {
  rdfmr::ClusterConfig cluster;
  cluster.num_nodes = 8;
  cluster.disk_per_node = 512ULL << 20;
  cluster.replication = 1;
  cluster.num_reducers = 4;
  cluster.num_threads = kEngineThreads;
  return cluster;
}

/// One set-up: datasets, service, server, connection.
struct Env {
  Dataset bio;
  Dataset bsbm;
  double register_ms = 0.0;
  std::unique_ptr<rdfmr::service::QueryService> service;
  std::unique_ptr<rdfmr::service::ServiceServer> server;
  std::optional<rdfmr::service::ServiceClient> client;

  const Dataset& Get(const std::string& name) const {
    return name == "bio" ? bio : bsbm;
  }
  ~Env() {
    client.reset();
    if (server) server->Stop();
  }
};

Result<std::unique_ptr<Env>> SetUp(const Options& options, uint64_t genes,
                                   uint64_t products) {
  auto env = std::make_unique<Env>();
  RDFMR_ASSIGN_OR_RETURN(
      env->bio, PrepareDataset(options.run_dir, "explore-bio",
                               GenerateBioData(genes, options.seed), true));
  RDFMR_ASSIGN_OR_RETURN(
      env->bsbm,
      PrepareDataset(options.run_dir, "explore-bsbm",
                     GenerateBsbmData(products, options.seed), true));
  rdfmr::service::ServiceConfig config;
  config.cluster = ExploreCluster();
  config.max_concurrent = kMaxConcurrent;
  env->service = std::make_unique<rdfmr::service::QueryService>(config);
  const Clock::time_point start = Clock::now();
  for (const Dataset* d : {&env->bio, &env->bsbm}) {
    const std::string name = d == &env->bio ? "bio" : "bsbm";
    RDFMR_RETURN_NOT_OK(
        env->service->RegisterMappedDataset(name, d->rdx_path).status());
  }
  env->register_ms = MillisSince(start);
  env->server = std::make_unique<rdfmr::service::ServiceServer>(
      env->service.get(), options.run_dir + "/explore.sock");
  RDFMR_RETURN_NOT_OK(env->server->Start());
  RDFMR_ASSIGN_OR_RETURN(
      rdfmr::service::ServiceClient client,
      rdfmr::service::ServiceClient::Connect(
          "unix:" + options.run_dir + "/explore.sock"));
  env->client.emplace(std::move(client));
  // Warm-up: mount both mappings with one catalog query each.
  for (const char* warm : {"{\"verb\":\"query\",\"dataset\":\"bio\","
                           "\"query_id\":\"A2\",\"max_answers\":1}",
                           "{\"verb\":\"query\",\"dataset\":\"bsbm\","
                           "\"query_id\":\"B0\",\"max_answers\":1}"}) {
    RDFMR_ASSIGN_OR_RETURN(std::string line, env->client->CallLine(warm));
    if (line.find("\"ok\":true") == std::string::npos) {
      return Status::Unknown("warm-up failed: " + line);
    }
  }
  return env;
}

/// What the client saw for one request.
struct Sample {
  size_t variant = 0;
  double rtt_ms = 0.0;
  uint64_t num_answers = 0;
  std::string answers_json;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  uint64_t bytes = 0;
  uint64_t dfs[4] = {0, 0, 0, 0};
};

}  // namespace

Report RunExplore(const Options& options) {
  Report report;
  const uint64_t genes = options.smoke ? kSmokeGenes : kGenes;
  const uint64_t products = options.smoke ? kSmokeProducts : kProducts;

  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  while (MoreSetUps(setup_s)) {
    env.reset();
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<Env>> made = SetUp(options, genes, products);
    if (!made.ok()) {
      report.Wrong("set-up: " + made.status().ToString());
      return report;
    }
    env = std::move(*made);
    setup_s.push_back(MillisSince(start) / 1e3);
  }
  report.end_to_end["setup_s"] = {Median(setup_s), "s"};

  const std::vector<Variant> variants = DrawVariants(options.seed, genes);
  size_t next_variant = 0;
  std::vector<Sample> samples;

  // In-process replay state for the traced run: the same .rdx files
  // mounted on private SimDfs instances.
  struct Replica {
    std::unique_ptr<rdfmr::SimDfs> dfs;
    uint64_t base_bytes = 0;
  };
  std::map<std::string, Replica> replicas;
  if (options.trace) {
    for (const char* name : {"bio", "bsbm"}) {
      Result<std::shared_ptr<const rdfmr::storage::RdxReader>> reader =
          rdfmr::storage::RdxReader::Open(env->Get(name).rdx_path);
      if (!reader.ok()) {
        report.Wrong("replay set-up: " + reader.status().ToString());
        return report;
      }
      auto source = std::make_shared<rdfmr::storage::MappedDataset>(*reader);
      Replica replica;
      replica.base_bytes = source->total_bytes();
      replica.dfs = std::make_unique<rdfmr::SimDfs>(ExploreCluster());
      Status mounted = replica.dfs->MountMapped("base", source);
      if (!mounted.ok()) {
        report.Wrong("replay set-up: " + mounted.ToString());
        return report;
      }
      replicas[name] = std::move(replica);
    }
  }

  // One closed-loop request; false ends the window early: when every
  // variant has been sent (a repeat would no longer be ad hoc) or the
  // connection failed.
  bool planted = false;
  auto issue = [&](Sample* sample) -> bool {
    if (next_variant >= variants.size()) {
      std::printf("note: all %zu query variants sent; window ends early\n",
                  variants.size());
      return false;
    }
    sample->variant = next_variant++;
    const Variant& variant = variants[sample->variant];
    JsonValue request = JsonValue::MakeObject();
    request.Set("verb", "query");
    request.Set("dataset", variant.shape->dataset);
    request.Set("name", variant.name);
    request.Set("sparql", variant.sparql);
    request.Set("engine", "auto");
    request.Set("threads", static_cast<uint64_t>(kEngineThreads));
    request.Set("max_answers", kMaxAnswers);
    request.Set("id", static_cast<uint64_t>(sample->variant));
    const std::string line = request.Dump();
    ++report.attempted;
    const Clock::time_point start = Clock::now();
    Result<std::string> reply = env->client->CallLine(line);
    sample->rtt_ms = MillisSince(start);
    Result<JsonValue> response =
        reply.ok() ? rdfmr::ParseJson(*reply) : Result<JsonValue>(reply.status());
    if (!response.ok() || !response->GetBool("ok")) {
      ++report.failed;
      report.Wrong(variant.name + ": request failed: " +
                   (reply.ok() ? *reply : reply.status().ToString()));
      return reply.ok();
    }
    sample->bytes = reply->size() + 1;
    sample->num_answers = response->GetUint("num_answers");
    if (options.plant_wrong_answer && !planted) {
      sample->num_answers += 1;  // the drill: one response lies
      planted = true;
    }
    sample->answers_json = response->Get("answers").Dump();
    sample->queue_ms = response->GetDouble("queue_micros") / 1e3;
    sample->exec_ms = response->GetDouble("exec_micros") / 1e3;
    const JsonValue& stats = response->Get("stats");
    sample->dfs[0] = stats.GetUint("hdfs_read_bytes");
    sample->dfs[1] = stats.GetUint("hdfs_write_bytes");
    sample->dfs[2] = stats.GetUint("shuffle_bytes");
    sample->dfs[3] = stats.GetUint("mr_cycles");
    return true;
  };

  // Closed loop in one-second slices (see EmitSlicedMetrics).
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  const double slice_seconds = std::min(1.0, window / 4);
  std::vector<double> latencies;
  std::vector<Slice> slices;
  const rdfmr::service::ServiceStatsSnapshot stats_start =
      env->service->SnapshotNow();
  const Clock::time_point start = Clock::now();
  bool more = true;
  while (more && MillisSince(start) / 1e3 < window) {
    Slice slice;
    const double cpu_start = CpuSeconds();
    const Clock::time_point slice_start = Clock::now();
    while (MillisSince(slice_start) / 1e3 < slice_seconds) {
      Sample sample;
      if (!(more = issue(&sample))) break;
      slice.latencies_ms.push_back(sample.rtt_ms);
      samples.push_back(std::move(sample));
    }
    slice.wall_seconds = MillisSince(slice_start) / 1e3;
    slice.cpu_seconds = CpuSeconds() - cpu_start;
    latencies.insert(latencies.end(), slice.latencies_ms.begin(),
                     slice.latencies_ms.end());
    slices.push_back(std::move(slice));
  }
  std::map<std::string, std::vector<double>> by_template;
  for (const Sample& sample : samples) {
    by_template[variants[sample.variant].shape->id].push_back(sample.rtt_ms);
  }
  for (const auto& [id, ms] : by_template) {
    std::printf("template %s requests %zu median_ms %.3f\n", id.c_str(),
                ms.size(), Median(ms));
  }

  // ---- traced half: client spans plus an in-process replay per request ----
  // The served request itself runs untraced (only operator metrics are on),
  // so bench.trace_overhead_ratio here prices EnableOperatorMetrics, and
  // bench.trace_coverage is the replay's span coverage of Exec.
  rdfmr::Trace trace;
  LayerAccounts accounts;
  std::vector<double> traced_latencies, parse_us, choose_ms;
  if (options.trace) {
    rdfmr::EnableOperatorMetrics(true);
    NtgaProbe ntga;
    uint64_t executions = 0;
    const Clock::time_point traced_start = Clock::now();
    while (MillisSince(traced_start) / 1e3 < window) {
      Sample sample;
      const int64_t begin = trace.ElapsedMicros();
      if (!issue(&sample)) break;
      ++executions;  // the server's execution
      traced_latencies.push_back(sample.rtt_ms);
      const int64_t rtt = static_cast<int64_t>(sample.rtt_ms * 1e3);
      rdfmr::TraceSpan* span =
          AddSpan(trace.root(), "request", begin, rtt);
      const int64_t queue = static_cast<int64_t>(sample.queue_ms * 1e3);
      const int64_t exec = static_cast<int64_t>(sample.exec_ms * 1e3);
      AddSpan(span, "queue", begin, queue);
      AddSpan(span, "service_exec", begin + queue, exec);
      AddSpan(span, "transport", begin + queue + exec, rtt - queue - exec);

      // Replay: parse, choose, compile + Exec under spans, decode.
      const Variant& variant = variants[sample.variant];
      Replica& replica = replicas[variant.shape->dataset];
      const Clock::time_point parse_start = Clock::now();
      Result<rdfmr::GraphPatternQuery> parsed =
          rdfmr::ParseSparql(variant.name, variant.sparql);
      parse_us.push_back(MillisSince(parse_start) * 1e3);
      if (!parsed.ok()) {
        report.Wrong(variant.name + ": " + parsed.status().ToString());
        samples.push_back(std::move(sample));
        continue;
      }
      rdfmr::ExecRequest request;
      request.query =
          std::make_shared<const rdfmr::GraphPatternQuery>(*std::move(parsed));
      request.stats = env->Get(variant.shape->dataset).stats;
      rdfmr::EngineOptions engine_options;
      engine_options.runtime.num_threads = kEngineThreads;
      engine_options.runtime.cli_pinned = true;
      const Clock::time_point choose_start = Clock::now();
      Result<rdfmr::PlanChoice> choice = rdfmr::ChoosePlan(
          request, *request.stats, replica.base_bytes,
          replica.dfs->UsedBytes(), replica.dfs->config(), engine_options);
      choose_ms.push_back(MillisSince(choose_start));
      if (!choice.ok()) {
        report.Wrong(variant.name + ": " + choice.status().ToString());
        samples.push_back(std::move(sample));
        continue;
      }
      engine_options.kind = choice->kind;
      ExecAttribution attribution;
      Result<rdfmr::ExecResult> replayed =
          TracedExec(replica.dfs.get(), "base", request, engine_options,
                     &trace, "replay", true, &attribution);
      ++executions;
      if (!replayed.ok() || !replayed->stats.ok()) {
        report.Wrong(variant.name + ": replay failed");
      } else {
        accounts.Add(attribution);
        if (replayed->answers.size() != sample.num_answers) {
          report.Wrong(variant.name + ": replay and server disagree");
        }
      }
      samples.push_back(std::move(sample));
    }
    ntga.Emit(executions, &report);
    rdfmr::EnableOperatorMetrics(false);
  }

  if (!options.trace) EmitSlicedMetrics(slices, &report);

  // ---- verification against the oracle (not timed, on 4 threads) -----------
  std::vector<Result<Expected>> expected(samples.size(),
                                         Status::Unknown("not evaluated"));
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&] {
        for (size_t i; (i = next.fetch_add(1)) < samples.size();) {
          const Variant& variant = variants[samples[i].variant];
          Result<rdfmr::GraphPatternQuery> query =
              rdfmr::ParseSparql(variant.name, variant.sparql);
          expected[i] = query.ok() ? Result<Expected>(Oracle(
                                         *query,
                                         env->Get(variant.shape->dataset).triples,
                                         kMaxAnswers))
                                   : Result<Expected>(query.status());
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  std::vector<double> dfs_sums(4, 0.0);
  for (size_t k = 0; k < samples.size(); ++k) {
    const Sample& sample = samples[k];
    const std::string& name = variants[sample.variant].name;
    if (!expected[k].ok()) {
      report.Wrong(name + ": " + expected[k].status().ToString());
      continue;
    }
    if (sample.num_answers != expected[k]->num_answers ||
        sample.answers_json != expected[k]->answers_json) {
      report.Wrong(name + ": answers differ from the oracle");
    }
    for (int i = 0; i < 4; ++i) dfs_sums[i] += static_cast<double>(sample.dfs[i]);
  }

  if (!options.trace) return report;

  accounts.Emit(&report);
  const rdfmr::service::ServiceStatsSnapshot stats_end =
      env->service->SnapshotNow();
  const double n = samples.empty() ? 1.0 : static_cast<double>(samples.size());
  report.Layer("rdf.parse_ms", env->bio.parse_ms + env->bsbm.parse_ms);
  report.Layer("rdf.stats_ms", env->bio.stats_ms + env->bsbm.stats_ms);
  report.Layer("storage.index_build_ms", env->bio.index_ms + env->bsbm.index_ms);
  report.Layer("storage.register_ms", env->register_ms);
  report.Layer("storage.bytes_per_triple",
               static_cast<double>(env->bio.rdx_bytes + env->bsbm.rdx_bytes) /
                   static_cast<double>(env->bio.triples.size() +
                                       env->bsbm.triples.size()));
  report.Layer("dfs.hdfs_read_bytes", dfs_sums[0] / n);
  report.Layer("dfs.hdfs_write_bytes", dfs_sums[1] / n);
  report.Layer("dfs.shuffle_bytes", dfs_sums[2] / n);
  report.Layer("dfs.mr_cycles", dfs_sums[3] / n);
  report.Layer("query.sparql_parse_us", Mean(parse_us));
  report.Layer("engine.choose_ms", Mean(choose_ms));
  std::vector<double> queue, exec, transport, bytes;
  for (const Sample& s : samples) {
    queue.push_back(s.queue_ms);
    exec.push_back(s.exec_ms);
    transport.push_back((s.rtt_ms - s.queue_ms - s.exec_ms) * 1e3);
    bytes.push_back(static_cast<double>(s.bytes));
  }
  report.Layer("service.queue_wait_ms", Mean(queue));
  report.Layer("service.exec_ms", Mean(exec));
  const uint64_t lookups =
      stats_end.result_cache_lookups - stats_start.result_cache_lookups;
  report.Layer("service.result_cache_hit_ratio",
               lookups > 0 ? static_cast<double>(stats_end.result_cache_hits -
                                                 stats_start.result_cache_hits) /
                                 static_cast<double>(lookups)
                           : 0.0);
  const uint64_t plan_lookups =
      stats_end.plan_cache_lookups - stats_start.plan_cache_lookups;
  report.Layer("service.plan_cache_hit_ratio",
               plan_lookups > 0
                   ? static_cast<double>(stats_end.plan_cache_hits -
                                         stats_start.plan_cache_hits) /
                         static_cast<double>(plan_lookups)
                   : 0.0);
  report.Layer("service.rejected",
               static_cast<double>(stats_end.rejected - stats_start.rejected));
  report.Layer("net.transport_us", Median(transport));
  report.Layer("net.bytes_per_response", Mean(bytes));
  report.Layer("net.backpressure_stalls",
               static_cast<double>(
                   env->server->transport_stats().backpressure_stalls));
  std::vector<double> ping_us;
  for (int i = 0; i < 500; ++i) {
    const Clock::time_point ping_start = Clock::now();
    Result<std::string> pong = env->client->CallLine("{\"verb\":\"ping\"}");
    ping_us.push_back(MillisSince(ping_start) * 1e3);
    if (!pong.ok()) report.Wrong("ping failed");
  }
  report.Layer("net.ping_rtt_us", Median(ping_us));
  report.Layer("bench.trace_overhead_ratio",
               Median(traced_latencies) / Median(latencies));
  WriteTraceOutputs(trace, options.run_dir + "/explore");
  return report;
}

}  // namespace perfbench
