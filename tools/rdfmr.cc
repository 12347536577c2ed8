// rdfmr — command-line front end for the library.
//
//   rdfmr catalog
//       List the paper's testbed queries.
//   rdfmr generate --family bsbm|bio2rdf|dbpedia|btc [--scale N]
//                  [--seed S] --out FILE[.nt|.tsv]
//       Generate a synthetic dataset (N-Triples or tab-separated).
//   rdfmr index IN[.nt|.tsv] OUT.rdx
//       Build a persistent, memory-mappable rdx v1 file from a dataset:
//       dictionary-encoded triple blocks, a per-property index for
//       vertical-partition scans, and per-section checksums (see
//       docs/FORMAT.md). `--data OUT.rdx` then opens zero-copy.
//   rdfmr stats --data FILE
//       Print graph statistics (sizes, multiplicities, multi-valuedness).
//   rdfmr explain (--query ID | --sparql FILE)
//       Show the star decomposition, join graph, and the NTGA logical
//       plans produced by the rewrite rules for every strategy.
//   rdfmr batch --queries ID,ID,... --data FILE [--engine ...]
//       Run several testbed queries as ONE shared-scan NTGA workflow.
//   rdfmr run (--query ID | --sparql FILE) --data FILE
//              [--engine pig|hive|eager|lazyfull|lazypartial|lazy|auto]
//              [--nodes N] [--disk-mb M] [--repl R] [--phi M]
//              [--threads T] [--show-answers K] [--max-attempts A]
//              [--fault-plan SPEC] [--disk-check none|degrade|fail-fast]
//              [--explain]
//       Execute the query on the simulated cluster and print metrics.
//       --engine auto lets the cost-based plan chooser pick the
//       modeled-cheapest engine from the dataset's statistics catalog;
//       --explain prints the scored candidate table and the advisor's
//       rationale (predicted redundancy, phi_m) and exits without running
//       anything.
//       --threads runs the simulator's map/reduce phases on T host
//       threads (byte-identical results, faster wall clock).
//       --fault-plan injects seeded DFS faults, e.g.
//       "seed=7,pread=0.05,write@3,lose-node@40:2" (see
//       src/dfs/fault_plan.h); --max-attempts bounds per-op retries
//       (default: cluster max_task_attempts = 4); --disk-check reads the
//       plan chooser's footprint projection for the engine before
//       launching.
//   rdfmr serve --listen unix:PATH|tcp:HOST:PORT [--listen ...]
//               [--socket PATH] [--max-connections C] [--idle-timeout-ms I]
//               [--nodes N] [--disk-mb M] [--repl R] [--threads T]
//               [--max-concurrent C] [--queue-bound Q]
//               [--result-cache-mb M] [--deadline-ms D]
//               [--dataset NAME --data FILE]
//       Run the long-lived query service, speaking newline-delimited
//       JSON with request pipelining (see src/service/protocol.h and
//       docs/PROTOCOL.md). --listen repeats to serve AF_UNIX and TCP
//       endpoints simultaneously; tcp:HOST:0 binds an ephemeral port,
//       printed at startup. --socket PATH is shorthand for
//       --listen unix:PATH. --dataset/--data preloads one dataset;
//       an .rdx --data serves zero-materialization mapped scans.
//   rdfmr client --connect unix:PATH|tcp:HOST:PORT [--socket PATH]
//               [--connect-retries N] [--pipeline] [--request JSON]
//       Send one JSON request (or each line of stdin) to a running
//       server and print the response line(s). --connect-retries retries
//       transient connect failures with doubling backoff; --pipeline
//       sends every request before reading any response and prints the
//       responses in request order.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/runtime_options.h"
#include "common/strings.h"
#include "common/trace.h"
#include "datagen/testbed.h"
#include "dfs/fault_plan.h"
#include "engine/advisor.h"
#include "engine/engine.h"
#include "engine/plan_chooser.h"
#include "mapreduce/workflow.h"
#include "net/address.h"
#include "ntga/logical_plan.h"
#include "query/sparql_parser.h"
#include "rdf/graph_stats.h"
#include "service/client.h"
#include "service/dataset_io.h"
#include "service/query_service.h"
#include "service/server.h"
#include "storage/format.h"
#include "storage/rdx_reader.h"
#include "storage/rdx_writer.h"

namespace rdfmr {
namespace {

// ---- tiny flag parser -------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (StartsWith(arg, "--")) {
        std::string key = arg.substr(2);
        if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
          values_[key].push_back(argv[++i]);
        } else {
          values_[key].push_back("");
        }
      } else {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        ok_ = false;
      }
    }
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::vector<std::string> Keys() const {
    std::vector<std::string> keys;
    for (const auto& [key, value] : values_) keys.push_back(key);
    return keys;
  }
  /// Last occurrence wins for single-valued flags.
  std::string Get(const std::string& key, std::string fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second.back();
  }
  /// Every occurrence, in command-line order (repeatable flags like
  /// serve's --listen).
  std::vector<std::string> GetList(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>() : it->second;
  }
  uint64_t GetInt(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      return std::stoull(it->second.back());
    } catch (...) {
      std::fprintf(stderr, "bad integer for --%s: %s\n", key.c_str(),
                   it->second.back().c_str());
      return fallback;
    }
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
  bool ok_ = true;
};

// ---- dataset I/O --------------------------------------------------------------
// (shared with the query service's "load" verb; see service/dataset_io.h)

Result<std::vector<Triple>> ReadDataset(const std::string& path) {
  return service::ReadDatasetFile(path);
}

struct LoadedQuery {
  std::shared_ptr<const GraphPatternQuery> query;
  std::optional<AggregateSpec> aggregate;
};

Result<LoadedQuery> LoadQuery(const Flags& flags) {
  if (flags.Has("query")) {
    RDFMR_ASSIGN_OR_RETURN(std::shared_ptr<const GraphPatternQuery> q,
                           GetTestbedQuery(flags.Get("query")));
    return LoadedQuery{std::move(q), std::nullopt};
  }
  if (flags.Has("sparql")) {
    std::ifstream in(flags.Get("sparql"));
    if (!in) {
      return Status::IoError("cannot open: " + flags.Get("sparql"));
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    RDFMR_ASSIGN_OR_RETURN(
        ParsedQuery parsed,
        ParseSparqlQuery(flags.Get("sparql"), buffer.str()));
    return LoadedQuery{std::make_shared<const GraphPatternQuery>(
                           std::move(parsed.query)),
                       std::move(parsed.aggregate)};
  }
  return Status::InvalidArgument("need --query ID or --sparql FILE");
}

// ---- subcommands ----------------------------------------------------------------

int CmdCatalog() {
  std::printf("%-9s %-16s %s\n", "id", "dataset", "description");
  for (const TestbedEntry& entry : TestbedCatalog()) {
    std::printf("%-9s %-16s %s\n", entry.id.c_str(),
                DatasetFamilyToString(entry.dataset),
                entry.description.c_str());
  }
  return 0;
}

int CmdGenerate(const Flags& flags) {
  if (!flags.Has("out")) {
    std::fprintf(stderr, "generate: need --out FILE\n");
    return 2;
  }
  auto triples = service::GenerateFamilyDataset(flags.Get("family", "bsbm"),
                                                flags.GetInt("scale", 500),
                                                flags.GetInt("seed", 42));
  if (!triples.ok()) {
    std::fprintf(stderr, "%s\n", triples.status().ToString().c_str());
    return 1;
  }
  Status st = service::WriteDatasetFile(flags.Get("out"), *triples);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu triples to %s\n", triples->size(),
              flags.Get("out").c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  auto triples = ReadDataset(flags.Get("data"));
  if (!triples.ok()) {
    std::fprintf(stderr, "%s\n", triples.status().ToString().c_str());
    return 1;
  }
  GraphStats stats = GraphStats::Compute(*triples);
  std::printf("%s\n\n", stats.Summary().c_str());
  std::printf("%-18s %10s %10s %8s %8s\n", "property", "triples",
              "subjects", "avg-mult", "max-mult");
  for (const auto& [property, ps] : stats.properties()) {
    std::printf("%-18s %10llu %10llu %8.2f %8llu\n", property.c_str(),
                static_cast<unsigned long long>(ps.triple_count),
                static_cast<unsigned long long>(ps.subject_count),
                ps.avg_multiplicity,
                static_cast<unsigned long long>(ps.max_multiplicity));
  }
  return 0;
}

int CmdExplain(const Flags& flags) {
  auto query = LoadQuery(flags);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", query->query->ToString().c_str());
  if (query->aggregate.has_value()) {
    std::printf("aggregate: COUNT(%s?%s) AS ?%s GROUP BY %zu var(s), "
                "HAVING >= %llu\n",
                query->aggregate->distinct ? "DISTINCT " : "",
                query->aggregate->counted_var.c_str(),
                query->aggregate->count_var.c_str(),
                query->aggregate->group_vars.size(),
                static_cast<unsigned long long>(
                    query->aggregate->min_count));
  }
  std::printf("\n");
  for (NtgaStrategy strategy :
       {NtgaStrategy::kEager, NtgaStrategy::kLazyFull,
        NtgaStrategy::kLazyPartial, NtgaStrategy::kLazyAuto}) {
    auto plan = RewriteToNtga(*query->query, strategy);
    if (plan.ok()) {
      std::printf("%s\n", plan->ToString(*query->query).c_str());
    } else {
      std::printf("%s: %s\n", NtgaStrategyToString(strategy),
                  plan.status().ToString().c_str());
    }
  }
  std::printf("relational baseline: %zu star-join cycle(s) + join cycles "
              "(one star-join per MR cycle)%s\n",
              query->query->stars().size(),
              query->aggregate.has_value() ? " + 1 aggregation cycle" : "");

  // Physical job layouts, compiled exactly as a run compiles them.
  std::printf("\n-- physical plans --\n");
  const ExecRequest request =
      ExecRequest::Single(query->query, query->aggregate);
  for (EngineKind kind : {EngineKind::kHive, EngineKind::kNtgaLazy}) {
    EngineOptions options;
    options.kind = kind;
    auto plan = CompilePlan(request, "base", "tmp", options);
    if (plan.ok()) {
      std::printf("%s", DescribeWorkflow(plan->workflow).c_str());
    }
  }
  return 0;
}

Result<EngineKind> ParseEngine(const std::string& name) {
  return EngineKindFromString(name);
}

int CmdRun(const Flags& flags) {
  auto query = LoadQuery(flags);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  auto triples = ReadDataset(flags.Get("data"));
  if (!triples.ok()) {
    std::fprintf(stderr, "%s\n", triples.status().ToString().c_str());
    return 1;
  }
  ClusterConfig cluster;
  cluster.num_nodes = static_cast<uint32_t>(flags.GetInt("nodes", 8));
  cluster.disk_per_node = flags.GetInt("disk-mb", 256) << 20;
  cluster.replication = static_cast<uint32_t>(flags.GetInt("repl", 1));
  cluster.block_size = cluster.disk_per_node / 64 + 1;
  cluster.num_threads = static_cast<uint32_t>(flags.GetInt("threads", 1));
  SimDfs dfs(cluster);
  Status st = dfs.WriteFile("base", SerializeTriples(*triples));
  if (!st.ok()) {
    std::fprintf(stderr, "loading base relation: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  // Installed after the base load so op ordinal 1 is the query's first op.
  if (flags.Has("fault-plan")) {
    auto plan = FaultPlan::Parse(flags.Get("fault-plan"));
    if (!plan.ok()) {
      std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
      return 2;
    }
    Status installed = dfs.SetFaultPlan(*plan);
    if (!installed.ok()) {
      std::fprintf(stderr, "%s\n", installed.ToString().c_str());
      return 2;
    }
    std::printf("fault plan        : %s\n", plan->ToString().c_str());
  }

  auto kind = ParseEngine(flags.Get("engine", "lazy"));
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }
  EngineOptions options;
  options.kind = *kind;
  options.phi_partitions =
      static_cast<uint32_t>(flags.GetInt("phi", 1024));
  // Flags passed explicitly on the command line pin the runtime values
  // against RDFMR_THREADS / RDFMR_MAX_ATTEMPTS overrides.
  if (flags.Has("threads")) {
    options.runtime.num_threads =
        static_cast<uint32_t>(flags.GetInt("threads", 1));
    options.runtime.cli_pinned = true;
  }
  if (flags.Has("max-attempts")) {
    options.runtime.max_attempts =
        static_cast<uint32_t>(flags.GetInt("max-attempts", 0));
    options.runtime.cli_pinned = true;
  }
  const std::string disk_check = flags.Get("disk-check", "none");
  if (disk_check == "degrade") {
    options.disk_pressure = DiskPressurePolicy::kDegrade;
  } else if (disk_check == "fail-fast") {
    options.disk_pressure = DiskPressurePolicy::kFailFast;
  } else if (disk_check != "none" && !disk_check.empty()) {
    std::fprintf(stderr,
                 "bad --disk-check: %s (want none|degrade|fail-fast)\n",
                 disk_check.c_str());
    return 2;
  }
  ExecRequest request;
  request.payload = ExecPayload::kSingle;
  request.query = query->query;
  request.aggregate = query->aggregate;

  if (flags.Has("explain")) {
    // Score the candidate table against the dataset's statistics catalog
    // and exit without running anything.
    request.stats = std::make_shared<const GraphStats>(
        GraphStats::Compute(*triples));
    auto choice = ChoosePlanOnDfs(&dfs, "base", request, options);
    if (!choice.ok()) {
      std::fprintf(stderr, "%s\n", choice.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", RenderPlanChoice(*choice).c_str());
    std::printf("advisor: %s\n",
                AdviseStrategy(*request.query, *request.stats, cluster)
                    .rationale.c_str());
    return 0;
  }

  Trace trace;
  const bool tracing = flags.Has("trace");
  RunContext ctx;
  if (tracing) {
    ctx = RunContext::ForTrace(&trace);
    EnableOperatorMetrics(true);
  }
  auto exec = Exec(&dfs, "base", request, options, ctx);
  if (tracing) {
    const std::string path = flags.Get("trace");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write trace file: %s\n", path.c_str());
      return 1;
    }
    out << trace.ToChromeJson();
    std::printf("trace             : wrote %s (load in chrome://tracing)\n",
                path.c_str());
  }
  if (!exec.ok()) {
    std::fprintf(stderr, "%s\n", exec.status().ToString().c_str());
    return 1;
  }
  const ExecStats& s = exec->stats;
  if (!s.preflight.empty()) {
    std::printf("preflight         : %s\n", s.preflight.c_str());
  }
  if (!s.degraded_from.empty()) {
    std::printf("degraded from     : %s\n", s.degraded_from.c_str());
  }
  if (!s.ok()) {
    std::printf("execution FAILED at job %d of %zu: %s\n",
                s.failed_job_index, s.planned_cycles,
                s.status.ToString().c_str());
    return 1;
  }
  std::printf("engine            : %s\n", s.engine.c_str());
  if (!s.chosen_engine.empty()) {
    std::printf("plan chooser      : %s\n", s.plan_rationale.c_str());
  }
  std::printf("MR cycles         : %zu\n", s.mr_cycles);
  std::printf("full scans of base: %u\n", s.full_scans);
  std::printf("HDFS read         : %s\n",
              HumanBytes(s.hdfs_read_bytes).c_str());
  std::printf("shuffle           : %s\n",
              HumanBytes(s.shuffle_bytes).c_str());
  std::printf("HDFS write        : %s (replicated %s)\n",
              HumanBytes(s.hdfs_write_bytes).c_str(),
              HumanBytes(s.hdfs_write_bytes_replicated).c_str());
  std::printf("star-phase output : %s\n",
              HumanBytes(s.star_phase_write_bytes).c_str());
  std::printf("final output      : %s\n",
              HumanBytes(s.final_output_bytes).c_str());
  std::printf("redundancy factor : %.2f (final %.2f)\n",
              s.redundancy_factor, s.final_redundancy_factor);
  std::printf("modeled time      : %.1f s\n", s.modeled_seconds);
  std::printf("runtime phases    : map %.3fs, sort %.3fs, reduce %.3fs "
              "(host wall, %u thread(s))\n",
              s.map_seconds, s.shuffle_sort_seconds, s.reduce_seconds,
              cluster.num_threads);
  if (s.tasks_retried > 0) {
    std::printf("fault recovery    : %llu op(s) retried over %llu attempts, "
                "%s wasted, %.1f s modeled backoff\n",
                (unsigned long long)s.tasks_retried,
                (unsigned long long)s.task_attempts,
                HumanBytes(s.wasted_bytes).c_str(),
                s.retry_backoff_seconds);
  }
  std::printf("answers           : %zu\n", exec->answers.size());
  const uint64_t show = flags.GetInt("show-answers", 0);
  for (size_t row = 0; row < exec->answers.size() && row < show; ++row) {
    std::string line;
    exec->answers.AppendSerialized(row, &line);
    std::printf("  %s\n", line.c_str());
  }
  return 0;
}

int CmdBatch(const Flags& flags) {
  std::vector<std::shared_ptr<const GraphPatternQuery>> queries;
  for (const std::string& id : Split(flags.Get("queries"), ',')) {
    auto q = GetTestbedQuery(std::string(Trim(id)));
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    queries.push_back(*q);
  }
  if (queries.empty()) {
    std::fprintf(stderr, "batch: need --queries ID,ID,...\n");
    return 2;
  }
  auto triples = ReadDataset(flags.Get("data"));
  if (!triples.ok()) {
    std::fprintf(stderr, "%s\n", triples.status().ToString().c_str());
    return 1;
  }
  ClusterConfig cluster;
  cluster.num_nodes = static_cast<uint32_t>(flags.GetInt("nodes", 8));
  cluster.disk_per_node = flags.GetInt("disk-mb", 256) << 20;
  cluster.replication = static_cast<uint32_t>(flags.GetInt("repl", 1));
  cluster.block_size = cluster.disk_per_node / 64 + 1;
  cluster.num_threads = static_cast<uint32_t>(flags.GetInt("threads", 1));
  SimDfs dfs(cluster);
  if (!dfs.WriteFile("base", SerializeTriples(*triples)).ok()) return 1;

  auto kind = ParseEngine(flags.Get("engine", "lazy"));
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }
  EngineOptions options;
  options.kind = *kind;
  ExecRequest request;
  request.payload = ExecPayload::kBatch;
  request.queries = queries;
  auto batch = Exec(&dfs, "base", request, options);
  if (!batch.ok()) {
    std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
    return 1;
  }
  if (!batch->stats.ok()) {
    std::printf("batch FAILED: %s\n",
                batch->stats.status.ToString().c_str());
    return 1;
  }
  std::printf("shared batch: %zu MR cycles, %u full scan(s), %s read, "
              "%s shuffled, %s written\n",
              batch->stats.mr_cycles, batch->stats.full_scans,
              HumanBytes(batch->stats.hdfs_read_bytes).c_str(),
              HumanBytes(batch->stats.shuffle_bytes).c_str(),
              HumanBytes(batch->stats.hdfs_write_bytes).c_str());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::printf("  %-9s %zu answers\n", queries[q]->name().c_str(),
                batch->per_query[q].size());
  }
  return 0;
}

int CmdIndex(const std::string& in_path, const std::string& out_path) {
  if (!storage::IsRdxPath(out_path)) {
    std::fprintf(stderr, "index: output must end in %s, got %s\n",
                 storage::kRdxExtension, out_path.c_str());
    return 2;
  }
  auto triples = ReadDataset(in_path);
  if (!triples.ok()) {
    std::fprintf(stderr, "%s\n", triples.status().ToString().c_str());
    return 1;
  }
  Status st = storage::WriteRdxFile(out_path, *triples);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  // Reopen through the reader so what we report is what a consumer will
  // validate (checksums included).
  auto reader = storage::RdxReader::Open(out_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "index: verification failed: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }
  std::printf("indexed %s -> %s: %zu triple(s), %zu term(s), "
              "%zu propert(ies), %llu byte(s)\n",
              in_path.c_str(), out_path.c_str(), (*reader)->triple_count(),
              (*reader)->term_count(), (*reader)->property_count(),
              static_cast<unsigned long long>((*reader)->file_bytes()));
  return 0;
}

int CmdServe(const Flags& flags) {
  service::ServerOptions server_options;
  if (flags.Has("socket")) {
    server_options.listeners.push_back(
        net::Address::Unix(flags.Get("socket")));
  }
  for (const std::string& spec : flags.GetList("listen")) {
    Result<net::Address> address = net::Address::Parse(spec);
    if (!address.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   address.status().ToString().c_str());
      return 2;
    }
    server_options.listeners.push_back(*std::move(address));
  }
  if (server_options.listeners.empty()) {
    std::fprintf(stderr,
                 "serve: need --listen unix:PATH|tcp:HOST:PORT "
                 "(repeatable) or --socket PATH\n");
    return 2;
  }
  server_options.max_connections =
      static_cast<uint32_t>(flags.GetInt("max-connections", 256));
  server_options.idle_timeout_ms = flags.GetInt("idle-timeout-ms", 0);
  service::ServiceConfig config;
  config.cluster.num_nodes =
      static_cast<uint32_t>(flags.GetInt("nodes", 8));
  config.cluster.disk_per_node = flags.GetInt("disk-mb", 256) << 20;
  config.cluster.replication =
      static_cast<uint32_t>(flags.GetInt("repl", 1));
  config.cluster.block_size = config.cluster.disk_per_node / 64 + 1;
  config.cluster.num_threads =
      static_cast<uint32_t>(flags.GetInt("threads", 1));
  config.max_concurrent =
      static_cast<uint32_t>(flags.GetInt("max-concurrent", 0));
  config.queue_bound =
      static_cast<uint32_t>(flags.GetInt("queue-bound", 64));
  config.result_cache_bytes = flags.GetInt("result-cache-mb", 16) << 20;
  config.default_deadline_ms = flags.GetInt("deadline-ms", 0);

  service::QueryService query_service(config);
  if (flags.Has("data")) {
    std::string name = flags.Get("dataset", "default");
    std::string path = flags.Get("data");
    Result<service::DatasetInfo> info = Status::Unknown("unreachable");
    if (storage::IsRdxPath(path)) {
      // Mapped mode: the file is validated now (milliseconds regardless
      // of size) and the first query scans straight over the mapping.
      info = query_service.RegisterMappedDataset(name, path);
    } else {
      info = query_service.RegisterDataset(
          name, [path] { return service::ReadDatasetFile(path); });
    }
    if (!info.ok()) {
      std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
      return 1;
    }
    std::printf("registered dataset %s (epoch %llu) from %s%s\n",
                name.c_str(),
                static_cast<unsigned long long>(info->epoch), path.c_str(),
                info->mapped ? " (memory-mapped)" : "");
  }
  service::ServiceServer server(&query_service, std::move(server_options));
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::string endpoints;
  for (const net::Address& address : server.bound_addresses()) {
    if (!endpoints.empty()) endpoints += " ";
    endpoints += address.ToString();  // TCP port 0 already resolved
  }
  std::printf("rdfmr service listening on %s (%u worker(s), queue bound "
              "%u)\n",
              endpoints.c_str(), query_service.max_concurrent(),
              config.queue_bound);
  std::fflush(stdout);
  server.Wait();
  server.Stop();
  std::printf("rdfmr service stopped\n");
  return 0;
}

int CmdClient(const Flags& flags) {
  const std::string target = flags.Has("connect")
                                 ? flags.Get("connect")
                                 : flags.Get("socket");
  if (target.empty()) {
    std::fprintf(stderr,
                 "client: need --connect unix:PATH|tcp:HOST:PORT "
                 "(or --socket PATH)\n");
    return 2;
  }
  // Retry transient connect failures (server still starting up) with a
  // doubling backoff; 1 attempt = the old fail-fast behavior.
  const uint32_t attempts =
      static_cast<uint32_t>(flags.GetInt("connect-retries", 1));
  auto client = service::ServiceClient::ConnectWithRetry(target, attempts);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }

  // Collect the request lines: one --request or all of stdin.
  std::vector<std::string> lines;
  if (flags.Has("request")) {
    lines.push_back(flags.Get("request"));
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }

  int failures = 0;
  if (flags.Has("pipeline")) {
    // All requests in flight at once; responses printed back in request
    // order (CallPipelined re-matches them by their echoed "id").
    std::vector<JsonValue> requests;
    requests.reserve(lines.size());
    for (const std::string& line : lines) {
      Result<JsonValue> request = ParseJson(line);
      if (!request.ok()) {
        std::fprintf(stderr, "%s\n", request.status().ToString().c_str());
        return 1;
      }
      requests.push_back(*std::move(request));
    }
    auto responses = client->CallPipelined(std::move(requests));
    if (!responses.ok()) {
      std::fprintf(stderr, "%s\n", responses.status().ToString().c_str());
      return 1;
    }
    for (const JsonValue& response : *responses) {
      std::printf("%s\n", response.Dump().c_str());
    }
    return 0;
  }
  for (const std::string& line : lines) {
    auto response = client->CallLine(line);
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::printf("%s\n", response->c_str());
  }
  return failures == 0 ? 0 : 1;
}

constexpr const char* kSubcommands[] = {
    "catalog", "generate", "index",  "stats",  "explain",
    "run",     "batch",    "serve",  "client",
};

/// Valid flags per subcommand, for the unknown-flag diagnostic (a typo
/// like `--thread` must not be silently ignored).
const std::map<std::string, std::vector<const char*>>& SubcommandFlags() {
  static const auto* flags =
      new std::map<std::string, std::vector<const char*>>{
          {"catalog", {}},
          {"generate", {"family", "scale", "seed", "out"}},
          {"stats", {"data"}},
          {"explain", {"query", "sparql"}},
          {"run",
           {"query", "sparql", "data", "engine", "nodes", "disk-mb", "repl",
            "phi", "threads", "show-answers", "max-attempts", "fault-plan",
            "disk-check", "trace", "explain"}},
          {"batch",
           {"queries", "data", "engine", "nodes", "disk-mb", "repl",
            "threads"}},
          {"serve",
           {"socket", "listen", "max-connections", "idle-timeout-ms",
            "nodes", "disk-mb", "repl", "threads", "max-concurrent",
            "queue-bound", "result-cache-mb", "deadline-ms", "dataset",
            "data"}},
          {"client",
           {"socket", "connect", "connect-retries", "pipeline", "request"}},
      };
  return *flags;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rdfmr "
               "<catalog|generate|index|stats|explain|run|batch|"
               "serve|client> [flags]\n(see the header of tools/rdfmr.cc)\n");
  return 2;
}

/// Distinct exit code for an unrecognized subcommand (sysexits' EX_USAGE),
/// so scripts can tell "bad subcommand" from "bad flags" (2).
constexpr int kUnknownSubcommandExit = 64;

int UnknownSubcommand(const std::string& command) {
  std::fprintf(stderr, "rdfmr: unknown subcommand '%s'\n", command.c_str());
  std::fprintf(stderr, "valid subcommands:");
  for (const char* name : kSubcommands) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  return kUnknownSubcommandExit;
}

/// Mirrors UnknownSubcommand for flags: names the offending token, lists
/// every flag the subcommand accepts, exits with the same distinct code.
int UnknownFlag(const std::string& command, const std::string& flag,
                const std::vector<const char*>& valid) {
  std::fprintf(stderr, "rdfmr %s: unknown flag '--%s'\n", command.c_str(),
               flag.c_str());
  if (valid.empty()) {
    std::fprintf(stderr, "%s takes no flags\n", command.c_str());
  } else {
    std::fprintf(stderr, "valid flags:");
    for (const char* name : valid) std::fprintf(stderr, " --%s", name);
    std::fprintf(stderr, "\n");
  }
  return kUnknownSubcommandExit;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "index") {
    // Positional form: rdfmr index IN OUT.rdx (no flags).
    if (argc != 4 || StartsWith(argv[2], "--") || StartsWith(argv[3], "--")) {
      std::fprintf(stderr, "usage: rdfmr index IN[.nt|.tsv] OUT.rdx\n");
      return 2;
    }
    return CmdIndex(argv[2], argv[3]);
  }
  Flags flags(argc, argv, 2);
  if (!flags.ok()) return 2;
  auto valid = SubcommandFlags().find(command);
  if (valid != SubcommandFlags().end()) {
    for (const std::string& key : flags.Keys()) {
      bool known = false;
      for (const char* name : valid->second) {
        if (key == name) {
          known = true;
          break;
        }
      }
      if (!known) return UnknownFlag(command, key, valid->second);
    }
  }
  if (command == "catalog") return CmdCatalog();
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "explain") return CmdExplain(flags);
  if (command == "run") return CmdRun(flags);
  if (command == "batch") return CmdBatch(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "client") return CmdClient(flags);
  return UnknownSubcommand(command);
}

}  // namespace
}  // namespace rdfmr

int main(int argc, char** argv) { return rdfmr::Main(argc, argv); }
