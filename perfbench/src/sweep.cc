// sweep: the paper's evaluation grid (B0-B6 x pig/hive/eager/lazyfull/
// lazypartial) through Exec on an in-memory SimDfs, one caller, closed
// loop. A run measures whole passes over the grid; every answer is checked
// against the oracle and every cell's dfs counts must repeat exactly.

#include <array>
#include <cstdio>
#include <memory>

#include "attribution.h"
#include "common/metrics.h"
#include "datagen/testbed.h"
#include "engine/engine.h"
#include "query/sparql_parser.h"
#include "workloads.h"

namespace perfbench {

using rdfmr::EngineKind;
using rdfmr::Result;
using rdfmr::SimDfs;

namespace {

/// BSBM at 400 products is about 13k triples; the smoke scale is 40.
constexpr uint64_t kProducts = 400;
constexpr uint64_t kSmokeProducts = 40;
constexpr uint32_t kEngineThreads = 4;
constexpr const char* kQueries[] = {"B0", "B1", "B2", "B3", "B4", "B5", "B6"};
constexpr EngineKind kEngines[] = {
    EngineKind::kPig, EngineKind::kHive, EngineKind::kNtgaEager,
    EngineKind::kNtgaLazyFull, EngineKind::kNtgaLazyPartial};

/// The paper's frozen quantities for one execution.
struct DfsCounts {
  std::array<uint64_t, 4> v{};  // hdfs read, hdfs write, shuffle, mr cycles
  bool operator==(const DfsCounts&) const = default;
  void Add(const DfsCounts& o) {
    for (size_t i = 0; i < v.size(); ++i) v[i] += o.v[i];
  }
};

DfsCounts CountsOf(const rdfmr::ExecStats& stats) {
  return DfsCounts{{stats.hdfs_read_bytes, stats.hdfs_write_bytes,
                    stats.shuffle_bytes, stats.mr_cycles}};
}

struct Cell {
  std::string query_id;
  EngineKind kind;
  std::shared_ptr<const rdfmr::GraphPatternQuery> query;
  Expected expected;
  std::optional<DfsCounts> counts;  // first pass
  std::vector<double> latencies_ms;
};

rdfmr::ClusterConfig SweepCluster() {
  rdfmr::ClusterConfig cluster;
  cluster.num_nodes = 8;
  cluster.disk_per_node = 256ULL << 20;
  cluster.replication = 1;
  cluster.num_reducers = 4;
  return cluster;
}

}  // namespace

Report RunSweep(const Options& options) {
  Report report;
  const uint64_t products = options.smoke ? kSmokeProducts : kProducts;

  std::vector<std::shared_ptr<const rdfmr::GraphPatternQuery>> queries;
  for (const char* id : kQueries) {
    Result<std::shared_ptr<const rdfmr::GraphPatternQuery>> query =
        rdfmr::GetTestbedQuery(id);
    if (!query.ok()) {
      report.Wrong("set-up: " + query.status().ToString());
      return report;
    }
    queries.push_back(*query);
  }

  // ---- set-up, repeated; the last one is kept ------------------------------
  // Generate, render and parse back, load the base relation, and warm up
  // with one LazyUnnest run per query.
  std::vector<double> setup_s;
  Dataset data;
  std::unique_ptr<SimDfs> dfs;
  while (MoreSetUps(setup_s)) {
    const Clock::time_point start = Clock::now();
    Result<Dataset> prepared =
        PrepareDataset(options.run_dir, "sweep-bsbm",
                       GenerateBsbmData(products, options.seed), false);
    if (!prepared.ok()) {
      report.Wrong("set-up: " + prepared.status().ToString());
      return report;
    }
    data = *std::move(prepared);
    dfs = std::make_unique<SimDfs>(SweepCluster());
    std::vector<std::string> lines;
    lines.reserve(data.triples.size());
    for (const rdfmr::Triple& t : data.triples) lines.push_back(t.Serialize());
    rdfmr::Status written = dfs->WriteFile("base", std::move(lines));
    if (!written.ok()) {
      report.Wrong("set-up: " + written.ToString());
      return report;
    }
    for (const auto& query : queries) {
      rdfmr::ExecRequest request;
      request.query = query;
      rdfmr::EngineOptions engine_options;
      engine_options.runtime.num_threads = kEngineThreads;
      engine_options.runtime.cli_pinned = true;
      Result<rdfmr::ExecResult> warm =
          rdfmr::Exec(dfs.get(), "base", request, engine_options);
      if (!warm.ok() || !warm->stats.ok()) {
        report.Wrong("set-up warm-up of " + query->name() + " failed");
        return report;
      }
    }
    setup_s.push_back(MillisSince(start) / 1e3);
  }
  report.end_to_end["setup_s"] = {Median(setup_s), "s"};

  std::vector<Cell> cells;
  for (const auto& query : queries) {
    const Expected expected = Oracle(*query, data.triples, 1);
    for (EngineKind kind : kEngines) {
      cells.push_back(Cell{query->name(), kind, query, expected, {}, {}});
    }
  }

  // ---- one pass over the grid ------------------------------------------------
  std::optional<DfsCounts> first_pass;
  bool planted = false;
  auto run_pass = [&](rdfmr::Trace* trace, bool replay, LayerAccounts* accounts,
                      std::vector<double>* latencies) {
    DfsCounts pass;
    for (Cell& cell : cells) {
      rdfmr::ExecRequest request;
      request.query = cell.query;
      rdfmr::EngineOptions engine_options;
      engine_options.kind = cell.kind;
      engine_options.runtime.num_threads = kEngineThreads;
      engine_options.runtime.cli_pinned = true;
      Result<rdfmr::ExecResult> result = rdfmr::Status::Unknown("not run");
      double ms = 0.0;
      if (trace != nullptr) {
        ExecAttribution attribution;
        result = TracedExec(dfs.get(), "base", request, engine_options, trace,
                            "request", replay, &attribution);
        ms = attribution.wall_ms;
        if (result.ok()) accounts->Add(attribution);
      } else {
        const Clock::time_point start = Clock::now();
        result = rdfmr::Exec(dfs.get(), "base", request, engine_options);
        ms = MillisSince(start);
      }
      ++report.attempted;
      const std::string where =
          cell.query_id + "/" + rdfmr::EngineKindToString(cell.kind);
      if (!result.ok() || !result->stats.ok()) {
        ++report.failed;
        report.Wrong(where + ": " +
                     (result.ok() ? result->stats.status.ToString()
                                  : result.status().ToString()));
        continue;
      }
      latencies->push_back(ms);
      if (trace == nullptr) cell.latencies_ms.push_back(ms);
      uint64_t digest = DigestAnswers(result->answers);
      if (options.plant_wrong_answer && !planted) {
        digest ^= 1;  // the drill: one answer set no longer matches
        planted = true;
      }
      if (result->answers.size() != cell.expected.num_answers ||
          digest != cell.expected.digest) {
        report.Wrong(where + ": answers differ from the oracle");
      }
      const DfsCounts counts = CountsOf(result->stats);
      if (!cell.counts) {
        cell.counts = counts;
      } else if (!(*cell.counts == counts)) {
        report.Wrong(where + ": dfs counts moved between passes");
      }
      pass.Add(counts);
    }
    if (!first_pass) {
      first_pass = pass;
    } else if (!(*first_pass == pass)) {
      report.Wrong("dfs counts per pass moved");
    }
  };

  // ---- measurement: whole passes until the window is used --------------------
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> latencies;
  std::vector<Slice> passes;  // one slice per pass
  const Clock::time_point start = Clock::now();
  do {
    Slice pass;
    const double cpu_start = CpuSeconds();
    const Clock::time_point pass_start = Clock::now();
    run_pass(nullptr, false, nullptr, &pass.latencies_ms);
    pass.wall_seconds = MillisSince(pass_start) / 1e3;
    pass.cpu_seconds = CpuSeconds() - cpu_start;
    latencies.insert(latencies.end(), pass.latencies_ms.begin(),
                     pass.latencies_ms.end());
    passes.push_back(std::move(pass));
  } while (MillisSince(start) / 1e3 < window);
  for (const Cell& cell : cells) {
    std::printf("cell %s/%s median_ms %.3f\n", cell.query_id.c_str(),
                rdfmr::EngineKindToString(cell.kind),
                Median(cell.latencies_ms));
  }
  if (!options.trace) {
    EmitSlicedMetrics(passes, &report);
    return report;
  }

  // ---- traced passes: spans, operator histograms, one replayed pass ---------
  rdfmr::Trace trace;
  LayerAccounts accounts;
  std::vector<double> traced_latencies;
  rdfmr::EnableOperatorMetrics(true);
  NtgaProbe ntga;
  const Clock::time_point traced_start = Clock::now();
  bool replay = true;
  do {
    run_pass(&trace, replay, &accounts, &traced_latencies);
    replay = false;
  } while (MillisSince(traced_start) / 1e3 < window);
  ntga.Emit(accounts.count(), &report);
  rdfmr::EnableOperatorMetrics(false);
  accounts.Emit(&report);

  report.Layer("rdf.parse_ms", data.parse_ms);
  report.Layer("rdf.stats_ms", data.stats_ms);
  if (first_pass) {
    report.Layer("dfs.hdfs_read_bytes", static_cast<double>(first_pass->v[0]));
    report.Layer("dfs.hdfs_write_bytes", static_cast<double>(first_pass->v[1]));
    report.Layer("dfs.shuffle_bytes", static_cast<double>(first_pass->v[2]));
    report.Layer("dfs.mr_cycles", static_cast<double>(first_pass->v[3]));
  }
  // SPARQL parse cost of the grid's queries (the sweep itself runs
  // pre-parsed catalog queries, so this is attribution only).
  std::vector<double> parse_us;
  for (const char* id : kQueries) {
    const rdfmr::TestbedEntry entry = *rdfmr::GetTestbedEntry(id);
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point parse_start = Clock::now();
      Result<rdfmr::GraphPatternQuery> parsed =
          rdfmr::ParseSparql(entry.id, entry.sparql);
      parse_us.push_back(MillisSince(parse_start) * 1e3);
      if (!parsed.ok()) report.Wrong("parse: " + parsed.status().ToString());
    }
  }
  report.Layer("query.sparql_parse_us", Mean(parse_us));
  report.Layer("bench.trace_overhead_ratio",
               Median(traced_latencies) / Median(latencies));
  WriteTraceOutputs(trace, options.run_dir + "/sweep");
  return report;
}

}  // namespace perfbench
