#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>

#include "common/strings.h"
#include "datagen/bio2rdf.h"
#include "datagen/bsbm.h"
#include "datagen/btc.h"
#include "datagen/dbpedia.h"

namespace rdfmr {
namespace bench {

std::vector<Triple> BsbmAtScale(uint64_t num_products) {
  BsbmConfig config;
  config.num_products = num_products;
  config.num_features = 300;
  config.offers_per_product = 2;
  config.reviews_per_product = 2;
  config.min_features_per_product = 4;
  config.max_features_per_product = 14;
  return GenerateBsbm(config);
}

std::vector<Triple> BenchDataset(DatasetFamily family) {
  switch (family) {
    case DatasetFamily::kBsbm:
      return BsbmAtScale(1200);
    case DatasetFamily::kBio2Rdf: {
      Bio2RdfConfig config;
      config.num_genes = 1500;
      config.num_go_terms = 600;
      config.num_articles = 800;
      config.max_multiplicity = 60;  // the paper's 13K knob, scaled down
      return GenerateBio2Rdf(config);
    }
    case DatasetFamily::kDbpedia: {
      DbpediaConfig config;
      config.num_entities = 3000;
      config.sopranos_fraction = 0.03;
      return GenerateDbpedia(config);
    }
    case DatasetFamily::kBtc: {
      BtcConfig config;
      config.num_dbpedia_entities = 2500;
      config.num_genes = 600;
      config.num_cross_links = 1500;
      return GenerateBtc(config);
    }
  }
  return {};
}

uint64_t DatasetBytes(const std::vector<Triple>& triples) {
  uint64_t bytes = 0;
  for (const Triple& t : triples) bytes += t.Serialize().size() + 1;
  return bytes;
}

std::unique_ptr<SimDfs> MakeDfs(const std::vector<Triple>& triples,
                                const ClusterConfig& config) {
  auto dfs = std::make_unique<SimDfs>(config);
  Status st = dfs->WriteFile("base", SerializeTriples(triples));
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL: cannot load base relation: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  dfs->ResetMetrics();
  return dfs;
}

ExecStats RunOne(SimDfs* dfs, const std::string& query_id,
                 const EngineOptions& options) {
  auto query = GetTestbedQuery(query_id);
  if (!query.ok()) {
    std::fprintf(stderr, "FATAL: bad testbed query %s: %s\n",
                 query_id.c_str(), query.status().ToString().c_str());
    std::exit(1);
  }
  auto exec = Exec(dfs, "base", ExecRequest::Single(*query), options);
  if (!exec.ok()) {
    std::fprintf(stderr, "FATAL: infrastructure error on %s/%s: %s\n",
                 query_id.c_str(), EngineKindToString(options.kind),
                 exec.status().ToString().c_str());
    std::exit(1);
  }
  return exec->stats;
}

void PrintTable(const std::string& title, const std::vector<Row>& rows) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf(
      "%-9s %-19s %4s %3s %3s %12s %12s %12s %12s %10s %7s\n", "query",
      "engine", "ok", "MR", "FS", "read", "shuffle", "write", "starphase",
      "final", "time(s)");
  for (const Row& row : rows) {
    const ExecStats& s = row.stats;
    if (!s.ok()) {
      std::printf("%-9s %-19s %4s %3zu %3s %12s %12s %12s %12s %10s %7s  "
                  "(%s at job %d)\n",
                  row.query.c_str(), s.engine.c_str(), "X", s.planned_cycles,
                  "-", "-", "-", "-", "-", "-", "-",
                  StatusCodeToString(s.status.code()), s.failed_job_index);
      continue;
    }
    std::printf(
        "%-9s %-19s %4s %3zu %3u %12s %12s %12s %12s %10s %7.1f\n",
        row.query.c_str(), s.engine.c_str(), "ok", s.mr_cycles, s.full_scans,
        HumanBytes(s.hdfs_read_bytes).c_str(),
        HumanBytes(s.shuffle_bytes).c_str(),
        HumanBytes(s.hdfs_write_bytes).c_str(),
        HumanBytes(s.star_phase_write_bytes).c_str(),
        HumanBytes(s.final_output_bytes).c_str(), s.modeled_seconds);
  }
}

void ShapeChecks::Check(const std::string& description, bool passed) {
  entries_.push_back(Entry{description, passed});
}

int ShapeChecks::Summarize() const {
  std::printf("\n-- paper-shape checks --\n");
  int failed = 0;
  for (const Entry& e : entries_) {
    std::printf("[%s] %s\n", e.passed ? "PASS" : "FAIL",
                e.description.c_str());
    if (!e.passed) ++failed;
  }
  std::printf("%d/%zu checks passed\n",
              static_cast<int>(entries_.size()) - failed, entries_.size());
  return failed;
}

std::vector<EngineKind> PaperEngines() {
  return {EngineKind::kPig, EngineKind::kHive, EngineKind::kNtgaEager,
          EngineKind::kNtgaLazy};
}

CostModelConfig BenchCostModel() {
  CostModelConfig cost;
  cost.hdfs_read_mbps = 0.08;
  cost.hdfs_write_mbps = 0.05;
  cost.shuffle_mbps = 0.04;
  cost.sort_mbps = 0.12;
  cost.job_startup_seconds = 15.0;
  return cost;
}

}  // namespace bench
}  // namespace rdfmr
