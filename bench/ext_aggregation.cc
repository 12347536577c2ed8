// Extension experiment (paper Section 6, future directions):
// unbound-property queries with AGGREGATION constraints.
//
// "How many distinct kinds of relationships does each entity have?" is the
// canonical exploration aggregate: COUNT(DISTINCT ?p) over an unbound
// property, grouped by subject, with a HAVING threshold. The aggregation
// runs as one extra MR cycle appended to each engine's plan; the cycle's
// *input* is the engine's final representation — flat n-tuples for
// Pig/Hive vs nested triplegroups for NTGA — so the lazy strategy's
// concise representation pays off once more: combinations are expanded in
// flight by the aggregation mapper and never touch HDFS.

#include <cstdio>

#include "bench/bench_util.h"
#include "query/sparql_parser.h"

namespace rdfmr {
namespace bench {
namespace {

int Main() {
  std::vector<Triple> triples = BenchDataset(DatasetFamily::kBio2Rdf);
  std::printf("Extension: aggregation over unbound-property queries "
              "(%zu triples)\n\n",
              triples.size());

  auto parsed = ParseSparqlQuery("gene-degree", R"(
      SELECT ?g (COUNT(DISTINCT ?p) AS ?n)
      WHERE {
        ?g <label> ?l . ?g <xGO> ?go . ?g ?p ?x .
      }
      GROUP BY ?g
      HAVING (COUNT(DISTINCT ?p) >= 4))");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto query =
      std::make_shared<const GraphPatternQuery>(std::move(parsed->query));
  AggregateSpec spec = *parsed->aggregate;

  ClusterConfig cluster;
  cluster.num_nodes = 12;
  cluster.replication = 1;
  cluster.disk_per_node = 8ULL << 30;
  cluster.block_size = 1ULL << 20;
  cluster.num_reducers = 8;
  auto dfs = MakeDfs(triples, cluster);

  std::printf("%-20s %4s %12s %14s %14s %10s %8s\n", "engine", "MR",
              "total read", "agg-cycle in", "agg shuffle", "writes",
              "groups");
  ShapeChecks checks;
  uint64_t hive_agg_in = 0, lazy_agg_in = 0;
  size_t hive_groups = 0, lazy_groups = 0;
  double hive_time = 0, lazy_time = 0;
  for (EngineKind kind : PaperEngines()) {
    EngineOptions options;
    options.kind = kind;
    options.cost = BenchCostModel();
    auto exec =
        Exec(dfs.get(), "base", ExecRequest::Single(query, spec), options);
    if (!exec.ok() || !exec->stats.ok()) {
      std::printf("%-20s failed\n", EngineKindToString(kind));
      continue;
    }
    const ExecStats& s = exec->stats;
    const JobMetrics& agg = s.jobs.back();
    std::printf("%-20s %4zu %12s %14s %14s %10s %8zu\n",
                EngineKindToString(kind), s.mr_cycles,
                HumanBytes(s.hdfs_read_bytes).c_str(),
                HumanBytes(agg.input_bytes).c_str(),
                HumanBytes(agg.map_output_bytes).c_str(),
                HumanBytes(s.hdfs_write_bytes).c_str(),
                exec->answers.size());
    if (kind == EngineKind::kHive) {
      hive_agg_in = agg.input_bytes;
      hive_groups = exec->answers.size();
      hive_time = s.modeled_seconds;
    }
    if (kind == EngineKind::kNtgaLazy) {
      lazy_agg_in = agg.input_bytes;
      lazy_groups = exec->answers.size();
      lazy_time = s.modeled_seconds;
    }
  }

  checks.Check("all engines return the same groups",
               hive_groups == lazy_groups && hive_groups > 0);
  checks.Check(
      StringFormat("the aggregation cycle reads far less from NTGA's "
                   "nested output (%.0fx less)",
                   static_cast<double>(hive_agg_in) /
                       static_cast<double>(lazy_agg_in)),
      lazy_agg_in * 3 < hive_agg_in);
  checks.Check("LazyUnnest end-to-end faster than Hive (modeled)",
               lazy_time < hive_time);
  return checks.Summarize();
}

}  // namespace
}  // namespace bench
}  // namespace rdfmr

int main() { return rdfmr::bench::Main(); }
