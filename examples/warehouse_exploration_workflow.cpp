// Scenario: a full exploration session over an unfamiliar warehouse,
// chaining the library's capabilities the way an analyst would:
//
//   1. profile the graph (statistics, multiplicity, multi-valuedness);
//   2. ask the advisor how to evaluate an unbound-property query;
//   3. run it with OPTIONAL enrichment ("add the label if there is one");
//   4. summarize with an aggregation constraint ("which subjects have at
//      least k distinct kinds of relationships?").
//
//   ./build/examples/warehouse_exploration_workflow

#include <cstdio>

#include "common/strings.h"
#include "datagen/btc.h"
#include "engine/advisor.h"
#include "engine/engine.h"
#include "query/sparql_parser.h"
#include "rdf/graph_stats.h"

using namespace rdfmr;

int main() {
  // An unfamiliar, heterogeneous crawl (the BTC-like mixture).
  BtcConfig config;
  config.num_dbpedia_entities = 1200;
  config.num_genes = 300;
  std::vector<Triple> triples = GenerateBtc(config);

  // --- 1. Profile.
  GraphStats stats = GraphStats::Compute(triples);
  std::printf("profile: %s\n", stats.Summary().c_str());
  std::printf("hottest properties by multiplicity:\n");
  int shown = 0;
  for (const auto& [property, ps] : stats.properties()) {
    if (ps.max_multiplicity >= 5 && shown < 4) {
      std::printf("  %-14s avg %.1f max %llu\n", property.c_str(),
                  ps.avg_multiplicity,
                  static_cast<unsigned long long>(ps.max_multiplicity));
      ++shown;
    }
  }

  // --- 2. The exploration query: "scientists related in some way to
  //        something that has a name; add the city's country if known".
  auto parsed = ParseSparql("explore", R"(
      SELECT * WHERE {
        ?s <type> <Scientist> . ?s ?rel ?thing .
        ?thing <name> ?thingName .
        OPTIONAL { ?thing <country> ?country }
      })");
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto query =
      std::make_shared<const GraphPatternQuery>(parsed.MoveValueUnsafe());

  ClusterConfig cluster;
  cluster.num_nodes = 10;
  cluster.num_reducers = 10;
  cluster.disk_per_node = 256 << 20;
  StrategyAdvice advice = AdviseStrategy(*query, stats, cluster);
  std::printf("\nadvisor: phi_m=%u\n  %s\n", advice.phi_partitions,
              advice.rationale.c_str());

  // --- 3. Run it as advised.
  SimDfs dfs(cluster);
  if (!dfs.WriteFile("base", SerializeTriples(triples)).ok()) return 1;
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  options.phi_partitions = advice.phi_partitions;
  auto exec = Exec(&dfs, "base", ExecRequest::Single(query), options);
  if (!exec.ok() || !exec->stats.ok()) return 1;
  size_t with_country = 0;
  for (const Solution& s : exec->answers) {
    if (s.Has("country")) ++with_country;
  }
  std::printf("\nexploration: %zu relationships found, %zu enriched with a "
              "country (%zu MR cycles, %s written)\n",
              exec->answers.size(), with_country, exec->stats.mr_cycles,
              HumanBytes(exec->stats.hdfs_write_bytes).c_str());

  // --- 4. Aggregate: which scientists have the most kinds of links?
  auto agg_parsed = ParseSparqlQuery("degree", R"(
      SELECT ?s (COUNT(DISTINCT ?rel) AS ?kinds)
      WHERE { ?s <type> <Scientist> . ?s ?rel ?o . }
      GROUP BY ?s
      HAVING (COUNT(DISTINCT ?rel) >= 5))");
  if (!agg_parsed.ok()) return 1;
  auto agg_query = std::make_shared<const GraphPatternQuery>(
      std::move(agg_parsed->query));
  auto agg_exec = Exec(&dfs, "base",
                       ExecRequest::Single(agg_query, *agg_parsed->aggregate),
                       options);
  if (!agg_exec.ok() || !agg_exec->stats.ok()) return 1;
  std::printf("\n%zu scientists connect through >=5 distinct edge kinds; "
              "top examples:\n",
              agg_exec->answers.size());
  shown = 0;
  for (const Solution& s : agg_exec->answers) {
    std::printf("  %s -> %s kinds\n", s.Get("s")->c_str(),
                s.Get("kinds")->c_str());
    if (++shown == 3) break;
  }
  return 0;
}
