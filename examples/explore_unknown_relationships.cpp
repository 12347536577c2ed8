// Scenario: exploratory querying of a heterogeneous warehouse whose
// structure is only partially known — "Scientists in some way associated
// to the same city" (the paper's introduction). The relationship label is
// unknown, so the query uses an unbound-property triple pattern, and we
// compare how the relational-style engines and the NTGA strategies pay for
// it on the simulated cluster.
//
//   ./build/examples/explore_unknown_relationships

#include <cstdio>

#include "common/strings.h"
#include "datagen/dbpedia.h"
#include "engine/engine.h"
#include "ntga/logical_plan.h"
#include "query/sparql_parser.h"
#include "rdf/graph_stats.h"

using namespace rdfmr;

int main() {
  // A DBpedia-Infobox-like dataset: scientists connect to cities through
  // birthPlace, almaMater, residence, deathPlace... — the exact edge label
  // is exactly what the analyst does not know.
  DbpediaConfig config;
  config.num_entities = 1500;
  std::vector<Triple> triples = GenerateDbpedia(config);
  GraphStats stats = GraphStats::Compute(triples);
  std::printf("warehouse: %s\n", stats.Summary().c_str());

  auto parsed = ParseSparql("scientists-to-cities", R"(
      SELECT * WHERE {
        ?scientist <type> <Scientist> .
        ?scientist ?relation ?city .
        ?city <type> <City> .
        ?city <name> ?cityName .
      })");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  auto query =
      std::make_shared<const GraphPatternQuery>(parsed.MoveValueUnsafe());

  // Show what the rewrite rules do with this query under each strategy.
  for (NtgaStrategy strategy :
       {NtgaStrategy::kEager, NtgaStrategy::kLazyAuto}) {
    auto plan = RewriteToNtga(*query, strategy);
    if (plan.ok()) std::printf("\n%s", plan->ToString(*query).c_str());
  }

  ClusterConfig cluster;
  cluster.num_nodes = 5;
  cluster.disk_per_node = 64 << 20;
  cluster.replication = 1;
  SimDfs dfs(cluster);
  if (!dfs.WriteFile("base", SerializeTriples(triples)).ok()) return 1;

  std::printf("\n%-20s %6s %4s %12s %12s %12s %10s\n", "engine", "cycles",
              "FS", "read", "shuffle", "write", "answers");
  size_t answers = 0;
  for (EngineKind kind :
       {EngineKind::kPig, EngineKind::kHive, EngineKind::kNtgaEager,
        EngineKind::kNtgaLazy}) {
    EngineOptions options;
    options.kind = kind;
    auto exec = Exec(&dfs, "base", ExecRequest::Single(query), options);
    if (!exec.ok() || !exec->stats.ok()) {
      std::printf("%-20s failed\n", EngineKindToString(kind));
      continue;
    }
    answers = exec->answers.size();
    const ExecStats& s = exec->stats;
    std::printf("%-20s %6zu %4u %12s %12s %12s %10zu\n",
                EngineKindToString(kind), s.mr_cycles, s.full_scans,
                HumanBytes(s.hdfs_read_bytes).c_str(),
                HumanBytes(s.shuffle_bytes).c_str(),
                HumanBytes(s.hdfs_write_bytes).c_str(),
                exec->answers.size());
  }

  std::printf("\nall engines agree on %zu scientist-city relationships; "
              "the NTGA representation just pays far less I/O for them.\n",
              answers);
  return 0;
}
