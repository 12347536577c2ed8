// Quickstart: load triples, write an unbound-property SPARQL query, run it
// on the NTGA engine over the simulated cluster, and inspect answers and
// execution metrics.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "common/strings.h"
#include "engine/engine.h"
#include "query/sparql_parser.h"
#include "rdf/triple.h"

using namespace rdfmr;

int main() {
  // 1. A small RDF graph: genes with labels, GO cross-references, and a
  //    few other relationships. Multi-valued properties (xGO) are the
  //    source of the redundancy the NTGA representation avoids.
  std::vector<Triple> triples = {
      {"gene9", "label", "retinoid receptor"},
      {"gene9", "synonym", "RCoR-1"},
      {"gene9", "xGO", "go1"},
      {"gene9", "xGO", "go9"},
      {"gene9", "xRef", "ref7"},
      {"gene42", "label", "hexokinase"},
      {"gene42", "xGO", "go1"},
      {"go1", "goLabel", "kinase activity"},
      {"go9", "goLabel", "dna binding"},
  };

  // 2. An unbound-property query: "genes related *in some way* (?up) to a
  //    GO term, and that term's label" — the property name is a variable.
  auto query = ParseSparql("quickstart", R"(
      SELECT * WHERE {
        ?gene <label> ?name .
        ?gene ?up ?term .
        FILTER(CONTAINS(STR(?term), "go"))
        ?term <goLabel> ?termLabel .
      })");
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", query->ToString().c_str());

  // 3. A simulated 4-node cluster with the triples loaded at "base".
  ClusterConfig cluster;
  cluster.num_nodes = 4;
  cluster.disk_per_node = 16 << 20;
  cluster.replication = 1;
  SimDfs dfs(cluster);
  Status st = dfs.WriteFile("base", SerializeTriples(triples));
  if (!st.ok()) {
    std::fprintf(stderr, "load error: %s\n", st.ToString().c_str());
    return 1;
  }

  // 4. Run with the paper's LazyUnnest strategy.
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  ExecRequest request = ExecRequest::Single(
      std::make_shared<const GraphPatternQuery>(query.MoveValueUnsafe()));
  auto exec = Exec(&dfs, "base", request, options);
  if (!exec.ok() || !exec->stats.ok()) {
    std::fprintf(stderr, "execution failed\n");
    return 1;
  }

  std::printf("\n%zu answers:\n", exec->answers.size());
  for (const Solution& s : exec->answers) {
    std::printf("  %s\n", s.Serialize().c_str());
  }

  const ExecStats& stats = exec->stats;
  std::printf("\nexecution: %zu MapReduce cycles, %u full scan(s), "
              "%s read, %s shuffled, %s written\n",
              stats.mr_cycles, stats.full_scans,
              HumanBytes(stats.hdfs_read_bytes).c_str(),
              HumanBytes(stats.shuffle_bytes).c_str(),
              HumanBytes(stats.hdfs_write_bytes).c_str());
  return 0;
}
