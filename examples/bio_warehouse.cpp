// Scenario: a life-sciences warehouse in the Bio2RDF mold. Demonstrates:
//  * loading real N-Triples syntax through the parser + IRI compactor,
//  * a "what is known about the hexokinase gene?" query (unbound property
//    with a partially-bound object, the paper's A6 motif),
//  * the choice of β-unnesting strategy and its I/O consequences.
//
//   ./build/examples/bio_warehouse

#include <cstdio>

#include "common/strings.h"
#include "datagen/bio2rdf.h"
#include "engine/engine.h"
#include "query/sparql_parser.h"
#include "rdf/graph_stats.h"
#include "rdf/ntriples.h"

using namespace rdfmr;

int main() {
  // 1. A hand-written N-Triples fragment, as it would arrive from an
  //    export — full IRIs, typed and language-tagged literals.
  const std::string ntriples_text = R"(
# excerpt of a gene annotation export
<http://bio2rdf.org/geneid:3098> <http://bio2rdf.org/ns/label> "hexokinase 1"@en .
<http://bio2rdf.org/geneid:3098> <http://bio2rdf.org/ns/xGO> <http://bio2rdf.org/go:0004396> .
<http://bio2rdf.org/go:0004396> <http://bio2rdf.org/ns/goLabel> "hexokinase activity" .
)";
  IriCompactor compactor(std::vector<std::pair<std::string, std::string>>{
      {"http://bio2rdf.org/ns/", ""},
      {"http://bio2rdf.org/", ""},
  });
  auto imported = LoadNTriples(ntriples_text, compactor);
  if (!imported.ok()) {
    std::fprintf(stderr, "N-Triples import failed: %s\n",
                 imported.status().ToString().c_str());
    return 1;
  }
  std::printf("imported %zu statements from N-Triples, e.g. (%s, %s, %s)\n",
              imported->size(), (*imported)[0].subject.c_str(),
              (*imported)[0].property.c_str(),
              (*imported)[0].object.c_str());

  // 2. The bulk of the warehouse comes from the synthetic generator, with
  //    the skewed multiplicities of real biological data.
  Bio2RdfConfig config;
  config.num_genes = 1200;
  config.max_multiplicity = 50;
  config.hexokinase_fraction = 0.03;
  std::vector<Triple> triples = GenerateBio2Rdf(config);
  triples.insert(triples.end(), imported->begin(), imported->end());
  GraphStats stats = GraphStats::Compute(triples);
  std::printf("warehouse: %s\n", stats.Summary().c_str());
  PropertyStats xgo = stats.ForProperty(bio::kXGo);
  std::printf("xGO multiplicity: avg %.1f, max %llu\n",
              xgo.avg_multiplicity,
              static_cast<unsigned long long>(xgo.max_multiplicity));

  // 3. "What relates genes to anything hexokinase-ish, and which GO terms
  //    do those genes carry?" — unbound property, partially-bound object.
  auto parsed = ParseSparql("hexokinase", R"(
      SELECT * WHERE {
        ?gene <label> ?name .
        ?gene <xGO> ?term .
        ?gene ?somehow ?hexo .
        FILTER(CONTAINS(STR(?hexo), "hexokinase"))
        ?term <goLabel> ?termLabel .
        ?term <goNamespace> ?ns .
      })");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  auto query =
      std::make_shared<const GraphPatternQuery>(parsed.MoveValueUnsafe());

  ClusterConfig cluster;
  cluster.num_nodes = 8;
  cluster.disk_per_node = 128 << 20;
  SimDfs dfs(cluster);
  if (!dfs.WriteFile("base", SerializeTriples(triples)).ok()) return 1;

  // 4. Compare the eager and lazy β-unnesting strategies.
  std::printf("\n%-20s %12s %12s %12s %10s\n", "strategy", "star-phase",
              "total write", "shuffle", "answers");
  for (EngineKind kind : {EngineKind::kNtgaEager, EngineKind::kNtgaLazy}) {
    EngineOptions options;
    options.kind = kind;
    auto exec = Exec(&dfs, "base", ExecRequest::Single(query), options);
    if (!exec.ok() || !exec->stats.ok()) {
      std::printf("%-20s failed\n", EngineKindToString(kind));
      continue;
    }
    const ExecStats& s = exec->stats;
    std::printf("%-20s %12s %12s %12s %10zu\n", EngineKindToString(kind),
                HumanBytes(s.star_phase_write_bytes).c_str(),
                HumanBytes(s.hdfs_write_bytes).c_str(),
                HumanBytes(s.shuffle_bytes).c_str(), exec->answers.size());
  }

  // 5. Print a couple of answers.
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  auto exec = Exec(&dfs, "base", ExecRequest::Single(query), options);
  if (exec.ok() && exec->stats.ok()) {
    std::printf("\nsample answers:\n");
    size_t shown = 0;
    for (const Solution& s : exec->answers) {
      std::printf("  gene=%s somehow=%s term=%s (%s)\n",
                  s.Get("gene")->c_str(), s.Get("somehow")->c_str(),
                  s.Get("term")->c_str(), s.Get("termLabel")->c_str());
      if (++shown == 5) break;
    }
  }
  return 0;
}
