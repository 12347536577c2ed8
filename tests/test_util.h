// Shared helpers for the test suite: small deterministic datasets per
// family, DFS loading, and engine option lists.

#ifndef RDFMR_TESTS_TEST_UTIL_H_
#define RDFMR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/bio2rdf.h"
#include "datagen/bsbm.h"
#include "datagen/btc.h"
#include "datagen/dbpedia.h"
#include "datagen/testbed.h"
#include "dfs/sim_dfs.h"
#include "engine/advisor.h"
#include "engine/engine.h"
#include "ntga/triplegroup.h"
#include "query/solution.h"
#include "rdf/graph_stats.h"
#include "rdf/triple.h"

namespace rdfmr {
namespace testing_util {

/// Small-but-meaningful dataset for one family (deterministic).
inline std::vector<Triple> SmallDataset(DatasetFamily family) {
  switch (family) {
    case DatasetFamily::kBsbm: {
      BsbmConfig config;
      config.num_products = 60;
      config.num_features = 30;
      config.offers_per_product = 2;
      config.reviews_per_product = 2;
      return GenerateBsbm(config);
    }
    case DatasetFamily::kBio2Rdf: {
      Bio2RdfConfig config;
      config.num_genes = 80;
      config.num_go_terms = 40;
      config.num_articles = 40;
      config.max_multiplicity = 12;
      // Keep A5/A6 non-vacuous at this scale.
      config.hexokinase_fraction = 0.1;
      config.nur77_link_fraction = 0.15;
      return GenerateBio2Rdf(config);
    }
    case DatasetFamily::kDbpedia: {
      DbpediaConfig config;
      config.num_entities = 150;
      config.sopranos_fraction = 0.12;  // keep C2 non-vacuous at this scale
      return GenerateDbpedia(config);
    }
    case DatasetFamily::kBtc: {
      BtcConfig config;
      config.num_dbpedia_entities = 120;
      config.num_genes = 40;
      config.num_cross_links = 60;
      return GenerateBtc(config);
    }
  }
  return {};
}

/// A roomy cluster for correctness tests (no artificial disk pressure).
inline ClusterConfig RoomyCluster() {
  ClusterConfig config;
  config.num_nodes = 8;
  config.disk_per_node = 256ULL << 20;
  config.replication = 1;
  config.block_size = 4ULL << 20;
  config.num_reducers = 4;
  return config;
}

/// Loads `triples` into a fresh DFS at path "base".
inline std::unique_ptr<SimDfs> MakeDfsWithBase(
    const std::vector<Triple>& triples,
    ClusterConfig config = RoomyCluster()) {
  auto dfs = std::make_unique<SimDfs>(config);
  Status st = dfs->WriteFile("base", SerializeTriples(triples));
  if (!st.ok()) return nullptr;
  return dfs;
}

/// A cluster whose capacity sits strictly between the advisor's lazy and
/// eager projected peaks for `query` (for B3, a double unbound star, the
/// eager footprint dwarfs the lazy one), so the disk-pressure preflight
/// refuses Eager and kDegrade has somewhere to go.
inline ClusterConfig PressuredCluster(const std::vector<Triple>& triples,
                                      const GraphPatternQuery& query) {
  ClusterConfig cluster = RoomyCluster();
  // RoomyCluster's 4 MB blocks would put the whole base file in one block,
  // which no single node of the shrunken cluster could hold; small blocks
  // let placement spread the data evenly.
  cluster.block_size = 1024;
  GraphStats stats = GraphStats::Compute(triples);
  StrategyAdvice advice = AdviseStrategy(query, stats, cluster);
  uint64_t used = 0;
  for (const std::string& line : SerializeTriples(triples)) {
    used += line.size() + 1;
  }
  used *= cluster.replication;
  FootprintProjection lazy =
      ProjectFootprint(advice.lazy_star_bytes, used, cluster);
  FootprintProjection eager =
      ProjectFootprint(advice.eager_star_bytes, used, cluster);
  EXPECT_LT(lazy.peak_bytes, eager.peak_bytes);
  const uint64_t capacity = (lazy.peak_bytes + eager.peak_bytes) / 2;
  cluster.disk_per_node = capacity / cluster.num_nodes + 1;
  return cluster;
}

/// Splices separators into every subject and object: ' ' and '_' become
/// runs of the record formats' separators plus a backslash and a newline.
/// The map is injective (the runs start with distinct bytes absent from
/// BSBM terms), so joins and CONTAINS filters match exactly as before.
inline std::string Nasty(const std::string& term) {
  std::string out;
  for (char c : term) {
    if (c == ' ') {
      out += "\t,=;|";
    } else if (c == '_') {
      out += "\x1D\\\x1E\n\x1F";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// `triples` with Nasty subjects and objects: the escape-heavy graph.
inline std::vector<Triple> SeparatorGraph(const std::vector<Triple>& triples) {
  std::vector<Triple> out;
  out.reserve(triples.size());
  for (const Triple& t : triples) {
    out.emplace_back(Nasty(t.subject), t.property, Nasty(t.object));
  }
  return out;
}

/// `lines` decoded as Exec's read-back decodes an answer file: cut into
/// ChunkedDecode chunks that append concurrently on a pool of `threads`.
inline Result<SolutionSet> DecodeOnPool(const AnswerDecoder& decoder,
                                        std::span<const std::string> lines,
                                        uint32_t threads = 4) {
  ThreadPool pool(threads);
  ChunkedDecode decode(decoder, {&lines, 1});
  pool.ParallelFor(decode.size(), [&decode](size_t c) { decode.Append(c); });
  return decode.Finish(0, 1);
}

/// All engine kinds under test.
// A relational tuple's record built from triple lines: each triple's
// Serialize() side by side, Triple() (three empty fields) standing for an
// unmatched OPTIONAL column.
inline std::string TupleLine(const std::vector<Triple>& triples) {
  std::string out;
  for (size_t i = 0; i < triples.size(); ++i) {
    if (i > 0) out.push_back('\t');
    out += triples[i].Serialize();
  }
  return out;
}

inline std::vector<EngineKind> AllEngineKinds() {
  return {EngineKind::kPig,          EngineKind::kHive,
          EngineKind::kNtgaEager,    EngineKind::kNtgaLazyFull,
          EngineKind::kNtgaLazyPartial, EngineKind::kNtgaLazy};
}

/// Component `c` of the record `reader` last read, written again through
/// the one writer from the reader's views.
inline std::string RewriteComponent(const TgRecordReader& reader,
                                    const TgRecordReader::Component& c) {
  const std::vector<std::string_view>& leaves = reader.leaves();
  std::string out;
  TgWriter writer(&out, leaves[c.subject], c.star_id);
  for (uint32_t p = c.pairs_begin; p < c.pairs_end; ++p) {
    const TgRecordReader::Entry& e = reader.pairs()[p];
    writer.Property(leaves[e.begin]);
    for (uint32_t j = e.begin + 1; j < e.end; ++j) writer.Object(leaves[j]);
  }
  writer.EndPairs();
  for (uint32_t o = c.overrides_begin; o < c.overrides_end; ++o) {
    const TgRecordReader::Entry& e = reader.overrides()[o];
    writer.Override(e.tp_index);
    for (uint32_t j = e.begin; j < e.end; j += 2) {
      writer.Pinned(leaves[j], leaves[j + 1]);
    }
  }
  return out;
}

}  // namespace testing_util
}  // namespace rdfmr

#endif  // RDFMR_TESTS_TEST_UTIL_H_
