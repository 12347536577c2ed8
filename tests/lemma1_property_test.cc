// Randomized end-to-end content-equivalence (Lemma 1): for random RDF
// graphs and random unbound-property queries, the relational star-join
// interpretation and the NTGA interpretation — executed as real MapReduce
// workflows — must produce exactly the same solution sets, equal to the
// in-memory oracle.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "query/matcher.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::AllEngineKinds;
using testing_util::MakeDfsWithBase;

// Random graph over a small vocabulary so joins actually connect.
std::vector<Triple> RandomGraph(Rng* rng, size_t num_subjects,
                                size_t triples_per_subject) {
  std::vector<Triple> triples;
  for (size_t s = 0; s < num_subjects; ++s) {
    std::string subject =
        StringFormat("n%llu", static_cast<unsigned long long>(s));
    size_t n = 1 + rng->Uniform(triples_per_subject);
    for (size_t i = 0; i < n; ++i) {
      std::string property =
          StringFormat("p%llu", static_cast<unsigned long long>(
                                    rng->Uniform(6)));
      // Half the objects are node references (joinable), half literals.
      std::string object =
          rng->Chance(0.5)
              ? StringFormat("n%llu", static_cast<unsigned long long>(
                                          rng->Uniform(num_subjects)))
              : StringFormat("lit_%llu", static_cast<unsigned long long>(
                                             rng->Uniform(8)));
      triples.emplace_back(subject, property, object);
    }
  }
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  return triples;
}

// Random two-star query: star1 {bound, bound?, unbound} joined to star2
// {bound, unbound?} either through the unbound object or a bound object.
Result<GraphPatternQuery> RandomQuery(Rng* rng) {
  std::vector<TriplePattern> patterns;
  patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("a"),
      StringFormat("p%llu",
                   static_cast<unsigned long long>(rng->Uniform(6))),
      NodePattern::Var("v1")));
  bool join_on_unbound = rng->Chance(0.5);
  std::string join_filter = rng->Chance(0.4) ? "n" : "";
  if (join_on_unbound) {
    patterns.push_back(TriplePattern::Unbound(
        NodePattern::Var("a"), "up", NodePattern::Var("j", join_filter)));
  } else {
    patterns.push_back(TriplePattern::Bound(
        NodePattern::Var("a"),
        StringFormat("p%llu",
                     static_cast<unsigned long long>(rng->Uniform(6))),
        NodePattern::Var("j")));
    patterns.push_back(TriplePattern::Unbound(
        NodePattern::Var("a"), "up", NodePattern::Var("w")));
  }
  patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("j"),
      StringFormat("p%llu",
                   static_cast<unsigned long long>(rng->Uniform(6))),
      NodePattern::Var("v2")));
  if (rng->Chance(0.5)) {
    patterns.push_back(TriplePattern::Unbound(
        NodePattern::Var("j"), "up2",
        NodePattern::Var("v3", rng->Chance(0.5) ? "lit" : "")));
  }
  return GraphPatternQuery::Create("random", std::move(patterns));
}

class Lemma1Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Lemma1Test, AllEnginesAgreeWithOracleOnRandomInputs) {
  Rng rng(GetParam() * 7919 + 13);
  std::vector<Triple> triples = RandomGraph(&rng, 30, 6);
  auto query = RandomQuery(&rng);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto shared =
      std::make_shared<const GraphPatternQuery>(query.MoveValueUnsafe());

  SolutionSet oracle = EvaluateQueryInMemory(*shared, triples);

  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  for (EngineKind kind : AllEngineKinds()) {
    EngineOptions options;
    options.kind = kind;
    options.phi_partitions = 1 + static_cast<uint32_t>(rng.Uniform(32));
    auto exec = Exec(dfs.get(), "base", ExecRequest::Single(shared), options);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    ASSERT_TRUE(exec->stats.ok()) << exec->stats.status.ToString();
    EXPECT_TRUE(exec->answers == oracle)
        << "seed " << GetParam() << ", engine " << EngineKindToString(kind)
        << ": got " << exec->answers.size() << " solutions, oracle has "
        << oracle.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Test,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace rdfmr
