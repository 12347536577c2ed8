// Tests for OPTIONAL pattern support (SPARQL left joins, star-local): the
// matcher semantics, parser syntax, query validation, NTGA expansion, and
// cross-engine answer equivalence — including OPTIONAL combined with
// unbound properties.

#include <gtest/gtest.h>

#include "query/matcher.h"
#include "query/sparql_parser.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::AllEngineKinds;
using testing_util::MakeDfsWithBase;
using testing_util::SmallDataset;

// ---- Matcher semantics -----------------------------------------------------------

StarPattern StarWithOptional() {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "label", NodePattern::Var("l")));
  TriplePattern opt = TriplePattern::Bound(
      NodePattern::Var("g"), "synonym", NodePattern::Var("syn"));
  opt.optional = true;
  star.patterns.push_back(opt);
  return star;
}

TEST(OptionalMatcherTest, ExtendsWhenPresent) {
  std::vector<Triple> triples = {
      {"g1", "label", "a"}, {"g1", "synonym", "s1"}, {"g1", "synonym", "s2"},
  };
  std::vector<Solution> solutions =
      MatchStar(StarWithOptional(), triples);
  ASSERT_EQ(solutions.size(), 2u) << "one per synonym";
  for (const Solution& s : solutions) {
    EXPECT_TRUE(s.Has("syn"));
  }
}

TEST(OptionalMatcherTest, KeepsSolutionWhenAbsent) {
  std::vector<Triple> triples = {{"g1", "label", "a"}};
  std::vector<Solution> solutions =
      MatchStar(StarWithOptional(), triples);
  ASSERT_EQ(solutions.size(), 1u);
  EXPECT_EQ(*solutions[0].Get("l"), "a");
  EXPECT_FALSE(solutions[0].Has("syn"))
      << "the optional variable stays unbound";
}

TEST(OptionalMatcherTest, MandatoryStillRequired) {
  std::vector<Triple> triples = {{"g1", "synonym", "s1"}};
  EXPECT_TRUE(MatchStar(StarWithOptional(), triples).empty())
      << "OPTIONAL does not waive the mandatory label pattern";
}

TEST(OptionalMatcherTest, MatchedTriplesAlignWithPlaceholders) {
  std::vector<Triple> triples = {{"g1", "label", "a"}};
  std::vector<StarMatch> matches =
      MatchStarDetailed(StarWithOptional(), triples);
  ASSERT_EQ(matches.size(), 1u);
  ASSERT_EQ(matches[0].matched.size(), 2u);
  EXPECT_EQ(matches[0].matched[0].property, "label");
  EXPECT_TRUE(matches[0].matched[1].subject.empty())
      << "unmatched optional positions carry the null placeholder";
}

TEST(OptionalMatcherTest, OptionalUnboundPattern) {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "label", NodePattern::Var("l")));
  TriplePattern opt = TriplePattern::Unbound(
      NodePattern::Var("g"), "up", NodePattern::Var("x", "go_"));
  opt.optional = true;
  star.patterns.push_back(opt);

  std::vector<Triple> with = {
      {"g1", "label", "a"}, {"g1", "xGO", "go_1"}, {"g1", "xGO", "go_2"}};
  EXPECT_EQ(MatchStar(star, with).size(), 2u);
  std::vector<Triple> without = {{"g1", "label", "a"},
                                 {"g1", "xRef", "ref_1"}};
  std::vector<Solution> kept = MatchStar(star, without);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FALSE(kept[0].Has("up"));
}

// ---- Parser and validation ----------------------------------------------------------

TEST(OptionalParseTest, BasicSyntax) {
  auto q = ParseSparql("opt", R"(SELECT * WHERE {
    ?g <label> ?l .
    OPTIONAL { ?g <synonym> ?syn . }
  })");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->stars()[0].patterns.size(), 2u);
  EXPECT_FALSE(q->stars()[0].patterns[0].optional);
  EXPECT_TRUE(q->stars()[0].patterns[1].optional);
  EXPECT_EQ(q->stars()[0].BoundProperties(),
            (std::set<std::string>{"label"}));
  EXPECT_EQ(q->stars()[0].AllBoundProperties(),
            (std::set<std::string>{"label", "synonym"}));
}

TEST(OptionalParseTest, OptionalUnboundWithFilter) {
  auto q = ParseSparql("opt", R"(SELECT * WHERE {
    ?g <label> ?l .
    OPTIONAL { ?g ?up ?x }
    FILTER(CONTAINS(STR(?x), "go_"))
  })");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const TriplePattern& tp = q->stars()[0].patterns[1];
  EXPECT_TRUE(tp.optional);
  EXPECT_FALSE(tp.property_bound);
  EXPECT_EQ(tp.object.contains_filter, "go_");
}

TEST(OptionalParseTest, MultiTripleGroupRejected) {
  auto q = ParseSparql("opt", R"(SELECT * WHERE {
    ?g <label> ?l .
    OPTIONAL { ?g <a> ?x . ?g <b> ?y . }
  })");
  EXPECT_EQ(q.status().code(), StatusCode::kNotImplemented);
}

TEST(OptionalValidationTest, SharedVariableRejected) {
  auto q = ParseSparql("opt", R"(SELECT * WHERE {
    ?g <label> ?l .
    OPTIONAL { ?g <synonym> ?l }
  })");
  EXPECT_EQ(q.status().code(), StatusCode::kNotImplemented)
      << "optional variables must be fresh";
}

TEST(OptionalValidationTest, OptionalOnlyStarRejected) {
  auto q = ParseSparql("opt", R"(SELECT * WHERE {
    ?g <product> ?p .
    OPTIONAL { ?p <label> ?l }
  })");
  // The ?p star consists solely of an optional pattern.
  EXPECT_TRUE(q.status().IsInvalidArgument()) << q.status().ToString();
}

// ---- Cross-engine equivalence ---------------------------------------------------------

struct OptCase {
  std::string name;
  DatasetFamily dataset;
  std::string sparql;
};

const std::vector<OptCase>& OptionalQueries() {
  static const std::vector<OptCase> kQueries = {
      {"single_star_opt", DatasetFamily::kBio2Rdf,
       R"(SELECT * WHERE {
            ?g <label> ?l . ?g <xTaxon> ?t .
            OPTIONAL { ?g <synonym> ?syn }
          })"},
      {"opt_unbound", DatasetFamily::kBio2Rdf,
       R"(SELECT * WHERE {
            ?g <label> ?l . ?g <xTaxon> ?t .
            OPTIONAL { ?g ?up ?x }
            FILTER(CONTAINS(STR(?x), "pmid_"))
          })"},
      {"two_star_opt", DatasetFamily::kBsbm,
       R"(SELECT * WHERE {
            ?p <label> ?l . ?p ?up ?f .
            FILTER(CONTAINS(STR(?f), "feature"))
            OPTIONAL { ?p <propertyTex1> ?tex }
            FILTER(CONTAINS(STR(?tex), "token1"))
            ?o <product> ?p . ?o <price> ?pr .
            OPTIONAL { ?o <deliveryDays> ?d }
            FILTER(CONTAINS(STR(?d), "days_1"))
          })"},
      {"opt_on_joined_star", DatasetFamily::kDbpedia,
       R"(SELECT * WHERE {
            ?s <type> <Scientist> . ?s ?up ?x .
            ?x <type> <City> .
            OPTIONAL { ?x <population> ?pop }
            FILTER(CONTAINS(STR(?pop), "pop_1"))
          })"},
  };
  return kQueries;
}

struct OptEngineCase {
  OptCase query;
  EngineKind engine;
};

std::string OptCaseName(const ::testing::TestParamInfo<OptEngineCase>& info) {
  std::string name =
      info.param.query.name + "_" + EngineKindToString(info.param.engine);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class OptionalEngineTest : public ::testing::TestWithParam<OptEngineCase> {};

TEST_P(OptionalEngineTest, MatchesOracle) {
  const OptEngineCase& param = GetParam();
  auto parsed = ParseSparql(param.query.name, param.query.sparql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto query =
      std::make_shared<const GraphPatternQuery>(parsed.MoveValueUnsafe());
  std::vector<Triple> triples = SmallDataset(param.query.dataset);
  SolutionSet oracle = EvaluateQueryInMemory(*query, triples);
  ASSERT_FALSE(oracle.empty());
  // The left join must actually exercise both branches somewhere.
  bool some_bound = false, some_unbound = false;
  std::vector<size_t> optional_sizes;
  for (const Solution& s : oracle) {
    size_t vars = s.size();
    optional_sizes.push_back(vars);
  }
  std::sort(optional_sizes.begin(), optional_sizes.end());
  some_unbound = optional_sizes.front() < optional_sizes.back();
  some_bound = true;
  EXPECT_TRUE(some_bound && some_unbound)
      << param.query.name
      << ": dataset must produce both extended and unextended solutions "
         "for the test to be meaningful";

  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  EngineOptions options;
  options.kind = param.engine;
  options.phi_partitions = 16;
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(query), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec->stats.ok()) << exec->stats.status.ToString();
  EXPECT_TRUE(exec->answers == oracle)
      << param.query.name << " on " << EngineKindToString(param.engine)
      << ": got " << exec->answers.size() << ", oracle " << oracle.size();
}

std::vector<OptEngineCase> OptCases() {
  std::vector<OptEngineCase> cases;
  for (const OptCase& q : OptionalQueries()) {
    for (EngineKind kind : AllEngineKinds()) {
      cases.push_back(OptEngineCase{q, kind});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Queries, OptionalEngineTest,
                         ::testing::ValuesIn(OptCases()), OptCaseName);

}  // namespace
}  // namespace rdfmr
