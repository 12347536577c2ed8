// Unit tests for the reference matcher: single-pattern matching, star
// enumeration (including the paper's "a triple plays multiple roles" case),
// and whole-query in-memory evaluation used as the engines' oracle.

#include <gtest/gtest.h>

#include <random>

#include "query/matcher.h"

namespace rdfmr {
namespace {

TriplePattern BoundTp(const std::string& s, const std::string& p,
                      const std::string& o_var) {
  return TriplePattern::Bound(NodePattern::Var(s), p, NodePattern::Var(o_var));
}

TEST(MatchTriplePatternTest, BoundPropertyMatch) {
  Triple t("gene9", "xGO", "go1");
  auto m = MatchTriplePattern(BoundTp("g", "xGO", "o"), t);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->Get("g"), "gene9");
  EXPECT_EQ(*m->Get("o"), "go1");
  EXPECT_FALSE(
      MatchTriplePattern(BoundTp("g", "label", "o"), t).has_value());
}

TEST(MatchTriplePatternTest, UnboundPropertyBindsPropertyVariable) {
  Triple t("gene9", "xGO", "go1");
  TriplePattern tp = TriplePattern::Unbound(NodePattern::Var("g"), "p",
                                            NodePattern::Var("o"));
  auto m = MatchTriplePattern(tp, t);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->Get("p"), "xGO");
}

TEST(MatchTriplePatternTest, ConstantObjectAndSubject) {
  Triple t("gene9", "type", "protein");
  TriplePattern tp = TriplePattern::Bound(NodePattern::Var("g"), "type",
                                          NodePattern::Const("protein"));
  EXPECT_TRUE(MatchTriplePattern(tp, t).has_value());
  tp.object = NodePattern::Const("pseudo");
  EXPECT_FALSE(MatchTriplePattern(tp, t).has_value());

  TriplePattern const_subject = TriplePattern::Bound(
      NodePattern::Const("gene9"), "type", NodePattern::Var("t"));
  EXPECT_TRUE(MatchTriplePattern(const_subject, t).has_value());
  const_subject.subject = NodePattern::Const("gene10");
  EXPECT_FALSE(MatchTriplePattern(const_subject, t).has_value());
}

TEST(MatchTriplePatternTest, ObjectContainsFilter) {
  Triple t("g", "xGO", "go_terms_17");
  TriplePattern tp = TriplePattern::Unbound(
      NodePattern::Var("g"), "p", NodePattern::Var("o", "go_"));
  EXPECT_TRUE(MatchTriplePattern(tp, t).has_value());
  Triple miss("g", "xRef", "ref_17");
  EXPECT_FALSE(MatchTriplePattern(tp, miss).has_value());
}

TEST(MatchTriplePatternTest, SharedVariableAcrossPositions) {
  // ?s <selfLoop> ?s must only match reflexive triples.
  TriplePattern tp = TriplePattern::Bound(NodePattern::Var("s"), "selfLoop",
                                          NodePattern::Var("s"));
  EXPECT_TRUE(
      MatchTriplePattern(tp, Triple("a", "selfLoop", "a")).has_value());
  EXPECT_FALSE(
      MatchTriplePattern(tp, Triple("a", "selfLoop", "b")).has_value());
}

// MatchesTriplePattern is MatchTriplePattern's verdict without building
// bindings: the cases above, then every pattern shape (constants, CONTAINS
// filters, a variable repeated across any two or all three positions)
// against seeded random triples over a small alphabet.
TEST(MatchTriplePatternTest, MatchesAgreesWithMatch) {
  std::vector<std::pair<TriplePattern, Triple>> cases = {
      {BoundTp("g", "xGO", "o"), Triple("gene9", "xGO", "go1")},
      {BoundTp("g", "label", "o"), Triple("gene9", "xGO", "go1")},
      {TriplePattern::Unbound(NodePattern::Var("g"), "p",
                              NodePattern::Var("o")),
       Triple("gene9", "xGO", "go1")},
      {TriplePattern::Bound(NodePattern::Var("g"), "type",
                            NodePattern::Const("protein")),
       Triple("gene9", "type", "protein")},
      {TriplePattern::Bound(NodePattern::Var("g"), "type",
                            NodePattern::Const("pseudo")),
       Triple("gene9", "type", "protein")},
      {TriplePattern::Bound(NodePattern::Const("gene9"), "type",
                            NodePattern::Var("t")),
       Triple("gene9", "type", "protein")},
      {TriplePattern::Bound(NodePattern::Const("gene10"), "type",
                            NodePattern::Var("t")),
       Triple("gene9", "type", "protein")},
      {TriplePattern::Unbound(NodePattern::Var("g"), "p",
                              NodePattern::Var("o", "go_")),
       Triple("g", "xGO", "go_terms_17")},
      {TriplePattern::Unbound(NodePattern::Var("g"), "p",
                              NodePattern::Var("o", "go_")),
       Triple("g", "xRef", "ref_17")},
      {TriplePattern::Bound(NodePattern::Var("s"), "selfLoop",
                            NodePattern::Var("s")),
       Triple("a", "selfLoop", "a")},
      {TriplePattern::Bound(NodePattern::Var("s"), "selfLoop",
                            NodePattern::Var("s")),
       Triple("a", "selfLoop", "b")},
  };
  const std::vector<TriplePattern> shapes = {
      TriplePattern::Bound(NodePattern::Var("s"), "a", NodePattern::Var("o")),
      TriplePattern::Bound(NodePattern::Var("s"), "a", NodePattern::Var("s")),
      TriplePattern::Bound(NodePattern::Const("a"), "b",
                           NodePattern::Const("go_a")),
      TriplePattern::Bound(NodePattern::Var("s", "a"), "a",
                           NodePattern::Var("o", "go_")),
      TriplePattern::Unbound(NodePattern::Var("s"), "p", NodePattern::Var("o")),
      TriplePattern::Unbound(NodePattern::Var("s"), "s", NodePattern::Var("o")),
      TriplePattern::Unbound(NodePattern::Var("s"), "p", NodePattern::Var("p")),
      TriplePattern::Unbound(NodePattern::Var("s"), "p", NodePattern::Var("s")),
      TriplePattern::Unbound(NodePattern::Var("s"), "s", NodePattern::Var("s")),
      TriplePattern::Unbound(NodePattern::Var("s"), "p",
                             NodePattern::Var("o", "go_")),
      TriplePattern::Unbound(NodePattern::Const("b"), "p",
                             NodePattern::Const("a")),
  };
  const std::vector<std::string> alphabet = {"a", "b", "go_a", ""};
  std::mt19937 rng(17);
  auto pick = [&] { return alphabet[rng() % alphabet.size()]; };
  for (const TriplePattern& tp : shapes) {
    for (int i = 0; i < 200; ++i) {
      cases.emplace_back(tp, Triple(pick(), pick(), pick()));
    }
  }
  size_t matched = 0;
  for (const auto& [tp, t] : cases) {
    const bool expected = MatchTriplePattern(tp, t).has_value();
    EXPECT_EQ(MatchesTriplePattern(tp, t), expected)
        << tp.ToString() << " vs (" << t.subject << ", " << t.property
        << ", " << t.object << ")";
    matched += expected;
  }
  EXPECT_GT(matched, cases.size() / 10) << "the cases must exercise hits";
}

// ---- MatchStar ---------------------------------------------------------------

StarPattern UnboundStar() {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(BoundTp("g", "label", "l"));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up", NodePattern::Var("x")));
  return star;
}

TEST(MatchStarTest, MultiValuedPropertyProducesAllCombinations) {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(BoundTp("g", "label", "l"));
  star.patterns.push_back(BoundTp("g", "xGO", "go"));
  std::vector<Triple> triples = {
      {"gene9", "label", "retinoid"},
      {"gene9", "xGO", "go1"},
      {"gene9", "xGO", "go9"},
  };
  std::vector<StarMatch> matches = MatchStarDetailed(star, triples);
  EXPECT_EQ(matches.size(), 2u) << "one per xGO value";
  for (const StarMatch& m : matches) {
    EXPECT_EQ(m.matched.size(), 2u);
    EXPECT_EQ(*m.solution.Get("l"), "retinoid");
  }
}

TEST(MatchStarTest, TriplePlaysBoundAndUnboundRoles) {
  // The label triple must match BOTH the bound label pattern and the
  // unbound pattern — Section 3's subtlety.
  std::vector<Triple> triples = {
      {"gene9", "label", "retinoid"},
      {"gene9", "xGO", "go1"},
  };
  std::vector<Solution> solutions = MatchStar(UnboundStar(), triples);
  ASSERT_EQ(solutions.size(), 2u);
  std::set<std::string> up_bindings;
  for (const Solution& s : solutions) {
    up_bindings.insert(*s.Get("up"));
  }
  EXPECT_EQ(up_bindings, (std::set<std::string>{"label", "xGO"}));
}

TEST(MatchStarTest, MissingBoundPropertyYieldsNothing) {
  std::vector<Triple> triples = {{"gene9", "xGO", "go1"}};
  EXPECT_TRUE(MatchStar(UnboundStar(), triples).empty());
}

TEST(MatchStarTest, SharedObjectVariableEnforced) {
  // Both patterns bind ?v: only subjects where the two properties share a
  // value match.
  StarPattern star;
  star.subject_var = "s";
  star.patterns.push_back(BoundTp("s", "p1", "v"));
  star.patterns.push_back(BoundTp("s", "p2", "v"));
  std::vector<Triple> ok_triples = {
      {"s1", "p1", "shared"}, {"s1", "p2", "shared"}, {"s1", "p2", "other"},
  };
  std::vector<Solution> solutions = MatchStar(star, ok_triples);
  ASSERT_EQ(solutions.size(), 1u);
  EXPECT_EQ(*solutions[0].Get("v"), "shared");
}

TEST(MatchStarTest, TwoUnboundPatternsProduceCartesianProduct) {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up1", NodePattern::Var("x1")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up2", NodePattern::Var("x2")));
  std::vector<Triple> triples = {
      {"g", "a", "1"}, {"g", "b", "2"}, {"g", "c", "3"},
  };
  EXPECT_EQ(MatchStar(star, triples).size(), 9u);
}

// ---- EvaluateQueryInMemory ---------------------------------------------------

TEST(EvaluateQueryTest, TwoStarJoinHandComputed) {
  std::vector<TriplePattern> patterns = {
      BoundTp("p", "label", "l"),
      BoundTp("o", "product", "p"),
      BoundTp("o", "price", "pr"),
  };
  auto q = GraphPatternQuery::Create("join", std::move(patterns));
  ASSERT_TRUE(q.ok());
  std::vector<Triple> triples = {
      {"prod1", "label", "widget"},
      {"prod2", "label", "gadget"},
      {"offer1", "product", "prod1"},
      {"offer1", "price", "10"},
      {"offer2", "product", "prod1"},
      {"offer2", "price", "20"},
      {"offer3", "product", "missing"},
      {"offer3", "price", "30"},
  };
  SolutionSet result = EvaluateQueryInMemory(*q, triples);
  ASSERT_EQ(result.size(), 2u) << "offers 1 and 2 join to prod1";
  for (const Solution& s : result) {
    EXPECT_EQ(*s.Get("p"), "prod1");
    EXPECT_EQ(*s.Get("l"), "widget");
  }
}

TEST(EvaluateQueryTest, ResidualPredicateEnforced) {
  // Two stars sharing TWO variables: the second shared variable acts as a
  // residual filter on the joined pairs.
  std::vector<TriplePattern> patterns = {
      BoundTp("a", "link", "x"),
      BoundTp("a", "tag", "t"),
      BoundTp("b", "rev", "x"),
      BoundTp("b", "tag", "t"),
  };
  auto q = GraphPatternQuery::Create("residual", std::move(patterns));
  ASSERT_TRUE(q.ok());
  std::vector<Triple> triples = {
      {"a1", "link", "k"}, {"a1", "tag", "red"},
      {"b1", "rev", "k"},  {"b1", "tag", "red"},
      {"b2", "rev", "k"},  {"b2", "tag", "blue"},
  };
  SolutionSet result = EvaluateQueryInMemory(*q, triples);
  ASSERT_EQ(result.size(), 1u) << "b2 disagrees on ?t and must be dropped";
  EXPECT_EQ(*result.begin()->Get("b"), "b1");
}

TEST(EvaluateQueryTest, ObjectObjectJoin) {
  std::vector<TriplePattern> patterns = {
      BoundTp("o", "product", "p"),
      BoundTp("r", "reviewFor", "p"),
  };
  auto q = GraphPatternQuery::Create("oo", std::move(patterns));
  ASSERT_TRUE(q.ok());
  std::vector<Triple> triples = {
      {"offer1", "product", "prod1"},
      {"offer2", "product", "prod2"},
      {"rev1", "reviewFor", "prod1"},
      {"rev2", "reviewFor", "prod1"},
  };
  SolutionSet result = EvaluateQueryInMemory(*q, triples);
  EXPECT_EQ(result.size(), 2u) << "offer1 x {rev1, rev2}";
}

TEST(EvaluateQueryTest, EmptyDataEmptyResult) {
  auto q = GraphPatternQuery::Create(
      "e", {BoundTp("s", "p", "o")});
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(EvaluateQueryInMemory(*q, {}).empty());
}

}  // namespace
}  // namespace rdfmr
