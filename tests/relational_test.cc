// Tests for the relational layer: n-tuple serde, join-key extraction,
// answer decoding, and the Pig/Hive plan compilers' structural properties
// (cycle counts, scan counts, compress jobs, inlined single-pattern stars,
// Sel-SJ-first shapes).

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/testbed.h"
#include "relational/rel_compiler.h"
#include "relational/rel_tuple.h"

namespace rdfmr {
namespace {

RelSchema TwoPatternSchema() {
  return {
      TriplePattern::Bound(NodePattern::Var("g"), "label",
                           NodePattern::Var("l")),
      TriplePattern::Unbound(NodePattern::Var("g"), "up",
                             NodePattern::Var("x")),
  };
}

RelTuple MakeTuple() {
  RelTuple t;
  t.triples.emplace_back("gene9", "label", "retinoid");
  t.triples.emplace_back("gene9", "xGO", "go1");
  return t;
}

TEST(RelTupleTest, SerdeRoundtrip) {
  RelTuple t = MakeTuple();
  auto back = RelTuple::Deserialize(t.Serialize(), 2);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->triples, t.triples);
}

// Records are canonical: a join emits its input records side by side,
// which must equal serializing the concatenated tuple.
TEST(RelTupleTest, SideBySideEqualsSerializingTheConcatenation) {
  static const std::string kAlphabet =
      std::string("ab\\sn\t\n,|\x1E\x1F") + '\0';
  Rng rng(20261017);
  auto term = [&rng] {
    std::string out;
    for (size_t i = rng.Uniform(5); i > 0; --i) {
      out.push_back(kAlphabet[rng.Uniform(kAlphabet.size())]);
    }
    return out;
  };
  auto tuple = [&rng, &term] {
    RelTuple t;
    for (size_t i = 1 + rng.Uniform(3); i > 0; --i) {
      // A null triple stands for an unmatched OPTIONAL pattern.
      t.triples.push_back(rng.Chance(0.2) ? Triple()
                                          : Triple(term(), term(), term()));
    }
    return t;
  };
  for (int round = 0; round < 500; ++round) {
    const RelTuple a = tuple();
    const RelTuple b = tuple();
    RelTuple ab = a;
    ab.triples.insert(ab.triples.end(), b.triples.begin(), b.triples.end());
    EXPECT_EQ(a.Serialize() + '\t' + b.Serialize(), ab.Serialize())
        << "round " << round;
    EXPECT_EQ(JoinTupleRecords(a.Serialize(), b.Serialize()), ab.Serialize())
        << "round " << round;
  }
}

TEST(RelTupleTest, DeserializeChecksArity) {
  RelTuple t = MakeTuple();
  EXPECT_FALSE(RelTuple::Deserialize(t.Serialize(), 3).ok());
  EXPECT_FALSE(RelTuple::Deserialize("a\tb", 1).ok());
}

TEST(RelTupleTest, ToSolutionBindsAllVariables) {
  auto sol = MakeTuple().ToSolution(TwoPatternSchema());
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(*sol->Get("g"), "gene9");
  EXPECT_EQ(*sol->Get("l"), "retinoid");
  EXPECT_EQ(*sol->Get("up"), "xGO");
  EXPECT_EQ(*sol->Get("x"), "go1");
}

TEST(RelTupleTest, ToSolutionRejectsMismatchedColumn) {
  RelTuple t = MakeTuple();
  t.triples[0].property = "wrongProperty";
  EXPECT_FALSE(t.ToSolution(TwoPatternSchema()).ok());
}

TEST(RelTupleTest, ToSolutionRejectsInconsistentSharedVariable) {
  RelSchema schema = {
      TriplePattern::Bound(NodePattern::Var("g"), "p1",
                           NodePattern::Var("v")),
      TriplePattern::Bound(NodePattern::Var("g"), "p2",
                           NodePattern::Var("v")),
  };
  RelTuple t;
  t.triples.emplace_back("s", "p1", "same");
  t.triples.emplace_back("s", "p2", "different");
  EXPECT_FALSE(t.ToSolution(schema).ok());
}

TEST(RelTupleTest, ExtractJoinKeyPositions) {
  RelSchema schema = TwoPatternSchema();
  RelTuple t = MakeTuple();
  auto g = ExtractJoinKey(schema, t, "g");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(*g, "gene9");
  auto x = ExtractJoinKey(schema, t, "x");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(*x, "go1");
  EXPECT_TRUE(ExtractJoinKey(schema, t, "nope").status().IsNotFound());
}

TEST(RelTupleTest, DecodeAnswersDeduplicates) {
  RelTuple t = MakeTuple();
  auto set = DecodeRelationalAnswers(TwoPatternSchema(),
                                     {t.Serialize(), t.Serialize()});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 1u);
}

// The table decoder keeps every rejection of the per-tuple path, with its
// Status code: field count (IoError), a null triple at a mandatory column,
// a column that does not match its pattern, and a repeated variable that
// disagrees across columns or within one (InvalidArgument).
TEST(RelTupleTest, DecodeAnswersRejectionsKeepTheirCodes) {
  const RelSchema schema = TwoPatternSchema();
  auto decode = [](const RelSchema& s, const RelTuple& t) {
    return DecodeRelationalAnswers(s, {t.Serialize()}).status();
  };
  EXPECT_TRUE(
      DecodeRelationalAnswers(schema, {"gene9\tlabel\tretinoid"})
          .status()
          .IsIoError());
  EXPECT_TRUE(DecodeRelationalAnswers(
                  schema, {MakeTuple().Serialize() + "\textra"})
                  .status()
                  .IsIoError());

  RelTuple null_column = MakeTuple();
  null_column.triples[1] = Triple("", "", "");
  EXPECT_TRUE(decode(schema, null_column).IsInvalidArgument());
  RelSchema optional_schema = schema;
  optional_schema[1].optional = true;
  auto unmatched = DecodeRelationalAnswers(optional_schema,
                                           {null_column.Serialize()});
  ASSERT_TRUE(unmatched.ok()) << unmatched.status().ToString();
  ASSERT_EQ(unmatched->size(), 1u);
  EXPECT_FALSE(unmatched->Row(0).Has("x")) << "the OPTIONAL slot is unbound";

  RelTuple wrong_property = MakeTuple();
  wrong_property.triples[0].property = "wrongProperty";
  EXPECT_TRUE(decode(schema, wrong_property).IsInvalidArgument());

  const RelSchema shared = {
      TriplePattern::Bound(NodePattern::Var("g"), "p1",
                           NodePattern::Var("v")),
      TriplePattern::Bound(NodePattern::Var("g"), "p2",
                           NodePattern::Var("v")),
  };
  RelTuple disagree;
  disagree.triples = {Triple("s", "p1", "same"), Triple("s", "p2", "other")};
  EXPECT_TRUE(decode(shared, disagree).IsInvalidArgument());
  RelTuple subjects_disagree;
  subjects_disagree.triples = {Triple("s", "p1", "v"), Triple("t", "p2", "v")};
  EXPECT_TRUE(decode(shared, subjects_disagree).IsInvalidArgument());
  const RelSchema self_loop = {TriplePattern::Bound(
      NodePattern::Var("s"), "loop", NodePattern::Var("s"))};
  RelTuple not_a_loop;
  not_a_loop.triples = {Triple("a", "loop", "b")};
  EXPECT_TRUE(decode(self_loop, not_a_loop).IsInvalidArgument());
}

// ---- Plan compiler structure ---------------------------------------------------

CompiledPlan CompileFor(const std::string& query_id, RelationalStyle style,
                        RelationalGrouping grouping =
                            RelationalGrouping::kStarPerCycle) {
  auto query = GetTestbedQuery(query_id);
  EXPECT_TRUE(query.ok());
  RelationalOptions options;
  options.style = style;
  options.grouping = grouping;
  auto plan = CompileRelationalPlan(*query, "base", "tmp", options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(*plan);
}

uint32_t TotalFullScans(const CompiledPlan& plan) {
  uint32_t scans = 0;
  for (const JobSpec& job : plan.workflow.jobs) {
    scans += job.full_scans_of_base;
  }
  return scans;
}

TEST(RelCompilerTest, HiveTwoStarPlanShape) {
  CompiledPlan plan = CompileFor("B0", RelationalStyle::kHive);
  // 2 star cycles + 1 join cycle.
  ASSERT_EQ(plan.workflow.jobs.size(), 3u);
  EXPECT_EQ(TotalFullScans(plan), 2u) << "Hive shares scans per cycle";
  EXPECT_EQ(plan.star_phase_paths.size(), 2u);
  EXPECT_FALSE(plan.workflow.final_output_path.empty());
}

TEST(RelCompilerTest, PigScansOncePerOperand) {
  CompiledPlan plan = CompileFor("B0", RelationalStyle::kPig);
  // B0: star1 has 3 patterns, star2 has 3 patterns -> 6 operand scans.
  EXPECT_EQ(TotalFullScans(plan), 6u);
}

TEST(RelCompilerTest, PigAddsCompressJobForUnboundMultiStar) {
  CompiledPlan plan = CompileFor("B1", RelationalStyle::kPig);
  ASSERT_FALSE(plan.workflow.jobs.empty());
  EXPECT_EQ(plan.workflow.jobs[0].name, "pig-filter-compress");
  // After compressing, later cycles scan the compressed copy, so the base
  // is scanned exactly once.
  EXPECT_EQ(TotalFullScans(plan), 1u);
  // Hive runs the same query without the extra job.
  CompiledPlan hive = CompileFor("B1", RelationalStyle::kHive);
  EXPECT_EQ(hive.workflow.jobs.size() + 1, plan.workflow.jobs.size());
}

TEST(RelCompilerTest, SingleStarQueryIsOneCycle) {
  CompiledPlan plan = CompileFor("A1", RelationalStyle::kHive);
  EXPECT_EQ(plan.workflow.jobs.size(), 1u);
  EXPECT_EQ(plan.workflow.final_output_path,
            plan.star_phase_paths.at(0));
}

TEST(RelCompilerTest, SinglePatternStarInlinedIntoJoinCycle) {
  // A5's second star is a lone label edge: Hive folds it into the join
  // cycle (2 jobs total, both scanning the base), mirroring the paper.
  CompiledPlan plan = CompileFor("A5", RelationalStyle::kHive);
  EXPECT_EQ(plan.workflow.jobs.size(), 2u);
  EXPECT_EQ(TotalFullScans(plan), 2u);
}

TEST(RelCompilerTest, SelSjFirstFoldsObjectSubjectJoin) {
  CompiledPlan plan = CompileFor("Q1a", RelationalStyle::kHive,
                                 RelationalGrouping::kSelSJFirst);
  EXPECT_EQ(plan.workflow.jobs.size(), 2u);
  EXPECT_EQ(TotalFullScans(plan), 2u);
}

TEST(RelCompilerTest, SelSjFirstObjectObjectStaysThreeCycles) {
  CompiledPlan plan = CompileFor("Q3a", RelationalStyle::kHive,
                                 RelationalGrouping::kSelSJFirst);
  EXPECT_EQ(plan.workflow.jobs.size(), 3u);
  EXPECT_EQ(TotalFullScans(plan), 3u)
      << "the case study's O-O join rescans the base in the join cycle";
}

TEST(RelCompilerTest, ThreeStarQueryChainsJoins) {
  CompiledPlan plan = CompileFor("B5", RelationalStyle::kHive);
  // B5: product star + offer star get cycles; the single-pattern feature
  // star is inlined; then 2 join cycles.
  EXPECT_EQ(plan.workflow.jobs.size(), 4u);
}

TEST(RelCompilerTest, NullQueryRejected) {
  RelationalOptions options;
  EXPECT_FALSE(
      CompileRelationalPlan(nullptr, "base", "tmp", options).ok());
}

TEST(RelCompilerTest, SelSjFirstRequiresTwoStars) {
  auto query = GetTestbedQuery("A1");  // single star
  ASSERT_TRUE(query.ok());
  RelationalOptions options;
  options.grouping = RelationalGrouping::kSelSJFirst;
  auto plan = CompileRelationalPlan(*query, "base", "tmp", options);
  EXPECT_EQ(plan.status().code(), StatusCode::kNotImplemented);
}

TEST(RelCompilerTest, IntermediatePathsExcludeFinalOutput) {
  CompiledPlan plan = CompileFor("B0", RelationalStyle::kHive);
  for (const std::string& path : plan.workflow.intermediate_paths) {
    EXPECT_NE(path, plan.workflow.final_output_path);
  }
}

}  // namespace
}  // namespace rdfmr
