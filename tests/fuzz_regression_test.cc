// Differential fuzz harness tests: deterministic replay of the seeded
// corpus, generator guarantees, metrics-invariant checking on known
// executions, shrinking behaviour, and the end-to-end injected-bug drill
// (a flipped β group-filter predicate must be caught and shrunk to a
// minimal repro).

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "ntga/operators.h"
#include "query/matcher.h"
#include "testing/differential.h"
#include "testing/graph_gen.h"
#include "testing/invariants.h"
#include "testing/query_gen.h"

namespace rdfmr {
namespace fuzz {
namespace {

// Restores the production β group-filter even when a test fails mid-body.
class BetaFlipGuard {
 public:
  explicit BetaFlipGuard(bool enabled) {
    SetBetaGroupFilterFlipForTesting(enabled);
  }
  ~BetaFlipGuard() { SetBetaGroupFilterFlipForTesting(false); }
};

TEST(GraphGenTest, DeterministicSortedAndDuplicateFree) {
  GraphGenConfig config;
  Rng rng1(7), rng2(7);
  std::vector<Triple> a = GenerateGraph(config, &rng1);
  std::vector<Triple> b = GenerateGraph(config, &rng2);
  EXPECT_EQ(a, b) << "same seed must generate the same graph";
  ASSERT_FALSE(a.empty());
  std::set<Triple> distinct(a.begin(), a.end());
  EXPECT_EQ(distinct.size(), a.size()) << "no duplicate triples";
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  std::set<std::string> subjects;
  for (const Triple& t : a) subjects.insert(t.subject);
  EXPECT_EQ(subjects.size(), config.num_subjects)
      << "every subject gets at least one triple";
}

TEST(QueryGenTest, AlwaysProducesValidQueries) {
  GraphGenConfig graph_config;
  QueryGenConfig query_config;
  GraphVocabulary vocab = VocabularyOf(graph_config);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    GeneratedQuery q = GenerateQuery(query_config, vocab, &rng);
    ASSERT_NE(q.query, nullptr);
    ASSERT_FALSE(q.query->stars().empty());
    // GenerateQuery RDFMR_CHECKs Create() internally; re-building from the
    // raw patterns must agree (the shrinker depends on this round trip).
    auto rebuilt = GraphPatternQuery::Create("rebuild", q.patterns);
    EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    if (q.aggregate.has_value()) {
      EXPECT_TRUE(q.aggregate->Validate(*q.query).ok());
    }
  }
}

TEST(QueryGenTest, MinUnboundIsHonored) {
  GraphGenConfig graph_config;
  QueryGenConfig query_config;
  query_config.unbound_prob = 0.0;
  query_config.min_unbound = 1;
  GraphVocabulary vocab = VocabularyOf(graph_config);
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    GeneratedQuery q = GenerateQuery(query_config, vocab, &rng);
    EXPECT_GE(q.query->NumUnbound(), 1u);
  }
}

TEST(FuzzCaseTest, MakeCaseIsDeterministicAndIndexIndependent) {
  FuzzOptions options;
  options.seed = 5;
  FuzzCase a = MakeCase(options, 3);
  FuzzCase b = MakeCase(options, 3);
  EXPECT_EQ(a.triples, b.triples);
  EXPECT_EQ(a.patterns, b.patterns);
  EXPECT_EQ(a.aggregate.has_value(), b.aggregate.has_value());
  FuzzCase c = MakeCase(options, 4);
  EXPECT_NE(a.triples, c.triples) << "different indexes, different cases";
}

// The seeded corpus the CI smoke run covers in depth; replaying a fixed
// prefix here keeps engine regressions visible inside plain ctest even
// when the fuzz_smoke label is not scheduled.
TEST(FuzzRegressionTest, SeedOneCorpusPrefixIsClean) {
  FuzzOptions options;
  options.seed = 1;
  size_t nonempty = 0;
  for (uint64_t i = 0; i < 25; ++i) {
    FuzzCase fuzz_case = MakeCase(options, i);
    CaseOutcome outcome = RunCase(fuzz_case, options.diff);
    EXPECT_FALSE(outcome.query_invalid) << fuzz_case.name;
    EXPECT_TRUE(outcome.ok())
        << fuzz_case.name << ": "
        << (outcome.violations.empty() ? "" : outcome.violations.front());
    nonempty += outcome.expected_answers > 0 ? 1 : 0;
  }
  EXPECT_GT(nonempty, 0u)
      << "the corpus prefix must include cases with answers";
}

// Hand-written shapes that once needed special care in the generators:
// a multi-valued unbound star with a CONTAINS filter, and a chained star
// joining through an unbound pattern's object.
TEST(FuzzRegressionTest, UnboundContainsStarAcrossAllEngines) {
  FuzzCase fuzz_case;
  fuzz_case.name = "unbound-contains";
  fuzz_case.triples = {
      {"s0", "p0", "lit tok1 n0"}, {"s0", "p0", "lit tok2 n1"},
      {"s0", "p1", "o3"},          {"s1", "p0", "lit tok1 n2"},
      {"s1", "p2", "o3"},
  };
  TriplePattern bound;
  bound.subject = NodePattern::Var("qs0");
  bound.property = "p1";
  bound.object = NodePattern::Const("o3");
  TriplePattern unbound;
  unbound.subject = NodePattern::Var("qs0");
  unbound.property_bound = false;
  unbound.property = "up0";
  unbound.object = NodePattern::Var("v0", "tok1");
  fuzz_case.patterns = {bound, unbound};
  CaseOutcome outcome = RunCase(fuzz_case, DifferentialConfig());
  EXPECT_TRUE(outcome.ok())
      << (outcome.violations.empty() ? "" : outcome.violations.front());
  EXPECT_EQ(outcome.expected_answers, 1u);
}

TEST(FuzzRegressionTest, ChainedStarsJoinedThroughUnboundObject) {
  FuzzCase fuzz_case;
  fuzz_case.name = "chain-on-unbound";
  fuzz_case.triples = {
      {"s0", "p0", "s1"}, {"s0", "p1", "o0"}, {"s1", "p2", "o1"},
      {"s2", "p0", "s1"}, {"s1", "p3", "o2"},
  };
  TriplePattern hop;
  hop.subject = NodePattern::Var("qs0");
  hop.property_bound = false;
  hop.property = "up0";
  hop.object = NodePattern::Var("qs1");
  TriplePattern leaf;
  leaf.subject = NodePattern::Var("qs1");
  leaf.property = "p2";
  leaf.object = NodePattern::Var("v0");
  fuzz_case.patterns = {hop, leaf};
  CaseOutcome outcome = RunCase(fuzz_case, DifferentialConfig());
  EXPECT_TRUE(outcome.ok())
      << (outcome.violations.empty() ? "" : outcome.violations.front());
  EXPECT_GT(outcome.expected_answers, 0u);
}

// A literal carrying a backslash, a tab, a 0x1E byte and a newline (the
// generator's separator-bearing literals). Eager β-unnest writes it twice
// into one nested record, whose two raw tabs once made the redundancy
// meter read the record as a flat 3-field tuple (factor 0.27).
TEST(FuzzRegressionTest, SeparatorLiteralKeepsNtgaRedundancyZero) {
  FuzzCase fuzz_case;
  fuzz_case.name = "separator-literal";
  fuzz_case.triples = {{"s4", "p1", "lit tok1 n4 \\\t\x1E\n"}};
  TriplePattern unbound;
  unbound.subject = NodePattern::Var("qs0");
  unbound.property_bound = false;
  unbound.property = "up0";
  unbound.object = NodePattern::Var("v0");
  TriplePattern bound;
  bound.subject = NodePattern::Var("qs0");
  bound.property = "p1";
  bound.object = NodePattern::Var("qs1");
  fuzz_case.patterns = {unbound, bound};
  CaseOutcome outcome = RunCase(fuzz_case, DifferentialConfig());
  EXPECT_TRUE(outcome.ok())
      << (outcome.violations.empty() ? "" : outcome.violations.front());
  EXPECT_EQ(outcome.expected_answers, 1u);
}

TEST(InvariantTest, CleanExecutionPassesAndTamperedStatsFail) {
  FuzzOptions options;
  options.seed = 2;
  // Find a corpus case with answers so the stats are nontrivial.
  FuzzCase fuzz_case;
  for (uint64_t i = 0;; ++i) {
    ASSERT_LT(i, 100u) << "no case with answers in the first 100";
    fuzz_case = MakeCase(options, i);
    auto built = GraphPatternQuery::Create(fuzz_case.name,
                                           fuzz_case.patterns);
    ASSERT_TRUE(built.ok());
    auto query = std::make_shared<const GraphPatternQuery>(
        built.MoveValueUnsafe());
    if (!EvaluateQueryInMemory(*query, fuzz_case.triples).empty()) break;
  }
  CaseOutcome outcome = RunCase(fuzz_case, DifferentialConfig());
  ASSERT_TRUE(outcome.ok())
      << (outcome.violations.empty() ? "" : outcome.violations.front());

  // Now execute once directly and tamper with the stats: the checker must
  // flag each broken identity.
  DifferentialConfig config;
  SimDfs dfs(config.cluster);
  auto built = GraphPatternQuery::Create(fuzz_case.name, fuzz_case.patterns);
  ASSERT_TRUE(built.ok());
  auto query =
      std::make_shared<const GraphPatternQuery>(built.MoveValueUnsafe());
  ASSERT_TRUE(
      dfs.WriteFile("base", SerializeTriples(fuzz_case.triples)).ok());
  EngineOptions engine_options;
  engine_options.kind = EngineKind::kNtgaLazy;
  engine_options.phi_partitions = config.phi_partitions;
  auto exec = Exec(&dfs, "base", ExecRequest::Single(query), engine_options);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(exec->stats.ok());
  InvariantContext ctx;
  ctx.base_bytes_replicated = *dfs.FileSize("base");
  ctx.ntga_engine = true;
  EXPECT_TRUE(CheckStatsInvariants(exec->stats, ctx).empty());

  ExecStats bad_shuffle = exec->stats;
  bad_shuffle.shuffle_bytes += 1;
  EXPECT_FALSE(CheckStatsInvariants(bad_shuffle, ctx).empty());

  ExecStats bad_split = exec->stats;
  bad_split.intermediate_write_bytes += 1;
  EXPECT_FALSE(CheckStatsInvariants(bad_split, ctx).empty());

  ExecStats bad_peak = exec->stats;
  bad_peak.peak_dfs_used_bytes = 0;
  EXPECT_FALSE(CheckStatsInvariants(bad_peak, ctx).empty());

  ExecStats bad_redundancy = exec->stats;
  bad_redundancy.redundancy_factor = 0.5;
  EXPECT_FALSE(CheckStatsInvariants(bad_redundancy, ctx).empty())
      << "an NTGA engine reporting relational-level redundancy must trip";

  ExecStats bad_job = exec->stats;
  ASSERT_FALSE(bad_job.jobs.empty());
  bad_job.jobs[0].map_direct_output_bytes += 1;
  bad_job.jobs[0].map_output_bytes += 1;
  EXPECT_FALSE(CheckStatsInvariants(bad_job, ctx).empty())
      << "metering the same volume as both shuffle and direct must trip";
}

TEST(InvariantTest, CompareStatsIgnoresOnlyWallTimes) {
  ExecStats a;
  a.engine = "x";
  a.shuffle_bytes = 10;
  ExecStats b = a;
  b.map_seconds = 123.0;
  b.reduce_seconds = 4.0;
  EXPECT_TRUE(CompareStatsIgnoringWallTimes(a, b).empty());
  b.shuffle_bytes = 11;
  EXPECT_FALSE(CompareStatsIgnoringWallTimes(a, b).empty());
}

// The acceptance drill: enable the seeded defect (σ^βγ admits exactly the
// wrong groups for unbound patterns), and require the harness to catch it
// and shrink the evidence to a tiny repro.
TEST(InjectedBugTest, FlippedBetaGroupFilterIsCaughtAndShrunk) {
  BetaFlipGuard guard(true);
  FuzzOptions options;
  options.seed = 1;
  options.cases = 50;
  options.query.min_unbound = 1;  // every case exercises the β filter
  std::ostringstream log;
  FuzzReport report = RunFuzz(options, &log);
  ASSERT_FALSE(report.failures.empty())
      << "the injected defect went undetected:\n"
      << log.str();
  const FuzzFailure& failure = report.failures.front();
  EXPECT_LE(failure.shrunk.triples.size(), 10u)
      << "shrinking must reach a minimal repro";
  EXPECT_GE(failure.shrunk.triples.size(), 1u);
  EXPECT_FALSE(failure.outcome.violations.empty());
  // The repro is a complete pasteable test body.
  EXPECT_NE(failure.repro.find("TEST(FuzzRepro,"), std::string::npos);
  EXPECT_NE(failure.repro.find("GraphPatternQuery::Create"),
            std::string::npos);
  EXPECT_NE(failure.repro.find("EXPECT_TRUE(exec->answers == expected)"),
            std::string::npos);
}

TEST(InjectedBugTest, HookRestoredCasesCleanAgain) {
  // After the guard in the previous test (and ours here) releases, the
  // corpus prefix must be clean — the hook must not leak across tests.
  ASSERT_FALSE(BetaGroupFilterFlippedForTesting());
  FuzzOptions options;
  options.seed = 1;
  for (uint64_t i = 0; i < 5; ++i) {
    FuzzCase fuzz_case = MakeCase(options, i);
    CaseOutcome outcome = RunCase(fuzz_case, options.diff);
    EXPECT_TRUE(outcome.ok()) << fuzz_case.name;
  }
}

TEST(ShrinkTest, NonFailingCaseIsReturnedUnchanged) {
  FuzzOptions options;
  options.seed = 1;
  FuzzCase fuzz_case = MakeCase(options, 0);
  FuzzCase shrunk = ShrinkCase(fuzz_case, options.diff);
  EXPECT_EQ(shrunk.triples, fuzz_case.triples);
  EXPECT_EQ(shrunk.patterns, fuzz_case.patterns);
}

}  // namespace
}  // namespace fuzz
}  // namespace rdfmr
