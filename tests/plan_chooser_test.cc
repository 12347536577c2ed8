// Tests for the cost-based plan chooser behind engine=auto (ranking on
// the testbed catalog, the fitting filter, decision recording) and for
// the Exec entry point's request validation.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/plan_chooser.h"
#include "query/aggregate.h"
#include "query/sparql_parser.h"
#include "rdf/graph_stats.h"
#include "testing/invariants.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::MakeDfsWithBase;
using testing_util::RoomyCluster;
using testing_util::SmallDataset;

ExecRequest SingleRequest(const std::string& query_id) {
  auto query = GetTestbedQuery(query_id);
  EXPECT_TRUE(query.ok());
  ExecRequest request;
  request.payload = ExecPayload::kSingle;
  request.query = *query;
  return request;
}

PlanChoice ChoiceFor(const std::string& query_id,
                     const std::vector<Triple>& triples,
                     ClusterConfig cluster = RoomyCluster()) {
  GraphStats stats = GraphStats::Compute(triples);
  const uint64_t base_bytes = SerializeTriples(triples).size();
  EngineOptions options;
  options.kind = EngineKind::kAuto;
  auto choice = ChoosePlan(SingleRequest(query_id), stats, base_bytes,
                           base_bytes, cluster, options);
  EXPECT_TRUE(choice.ok()) << choice.status().ToString();
  return choice.ok() ? *choice : PlanChoice{};
}

const PlanCandidate& CandidateFor(const PlanChoice& choice,
                                  EngineKind kind) {
  for (const PlanCandidate& candidate : choice.candidates) {
    if (candidate.kind == kind) return candidate;
  }
  static PlanCandidate missing;
  ADD_FAILURE() << "no candidate for " << EngineKindToString(kind);
  return missing;
}

bool IsLazyFamily(EngineKind kind) {
  return kind == EngineKind::kNtgaLazy ||
         kind == EngineKind::kNtgaLazyFull ||
         kind == EngineKind::kNtgaLazyPartial;
}

// ---- Ranking on the testbed catalog ---------------------------------------

TEST(PlanChooserTest, UnboundPropertyStarPrefersLazyOverEager) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  for (const std::string q : {"B1", "B3"}) {
    PlanChoice choice = ChoiceFor(q, triples);
    EXPECT_TRUE(IsLazyFamily(choice.kind))
        << q << " chose " << EngineKindToString(choice.kind);
    const PlanCandidate& lazy =
        CandidateFor(choice, EngineKind::kNtgaLazy);
    const PlanCandidate& eager =
        CandidateFor(choice, EngineKind::kNtgaEager);
    const PlanCandidate& hive = CandidateFor(choice, EngineKind::kHive);
    EXPECT_LE(lazy.modeled_seconds, eager.modeled_seconds) << q;
    EXPECT_LE(lazy.modeled_seconds, hive.modeled_seconds) << q;
    // The unbound star's relational intermediate dwarfs the nested one.
    EXPECT_LT(lazy.star_bytes, hive.star_bytes) << q;
  }
}

TEST(PlanChooserTest, BoundOnlyStarKeepsRelationalCompetitive) {
  // A small, selective, bound-property-only star: the relational engines'
  // modeled cost must be within striking distance of (or beat) the best
  // candidate — nothing in such a query pays the NTGA grouping cycle off.
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kDbpedia);
  PlanChoice choice = ChoiceFor("C2", triples);
  const PlanCandidate* chosen = nullptr;
  for (const PlanCandidate& candidate : choice.candidates) {
    if (candidate.chosen) chosen = &candidate;
  }
  ASSERT_NE(chosen, nullptr);
  const PlanCandidate& hive = CandidateFor(choice, EngineKind::kHive);
  EXPECT_LE(hive.modeled_seconds, chosen->modeled_seconds * 1.25)
      << "relational should stay competitive on a bound-only star";
}

TEST(PlanChooserTest, NeverChoosesNonFittingWhileAFittingExists) {
  // Shrink the cluster until some candidates stop fitting; as long as at
  // least one candidate fits, the chosen one must be among the fitters.
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  ClusterConfig cluster = RoomyCluster();
  for (uint64_t disk = 64ULL << 20; disk >= 16ULL << 10; disk /= 2) {
    cluster.disk_per_node = disk;
    cluster.block_size = disk / 64 + 1;
    GraphStats stats = GraphStats::Compute(triples);
    const uint64_t base_bytes = SerializeTriples(triples).size();
    EngineOptions options;
    options.kind = EngineKind::kAuto;
    auto choice = ChoosePlan(SingleRequest("B3"), stats, base_bytes,
                             base_bytes, cluster, options);
    ASSERT_TRUE(choice.ok()) << choice.status().ToString();
    bool any_fits = false;
    bool chosen_fits = false;
    for (const PlanCandidate& candidate : choice->candidates) {
      if (candidate.feasible && candidate.fits) any_fits = true;
      if (candidate.chosen) chosen_fits = candidate.fits;
    }
    if (any_fits) {
      EXPECT_TRUE(chosen_fits)
          << "disk " << disk << ": chose a non-fitting plan over a "
          << "fitting candidate";
    }
  }
}

TEST(PlanChooserTest, TableScoresEveryEngineAndMarksExactlyOneChosen) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  PlanChoice choice = ChoiceFor("B1", triples);
  EXPECT_EQ(choice.candidates.size(), 6u);
  size_t chosen = 0;
  for (const PlanCandidate& candidate : choice.candidates) {
    if (candidate.chosen) ++chosen;
    EXPECT_TRUE(candidate.feasible);
    EXPECT_GT(candidate.modeled_seconds, 0.0);
    EXPECT_GT(candidate.planned_cycles, 0u);
  }
  EXPECT_EQ(chosen, 1u);
  EXPECT_FALSE(choice.rationale.empty());
  const std::string table = RenderPlanChoice(choice);
  EXPECT_NE(table.find("<=="), std::string::npos);
  EXPECT_NE(table.find(EngineKindToString(choice.kind)),
            std::string::npos);
}

TEST(PlanChooserTest, DeterministicAcrossCalls) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBio2Rdf);
  PlanChoice a = ChoiceFor("A1", triples);
  PlanChoice b = ChoiceFor("A1", triples);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.rationale, b.rationale);
  EXPECT_EQ(RenderPlanChoice(a), RenderPlanChoice(b));
}

// ---- engine=auto through Exec ---------------------------------------------

TEST(PlanChooserTest, AutoRunMatchesChosenEngineByteForByte) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  ExecRequest request = SingleRequest("B1");

  EngineOptions auto_options;
  auto_options.kind = EngineKind::kAuto;
  auto auto_dfs = MakeDfsWithBase(triples);
  ASSERT_NE(auto_dfs, nullptr);
  auto auto_exec = Exec(auto_dfs.get(), "base", request, auto_options);
  ASSERT_TRUE(auto_exec.ok()) << auto_exec.status().ToString();
  ASSERT_TRUE(auto_exec->stats.ok());
  ASSERT_FALSE(auto_exec->stats.chosen_engine.empty());
  EXPECT_EQ(auto_exec->stats.chosen_engine, auto_exec->stats.engine);
  EXPECT_EQ(auto_exec->stats.plan_candidates.size(), 6u);
  EXPECT_FALSE(auto_exec->stats.plan_rationale.empty());

  // Re-run the chosen engine explicitly on a fresh DFS.
  EngineKind chosen = EngineKind::kAuto;
  for (const PlanCandidate& candidate : auto_exec->stats.plan_candidates) {
    if (candidate.chosen) chosen = candidate.kind;
  }
  ASSERT_NE(chosen, EngineKind::kAuto);
  EngineOptions explicit_options;
  explicit_options.kind = chosen;
  auto explicit_dfs = MakeDfsWithBase(triples);
  ASSERT_NE(explicit_dfs, nullptr);
  auto explicit_exec =
      Exec(explicit_dfs.get(), "base", request, explicit_options);
  ASSERT_TRUE(explicit_exec.ok());
  ASSERT_TRUE(explicit_exec->stats.ok());
  EXPECT_TRUE(explicit_exec->stats.chosen_engine.empty())
      << "explicit runs must not carry chooser annotations";
  EXPECT_EQ(auto_exec->answers, explicit_exec->answers);
  EXPECT_TRUE(fuzz::CompareStatsIgnoringWallTimes(auto_exec->stats,
                                                  explicit_exec->stats)
                  .empty());
}

TEST(PlanChooserTest, AutoUsesCallerProvidedStatsWithoutScanning) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  ExecRequest request = SingleRequest("B1");
  request.stats =
      std::make_shared<const GraphStats>(GraphStats::Compute(triples));
  EngineOptions options;
  options.kind = EngineKind::kAuto;
  auto with_catalog_dfs = MakeDfsWithBase(triples);
  auto scan_dfs = MakeDfsWithBase(triples);
  ASSERT_NE(with_catalog_dfs, nullptr);
  ASSERT_NE(scan_dfs, nullptr);
  auto with_catalog =
      Exec(with_catalog_dfs.get(), "base", request, options);
  ExecRequest no_catalog = request;
  no_catalog.stats = nullptr;
  auto scanned = Exec(scan_dfs.get(), "base", no_catalog, options);
  ASSERT_TRUE(with_catalog.ok() && scanned.ok());
  // Same catalog content either way => same choice, same run.
  EXPECT_EQ(with_catalog->stats.chosen_engine,
            scanned->stats.chosen_engine);
  EXPECT_EQ(with_catalog->answers, scanned->answers);
  EXPECT_TRUE(fuzz::CompareStatsIgnoringWallTimes(with_catalog->stats,
                                                  scanned->stats)
                  .empty());
}

TEST(ExecRequestTest, RejectsMalformedRequests) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  EngineOptions options;

  ExecRequest no_query;
  no_query.payload = ExecPayload::kSingle;
  EXPECT_FALSE(Exec(dfs.get(), "base", no_query, options).ok());

  ExecRequest empty_batch;
  empty_batch.payload = ExecPayload::kBatch;
  EXPECT_FALSE(Exec(dfs.get(), "base", empty_batch, options).ok());

  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());
  ExecRequest mixed;
  mixed.payload = ExecPayload::kBatch;
  mixed.query = *query;  // single-query field on a batch payload
  EXPECT_FALSE(Exec(dfs.get(), "base", mixed, options).ok());
}

TEST(ExecRequestTest, EngineNameParsingListsAuto) {
  auto parsed = EngineKindFromString("auto");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, EngineKind::kAuto);
  auto bad = EngineKindFromString("mapreduce");
  ASSERT_FALSE(bad.ok());
  const std::string message = bad.status().ToString();
  EXPECT_NE(message.find("auto"), std::string::npos)
      << "the error should enumerate every valid name: " << message;
  EXPECT_NE(message.find("lazypartial"), std::string::npos) << message;
}

}  // namespace
}  // namespace rdfmr
