// Tests for the statistics-based strategy advisor: its predictions must
// order the strategies the way the measured footprints do, and its φ_m
// recommendation must follow the paper's sizing guidance.

#include <gtest/gtest.h>

#include "engine/advisor.h"
#include "rdf/graph_stats.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::MakeDfsWithBase;
using testing_util::RoomyCluster;
using testing_util::SmallDataset;

StrategyAdvice AdviceFor(const std::string& query_id,
                         const std::vector<Triple>& triples) {
  auto query = GetTestbedQuery(query_id);
  EXPECT_TRUE(query.ok());
  GraphStats stats = GraphStats::Compute(triples);
  return AdviseStrategy(**query, stats, RoomyCluster());
}

TEST(AdvisorTest, OrdersStrategiesLikeTheMeasurements) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  for (const std::string q : {"B1", "B3", "B4"}) {
    StrategyAdvice advice = AdviceFor(q, triples);
    EXPECT_LT(advice.lazy_star_bytes, advice.eager_star_bytes) << q;
    EXPECT_LT(advice.eager_star_bytes, advice.relational_star_bytes) << q;
  }
}

TEST(AdvisorTest, PredictionsTrackMeasuredStarPhase) {
  // Order-of-magnitude agreement with real executions (the advisor is a
  // planner heuristic, not a simulator).
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  auto query = GetTestbedQuery("B4");
  ASSERT_TRUE(query.ok());
  StrategyAdvice advice = AdviceFor("B4", triples);

  EngineOptions hive;
  hive.kind = EngineKind::kHive;
  EngineOptions lazy;
  lazy.kind = EngineKind::kNtgaLazy;
  auto hive_exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), hive);
  auto lazy_exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), lazy);
  ASSERT_TRUE(hive_exec.ok() && lazy_exec.ok());
  double measured_rel =
      static_cast<double>(hive_exec->stats.star_phase_write_bytes);
  double measured_lazy =
      static_cast<double>(lazy_exec->stats.star_phase_write_bytes);
  EXPECT_GT(advice.relational_star_bytes, measured_rel / 10);
  EXPECT_LT(advice.relational_star_bytes, measured_rel * 10);
  EXPECT_GT(advice.lazy_star_bytes, measured_lazy / 10);
  EXPECT_LT(advice.lazy_star_bytes, measured_lazy * 10);
  // The predicted ratio must point the same way as the measured one.
  EXPECT_GT(measured_rel, measured_lazy);
  EXPECT_GT(advice.relational_star_bytes, advice.lazy_star_bytes);
}

TEST(AdvisorTest, RedundancyPredictionIsHighForUnboundQueries) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  StrategyAdvice b0 = AdviceFor("B0", triples);
  StrategyAdvice b3 = AdviceFor("B3", triples);
  EXPECT_GT(b3.predicted_redundancy, b0.predicted_redundancy)
      << "double unbound patterns multiply the redundancy";
  EXPECT_GT(b3.predicted_redundancy, 0.5);
}

TEST(AdvisorTest, PhiOnlyForUnboundObjectJoins) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  EXPECT_GT(AdviceFor("B1", triples).phi_partitions, 1u)
      << "B1 joins on an unbound object";
  EXPECT_EQ(AdviceFor("B4", triples).phi_partitions, 1u)
      << "B4's join is subject-side; no partial unnest planned";
  EXPECT_EQ(AdviceFor("B0", triples).phi_partitions, 1u);
}

TEST(AdvisorTest, PhiGrowsWithInputSize) {
  std::vector<Triple> small = SmallDataset(DatasetFamily::kBsbm);
  std::vector<Triple> bigger = small;
  // Double the data by cloning with renamed subjects.
  for (const Triple& t : small) {
    bigger.emplace_back("x_" + t.subject, t.property, t.object);
  }
  uint32_t phi_small = AdviceFor("B1", small).phi_partitions;
  uint32_t phi_big = AdviceFor("B1", bigger).phi_partitions;
  EXPECT_GE(phi_big, phi_small);
}

TEST(AdvisorTest, RationaleMentionsTheDecision) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  StrategyAdvice advice = AdviceFor("B1", triples);
  EXPECT_NE(advice.rationale.find("TG_OptUnbJoin"), std::string::npos);
  StrategyAdvice plain = AdviceFor("B0", triples);
  EXPECT_NE(plain.rationale.find("plain lazy"), std::string::npos);
}

TEST(AdvisorTest, RecommendedPhiWorksEndToEnd) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  StrategyAdvice advice = AdviceFor("B1", triples);
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  options.phi_partitions = advice.phi_partitions;
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE(exec->stats.ok());
  EXPECT_FALSE(exec->answers.empty());
}

}  // namespace
}  // namespace rdfmr
