// Answer equivalence for the Fig. 3 plan groupings: the Sel-SJ-first
// folding and the SJ-per-cycle plan must produce exactly the oracle's
// solutions for the case-study queries (the main equivalence suite only
// exercises the default grouping).

#include <gtest/gtest.h>

#include "query/matcher.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

class GroupingEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(GroupingEquivalenceTest, SelSjFirstMatchesOracle) {
  auto entry = GetTestbedEntry(GetParam());
  ASSERT_TRUE(entry.ok());
  auto query = GetTestbedQuery(GetParam());
  ASSERT_TRUE(query.ok());
  std::vector<Triple> triples = testing_util::SmallDataset(entry->dataset);
  SolutionSet oracle = EvaluateQueryInMemory(**query, triples);
  ASSERT_FALSE(oracle.empty());

  auto dfs = testing_util::MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  for (RelationalGrouping grouping :
       {RelationalGrouping::kStarPerCycle,
        RelationalGrouping::kSelSJFirst}) {
    EngineOptions options;
    options.kind = EngineKind::kHive;
    options.grouping = grouping;
    auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    ASSERT_TRUE(exec->stats.ok()) << exec->stats.status.ToString();
    EXPECT_TRUE(exec->answers == oracle)
        << GetParam() << " under grouping "
        << (grouping == RelationalGrouping::kSelSJFirst ? "Sel-SJ-first"
                                                        : "SJ-per-cycle");
  }
}

std::string IdName(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

INSTANTIATE_TEST_SUITE_P(Fig3, GroupingEquivalenceTest,
                         ::testing::Values("Q1a", "Q1b", "Q2a", "Q2b",
                                           "Q3a", "Q3b"),
                         IdName);

}  // namespace
}  // namespace rdfmr
