// Content-equivalence across engines (Lemma 1, end to end): for every
// testbed query, every engine must produce exactly the solution set of the
// in-memory ground-truth evaluator, regardless of how it represents its
// intermediates.

#include <gtest/gtest.h>

#include "query/matcher.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::AllEngineKinds;
using testing_util::MakeDfsWithBase;
using testing_util::SmallDataset;

struct Case {
  std::string query_id;
  EngineKind engine;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name =
      info.param.query_id + "_" + EngineKindToString(info.param.engine);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class EquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(EquivalenceTest, MatchesGroundTruth) {
  const Case& param = GetParam();
  auto entry = GetTestbedEntry(param.query_id);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  auto query = GetTestbedQuery(param.query_id);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  std::vector<Triple> triples = SmallDataset(entry->dataset);
  SolutionSet expected = EvaluateQueryInMemory(**query, triples);
  ASSERT_FALSE(expected.empty())
      << "testbed query " << param.query_id
      << " has an empty ground truth on its dataset; the test is vacuous";

  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  EngineOptions options;
  options.kind = param.engine;
  options.phi_partitions = 16;  // small data; exercise partition collisions
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec->stats.ok())
      << "engine failed: " << exec->stats.status.ToString();

  EXPECT_EQ(exec->answers.size(), expected.size());
  EXPECT_TRUE(exec->answers == expected)
      << "answer set mismatch for " << param.query_id << " on "
      << EngineKindToString(param.engine);
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const TestbedEntry& entry : TestbedCatalog()) {
    for (EngineKind kind : AllEngineKinds()) {
      cases.push_back(Case{entry.id, kind});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Testbed, EquivalenceTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace rdfmr
