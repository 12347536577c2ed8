// Tests for shared-scan batch execution: a batch of queries must produce
// exactly the per-query answers while scanning and grouping the input
// once.

#include <gtest/gtest.h>

#include "query/matcher.h"
#include "testing/invariants.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::MakeDfsWithBase;
using testing_util::SmallDataset;

std::vector<std::shared_ptr<const GraphPatternQuery>> BsbmBatch() {
  std::vector<std::shared_ptr<const GraphPatternQuery>> queries;
  for (const char* id : {"B0", "B1", "B4"}) {
    auto q = GetTestbedQuery(id);
    EXPECT_TRUE(q.ok());
    queries.push_back(*q);
  }
  return queries;
}

TEST(BatchTest, AnswersMatchIndividualRuns) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  auto queries = BsbmBatch();

  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  options.phi_partitions = 16;
  auto batch = Exec(dfs.get(), "base", ExecRequest::Batch(queries), options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(batch->stats.ok()) << batch->stats.status.ToString();
  ASSERT_EQ(batch->per_query.size(), queries.size());

  for (size_t q = 0; q < queries.size(); ++q) {
    SolutionSet oracle = EvaluateQueryInMemory(*queries[q], triples);
    EXPECT_TRUE(batch->per_query[q] == oracle)
        << "query " << queries[q]->name() << ": batch "
        << batch->per_query[q].size() << " vs oracle " << oracle.size();
  }
}

TEST(BatchTest, SharesOneScanAndOneGroupingCycle) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  auto queries = BsbmBatch();

  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  auto batch = Exec(dfs.get(), "base", ExecRequest::Batch(queries), options);
  ASSERT_TRUE(batch.ok() && batch->stats.ok());

  EXPECT_EQ(batch->stats.full_scans, 1u)
      << "the whole batch scans the triple relation once";
  // One grouping job plus one join job per two-star query.
  EXPECT_EQ(batch->stats.mr_cycles, 1u + queries.size());

  // Individually the three queries would scan three times and group
  // thrice; the shared plan must read and shuffle strictly less.
  uint64_t individual_reads = 0, individual_shuffle = 0;
  for (const auto& query : queries) {
    auto exec = Exec(dfs.get(), "base", ExecRequest::Single(query), options);
    ASSERT_TRUE(exec.ok() && exec->stats.ok());
    individual_reads += exec->stats.hdfs_read_bytes;
    individual_shuffle += exec->stats.shuffle_bytes;
  }
  EXPECT_LT(batch->stats.hdfs_read_bytes, individual_reads);
  EXPECT_LT(batch->stats.shuffle_bytes, individual_shuffle);
}

TEST(BatchTest, MixedDatasetQueriesAndStrategies) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBio2Rdf);
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  std::vector<std::shared_ptr<const GraphPatternQuery>> queries;
  for (const char* id : {"A1", "A3", "A5"}) {
    auto q = GetTestbedQuery(id);
    ASSERT_TRUE(q.ok());
    queries.push_back(*q);
  }
  for (EngineKind kind :
       {EngineKind::kNtgaEager, EngineKind::kNtgaLazyFull,
        EngineKind::kNtgaLazyPartial, EngineKind::kNtgaLazy}) {
    EngineOptions options;
    options.kind = kind;
    options.phi_partitions = 8;
    auto batch = Exec(dfs.get(), "base", ExecRequest::Batch(queries), options);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_TRUE(batch->stats.ok()) << EngineKindToString(kind);
    for (size_t q = 0; q < queries.size(); ++q) {
      SolutionSet oracle = EvaluateQueryInMemory(*queries[q], triples);
      EXPECT_TRUE(batch->per_query[q] == oracle)
          << queries[q]->name() << " under " << EngineKindToString(kind);
    }
  }
}

TEST(BatchTest, SingleQueryBatchEqualsPlainRun) {
  // A single query is a batch of one: the one-query batch runs exactly the
  // plain run's workflow, so every deterministic stat — job names and
  // per-job counters included — matches once the run names are aligned.
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  auto q = GetTestbedQuery("B1");
  ASSERT_TRUE(q.ok());
  for (EngineKind kind :
       {EngineKind::kNtgaEager, EngineKind::kNtgaLazyFull,
        EngineKind::kNtgaLazyPartial, EngineKind::kNtgaLazy}) {
    SCOPED_TRACE(EngineKindToString(kind));
    EngineOptions options;
    options.kind = kind;
    auto batch = Exec(dfs.get(), "base", ExecRequest::Batch({*q}), options);
    auto plain = Exec(dfs.get(), "base", ExecRequest::Single(*q), options);
    ASSERT_TRUE(batch.ok() && plain.ok());
    ASSERT_TRUE(batch->stats.ok() && plain->stats.ok());
    ASSERT_EQ(batch->per_query.size(), 1u);
    EXPECT_EQ(batch->per_query[0], plain->answers);
    EXPECT_EQ(batch->stats.query, "batch-of-1");
    EXPECT_EQ(plain->stats.query, "B1");
    ExecStats aligned = batch->stats;
    aligned.query = plain->stats.query;
    EXPECT_EQ(fuzz::CompareStatsIgnoringWallTimes(aligned, plain->stats),
              std::vector<std::string>{});
    ASSERT_EQ(batch->stats.jobs.size(), plain->stats.jobs.size());
    for (size_t j = 0; j < plain->stats.jobs.size(); ++j) {
      EXPECT_EQ(batch->stats.jobs[j].job_name, plain->stats.jobs[j].job_name);
      EXPECT_EQ(batch->stats.jobs[j].counters, plain->stats.jobs[j].counters)
          << plain->stats.jobs[j].job_name;
    }
  }
}

TEST(BatchTest, RejectsRelationalEnginesAndEmptyBatches) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  auto q = GetTestbedQuery("B0");
  ASSERT_TRUE(q.ok());
  EngineOptions pig;
  pig.kind = EngineKind::kPig;
  EXPECT_FALSE(Exec(dfs.get(), "base", ExecRequest::Batch({*q}), pig).ok());
  EngineOptions lazy;
  lazy.kind = EngineKind::kNtgaLazy;
  EXPECT_FALSE(Exec(dfs.get(), "base", ExecRequest::Batch({}), lazy).ok());
}

TEST(BatchTest, CleansUpAllTemporaries) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  auto batch =
      Exec(dfs.get(), "base", ExecRequest::Batch(BsbmBatch()), options);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(dfs->ListFiles(), (std::vector<std::string>{"base"}));
}

}  // namespace
}  // namespace rdfmr
