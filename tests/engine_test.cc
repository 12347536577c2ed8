// Integration tests for the engine façade: workflow shapes per engine,
// metric collection, failure reporting, DFS hygiene, and the redundancy
// factor computation.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/strings.h"
#include "engine/engine.h"
#include "query/matcher.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::MakeDfsWithBase;
using testing_util::RoomyCluster;
using testing_util::SmallDataset;

ExecResult RunEngine(SimDfs* dfs, const std::string& query_id,
                     EngineKind kind) {
  auto query = GetTestbedQuery(query_id);
  EXPECT_TRUE(query.ok());
  EngineOptions options;
  options.kind = kind;
  options.phi_partitions = 8;
  auto exec = Exec(dfs, "base", ExecRequest::Single(*query), options);
  EXPECT_TRUE(exec.ok()) << exec.status().ToString();
  return std::move(*exec);
}

TEST(EngineTest, NtgaUsesFewerCyclesThanRelational) {
  auto dfs = MakeDfsWithBase(SmallDataset(DatasetFamily::kBsbm));
  ASSERT_NE(dfs, nullptr);
  ExecResult hive = RunEngine(dfs.get(), "B0", EngineKind::kHive);
  ExecResult pig = RunEngine(dfs.get(), "B0", EngineKind::kPig);
  ExecResult ntga = RunEngine(dfs.get(), "B0", EngineKind::kNtgaLazy);
  EXPECT_EQ(hive.stats.mr_cycles, 3u);
  EXPECT_EQ(pig.stats.mr_cycles, 3u);
  EXPECT_EQ(ntga.stats.mr_cycles, 2u);
  EXPECT_EQ(ntga.stats.full_scans, 1u);
  EXPECT_EQ(hive.stats.full_scans, 2u);
  EXPECT_GT(pig.stats.full_scans, hive.stats.full_scans);
}

TEST(EngineTest, LazyWritesNoMoreThanEagerNoMoreThanHive) {
  auto dfs = MakeDfsWithBase(SmallDataset(DatasetFamily::kBsbm));
  ASSERT_NE(dfs, nullptr);
  for (const std::string q : {"B1", "B3", "B4"}) {
    ExecResult hive = RunEngine(dfs.get(), q, EngineKind::kHive);
    ExecResult eager = RunEngine(dfs.get(), q, EngineKind::kNtgaEager);
    ExecResult lazy = RunEngine(dfs.get(), q, EngineKind::kNtgaLazy);
    EXPECT_LE(lazy.stats.hdfs_write_bytes, eager.stats.hdfs_write_bytes)
        << q;
    EXPECT_LE(eager.stats.hdfs_write_bytes, hive.stats.hdfs_write_bytes)
        << q;
  }
}

TEST(EngineTest, StatsAreInternallyConsistent) {
  auto dfs = MakeDfsWithBase(SmallDataset(DatasetFamily::kBsbm));
  ASSERT_NE(dfs, nullptr);
  ExecResult exec = RunEngine(dfs.get(), "B1", EngineKind::kNtgaLazy);
  const ExecStats& s = exec.stats;
  EXPECT_EQ(s.mr_cycles, s.jobs.size());
  EXPECT_EQ(s.planned_cycles, s.mr_cycles);
  uint64_t write_sum = 0;
  for (const JobMetrics& m : s.jobs) write_sum += m.output_bytes;
  EXPECT_EQ(s.hdfs_write_bytes, write_sum);
  EXPECT_EQ(s.intermediate_write_bytes + s.final_output_bytes,
            s.hdfs_write_bytes);
  EXPECT_GT(s.modeled_seconds, 0.0);
  EXPECT_GE(s.peak_dfs_used_bytes, s.hdfs_write_bytes);
}

TEST(EngineTest, CleansAllTemporariesOnSuccess) {
  auto dfs = MakeDfsWithBase(SmallDataset(DatasetFamily::kBsbm));
  ASSERT_NE(dfs, nullptr);
  (void)RunEngine(dfs.get(), "B1", EngineKind::kNtgaLazy);
  EXPECT_EQ(dfs->ListFiles(), (std::vector<std::string>{"base"}));
}

TEST(EngineTest, CleansAllTemporariesOnEngineFailure) {
  ClusterConfig tight = RoomyCluster();
  tight.disk_per_node = 96 << 10;  // barely fits the base
  auto dfs = MakeDfsWithBase(SmallDataset(DatasetFamily::kBsbm), tight);
  ASSERT_NE(dfs, nullptr);
  auto query = GetTestbedQuery("B3");
  ASSERT_TRUE(query.ok());
  EngineOptions options;
  options.kind = EngineKind::kHive;
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(exec.ok()) << "engine failure is data, not an error";
  EXPECT_FALSE(exec->stats.ok());
  EXPECT_TRUE(exec->stats.status.IsOutOfSpace());
  EXPECT_GE(exec->stats.failed_job_index, 0);
  EXPECT_EQ(dfs->ListFiles(), (std::vector<std::string>{"base"}));
}

// A run scrubs only its own tmp/runN/ directory: files of runs whose
// number extends N's digits (tmp/runN0/...), as concurrent service runs
// on one DFS have, must survive it.
TEST(EngineTest, ScrubLeavesOtherRunsFilesAlone) {
  auto dfs = MakeDfsWithBase(SmallDataset(DatasetFamily::kBsbm));
  ASSERT_NE(dfs, nullptr);
  std::vector<std::string> expected = {"base"};
  for (int run = 0; run < 1000; ++run) {
    const std::string decoy = "tmp/run" + std::to_string(run) + "0/decoy";
    ASSERT_TRUE(dfs->WriteFile(decoy, {"x"}).ok());
    expected.push_back(decoy);
  }
  std::sort(expected.begin(), expected.end());
  (void)RunEngine(dfs.get(), "B1", EngineKind::kNtgaLazy);
  EXPECT_EQ(dfs->ListFiles(), expected);
}

TEST(EngineTest, MissingBaseRejected) {
  SimDfs dfs(RoomyCluster());
  auto query = GetTestbedQuery("B0");
  ASSERT_TRUE(query.ok());
  EngineOptions options;
  auto exec = Exec(&dfs, "base", ExecRequest::Single(*query), options);
  EXPECT_TRUE(exec.status().IsNotFound());
}

TEST(EngineTest, DecodeTogglePreservesStats) {
  auto dfs = MakeDfsWithBase(SmallDataset(DatasetFamily::kBsbm));
  ASSERT_NE(dfs, nullptr);
  auto query = GetTestbedQuery("B0");
  ASSERT_TRUE(query.ok());
  EngineOptions with;
  with.kind = EngineKind::kNtgaLazy;
  with.decode_answers = true;
  EngineOptions without = with;
  without.decode_answers = false;
  auto a = Exec(dfs.get(), "base", ExecRequest::Single(*query), with);
  auto b = Exec(dfs.get(), "base", ExecRequest::Single(*query), without);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(a->answers.empty());
  EXPECT_TRUE(b->answers.empty());
  EXPECT_EQ(a->stats.hdfs_write_bytes, b->stats.hdfs_write_bytes);
  EXPECT_EQ(a->stats.shuffle_bytes, b->stats.shuffle_bytes);
}

TEST(EngineTest, PhiPartitionsAffectOnlyPartialStrategy) {
  auto dfs = MakeDfsWithBase(SmallDataset(DatasetFamily::kBsbm));
  ASSERT_NE(dfs, nullptr);
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());
  EngineOptions coarse;
  coarse.kind = EngineKind::kNtgaLazyPartial;
  coarse.phi_partitions = 2;
  EngineOptions fine = coarse;
  fine.phi_partitions = 4096;
  auto a = Exec(dfs.get(), "base", ExecRequest::Single(*query), coarse);
  auto b = Exec(dfs.get(), "base", ExecRequest::Single(*query), fine);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->answers, b->answers) << "φ_m must not change the answers";
  EXPECT_LE(a->stats.shuffle_bytes, b->stats.shuffle_bytes)
      << "fewer partitions merge more triplegroups through the shuffle";
}

// φ_m = 0 is refused up front rather than reaching the partial β-unnest's
// partition function, which needs at least one partition.
TEST(EngineTest, ZeroPhiPartitionsRejected) {
  auto dfs = MakeDfsWithBase(SmallDataset(DatasetFamily::kBsbm));
  ASSERT_NE(dfs, nullptr);
  auto query = GetTestbedQuery("B5");
  ASSERT_TRUE(query.ok());
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazyPartial;
  options.phi_partitions = 0;
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  EXPECT_TRUE(exec.status().IsInvalidArgument()) << exec.status().ToString();
  EXPECT_EQ(dfs->ListFiles(), (std::vector<std::string>{"base"}));
}

TEST(EngineTest, EngineKindNamesAreDistinct) {
  std::set<std::string> names;
  for (EngineKind kind : testing_util::AllEngineKinds()) {
    names.insert(EngineKindToString(kind));
  }
  EXPECT_EQ(names.size(), 6u);
}

// ---- Redundancy factor --------------------------------------------------------

TEST(RedundancyTest, ZeroForEmptyAndNonTuples) {
  EXPECT_DOUBLE_EQ(ComputeRedundancyFactor({}), 0.0);
  EXPECT_DOUBLE_EQ(ComputeRedundancyFactor({"not a tuple", "still not"}),
                   0.0);
}

TEST(RedundancyTest, RepeatedBoundComponentIsCounted) {
  // Two tuples for one subject repeating the same bound triple.
  std::vector<std::string> lines;
  Triple bound("subject1", "label", "a fairly long label value");
  Triple u1("subject1", "p1", "o1");
  Triple u2("subject1", "p2", "o2");
  auto tuple = [](const Triple& a, const Triple& b) {
    return JoinEscaped({a.subject, a.property, a.object, b.subject,
                        b.property, b.object},
                       '\t');
  };
  lines.push_back(tuple(bound, u1));
  lines.push_back(tuple(bound, u2));
  double r = ComputeRedundancyFactor(lines);
  EXPECT_GT(r, 0.4) << "the bound triple and subject repeats are redundant";
  EXPECT_LT(r, 1.0);
}

TEST(RedundancyTest, DistinctContentHasLowRedundancy) {
  std::vector<std::string> lines = {
      JoinEscaped({"s1", "p1", "o1"}, '\t'),
      JoinEscaped({"s2", "p2", "o2"}, '\t'),
  };
  // Single triples per distinct subject: only the representation overhead.
  EXPECT_LT(ComputeRedundancyFactor(lines), 0.2);
}

}  // namespace
}  // namespace rdfmr
