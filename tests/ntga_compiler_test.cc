// Structural tests for the NTGA physical compiler: job layout, per-EC
// demuxed outputs, join operator selection (TG_Join / TG_UnbJoin /
// TG_OptUnbJoin), and end-to-end workflow execution details that the
// engine-level tests do not pin down.

#include <gtest/gtest.h>

#include "common/strings.h"
#include "datagen/testbed.h"
#include "mapreduce/workflow.h"
#include "ntga/ntga_compiler.h"
#include "ntga/triplegroup.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

CompiledPlan Compile(const std::string& query_id, NtgaStrategy strategy) {
  auto query = GetTestbedQuery(query_id);
  EXPECT_TRUE(query.ok());
  NtgaOptions options;
  options.strategy = strategy;
  options.phi_partitions = 8;
  auto plan = CompileNtgaPlan({*query}, "base", "tmp", options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(*plan);
}

TEST(NtgaCompilerTest, TwoStarQueryIsTwoJobs) {
  CompiledPlan plan = Compile("B0", NtgaStrategy::kLazyAuto);
  ASSERT_EQ(plan.workflow.jobs.size(), 2u);
  EXPECT_EQ(plan.workflow.jobs[0].name, "tg-group-filter");
  EXPECT_EQ(plan.workflow.jobs[0].full_scans_of_base, 1u);
  EXPECT_EQ(plan.workflow.jobs[1].full_scans_of_base, 0u);
  EXPECT_NE(plan.workflow.jobs[1].name.find("tg-join"), std::string::npos);
}

TEST(NtgaCompilerTest, GroupingJobDemuxesPerEquivalenceClass) {
  CompiledPlan plan = Compile("B0", NtgaStrategy::kLazyAuto);
  const JobSpec& job1 = plan.workflow.jobs[0];
  ASSERT_NE(job1.demux, nullptr);
  ASSERT_EQ(job1.ensure_outputs.size(), 2u);
  EXPECT_EQ(job1.ensure_outputs[0], "tmp/ec0");
  EXPECT_EQ(job1.ensure_outputs[1], "tmp/ec1");
  // The demux function routes a group's record by its star id.
  std::string record;
  TgWriter writer(&record, "s", 1);
  writer.Property("p");
  writer.Object("o");
  writer.EndPairs();
  EXPECT_EQ(job1.demux(record), "1");
}

TEST(NtgaCompilerTest, JoinOperatorNamesFollowThePlan) {
  // B0: all bound -> TG_Join. A3 lazy: full unnest -> TG_UnbJoin.
  // B1 lazy-auto: partial -> TG_OptUnbJoin.
  EXPECT_NE(Compile("B0", NtgaStrategy::kLazyAuto)
                .workflow.jobs[1]
                .name.find("tg-join"),
            std::string::npos);
  EXPECT_NE(Compile("A3", NtgaStrategy::kLazyAuto)
                .workflow.jobs[1]
                .name.find("tg-unbjoin"),
            std::string::npos);
  EXPECT_NE(Compile("B1", NtgaStrategy::kLazyAuto)
                .workflow.jobs[1]
                .name.find("tg-optunbjoin"),
            std::string::npos);
}

TEST(NtgaCompilerTest, SingleStarQueryIsOneJobWithEcFinal) {
  CompiledPlan plan = Compile("A1", NtgaStrategy::kLazyAuto);
  EXPECT_EQ(plan.workflow.jobs.size(), 1u);
  EXPECT_EQ(plan.workflow.final_output_path, "tmp/ec0");
}

TEST(NtgaCompilerTest, ThreeStarQueryChainsJoinOutputs) {
  CompiledPlan plan = Compile("B5", NtgaStrategy::kLazyAuto);
  ASSERT_EQ(plan.workflow.jobs.size(), 3u);
  EXPECT_EQ(plan.workflow.final_output_path, "tmp/tgjoin1");
  // The second join reads the first join's output on one side.
  bool reads_join0 = false;
  for (const MapInput& input : plan.workflow.jobs[2].inputs) {
    if (input.path == "tmp/tgjoin0") reads_join0 = true;
  }
  EXPECT_TRUE(reads_join0);
}

TEST(NtgaCompilerTest, StarPhasePathsAreTheEcFiles) {
  CompiledPlan plan = Compile("B0", NtgaStrategy::kLazyAuto);
  EXPECT_EQ(plan.star_phase_paths,
            (std::vector<std::string>{"tmp/ec0", "tmp/ec1"}));
}

TEST(NtgaCompilerTest, NullQueryRejected) {
  NtgaOptions options;
  EXPECT_FALSE(CompileNtgaPlan({nullptr}, "base", "tmp", options).ok());
  EXPECT_FALSE(CompileNtgaPlan({}, "base", "tmp", options).ok());
}

// The join cycle keeps its input checks: for every strategy, a mapper drops
// a record with a bad star id or without the site star and counts both as
// bad; a reducer drops a value without a side tag, a record with a bad star
// id (counted as bad) and a record without the site star (counted as bad
// where the reducer reads the site: TG_OptUnbJoin's, which B1 runs under
// LazyPartial and LazyAuto).
TEST(NtgaCompilerTest, JoinCycleDropsBadInputs) {
  const std::string f = "\x1F";
  const std::string no_tag = "g1" + f + "0" + f + "label,l1" + f;  // star 0
  const std::string bad_star_id = "g1" + f + "zero" + f + "label,l1" + f;
  const std::string no_site = "g1" + f + "7" + f + "label,l1" + f;  // star 7

  for (NtgaStrategy strategy :
       {NtgaStrategy::kEager, NtgaStrategy::kLazyFull,
        NtgaStrategy::kLazyPartial, NtgaStrategy::kLazyAuto}) {
    SCOPED_TRACE(NtgaStrategyToString(strategy));
    const CompiledPlan plan = Compile("B1", strategy);
    ASSERT_EQ(plan.workflow.jobs.size(), 2u);
    const JobSpec& join = plan.workflow.jobs[1];
    ASSERT_EQ(join.inputs.size(), 2u);
    size_t emitted = 0;
    const MapEmit map_emit = [&emitted](std::string, std::string) {
      ++emitted;
    };
    const RecordEmit reduce_emit = [&emitted](std::string) { ++emitted; };
    for (const MapInput& input : join.inputs) {
      for (const std::string& record : {bad_star_id, no_site}) {
        Counters counters;
        input.map(record, map_emit, &counters);
        EXPECT_EQ(counters["bad_records"], 1u)
            << EscapeField(record, '\x1F');
      }
    }
    const bool partial = strategy == NtgaStrategy::kLazyPartial ||
                         strategy == NtgaStrategy::kLazyAuto;
    EXPECT_EQ(join.name.rfind("tg-optunbjoin", 0) == 0, partial);
    for (const std::string tag : {"L|", "R|"}) {
      const std::vector<std::pair<std::string, uint64_t>> cases = {
          {no_tag, 1},
          {tag + bad_star_id, 1},
          {tag + no_site, partial ? 1 : 0}};
      for (const auto& [value, bad] : cases) {
        Counters counters;
        join.reduce("k", {&value, 1}, reduce_emit, &counters);
        EXPECT_EQ(counters["bad_records"], bad) << EscapeField(value, '\x1F');
      }
    }
    EXPECT_EQ(emitted, 0u);
  }
}

// ---- Execution details --------------------------------------------------------

TEST(NtgaCompilerTest, EagerGroupingWritesPerfectTriplegroups) {
  auto triples = testing_util::SmallDataset(DatasetFamily::kBsbm);
  auto dfs = testing_util::MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  CompiledPlan plan = Compile("B1", NtgaStrategy::kEager);
  WorkflowSpec spec = plan.workflow;
  spec.intermediate_paths.clear();  // keep files for inspection
  WorkflowResult result = RunWorkflow(dfs.get(), spec);
  ASSERT_TRUE(result.ok()) << result.status.ToString();

  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());
  auto ec0 = dfs->ReadFile("tmp/ec0");
  ASSERT_TRUE(ec0.ok());
  ASSERT_FALSE(ec0->empty());
  const auto& star = (*query)->stars()[0];
  std::vector<size_t> unbound = star.UnboundIndexes();
  ASSERT_EQ(unbound.size(), 1u);
  TgRecordReader record;
  for (const std::string& line : *ec0) {
    ASSERT_TRUE(record.Read(line).ok());
    ASSERT_EQ(record.components().size(), 1u);
    // Eager: the unbound pattern (index 2 in B1's first star) is pinned to
    // exactly one candidate in every record.
    const TgRecordReader::Component& c = record.components()[0];
    ASSERT_EQ(c.overrides_end - c.overrides_begin, 1u);
    const TgRecordReader::Entry& pinned = record.overrides()[c.overrides_begin];
    EXPECT_EQ(pinned.tp_index, unbound[0]);
    EXPECT_EQ(pinned.end - pinned.begin, 2u);
  }
}

TEST(NtgaCompilerTest, LazyGroupingKeepsGroupsNested) {
  auto triples = testing_util::SmallDataset(DatasetFamily::kBsbm);
  auto dfs = testing_util::MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  CompiledPlan plan = Compile("B1", NtgaStrategy::kLazyAuto);
  WorkflowSpec spec = plan.workflow;
  spec.intermediate_paths.clear();
  WorkflowResult result = RunWorkflow(dfs.get(), spec);
  ASSERT_TRUE(result.ok());

  auto ec0 = dfs->ReadFile("tmp/ec0");
  ASSERT_TRUE(ec0.ok());
  ASSERT_FALSE(ec0->empty());
  size_t with_overrides = 0;
  TgRecordReader record;
  for (const std::string& line : *ec0) {
    ASSERT_TRUE(record.Read(line).ok());
    ASSERT_EQ(record.components().size(), 1u);
    const TgRecordReader::Component& c = record.components()[0];
    if (c.overrides_begin != c.overrides_end) ++with_overrides;
  }
  EXPECT_EQ(with_overrides, 0u)
      << "lazy strategies must not unnest at the grouping cycle";
  // One nested group per qualifying subject (vs one per candidate for
  // eager) — the A1-style representation gap.
  auto eager_plan = Compile("B1", NtgaStrategy::kEager);
  // Re-run eager on a fresh DFS for comparison.
  auto dfs2 = testing_util::MakeDfsWithBase(triples);
  WorkflowSpec spec2 = eager_plan.workflow;
  spec2.intermediate_paths.clear();
  ASSERT_TRUE(RunWorkflow(dfs2.get(), spec2).ok());
  auto eager_ec0 = dfs2->ReadFile("tmp/ec0");
  ASSERT_TRUE(eager_ec0.ok());
  EXPECT_LT(ec0->size(), eager_ec0->size());
}

TEST(NtgaCompilerTest, EmptyEcFileStillLetsJoinRun) {
  // A dataset where star 1 (features) never matches: the grouping job must
  // still create an (empty) EC file so the join job's input exists.
  std::vector<Triple> triples = {
      {"p1", "label", "x"}, {"p1", "type", "t"}, {"p1", "other", "y"},
  };
  auto dfs = testing_util::MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec->stats.ok()) << exec->stats.status.ToString();
  EXPECT_TRUE(exec->answers.empty());
}

}  // namespace
}  // namespace rdfmr
