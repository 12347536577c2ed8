// Failure-injection tests: a write failure injected at EVERY position of a
// workflow must surface as a clean engine failure — correct failed-job
// index, no partial temporary state left behind, and the DFS still usable
// afterwards. Also covers union queries (which ride on the batch path),
// the seeded FaultPlan (spec grammar, scheduled/probabilistic transient
// faults, node loss vs replication), attempt-based task retry with its
// byte-identical-on-recovery contract, and disk-pressure degradation.

#include <gtest/gtest.h>

#include "common/strings.h"
#include "dfs/fault_plan.h"
#include "engine/advisor.h"
#include "query/matcher.h"
#include "query/sparql_parser.h"
#include "rdf/graph_stats.h"
#include "testing/graph_gen.h"
#include "testing/invariants.h"
#include "testing/query_gen.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::MakeDfsWithBase;
using testing_util::SmallDataset;

// Installs a fault plan that fails the `ordinal`-th subsequent write once.
// Callers run with max_attempts = 1 so no retry masks the failure.
void FailWrite(SimDfs* dfs, uint64_t ordinal) {
  FaultPlan plan;
  plan.fail_writes = {ordinal};
  ASSERT_TRUE(dfs->SetFaultPlan(plan).ok());
}

TEST(FaultInjectionTest, DfsWriteFailsOnCommandAndRearms) {
  SimDfs dfs(testing_util::RoomyCluster());
  FailWrite(&dfs, 2);
  EXPECT_TRUE(dfs.WriteFile("first", {"x"}).ok());
  Status st = dfs.WriteFile("second", {"x"});
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_FALSE(dfs.Exists("second"));
  EXPECT_TRUE(dfs.WriteFile("third", {"x"}).ok())
      << "the injection is one-shot";
}

TEST(FaultInjectionTest, EngineFailsCleanlyAtEveryWritePosition) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());
  // B1 on NTGA: grouping job demuxes into 2 EC files, then 1 join output:
  // three workflow writes. Fail each one in turn.
  for (uint32_t failing_write = 1; failing_write <= 3; ++failing_write) {
    auto dfs = MakeDfsWithBase(triples);
    ASSERT_NE(dfs, nullptr);
    FailWrite(dfs.get(), failing_write);
    EngineOptions options;
    options.kind = EngineKind::kNtgaLazy;
    // Pin retry off: the injected failure must surface, not be masked by
    // a second attempt.
    options.runtime.max_attempts = 1;
    auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
    ASSERT_TRUE(exec.ok()) << "infrastructure must not error";
    EXPECT_FALSE(exec->stats.ok()) << "write " << failing_write;
    EXPECT_EQ(exec->stats.status.code(), StatusCode::kIoError);
    EXPECT_GE(exec->stats.failed_job_index, 0);
    EXPECT_EQ(dfs->ListFiles(), (std::vector<std::string>{"base"}))
        << "no temporaries may survive a failure at write "
        << failing_write;
    // The DFS remains usable: the same query succeeds afterwards.
    auto retry = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
    ASSERT_TRUE(retry.ok());
    EXPECT_TRUE(retry->stats.ok());
  }
}

TEST(FaultInjectionTest, RelationalEngineAlsoFailsCleanly) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B0");
  ASSERT_TRUE(query.ok());
  for (uint32_t failing_write = 1; failing_write <= 3; ++failing_write) {
    auto dfs = MakeDfsWithBase(triples);
    ASSERT_NE(dfs, nullptr);
    FailWrite(dfs.get(), failing_write);
    EngineOptions options;
    options.kind = EngineKind::kHive;
    options.runtime.max_attempts = 1;  // no retry may mask the failure
    auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
    ASSERT_TRUE(exec.ok());
    EXPECT_FALSE(exec->stats.ok());
    EXPECT_EQ(exec->stats.failed_job_index,
              static_cast<int>(failing_write) - 1)
        << "Hive's B0 plan writes once per job";
    EXPECT_EQ(dfs->ListFiles(), (std::vector<std::string>{"base"}));
  }
}

TEST(FaultInjectionTest, BatchFailureLeavesNoState) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  std::vector<std::shared_ptr<const GraphPatternQuery>> queries;
  for (const char* id : {"B0", "B1"}) {
    auto q = GetTestbedQuery(id);
    ASSERT_TRUE(q.ok());
    queries.push_back(*q);
  }
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  FailWrite(dfs.get(), 4);
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  options.runtime.max_attempts = 1;
  auto batch = Exec(dfs.get(), "base", ExecRequest::Batch(queries), options);
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(batch->stats.ok());
  EXPECT_EQ(dfs->ListFiles(), (std::vector<std::string>{"base"}));
}

// ---- FaultPlan spec grammar -----------------------------------------------

TEST(FaultPlanTest, ParseRoundTripsThroughToString) {
  auto plan =
      FaultPlan::Parse("seed=7,pread=0.05,write@3,lose-node@40:2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->read_failure_prob, 0.05);
  EXPECT_EQ(plan->fail_writes, (std::vector<uint64_t>{3}));
  ASSERT_EQ(plan->node_faults.size(), 1u);
  EXPECT_EQ(plan->node_faults[0].after_ops, 40u);
  EXPECT_EQ(plan->node_faults[0].node, 2u);
  EXPECT_EQ(plan->node_faults[0].kind, FaultPlan::NodeFaultKind::kLoss);

  auto replayed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(replayed.ok()) << plan->ToString();
  EXPECT_EQ(replayed->ToString(), plan->ToString());
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  for (const char* bad :
       {"read@0", "pread=1.5", "pwrite=-0.1", "bogus=1", "lose-node@5",
        "fill-node@x:1", "seed=", "read@two"}) {
    EXPECT_FALSE(FaultPlan::Parse(bad).ok()) << bad;
  }
}

TEST(FaultPlanTest, SetFaultPlanRejectsOutOfRangeNode) {
  SimDfs dfs(testing_util::RoomyCluster());  // 8 nodes
  auto plan = FaultPlan::Parse("lose-node@0:8");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(dfs.SetFaultPlan(*plan).IsInvalidArgument());
}

TEST(FaultPlanTest, ScheduledOrdinalsFailExactlyOnce) {
  SimDfs dfs(testing_util::RoomyCluster());
  FaultPlan plan;
  plan.fail_writes = {2};
  plan.fail_reads = {2};
  ASSERT_TRUE(dfs.SetFaultPlan(plan).ok());
  EXPECT_TRUE(dfs.WriteFile("a", {"x"}).ok());        // write op 1
  EXPECT_TRUE(dfs.WriteFile("b", {"x"}).IsIoError()); // write op 2
  EXPECT_FALSE(dfs.Exists("b"));
  EXPECT_TRUE(dfs.WriteFile("b", {"x"}).ok());        // write op 3
  EXPECT_TRUE(dfs.ReadFile("a").ok());                // read op 1
  EXPECT_TRUE(dfs.ReadFile("a").status().IsIoError());  // read op 2
  EXPECT_TRUE(dfs.ReadFile("a").ok());                // read op 3
}

// ---- Node loss vs replication ---------------------------------------------

TEST(FaultPlanTest, NodeLossUnderReplication1IsPermanent) {
  ClusterConfig cluster = testing_util::RoomyCluster();
  cluster.num_nodes = 2;
  cluster.block_size = 16;  // several blocks, spread over both nodes
  SimDfs dfs(cluster);
  ASSERT_TRUE(dfs.WriteFile("base", {"aaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbb",
                                     "ccccccccccccccc", "ddddddddddddddd"})
                  .ok());
  auto plan = FaultPlan::Parse("lose-node@0:0");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(dfs.SetFaultPlan(*plan).ok());
  Result<std::vector<std::string>> read = dfs.ReadFile("base");
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsUnavailable()) << read.status().ToString();
  // Retrying cannot help: the replicas are gone, not flaky.
  EXPECT_TRUE(dfs.ReadFile("base").status().IsUnavailable());
  // Reviving the node (plan cleared) restores availability: the namespace
  // never forgets contents, only serves them from live nodes.
  dfs.ClearFaultPlan();
  EXPECT_TRUE(dfs.ReadFile("base").ok());
}

TEST(FaultPlanTest, NodeLossUnderReplication2IsSurvivable) {
  ClusterConfig cluster = testing_util::RoomyCluster();
  cluster.num_nodes = 2;
  cluster.replication = 2;  // every block on both nodes
  cluster.block_size = 16;
  SimDfs dfs(cluster);
  ASSERT_TRUE(dfs.WriteFile("base", {"aaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbb",
                                     "ccccccccccccccc", "ddddddddddddddd"})
                  .ok());
  auto plan = FaultPlan::Parse("lose-node@0:0");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(dfs.SetFaultPlan(*plan).ok());
  EXPECT_TRUE(dfs.ReadFile("base").ok())
      << "the second replica must keep every block readable";
}

TEST(FaultPlanTest, EngineSurvivesNodeLossUnderReplication2) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());
  ClusterConfig cluster = testing_util::RoomyCluster();
  cluster.replication = 2;

  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  auto baseline_dfs = MakeDfsWithBase(triples, cluster);
  ASSERT_NE(baseline_dfs, nullptr);
  auto baseline =
      Exec(baseline_dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(baseline->stats.ok());

  auto dfs = MakeDfsWithBase(triples, cluster);
  ASSERT_NE(dfs, nullptr);
  auto plan = FaultPlan::Parse("lose-node@3:1");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(dfs->SetFaultPlan(*plan).ok());
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(exec->stats.ok())
      << "replication 2 must ride out one node loss: "
      << exec->stats.status.ToString();
  EXPECT_TRUE(exec->answers == baseline->answers);
  EXPECT_TRUE(
      fuzz::CompareStatsIgnoringWallTimes(baseline->stats, exec->stats)
          .empty());
}

// ---- Attempt-based retry --------------------------------------------------

TEST(TaskRetryTest, ScheduledReadFailureIsRetriedAndAccounted) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  auto baseline_dfs = MakeDfsWithBase(triples);
  ASSERT_NE(baseline_dfs, nullptr);
  auto baseline =
      Exec(baseline_dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(baseline->stats.ok());

  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  FaultPlan plan;
  plan.fail_reads = {1};  // the workflow's very first input scan
  ASSERT_TRUE(dfs->SetFaultPlan(plan).ok());
  options.runtime.max_attempts = 2;
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(exec->stats.ok()) << exec->stats.status.ToString();
  EXPECT_EQ(exec->stats.tasks_retried, 1u);
  EXPECT_EQ(exec->stats.task_attempts, 2u);
  EXPECT_GT(exec->stats.wasted_bytes, 0u);
  EXPECT_GT(exec->stats.retry_backoff_seconds, 0.0);

  // The recovery is invisible everywhere else: answers and every
  // deterministic stat are byte-identical to the fault-free run (the
  // comparator excludes only host wall times and the retry accounting).
  EXPECT_TRUE(exec->answers == baseline->answers);
  EXPECT_TRUE(
      fuzz::CompareStatsIgnoringWallTimes(baseline->stats, exec->stats)
          .empty());
  EXPECT_EQ(baseline->stats.hdfs_read_bytes, exec->stats.hdfs_read_bytes)
      << "a failed attempt must meter nothing";
}

TEST(TaskRetryTest, RetryExhaustionSurfacesAsCleanEngineFailure) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  FaultPlan plan;
  plan.fail_reads = {1, 2};  // first read and its only retry
  ASSERT_TRUE(dfs->SetFaultPlan(plan).ok());
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  options.runtime.max_attempts = 2;
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(exec.ok()) << "exhaustion is a measured failure, not an "
                            "infrastructure error";
  EXPECT_FALSE(exec->stats.ok());
  EXPECT_TRUE(exec->stats.status.IsIoError());
  EXPECT_EQ(exec->stats.failed_job_index, 0);
  EXPECT_EQ(exec->stats.tasks_retried, 1u);
  EXPECT_EQ(exec->stats.task_attempts, 2u);
  EXPECT_EQ(dfs->ListFiles(), (std::vector<std::string>{"base"}))
      << "no temporaries may survive the failure";
  // The DFS is healthy once the plan is lifted.
  dfs->ClearFaultPlan();
  auto retry = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->stats.ok());
}

TEST(TaskRetryTest, RecoveredRunIsByteIdenticalAcrossThreadCounts) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());
  // Small blocks so 4 host threads genuinely interleave map tasks.
  ClusterConfig cluster = testing_util::RoomyCluster();
  cluster.block_size = 2048;

  for (EngineKind kind : testing_util::AllEngineKinds()) {
    EngineOptions options;
    options.kind = kind;
    options.phi_partitions = 16;
    auto baseline_dfs = MakeDfsWithBase(triples, cluster);
    ASSERT_NE(baseline_dfs, nullptr);
    auto baseline =
        Exec(baseline_dfs.get(), "base", ExecRequest::Single(*query), options);
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(baseline->stats.ok());

    std::optional<ExecStats> faulty_reference;
    for (uint32_t threads : {1u, 4u}) {
      auto dfs = MakeDfsWithBase(triples, cluster);
      ASSERT_NE(dfs, nullptr);
      FaultPlan plan;
      plan.seed = 17;
      plan.read_failure_prob = 0.10;
      plan.write_failure_prob = 0.05;
      ASSERT_TRUE(dfs->SetFaultPlan(plan).ok());
      EngineOptions faulty_options = options;
      faulty_options.runtime.num_threads = threads;
      faulty_options.runtime.max_attempts = 16;  // effectively never exhausts
      auto exec =
          Exec(dfs.get(), "base", ExecRequest::Single(*query), faulty_options);
      ASSERT_TRUE(exec.ok());
      ASSERT_TRUE(exec->stats.ok())
          << EngineKindToString(kind) << " t=" << threads << ": "
          << exec->stats.status.ToString();
      EXPECT_TRUE(exec->answers == baseline->answers)
          << EngineKindToString(kind) << " t=" << threads;
      std::vector<std::string> diffs =
          fuzz::CompareStatsIgnoringWallTimes(baseline->stats, exec->stats);
      EXPECT_TRUE(diffs.empty())
          << EngineKindToString(kind) << " t=" << threads << ": "
          << (diffs.empty() ? "" : diffs.front());
      if (!faulty_reference.has_value()) {
        faulty_reference = exec->stats;
      } else {
        // The injected fault sequence itself is thread-count invariant,
        // so even the retry accounting must match exactly.
        EXPECT_EQ(faulty_reference->tasks_retried,
                  exec->stats.tasks_retried)
            << EngineKindToString(kind);
        EXPECT_EQ(faulty_reference->task_attempts,
                  exec->stats.task_attempts)
            << EngineKindToString(kind);
        EXPECT_EQ(faulty_reference->wasted_bytes, exec->stats.wasted_bytes)
            << EngineKindToString(kind);
        EXPECT_EQ(faulty_reference->retry_backoff_seconds,
                  exec->stats.retry_backoff_seconds)
            << EngineKindToString(kind);
      }
    }
  }
}

// ---- Disk-pressure preflight ----------------------------------------------

TEST(DiskPressureTest, DegradePolicySwitchesEagerToLazy) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B3");
  ASSERT_TRUE(query.ok());
  ClusterConfig cluster = testing_util::PressuredCluster(triples, **query);

  EngineOptions lazy_options;
  lazy_options.kind = EngineKind::kNtgaLazy;
  auto lazy_dfs = MakeDfsWithBase(triples, cluster);
  ASSERT_NE(lazy_dfs, nullptr);
  auto lazy =
      Exec(lazy_dfs.get(), "base", ExecRequest::Single(*query), lazy_options);
  ASSERT_TRUE(lazy.ok());
  ASSERT_TRUE(lazy->stats.ok());

  auto dfs = MakeDfsWithBase(triples, cluster);
  ASSERT_NE(dfs, nullptr);
  EngineOptions options;
  options.kind = EngineKind::kNtgaEager;
  options.disk_pressure = DiskPressurePolicy::kDegrade;
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(exec->stats.ok()) << exec->stats.status.ToString();
  EXPECT_EQ(exec->stats.degraded_from, "EagerUnnest");
  EXPECT_FALSE(exec->stats.preflight.empty());
  EXPECT_TRUE(exec->answers == lazy->answers);
  // The degraded run IS the lazy run: identical on every deterministic
  // stat (the comparator ignores the degradation annotations).
  EXPECT_TRUE(
      fuzz::CompareStatsIgnoringWallTimes(lazy->stats, exec->stats)
          .empty());
}

TEST(DiskPressureTest, FailFastRefusesWithResourceExhausted) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B3");
  ASSERT_TRUE(query.ok());
  ClusterConfig cluster = testing_util::PressuredCluster(triples, **query);
  auto dfs = MakeDfsWithBase(triples, cluster);
  ASSERT_NE(dfs, nullptr);
  EngineOptions options;
  options.kind = EngineKind::kNtgaEager;
  options.disk_pressure = DiskPressurePolicy::kFailFast;
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(exec.ok()) << "a refusal is a measured failure";
  EXPECT_FALSE(exec->stats.ok());
  EXPECT_TRUE(exec->stats.status.IsResourceExhausted())
      << exec->stats.status.ToString();
  EXPECT_EQ(exec->stats.failed_job_index, 0);
  EXPECT_EQ(exec->stats.mr_cycles, 0u) << "no MR cycle may burn";
  EXPECT_GT(exec->stats.planned_cycles, 0u);
  EXPECT_EQ(dfs->ListFiles(), (std::vector<std::string>{"base"}));
  // The same options succeed when the projection fits: a roomy cluster
  // clears the preflight and runs normally.
  auto roomy = MakeDfsWithBase(triples);
  ASSERT_NE(roomy, nullptr);
  auto ok_exec =
      Exec(roomy.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(ok_exec.ok());
  EXPECT_TRUE(ok_exec->stats.ok()) << ok_exec->stats.status.ToString();
  EXPECT_TRUE(ok_exec->stats.degraded_from.empty());
  EXPECT_FALSE(ok_exec->stats.preflight.empty());
}

TEST(DiskPressureTest, FailFastRefusesBatch) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto b3 = GetTestbedQuery("B3");
  auto b4 = GetTestbedQuery("B4");
  ASSERT_TRUE(b3.ok() && b4.ok());
  // The batch's eager projection sums its members', so it exceeds the
  // capacity squeezed below B3's alone.
  ClusterConfig cluster = testing_util::PressuredCluster(triples, **b3);
  auto dfs = MakeDfsWithBase(triples, cluster);
  ASSERT_NE(dfs, nullptr);
  EngineOptions options;
  options.kind = EngineKind::kNtgaEager;
  options.disk_pressure = DiskPressurePolicy::kFailFast;
  auto exec =
      Exec(dfs.get(), "base", ExecRequest::Batch({*b3, *b4}), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_TRUE(exec->stats.status.IsResourceExhausted())
      << exec->stats.status.ToString();
  EXPECT_EQ(exec->stats.mr_cycles, 0u) << "no MR cycle may burn";
  EXPECT_GT(exec->stats.planned_cycles, 0u);
  EXPECT_EQ(exec->stats.query, "batch-of-2");
  EXPECT_FALSE(exec->stats.preflight.empty());
  EXPECT_TRUE(exec->per_query.empty());
  EXPECT_EQ(dfs->ListFiles(), (std::vector<std::string>{"base"}));
}

// ---- Union queries --------------------------------------------------------------

TEST(UnionTest, UnionOfBranchesEqualsUnionOfOracles) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBio2Rdf);
  // The ontological-rewriting shape: "things related to a GO term" as the
  // union of two conjunctive rewritings.
  auto branch1 = ParseSparql("via-unbound", R"(SELECT * WHERE {
    ?g <label> ?l . ?g ?up ?x . FILTER(CONTAINS(STR(?x), "go_")) })");
  auto branch2 = ParseSparql("via-subtype", R"(SELECT * WHERE {
    ?g <label> ?l . ?g <subType> ?st . })");
  ASSERT_TRUE(branch1.ok() && branch2.ok());
  std::vector<std::shared_ptr<const GraphPatternQuery>> branches = {
      std::make_shared<const GraphPatternQuery>(branch1.MoveValueUnsafe()),
      std::make_shared<const GraphPatternQuery>(branch2.MoveValueUnsafe()),
  };
  std::vector<Solution> oracle_rows;
  for (const auto& branch : branches) {
    for (Solution row : EvaluateQueryInMemory(*branch, triples)) {
      oracle_rows.push_back(std::move(row));
    }
  }
  const SolutionSet oracle(oracle_rows);
  ASSERT_FALSE(oracle.empty());

  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  auto exec = Exec(dfs.get(), "base", ExecRequest::Union(branches), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec->stats.ok());
  EXPECT_TRUE(exec->answers == oracle);
  EXPECT_EQ(exec->stats.full_scans, 1u)
      << "the union shares the grouping cycle";
}

// Random unions: each round draws one graph and two or three generated
// branches, and every NTGA engine at one and four threads must answer
// with the set of all the branches' oracle rows.
TEST(UnionTest, RandomUnionsMatchTheOracle) {
  const fuzz::GraphGenConfig graph_config;
  fuzz::QueryGenConfig query_config;
  query_config.aggregate_prob = 0.0;
  const fuzz::GraphVocabulary vocab = fuzz::VocabularyOf(graph_config);
  Rng rng(26);
  int answered = 0;  // rounds whose union has rows
  for (int round = 0; round < 100; ++round) {
    const std::vector<Triple> triples =
        fuzz::GenerateGraph(graph_config, &rng);
    std::vector<std::shared_ptr<const GraphPatternQuery>> branches;
    std::vector<Solution> oracle_rows;
    const int64_t num_branches = rng.UniformRange(2, 3);
    for (int64_t b = 0; b < num_branches; ++b) {
      branches.push_back(fuzz::GenerateQuery(query_config, vocab, &rng).query);
      for (Solution row : EvaluateQueryInMemory(*branches.back(), triples)) {
        oracle_rows.push_back(std::move(row));
      }
    }
    const SolutionSet oracle(oracle_rows);
    if (!oracle.empty()) ++answered;
    auto dfs = MakeDfsWithBase(triples);
    ASSERT_NE(dfs, nullptr);
    for (EngineKind kind :
         {EngineKind::kNtgaEager, EngineKind::kNtgaLazyFull,
          EngineKind::kNtgaLazyPartial, EngineKind::kNtgaLazy}) {
      for (uint32_t threads : {1u, 4u}) {
        EngineOptions options;
        options.kind = kind;
        options.runtime.num_threads = threads;
        auto exec =
            Exec(dfs.get(), "base", ExecRequest::Union(branches), options);
        const std::string where = StringFormat(
            "round %d, %s, %u threads", round, EngineKindToString(kind),
            threads);
        ASSERT_TRUE(exec.ok()) << where << ": " << exec.status().ToString();
        ASSERT_TRUE(exec->stats.ok())
            << where << ": " << exec->stats.status.ToString();
        EXPECT_TRUE(exec->answers == oracle) << where;
        EXPECT_EQ(exec->stats.query,
                  StringFormat("union-of-%lld",
                               static_cast<long long>(num_branches)));
      }
    }
  }
  EXPECT_GE(answered, 25) << "most rounds should answer with some rows";
}

}  // namespace
}  // namespace rdfmr
