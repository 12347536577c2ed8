// Unit and integration tests for the MapReduce engine: map/shuffle/reduce
// semantics, multi-input jobs, map-only jobs, MultipleOutputs demuxing,
// counters, byte conservation, workflow sequencing and failure behaviour,
// and the cost model.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/strings.h"
#include "dfs/sim_dfs.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/workflow.h"

namespace rdfmr {
namespace {

ClusterConfig TestCluster(uint64_t disk_per_node = 4 << 20) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.disk_per_node = disk_per_node;
  config.replication = 1;
  config.block_size = 4096;
  config.num_reducers = 3;
  return config;
}

// Tokenizing word-count mapper and summing reducer.
MapFn WordMapper() {
  return [](const std::string& record, const MapEmit& emit, Counters*) {
    for (const std::string& word : Split(record, ' ')) {
      if (!word.empty()) emit(word, "1");
    }
  };
}

ReduceFn CountReducer() {
  return [](const std::string& key, std::span<const std::string> values,
            const RecordEmit& emit, Counters*) {
    emit(key + "=" + std::to_string(values.size()));
  };
}

TEST(JobRunnerTest, WordCountEndToEnd) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(
      dfs.WriteFile("in", {"a b a", "b c", "a"}).ok());
  JobSpec job;
  job.name = "wordcount";
  job.inputs.push_back(MapInput{"in", WordMapper(), nullptr});
  job.reduce = CountReducer();
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  ASSERT_TRUE(run.ok()) << run.status.ToString();

  auto lines = dfs.ReadFile("out");
  ASSERT_TRUE(lines.ok());
  std::vector<std::string> sorted = *lines;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::string>{"a=3", "b=2", "c=1"}));

  EXPECT_EQ(run.metrics.input_records, 3u);
  EXPECT_EQ(run.metrics.map_output_records, 6u);
  EXPECT_EQ(run.metrics.reduce_input_groups, 3u);
  EXPECT_EQ(run.metrics.output_records, 3u);
}

TEST(JobRunnerTest, ReducerSeesValuesInEmissionOrder) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"k v1", "k v2", "k v3"}).ok());
  JobSpec job;
  job.name = "order";
  job.inputs.push_back(MapInput{
      "in", [](const std::string& record, const MapEmit& emit, Counters*) {
        auto parts = Split(record, ' ');
        emit(parts[0], parts[1]);
      },
      nullptr});
  job.reduce = [](const std::string& key,
                  std::span<const std::string> values,
                  const RecordEmit& emit, Counters*) {
    emit(key + ":" + Join(values, ','));
  };
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  ASSERT_TRUE(run.ok());
  auto lines = dfs.ReadFile("out");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ((*lines)[0], "k:v1,v2,v3")
      << "ties on the key keep map emission order (stable secondary sort)";
}

TEST(JobRunnerTest, MultipleInputsWithDistinctMappers) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("left", {"x"}).ok());
  ASSERT_TRUE(dfs.WriteFile("right", {"x"}).ok());
  JobSpec job;
  job.name = "tagging";
  job.inputs.push_back(MapInput{
      "left", [](const std::string& r, const MapEmit& emit, Counters*) {
        emit(r, "L");
      },
      nullptr});
  job.inputs.push_back(MapInput{
      "right", [](const std::string& r, const MapEmit& emit, Counters*) {
        emit(r, "R");
      },
      nullptr});
  job.reduce = [](const std::string& key,
                  std::span<const std::string> values,
                  const RecordEmit& emit, Counters*) {
    std::vector<std::string> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    emit(key + ":" + Join(sorted, '+'));
  };
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  ASSERT_TRUE(run.ok());
  auto lines = dfs.ReadFile("out");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ((*lines)[0], "x:L+R");
}

TEST(JobRunnerTest, MapOnlyJobWritesValuesDirectly) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"keep", "drop", "keep2"}).ok());
  JobSpec job;
  job.name = "filter";
  job.inputs.push_back(MapInput{
      "in", [](const std::string& r, const MapEmit& emit, Counters*) {
        if (StartsWith(r, "keep")) emit("", r);
      },
      nullptr});
  job.reduce = nullptr;  // map-only
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  ASSERT_TRUE(run.ok());
  auto lines = dfs.ReadFile("out");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(*lines, (std::vector<std::string>{"keep", "keep2"}));
  EXPECT_EQ(run.metrics.reduce_input_groups, 0u);
}

TEST(JobRunnerTest, DemuxRoutesRecordsAndEnsuresOutputs) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"a1", "b2", "a3"}).ok());
  JobSpec job;
  job.name = "demux";
  job.inputs.push_back(MapInput{
      "in", [](const std::string& r, const MapEmit& emit, Counters*) {
        emit("", r);
      },
      nullptr});
  job.output_path = "out-";
  job.demux = [](const std::string& record) {
    return record.substr(0, 1);
  };
  job.ensure_outputs = {"out-a", "out-b", "out-c"};
  JobRunResult run = RunJob(&dfs, job, {});
  ASSERT_TRUE(run.ok());
  auto a = dfs.ReadFile("out-a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, (std::vector<std::string>{"a1", "a3"}));
  auto b = dfs.ReadFile("out-b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, (std::vector<std::string>{"b2"}));
  auto c = dfs.ReadFile("out-c");
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->empty()) << "ensure_outputs creates empty files";
}

TEST(JobRunnerTest, MapOnlyJobMetersDirectOutputNotShuffle) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"alpha", "beta", "gamma"}).ok());
  JobSpec job;
  job.name = "identity";
  job.inputs.push_back(MapInput{
      "in", [](const std::string& r, const MapEmit& emit, Counters*) {
        emit("", r);
      },
      nullptr});
  job.reduce = nullptr;  // map-only
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  ASSERT_TRUE(run.ok());
  // Emissions of a map-only job never enter a shuffle: they are metered
  // as direct output (value + newline, exactly the bytes written) and the
  // shuffle-side meters stay at zero.
  EXPECT_EQ(run.metrics.map_output_records, 0u);
  EXPECT_EQ(run.metrics.map_output_bytes, 0u);
  EXPECT_EQ(run.metrics.map_direct_output_records, 3u);
  EXPECT_EQ(run.metrics.map_direct_output_bytes, run.metrics.output_bytes);
  EXPECT_EQ(run.metrics.map_direct_output_bytes, *dfs.FileSize("out"));
  EXPECT_EQ(run.metrics.reduce_input_groups, 0u);
}

TEST(JobRunnerTest, ReduceJobMetersShuffleNotDirectOutput) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"a b", "b"}).ok());
  JobSpec job;
  job.name = "counting";
  job.inputs.push_back(MapInput{"in", WordMapper(), nullptr});
  job.reduce = CountReducer();
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run.metrics.map_output_records, 0u);
  EXPECT_GT(run.metrics.map_output_bytes, 0u);
  EXPECT_EQ(run.metrics.map_direct_output_records, 0u);
  EXPECT_EQ(run.metrics.map_direct_output_bytes, 0u);
}

TEST(CombinerTest, ShuffleMeteredPostCombinePerBlockMapTask) {
  SimDfs dfs(TestCluster());
  // A file wide enough to span several 4KB blocks: every line maps to the
  // same key, and the dedup combiner collapses each map task's emissions
  // to one value, so the post-combine shuffle volume counts exactly one
  // record per block-sized map task.
  std::vector<std::string> lines(
      300, "padding padding padding padding padding padding padding");
  ASSERT_TRUE(dfs.WriteFile("in", lines).ok());
  auto blocks = dfs.BlockCount("in");
  ASSERT_TRUE(blocks.ok());
  ASSERT_GT(*blocks, 1u) << "input must span multiple blocks";
  JobSpec job;
  job.name = "per-block-combine";
  job.inputs.push_back(MapInput{
      "in", [](const std::string&, const MapEmit& emit, Counters*) {
        emit("k", "1");
      },
      nullptr});
  job.combine = [](const std::string&,
                   std::span<const std::string> values, Counters*) {
    std::set<std::string> distinct(values.begin(), values.end());
    return std::vector<std::string>(distinct.begin(), distinct.end());
  };
  job.reduce = CountReducer();
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.metrics.map_output_records, *blocks)
      << "one combined record per block-sized map task enters the shuffle";
  EXPECT_EQ(run.metrics.map_output_bytes,
            static_cast<uint64_t>(*blocks) * (1 + 1 + 2))
      << "shuffle bytes are metered post-combine (key 'k' + value '1' + 2)";
  EXPECT_EQ(run.metrics.counters.at("combine_input_records"), lines.size());
}

TEST(JobRunnerTest, EnsuredEmptyOutputsAreReadableDownstream) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"a1", "a2"}).ok());
  JobSpec producer;
  producer.name = "demux-producer";
  producer.inputs.push_back(MapInput{
      "in", [](const std::string& r, const MapEmit& emit, Counters*) {
        emit("", r);
      },
      nullptr});
  producer.output_path = "part-";
  producer.demux = [](const std::string& record) {
    return record.substr(0, 1);
  };
  // "b" receives no record; ensure_outputs must still create it so the
  // consumer below finds every input it was planned against.
  producer.ensure_outputs = {"part-a", "part-b"};
  ASSERT_TRUE(RunJob(&dfs, producer, {}).ok());
  ASSERT_TRUE(dfs.Exists("part-b"));
  EXPECT_EQ(*dfs.FileSize("part-b"), 0u);

  JobSpec consumer;
  consumer.name = "demux-consumer";
  for (const char* path : {"part-a", "part-b"}) {
    consumer.inputs.push_back(MapInput{
        path, [](const std::string& r, const MapEmit& emit, Counters*) {
          emit(r, "1");
        },
        nullptr});
  }
  consumer.reduce = CountReducer();
  consumer.output_path = "out";
  JobRunResult run = RunJob(&dfs, consumer, {});
  ASSERT_TRUE(run.ok())
      << "a downstream job must be able to read an ensured empty output: "
      << run.status.ToString();
  EXPECT_EQ(run.metrics.input_records, 2u)
      << "the empty input contributes no records";
  auto lines = dfs.ReadFile("out");
  ASSERT_TRUE(lines.ok());
  std::vector<std::string> sorted = *lines;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::string>{"a1=1", "a2=1"}));
}

TEST(JobRunnerTest, CountersFlowToMetrics) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"r1", "r2"}).ok());
  JobSpec job;
  job.name = "counting";
  job.inputs.push_back(MapInput{
      "in", [](const std::string&, const MapEmit& emit, Counters* c) {
        (*c)["map_calls"] += 1;
        emit("k", "v");
      },
      nullptr});
  job.reduce = [](const std::string&, std::span<const std::string> v,
                  const RecordEmit& emit, Counters* c) {
    (*c)["reduce_values"] += v.size();
    emit("done");
  };
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.metrics.counters.at("map_calls"), 2u);
  EXPECT_EQ(run.metrics.counters.at("reduce_values"), 2u);
}

TEST(JobRunnerTest, ByteAccountingIsConsistent) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"hello world", "foo"}).ok());
  JobSpec job;
  job.name = "bytes";
  job.inputs.push_back(MapInput{"in", WordMapper(), nullptr});
  job.reduce = CountReducer();
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.metrics.input_bytes, *dfs.FileSize("in"));
  EXPECT_EQ(run.metrics.output_bytes, *dfs.FileSize("out"));
  // Shuffle bytes = sum over emissions of key+value+2.
  // words: hello(5), world(5), foo(3); values "1"(1 each).
  EXPECT_EQ(run.metrics.map_output_bytes, (5 + 1 + 2) + (5 + 1 + 2) +
                                           (3 + 1 + 2));
}

TEST(JobRunnerTest, MissingInputFails) {
  SimDfs dfs(TestCluster());
  JobSpec job;
  job.name = "broken";
  job.inputs.push_back(MapInput{"missing", WordMapper(), nullptr});
  job.reduce = CountReducer();
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  EXPECT_TRUE(run.status.IsNotFound());
}

TEST(JobRunnerTest, InvalidSpecsRejected) {
  SimDfs dfs(TestCluster());
  JobSpec no_inputs;
  no_inputs.name = "empty";
  no_inputs.output_path = "out";
  EXPECT_TRUE(RunJob(&dfs, no_inputs, {}).status.IsInvalidArgument());

  JobSpec no_output;
  no_output.name = "noout";
  no_output.inputs.push_back(MapInput{"in", WordMapper(), nullptr});
  EXPECT_TRUE(RunJob(&dfs, no_output, {}).status.IsInvalidArgument());
}

TEST(JobRunnerTest, OutputFailureSurfacesOutOfSpace) {
  SimDfs dfs(TestCluster(/*disk_per_node=*/4096));  // 16KB total
  std::vector<std::string> big(400, "some fairly long input line here");
  ASSERT_TRUE(dfs.WriteFile("in", big).ok());
  JobSpec job;
  job.name = "explode";
  job.inputs.push_back(MapInput{
      "in", [](const std::string& r, const MapEmit& emit, Counters*) {
        emit(r, r + r);  // amplify
      },
      nullptr});
  job.reduce = [](const std::string& key,
                  std::span<const std::string> values,
                  const RecordEmit& emit, Counters*) {
    for (const std::string& v : values) emit(key + v);
  };
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  EXPECT_TRUE(run.status.IsOutOfSpace()) << run.status.ToString();
}

// ---- Combiner ----------------------------------------------------------------

TEST(CombinerTest, DeduplicatingCombinerShrinksShuffleNotAnswers) {
  SimDfs dfs(TestCluster());
  // Many repeated words per input task.
  ASSERT_TRUE(dfs.WriteFile("in", {"a a a a b", "b b a a"}).ok());
  auto make_job = [&](bool with_combiner, const std::string& out) {
    JobSpec job;
    job.name = "distinct-wordcount";
    job.inputs.push_back(MapInput{"in", WordMapper(), nullptr});
    if (with_combiner) {
      job.combine = [](const std::string&,
                       std::span<const std::string> values, Counters*) {
        std::set<std::string> distinct(values.begin(), values.end());
        return std::vector<std::string>(distinct.begin(), distinct.end());
      };
    }
    // Reduce counts DISTINCT values, so combining is semantics-preserving.
    job.reduce = [](const std::string& key,
                    std::span<const std::string> values,
                    const RecordEmit& emit, Counters*) {
      std::set<std::string> distinct(values.begin(), values.end());
      emit(key + "=" + std::to_string(distinct.size()));
    };
    job.output_path = out;
    return job;
  };
  JobRunResult plain = RunJob(&dfs, make_job(false, "out-plain"), {});
  JobRunResult combined = RunJob(&dfs, make_job(true, "out-combined"), {});
  ASSERT_TRUE(plain.ok() && combined.ok());
  auto a = dfs.ReadFile("out-plain");
  auto b = dfs.ReadFile("out-combined");
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<std::string> sa = *a, sb = *b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  EXPECT_EQ(sa, sb) << "the combiner must not change the answers";
  EXPECT_LT(combined.metrics.map_output_records,
            plain.metrics.map_output_records);
  EXPECT_LT(combined.metrics.map_output_bytes,
            plain.metrics.map_output_bytes);
  EXPECT_EQ(combined.metrics.counters.at("combine_input_records"),
            plain.metrics.map_output_records);
}

TEST(CombinerTest, AppliedPerInputTask) {
  // Two inputs with the same key: the combiner runs per task, so the
  // reducer still sees one value per task (cross-task dedup is its job).
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in1", {"k k"}).ok());
  ASSERT_TRUE(dfs.WriteFile("in2", {"k"}).ok());
  JobSpec job;
  job.name = "per-task";
  for (const char* path : {"in1", "in2"}) {
    job.inputs.push_back(MapInput{path, WordMapper(), nullptr});
  }
  job.combine = [](const std::string&,
                   std::span<const std::string> values, Counters*) {
    std::set<std::string> distinct(values.begin(), values.end());
    return std::vector<std::string>(distinct.begin(), distinct.end());
  };
  job.reduce = [](const std::string& key,
                  std::span<const std::string> values,
                  const RecordEmit& emit, Counters*) {
    emit(key + ":" + std::to_string(values.size()));
  };
  job.output_path = "out";
  JobRunResult run = RunJob(&dfs, job, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.metrics.map_output_records, 2u)
      << "one combined value per task reaches the shuffle";
  auto lines = dfs.ReadFile("out");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ((*lines)[0], "k:2");
}

// ---- Workflow --------------------------------------------------------------

WorkflowSpec TwoStageWorkflow() {
  WorkflowSpec spec;
  spec.name = "two-stage";
  JobSpec stage1;
  stage1.name = "tokenize";
  stage1.inputs.push_back(MapInput{
      "in", [](const std::string& r, const MapEmit& emit, Counters*) {
        for (const std::string& w : Split(r, ' ')) {
          if (!w.empty()) emit(w, "1");
        }
      },
      nullptr});
  stage1.reduce = CountReducer();
  stage1.output_path = "counts";
  spec.jobs.push_back(stage1);

  JobSpec stage2;
  stage2.name = "filter-popular";
  stage2.inputs.push_back(MapInput{
      "counts", [](const std::string& r, const MapEmit& emit, Counters*) {
        auto parts = Split(r, '=');
        if (std::stoi(parts[1]) >= 2) emit("", r);
      },
      nullptr});
  stage2.reduce = nullptr;
  stage2.output_path = "popular";
  spec.jobs.push_back(stage2);

  spec.intermediate_paths = {"counts"};
  spec.final_output_path = "popular";
  return spec;
}

TEST(WorkflowTest, RunsJobsInOrderAndCleansIntermediates) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"a b a", "b c b"}).ok());
  WorkflowResult result = RunWorkflow(&dfs, TwoStageWorkflow());
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.num_mr_cycles(), 2u);
  EXPECT_FALSE(dfs.Exists("counts")) << "intermediate must be cleaned";
  auto lines = dfs.ReadFile("popular");
  ASSERT_TRUE(lines.ok());
  std::vector<std::string> sorted = *lines;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::string>{"a=2", "b=3"}));
  EXPECT_GT(result.modeled_seconds, 0.0);
  EXPECT_GE(result.peak_dfs_used_bytes, *dfs.FileSize("popular"));
}

TEST(WorkflowTest, TotalsAccumulateAcrossJobs) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"a b a", "b c b"}).ok());
  WorkflowResult result = RunWorkflow(&dfs, TwoStageWorkflow());
  ASSERT_TRUE(result.ok());
  uint64_t input_sum = 0;
  for (const JobMetrics& m : result.job_metrics) {
    input_sum += m.input_bytes;
  }
  EXPECT_EQ(result.totals.input_bytes, input_sum);
}

TEST(WorkflowTest, FailureStopsAndReportsJobIndex) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"a"}).ok());
  WorkflowSpec spec = TwoStageWorkflow();
  spec.jobs[1].inputs[0].path = "wrong-path";
  WorkflowResult result = RunWorkflow(&dfs, spec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.failed_job_index, 1);
  EXPECT_EQ(result.job_metrics.size(), 1u);
  EXPECT_FALSE(dfs.Exists("counts"))
      << "cleanup also runs after a failure";
}

TEST(WorkflowTest, FailedFinalOutputRemoved) {
  SimDfs dfs(TestCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"a b"}).ok());
  WorkflowSpec spec = TwoStageWorkflow();
  // Sabotage the second job so it fails after the first wrote its output.
  spec.jobs[1].inputs[0].path = "missing";
  RunWorkflow(&dfs, spec);
  EXPECT_FALSE(dfs.Exists("popular"));
}

TEST(WorkflowTest, DescribeRendersJobsInOrder) {
  WorkflowSpec spec = TwoStageWorkflow();
  spec.jobs[1].combine = [](const std::string&,
                            std::span<const std::string> v, Counters*) {
    return std::vector<std::string>(v.begin(), v.end());
  };
  std::string rendered = DescribeWorkflow(spec);
  EXPECT_NE(rendered.find("two-stage"), std::string::npos);
  EXPECT_NE(rendered.find("MR1 tokenize: in -> counts"), std::string::npos);
  EXPECT_NE(rendered.find("MR2 filter-popular"), std::string::npos);
  EXPECT_NE(rendered.find("[map-only]"), std::string::npos);
  EXPECT_NE(rendered.find("[combiner]"), std::string::npos);
  EXPECT_NE(rendered.find("final: popular"), std::string::npos);
  EXPECT_LT(rendered.find("MR1"), rendered.find("MR2"));
}

// ---- Cost model -------------------------------------------------------------

TEST(CostModelTest, MonotonicInEachByteComponent) {
  ClusterConfig cluster = TestCluster();
  CostModelConfig cost;
  JobMetrics base;
  base.input_bytes = 1 << 20;
  base.map_output_bytes = 1 << 20;
  base.map_output_records = 1000;
  base.output_bytes_replicated = 1 << 20;
  double t0 = ModelJobSeconds(base, cluster, cost);

  JobMetrics more_read = base;
  more_read.input_bytes *= 4;
  EXPECT_GT(ModelJobSeconds(more_read, cluster, cost), t0);

  JobMetrics more_shuffle = base;
  more_shuffle.map_output_bytes *= 4;
  EXPECT_GT(ModelJobSeconds(more_shuffle, cluster, cost), t0);

  JobMetrics more_write = base;
  more_write.output_bytes_replicated *= 4;
  EXPECT_GT(ModelJobSeconds(more_write, cluster, cost), t0);
}

TEST(CostModelTest, MoreNodesGoFaster) {
  CostModelConfig cost;
  JobMetrics m;
  m.input_bytes = 64 << 20;
  m.map_output_bytes = 64 << 20;
  m.map_output_records = 100000;
  m.output_bytes_replicated = 64 << 20;
  ClusterConfig small = TestCluster();
  small.num_nodes = 4;
  ClusterConfig big = TestCluster();
  big.num_nodes = 16;
  EXPECT_GT(ModelJobSeconds(m, small, cost),
            ModelJobSeconds(m, big, cost));
}

TEST(CostModelTest, StartupIsPerJob) {
  ClusterConfig cluster = TestCluster();
  CostModelConfig cost;
  JobMetrics empty;
  double one = ModelJobSeconds(empty, cluster, cost);
  EXPECT_DOUBLE_EQ(one, cost.job_startup_seconds);
  EXPECT_DOUBLE_EQ(ModelWorkflowSeconds({empty, empty}, cluster, cost),
                   2 * cost.job_startup_seconds);
}

}  // namespace
}  // namespace rdfmr
