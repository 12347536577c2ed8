// Determinism tests for the multi-threaded MR runtime: every engine must
// produce byte-identical answers and metrics for any thread count (only
// the host wall-clock *_seconds fields may differ). Plus regression tests
// for the three runtime bugfixes that rode along with the parallel
// runtime: map-only output metering, per-map-task combiner scope, and
// demuxed-output cleanup on workflow failure.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/testbed.h"
#include "dfs/sim_dfs.h"
#include "engine/engine.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/workflow.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

// Compares every deterministic field of two JobMetrics; the *_seconds
// wall times are the documented exception.
void ExpectSameJobMetrics(const JobMetrics& a, const JobMetrics& b) {
  EXPECT_EQ(a.job_name, b.job_name);
  EXPECT_EQ(a.input_records, b.input_records);
  EXPECT_EQ(a.input_bytes, b.input_bytes);
  EXPECT_EQ(a.map_output_records, b.map_output_records);
  EXPECT_EQ(a.map_output_bytes, b.map_output_bytes);
  EXPECT_EQ(a.map_direct_output_records, b.map_direct_output_records);
  EXPECT_EQ(a.map_direct_output_bytes, b.map_direct_output_bytes);
  EXPECT_EQ(a.reduce_input_groups, b.reduce_input_groups);
  EXPECT_EQ(a.output_records, b.output_records);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
  EXPECT_EQ(a.output_bytes_replicated, b.output_bytes_replicated);
  EXPECT_EQ(a.full_scans_of_base, b.full_scans_of_base);
  EXPECT_EQ(a.counters, b.counters);
}

// Compares every deterministic field of two ExecStats.
void ExpectSameStats(const ExecStats& a, const ExecStats& b) {
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.query, b.query);
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.failed_job_index, b.failed_job_index);
  EXPECT_EQ(a.mr_cycles, b.mr_cycles);
  EXPECT_EQ(a.planned_cycles, b.planned_cycles);
  EXPECT_EQ(a.full_scans, b.full_scans);
  EXPECT_EQ(a.hdfs_read_bytes, b.hdfs_read_bytes);
  EXPECT_EQ(a.hdfs_write_bytes, b.hdfs_write_bytes);
  EXPECT_EQ(a.hdfs_write_bytes_replicated, b.hdfs_write_bytes_replicated);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
  EXPECT_EQ(a.star_phase_write_bytes, b.star_phase_write_bytes);
  EXPECT_EQ(a.intermediate_write_bytes, b.intermediate_write_bytes);
  EXPECT_EQ(a.final_output_bytes, b.final_output_bytes);
  EXPECT_EQ(a.peak_dfs_used_bytes, b.peak_dfs_used_bytes);
  EXPECT_DOUBLE_EQ(a.redundancy_factor, b.redundancy_factor);
  EXPECT_DOUBLE_EQ(a.final_redundancy_factor, b.final_redundancy_factor);
  EXPECT_DOUBLE_EQ(a.modeled_seconds, b.modeled_seconds);
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    ExpectSameJobMetrics(a.jobs[i], b.jobs[i]);
  }
}

ExecResult RunB1(const std::vector<Triple>& triples, EngineKind kind,
                uint32_t option_threads, uint32_t config_threads) {
  ClusterConfig config = testing_util::RoomyCluster();
  config.num_threads = config_threads;
  auto dfs = testing_util::MakeDfsWithBase(triples, config);
  EXPECT_NE(dfs, nullptr);
  dfs->ResetMetrics();
  auto query = GetTestbedQuery("B1");
  EXPECT_TRUE(query.ok());
  EngineOptions options;
  options.kind = kind;
  options.runtime.num_threads = option_threads;
  auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
  EXPECT_TRUE(exec.ok()) << exec.status().ToString();
  return *exec;
}

TEST(EngineDeterminismTest, ByteIdenticalAcrossThreadCountsAllEngines) {
  std::vector<Triple> triples =
      testing_util::SmallDataset(DatasetFamily::kBsbm);
  for (EngineKind kind : testing_util::AllEngineKinds()) {
    SCOPED_TRACE(EngineKindToString(kind));
    ExecResult reference = RunB1(triples, kind, /*option_threads=*/1,
                                /*config_threads=*/1);
    EXPECT_FALSE(reference.answers.empty());
    for (uint32_t threads : {2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExecResult run = RunB1(triples, kind, threads, /*config_threads=*/1);
      EXPECT_TRUE(run.answers == reference.answers);
      ExpectSameStats(run.stats, reference.stats);
    }
    // The ClusterConfig knob (EngineOptions::num_threads == 0 defers to
    // it) must behave identically to the EngineOptions knob.
    ExecResult via_config = RunB1(triples, kind, /*option_threads=*/0,
                                 /*config_threads=*/8);
    EXPECT_TRUE(via_config.answers == reference.answers);
    ExpectSameStats(via_config.stats, reference.stats);
  }
}

// Job-level byte identity: the same reduce job through an explicit pool
// writes the exact same output file and metrics as the sequential path.
TEST(JobDeterminismTest, PooledJobMatchesSequentialByteForByte) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.disk_per_node = 64ULL << 20;
  config.replication = 1;
  config.block_size = 4096;
  config.num_reducers = 3;

  std::vector<std::string> input;
  for (int i = 0; i < 3000; ++i) {
    input.push_back("rec" + std::to_string(i % 97) + " " +
                    std::to_string(i));
  }

  JobSpec spec;
  spec.name = "identity";
  spec.inputs.push_back(MapInput{
      "in", [](const std::string& record, const MapEmit& emit,
               Counters* counters) {
        (*counters)["mapped"] += 1;
        size_t space = record.find(' ');
        emit(record.substr(0, space), record.substr(space + 1));
      },
      nullptr});
  spec.reduce = [](const std::string& key,
                   const std::vector<std::string>& values,
                   const RecordEmit& emit, Counters* counters) {
    (*counters)["reduced"] += 1;
    for (const std::string& v : values) emit(key + "=" + v);
  };
  spec.output_path = "out";

  auto run = [&](ThreadPool* pool) {
    SimDfs dfs(config);
    EXPECT_TRUE(dfs.WriteFile("in", input).ok());
    JobRunOptions options;
    options.pool = pool;
    JobRunResult job = RunJob(&dfs, spec, options);
    EXPECT_TRUE(job.ok()) << job.status.ToString();
    auto lines = dfs.ReadFile("out");
    EXPECT_TRUE(lines.ok());
    return std::make_pair(job.metrics, *lines);
  };

  auto [seq_metrics, seq_lines] = run(nullptr);
  EXPECT_GT(seq_metrics.map_output_records, 0u);
  for (uint32_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    auto [pooled_metrics, pooled_lines] = run(&pool);
    EXPECT_EQ(pooled_lines, seq_lines);
    ExpectSameJobMetrics(pooled_metrics, seq_metrics);
  }
}

// Regression (map-only metering): a map-only job has no shuffle, so its
// output must land in map_direct_output_*, leaving map_output_* — the
// quantity ExecStats reports as shuffle_bytes and the cost model charges
// shuffle+sort time for — at zero.
TEST(MapOnlyMeteringTest, MapOnlyOutputIsNotShuffleVolume) {
  SimDfs dfs(testing_util::RoomyCluster());
  ASSERT_TRUE(dfs.WriteFile("in", {"aa", "bbb", "cccc"}).ok());

  JobSpec spec;
  spec.name = "map_only";
  spec.inputs.push_back(MapInput{
      "in", [](const std::string& record, const MapEmit& emit, Counters*) {
        emit("ignored_key", record + "!");
      },
      nullptr});
  spec.reduce = nullptr;  // map-only
  spec.output_path = "out";

  JobRunResult run = RunJob(&dfs, spec, {});
  ASSERT_TRUE(run.ok()) << run.status.ToString();
  EXPECT_EQ(run.metrics.map_output_records, 0u);
  EXPECT_EQ(run.metrics.map_output_bytes, 0u);
  EXPECT_EQ(run.metrics.map_direct_output_records, 3u);
  // Bytes as written: value + '!' + newline = (2+2) + (3+2) + (4+2).
  EXPECT_EQ(run.metrics.map_direct_output_bytes, 15u);
  EXPECT_EQ(run.metrics.output_records, 3u);
}

// Regression (combiner scope): the combiner runs once per block-sized map
// task, not once per input file. A single key spanning several blocks
// must therefore shuffle one combined record per block task — the seed
// collapsed it to one record per file.
TEST(CombinerScopeTest, CombinerRunsPerBlockTaskNotPerFile) {
  ClusterConfig config = testing_util::RoomyCluster();
  config.block_size = 4096;
  SimDfs dfs(config);

  // Uniform 2-byte lines ("x\n"); enough to span several 4 KiB blocks.
  const size_t kLines = 5000;
  std::vector<std::string> input(kLines, "x");
  ASSERT_TRUE(dfs.WriteFile("in", input).ok());

  // Expected task count: the number of distinct blocks holding a line's
  // first byte (mirrors the runner's split rule).
  uint64_t offset = 0;
  uint64_t expected_tasks = 1;
  uint64_t current_block = 0;
  for (size_t i = 0; i < kLines; ++i) {
    uint64_t block = offset / config.block_size;
    if (block != current_block) {
      ++expected_tasks;
      current_block = block;
    }
    offset += 2;
  }
  ASSERT_GT(expected_tasks, 1u) << "input must span multiple blocks";

  JobSpec spec;
  spec.name = "combine_scope";
  spec.inputs.push_back(MapInput{
      "in", [](const std::string&, const MapEmit& emit, Counters*) {
        emit("k", "v");
      },
      nullptr});
  spec.combine = [](const std::string&,
                    const std::vector<std::string>& values,
                    Counters* counters) {
    (*counters)["combine_calls"] += 1;
    // Dedup combiner: all values are "v", so one survives per scope.
    return std::vector<std::string>{values[0]};
  };
  spec.reduce = [](const std::string& key,
                   const std::vector<std::string>& values,
                   const RecordEmit& emit, Counters*) {
    emit(key + ":" + std::to_string(values.size()));
  };
  spec.output_path = "out";

  JobRunResult run = RunJob(&dfs, spec, {});
  ASSERT_TRUE(run.ok()) << run.status.ToString();
  // One combined record per block task crosses the shuffle (the seed bug
  // produced exactly 1 for the whole file).
  EXPECT_EQ(run.metrics.map_output_records, expected_tasks);
  EXPECT_EQ(run.metrics.counters["combine_calls"], expected_tasks);
  EXPECT_EQ(run.metrics.counters["combine_input_records"], kLines);
  auto lines = dfs.ReadFile("out");
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines->size(), 1u);
  EXPECT_EQ((*lines)[0], "k:" + std::to_string(expected_tasks));
}

// Regression (failure cleanup): a failed workflow must also delete the
// demuxed outputs (`output_path + suffix`) of its completed jobs — they
// are data-dependent paths that intermediate_paths cannot list up front.
TEST(WorkflowCleanupTest, FailedWorkflowDeletesDemuxedOutputs) {
  auto make_spec = []() {
    WorkflowSpec spec;
    spec.name = "leaky";
    JobSpec demux_job;
    demux_job.name = "demux";
    demux_job.inputs.push_back(MapInput{
        "in", [](const std::string& record, const MapEmit& emit, Counters*) {
          emit("unused", record);
        },
        nullptr});
    demux_job.reduce = nullptr;  // map-only
    demux_job.output_path = "tmp/out";
    demux_job.demux = [](const std::string& record) {
      return record.substr(0, 2) == "a|" ? std::string("-a")
                                         : std::string("-b");
    };
    demux_job.ensure_outputs = {"tmp/out-a", "tmp/out-b", "tmp/out-c"};
    spec.jobs.push_back(std::move(demux_job));

    JobSpec failing_job;
    failing_job.name = "fails";
    failing_job.inputs.push_back(MapInput{
        "does_not_exist",
        [](const std::string&, const MapEmit&, Counters*) {}, nullptr});
    failing_job.reduce = nullptr;
    failing_job.output_path = "final";
    spec.jobs.push_back(std::move(failing_job));

    spec.final_output_path = "final";
    return spec;
  };

  {
    SimDfs dfs(testing_util::RoomyCluster());
    ASSERT_TRUE(dfs.WriteFile("in", {"a|1", "b|2", "a|3"}).ok());
    WorkflowResult result = RunWorkflow(&dfs, make_spec());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.failed_job_index, 1);
    // Only the original input survives: no tmp/out-a, tmp/out-b, or the
    // ensured-but-empty tmp/out-c leak into the next run.
    EXPECT_EQ(dfs.ListFiles(), std::vector<std::string>{"in"});
  }

  // Callers that scrub their own temporary namespace can opt out and
  // still observe the partial outputs after the failure.
  {
    SimDfs dfs(testing_util::RoomyCluster());
    ASSERT_TRUE(dfs.WriteFile("in", {"a|1", "b|2", "a|3"}).ok());
    WorkflowSpec spec = make_spec();
    spec.cleanup_demuxed_on_failure = false;
    WorkflowResult result = RunWorkflow(&dfs, spec);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(dfs.Exists("tmp/out-a"));
    EXPECT_TRUE(dfs.Exists("tmp/out-b"));
    EXPECT_TRUE(dfs.Exists("tmp/out-c"));
  }
}

}  // namespace
}  // namespace rdfmr
