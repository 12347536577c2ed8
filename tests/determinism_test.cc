// Determinism tests for the multi-threaded MR runtime: every engine must
// produce byte-identical answers and metrics for any thread count (only
// the host wall-clock *_seconds fields may differ), and one job's record
// order and metrics are pinned to recorded constants. Plus regression
// tests for the three runtime bugfixes that rode along with the parallel
// runtime: map-only output metering, per-map-task combiner scope, and
// demuxed-output cleanup on workflow failure.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "common/trace.h"
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
    // The ClusterConfig knob (an unset EngineOptions::runtime.num_threads
    // defers to it) must behave identically to the per-run override.
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
                   std::span<const std::string> values,
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

// Record-order pin: the position of every record in every output file and
// every deterministic JobMetrics field, held against constants recorded on
// the ordered-merge runner. Keys repeat across the many block-sized map
// tasks of two inputs, and the reducers and the combiner write their
// values in arrival order, so a runner that reorders any key's values (an
// unstable sort, map output gathered out of task order) moves a digest.
// Comparing two runs of the same code cannot catch that.
ClusterConfig PinCluster() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.disk_per_node = 64ULL << 20;
  config.replication = 2;
  config.block_size = 4096;
  config.num_reducers = 3;
  return config;
}

std::vector<std::string> PinInput(const std::string& tag, int records,
                                  int key_mod, int key_mul) {
  std::vector<std::string> lines;
  for (int i = 0; i < records; ++i) {
    lines.push_back("k" + std::to_string(i * key_mul % key_mod) + " " + tag +
                    std::to_string(i));
  }
  return lines;
}

MapFn PinMapper() {
  return [](const std::string& record, const MapEmit& emit,
            Counters* counters) {
    (*counters)["mapped"] += 1;
    size_t space = record.find(' ');
    emit(record.substr(0, space), record.substr(space + 1));
  };
}

// Concatenates a group's values in arrival order; generic so it takes the
// framework's value sequence whatever its type.
template <typename Values>
std::string ArrivalOrder(const Values& values) {
  std::string joined;
  for (const std::string& value : values) {
    if (!joined.empty()) joined += ',';
    joined += value;
  }
  return joined;
}

// "<lines>:<FNV-1a of the lines joined by newlines>".
std::string FileDigest(SimDfs* dfs, const std::string& path) {
  auto lines = dfs->ReadFile(path);
  EXPECT_TRUE(lines.ok()) << path;
  if (!lines.ok()) return "missing";
  std::string joined;
  for (const std::string& line : *lines) joined += line + "\n";
  return std::to_string(lines->size()) + ":" +
         std::to_string(Fnv1a64(joined));
}

// Every deterministic JobMetrics field, counters included.
std::string MetricsDigest(const JobMetrics& m) {
  std::string out = m.job_name;
  for (uint64_t v :
       {m.input_records, m.input_bytes, m.map_output_records,
        m.map_output_bytes, m.map_direct_output_records,
        m.map_direct_output_bytes, m.reduce_input_groups, m.output_records,
        m.output_bytes, m.output_bytes_replicated,
        static_cast<uint64_t>(m.full_scans_of_base), m.task_attempts,
        m.tasks_retried, m.wasted_bytes}) {
    out += " " + std::to_string(v);
  }
  for (const auto& [name, value] : m.counters) {
    out += " " + name + "=" + std::to_string(value);
  }
  return out;
}

struct PinCase {
  JobSpec spec;
  std::vector<std::string> files;  // output files to digest, in order
};

std::vector<PinCase> PinCases() {
  std::vector<PinCase> cases;
  auto base_spec = [](const std::string& name) {
    JobSpec spec;
    spec.name = name;
    spec.inputs.push_back(MapInput{"in_a", PinMapper(), nullptr});
    spec.inputs.push_back(MapInput{"in_b", PinMapper(), nullptr});
    spec.output_path = name + "_out";
    return spec;
  };

  // Reduce: one record per value, numbered by its arrival position.
  PinCase reduce{base_spec("reduce"), {"reduce_out"}};
  reduce.spec.reduce = [](const std::string& key, const auto& values,
                          const RecordEmit& emit, Counters* counters) {
    (*counters)["groups"] += 1;
    size_t position = 0;
    for (const std::string& value : values) {
      emit(key + "=" + value + "#" + std::to_string(position++));
    }
  };
  cases.push_back(std::move(reduce));

  // Combine: the combiner folds each task's values for a key into one
  // value in arrival order; the reducer joins the folds in arrival order.
  PinCase combine{base_spec("combine"), {"combine_out"}};
  combine.spec.combine = [](const std::string&, const auto& values,
                            Counters* counters) {
    (*counters)["combine_calls"] += 1;
    std::string folded;
    for (const std::string& value : values) {
      if (!folded.empty()) folded += '|';
      folded += value;
    }
    return std::vector<std::string>{folded, std::to_string(values.size())};
  };
  combine.spec.reduce = [](const std::string& key, const auto& values,
                           const RecordEmit& emit, Counters*) {
    emit(key + ":" + ArrivalOrder(values));
  };
  cases.push_back(std::move(combine));

  // Map-only: a filtered rewrite, written in map task order.
  PinCase map_only{base_spec("map_only"), {"map_only_out"}};
  map_only.spec.inputs[0].map = [](const std::string& record,
                                   const MapEmit& emit, Counters* counters) {
    if (record.size() % 3 == 0) return;
    (*counters)["kept"] += 1;
    emit("", record + "/" + std::to_string(record.size()));
  };
  cases.push_back(std::move(map_only));

  // Demux: the reduce records routed by their last digit, plus one
  // ensured output no record reaches.
  PinCase demux{base_spec("demux"),
                {"demux_out-0", "demux_out-1", "demux_out-2", "demux_out-3"}};
  demux.spec.reduce = [](const std::string& key, const auto& values,
                         const RecordEmit& emit, Counters*) {
    for (const std::string& value : values) emit(key + "=" + value);
  };
  demux.spec.demux = [](const std::string& record) {
    return "-" + std::to_string((record.back() - '0') % 3);
  };
  demux.spec.ensure_outputs = {"demux_out-3"};
  cases.push_back(std::move(demux));
  return cases;
}

TEST(RecordOrderPinTest, OutputFilesAndMetricsMatchRecordedConstants) {
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      kExpected = {
          {"reduce 4000 36650 4000 36650 0 0 41 4000 48609 97218 0 0 0 0 "
           "groups=41 mapped=4000",
           {"4000:6580890463326775236"}},
          {"combine 4000 36650 724 25492 0 0 41 41 22950 45900 0 0 0 0 "
           "combine_calls=362 combine_input_records=4000 mapped=4000",
           {"41:10768841447873968186"}},
          {"map_only 4000 36650 0 0 2836 22286 0 2836 22286 44572 0 0 0 0 "
           "kept=1336 mapped=1500",
           {"2836:6347843311264652000"}},
          {"demux 4000 36650 4000 36650 0 0 41 4000 36650 73300 0 0 0 0 "
           "mapped=4000",
           {"1600:7264180313965495254", "1200:18078366028600665744",
            "1200:11256260009958023442", "0:14695981039346656037"}},
      };
  const std::vector<PinCase> cases = PinCases();
  ASSERT_EQ(cases.size(), kExpected.size());
  for (uint32_t threads : {0u, 2u, 8u}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    for (size_t c = 0; c < cases.size(); ++c) {
      SCOPED_TRACE("job=" + cases[c].spec.name +
                   " threads=" + std::to_string(threads));
      SimDfs dfs(PinCluster());
      ASSERT_TRUE(dfs.WriteFile("in_a", PinInput("a", 2500, 41, 7)).ok());
      ASSERT_TRUE(dfs.WriteFile("in_b", PinInput("b", 1500, 29, 1)).ok());
      JobRunOptions options;
      options.pool = pool.get();
      JobRunResult run = RunJob(&dfs, cases[c].spec, options);
      ASSERT_TRUE(run.ok()) << run.status.ToString();
      EXPECT_EQ(MetricsDigest(run.metrics), kExpected[c].first);
      ASSERT_EQ(cases[c].files.size(), kExpected[c].second.size());
      for (size_t f = 0; f < cases[c].files.size(); ++f) {
        EXPECT_EQ(FileDigest(&dfs, cases[c].files[f]),
                  kExpected[c].second[f])
            << cases[c].files[f];
      }
    }
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
                    std::span<const std::string> values,
                    Counters* counters) {
    (*counters)["combine_calls"] += 1;
    // Dedup combiner: all values are "v", so one survives per scope.
    return std::vector<std::string>{values[0]};
  };
  spec.reduce = [](const std::string& key,
                   std::span<const std::string> values,
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

// Chunk scope: at the default 1 MiB block the runner cuts each block task
// into several host chunks, and the simulated task must not see them. The
// combiner still runs once per key per block task, the map span still
// counts blocks, and the output keeps the emission order across chunk
// edges: each case is checked against a model that knows only blocks, at
// no pool and at 2 and 8 threads.
TEST(ChunkScopeTest, BlocksOfManyChunksKeepTheBlockTaskScope) {
  const ClusterConfig config;  // 1 MiB blocks
  const size_t kKeys = 37;
  std::vector<std::string> input;
  uint64_t input_bytes = 0;
  for (size_t i = 0; input_bytes < (5ULL << 20) / 2; ++i) {
    input.push_back("k" + std::to_string(i * 7 % kKeys) + " " +
                    std::to_string(i));
    input_bytes += input.back().size() + 1;
  }
  const auto key_of = [](const std::string& line) {
    return line.substr(0, line.find(' '));
  };
  const auto value_of = [](const std::string& line) {
    return line.substr(line.find(' ') + 1);
  };

  // The per-block model: a line belongs to the block holding its first
  // byte; per block, each key's count.
  std::vector<std::map<std::string, uint64_t>> block_counts;
  uint64_t offset = 0;
  for (const std::string& line : input) {
    const uint64_t block = offset / config.block_size;
    if (block_counts.size() <= block) block_counts.resize(block + 1);
    block_counts[block][key_of(line)] += 1;
    offset += line.size() + 1;
  }
  ASSERT_GE(block_counts.size(), 3u);
  uint64_t combined_records = 0;
  uint64_t combined_bytes = 0;
  std::map<std::string, uint64_t> totals;
  for (const auto& counts : block_counts) {
    for (const auto& [key, count] : counts) {
      combined_records += 1;
      combined_bytes += key.size() + std::to_string(count).size() + 2;
      totals[key] += count;
    }
  }

  const MapFn split = [&](const std::string& record, const MapEmit& emit,
                          Counters*) { emit(key_of(record), "1"); };
  JobSpec count;
  count.name = "count";
  count.inputs.push_back(MapInput{"in", split, nullptr});
  count.combine = [](const std::string&, std::span<const std::string> values,
                     Counters* counters) {
    (*counters)["combine_calls"] += 1;
    uint64_t sum = 0;
    for (const std::string& value : values) sum += std::stoull(value);
    return std::vector<std::string>{std::to_string(sum)};
  };
  count.reduce = [](const std::string& key,
                    std::span<const std::string> values,
                    const RecordEmit& emit, Counters*) {
    uint64_t sum = 0;
    for (const std::string& value : values) sum += std::stoull(value);
    emit(key + "=" + std::to_string(sum));
  };
  count.output_path = "count_out";

  JobSpec map_only;
  map_only.name = "map_only";
  map_only.inputs.push_back(MapInput{
      "in",
      [&](const std::string& record, const MapEmit& emit, Counters*) {
        if (record.back() != '3') emit("", value_of(record));
      },
      nullptr});
  map_only.output_path = "map_only_out";

  JobSpec demux;
  demux.name = "demux";
  demux.inputs.push_back(MapInput{
      "in",
      [&](const std::string& record, const MapEmit& emit, Counters*) {
        emit(key_of(record), value_of(record));
      },
      nullptr});
  demux.reduce = [](const std::string& key,
                    std::span<const std::string> values,
                    const RecordEmit& emit, Counters*) {
    for (const std::string& value : values) emit(key + "=" + value);
  };
  demux.demux = [](const std::string& record) {
    return "-" + std::string(1, record.back());
  };
  demux.output_path = "demux_out";

  // The expected files: counts per key in partition then key order; the
  // kept values in input order; each key's values in input order, keys in
  // partition then key order, routed by their last digit.
  const size_t reducers = config.num_reducers;
  std::map<std::string, std::vector<std::string>> expected;
  std::map<std::string, std::vector<std::string>> values_of_key;
  for (const std::string& line : input) {
    values_of_key[key_of(line)].push_back(value_of(line));
    if (line.back() != '3') expected["map_only_out"].push_back(value_of(line));
  }
  for (size_t p = 0; p < reducers; ++p) {
    for (const auto& [key, values] : values_of_key) {
      if (Fnv1a64(key) % reducers != p) continue;
      expected["count_out"].push_back(key + "=" +
                                      std::to_string(totals[key]));
      for (const std::string& value : values) {
        expected["demux_out-" + std::string(1, value.back())].push_back(
            key + "=" + value);
      }
    }
  }

  for (const JobSpec* spec : {&count, &map_only, &demux}) {
    SCOPED_TRACE("job=" + spec->name);
    std::map<std::string, std::vector<std::string>> first_files;
    JobMetrics first_metrics;
    for (uint32_t threads : {0u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      SimDfs dfs(config);
      ASSERT_TRUE(dfs.WriteFile("in", input).ok());
      Trace trace;
      JobRunOptions options;
      options.pool = pool.get();
      options.ctx = RunContext::ForTrace(&trace);
      JobRunResult run = RunJob(&dfs, *spec, options);
      ASSERT_TRUE(run.ok()) << run.status.ToString();

      // The map span counts block tasks.
      const TraceSpan& map_span = *trace.root()->children.at(0)->children.at(0);
      ASSERT_EQ(map_span.name, "map");
      ASSERT_FALSE(map_span.attrs.empty());
      EXPECT_EQ(map_span.attrs[0], std::make_pair(std::string("tasks"),
                                                  std::to_string(
                                                      block_counts.size())));
      if (spec == &count) {
        EXPECT_EQ(run.metrics.map_output_records, combined_records);
        EXPECT_EQ(run.metrics.map_output_bytes, combined_bytes);
        EXPECT_EQ(run.metrics.counters["combine_calls"], combined_records);
        EXPECT_EQ(run.metrics.counters["combine_input_records"],
                  input.size());
      }
      std::map<std::string, std::vector<std::string>> files;
      for (const std::string& path : dfs.ListFiles()) {
        if (path == "in") continue;
        auto lines = dfs.ReadFile(path);
        ASSERT_TRUE(lines.ok()) << path;
        files[path] = *lines;
      }
      for (const auto& [path, lines] : expected) {
        if (path.rfind(spec->output_path, 0) != 0) continue;
        EXPECT_TRUE(files[path] == lines) << path;
      }
      if (threads == 0) {
        first_files = std::move(files);
        first_metrics = run.metrics;
        continue;
      }
      EXPECT_TRUE(files == first_files);
      ExpectSameJobMetrics(run.metrics, first_metrics);
    }
  }
}

// Task state: every map chunk, combine item and reduce partition calls its
// own copy of the job's closures, so closures may keep state in mutable
// captures. The mapper numbers its calls and ships the number with each
// record; the combiner and the reducer reuse captured buffers. With one
// instance shared across threads the numbers and buffers race (and with
// one instance at all, the numbers run on across chunks); with a copy per
// task the output is byte-identical with no pool and at 2 and 8 threads.
TEST(TaskStateTest, MutableClosuresAreCopiedPerTask) {
  const ClusterConfig config;  // 1 MiB blocks, several chunks each
  std::vector<std::string> input;
  uint64_t input_bytes = 0;
  for (size_t i = 0; input_bytes < (5ULL << 20) / 2; ++i) {
    input.push_back("k" + std::to_string(i % 23) + " " + std::to_string(i));
    input_bytes += input.back().size() + 1;
  }

  JobSpec job;
  job.name = "task_state";
  job.inputs.push_back(MapInput{
      "in",
      [calls = uint64_t{0}](const std::string& record, const MapEmit& emit,
                            Counters*) mutable {
        ++calls;
        const size_t space = record.find(' ');
        emit(record.substr(0, space),
             record.substr(space + 1) + "#" + std::to_string(calls));
      },
      nullptr});
  job.reduce = [buffer = std::string()](const std::string& key,
                                        std::span<const std::string> values,
                                        const RecordEmit& emit,
                                        Counters*) mutable {
    buffer.clear();
    for (const std::string& value : values) buffer.append(value).append(",");
    emit(key + "=" + buffer);
  };
  job.output_path = "out";
  JobSpec combined = job;
  combined.name = "task_state_combined";
  combined.combine = [scratch = std::vector<std::string_view>()](
                         const std::string&,
                         std::span<const std::string> values,
                         Counters*) mutable {
    scratch.assign(values.begin(), values.end());
    std::string joined;
    for (std::string_view value : scratch) joined.append(value).append(";");
    return std::vector<std::string>{std::move(joined)};
  };

  for (const JobSpec* spec : {&job, &combined}) {
    SCOPED_TRACE("job=" + spec->name);
    std::vector<std::string> first_output;
    JobMetrics first_metrics;
    for (uint32_t threads : {0u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      SimDfs dfs(config);
      ASSERT_TRUE(dfs.WriteFile("in", input).ok());
      JobRunOptions options;
      options.pool = pool.get();
      JobRunResult run = RunJob(&dfs, *spec, options);
      ASSERT_TRUE(run.ok()) << run.status.ToString();
      auto output = dfs.ReadFile("out");
      ASSERT_TRUE(output.ok());
      if (threads == 0) {
        // Each chunk's mapper counts from 1, and no chunk holds the whole
        // input: the call numbers restart.
        std::string all;
        for (const std::string& line : *output) all += line;
        EXPECT_NE(all.find(spec->combine ? "#1;" : "#1,"), std::string::npos);
        EXPECT_EQ(all.find("#" + std::to_string(input.size())),
                  std::string::npos);
        first_output = *output;
        first_metrics = run.metrics;
        continue;
      }
      EXPECT_TRUE(*output == first_output);
      ExpectSameJobMetrics(run.metrics, first_metrics);
    }
  }
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
