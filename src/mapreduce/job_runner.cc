#include "mapreduce/job_runner.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace rdfmr {

namespace {

// The host's unit of map work: a contiguous line range of one input
// holding about kChunkBytes of the bytes its mapper sees. Each chunk has
// its own output, so the pool stays busy even when an input is a single
// block.
struct MapChunk {
  size_t input_index = 0;
  size_t begin = 0;  // first line (inclusive)
  size_t end = 0;    // last line (exclusive)
};

// The simulated unit of map work: one per-block map task, mirroring an
// HDFS input split (a record belongs to the block containing its first
// byte, so the task count per input never exceeds SimDfs::BlockCount). It
// is a run of consecutive chunks, and it is the combiner's scope.
struct MapTask {
  size_t first_chunk = 0;
  size_t end_chunk = 0;
};

// The chunk budget, in bytes the mapper sees. It is a host setting only:
// no simulated quantity depends on it.
constexpr uint64_t kChunkBytes = 64 << 10;

// Key/value pairs as two parallel columns, so that the values of a run of
// equal keys are one contiguous span, with the records and bytes they are
// metered as.
struct KeyedRecords {
  // Appends the pair, metered as key + value + 2 bytes for a shuffle, or
  // as value + newline for a map-only job, whose records keep no key.
  void Add(std::string key, std::string value, bool map_only) {
    records += 1;
    if (map_only) {
      bytes += value.size() + 1;
    } else {
      bytes += key.size() + value.size() + 2;
      keys.push_back(std::move(key));
    }
    values.push_back(std::move(value));
  }

  // Moves the records of `*from` onto the end of these; `*from` is left
  // empty, its memory freed.
  void Absorb(KeyedRecords* from);

  std::vector<std::string> keys;
  std::vector<std::string> values;
  uint64_t records = 0;
  uint64_t bytes = 0;
};

// Output of one map chunk, partitioned, metered and counted as it is
// emitted: slice p holds the chunk's pairs for reduce partition p in
// emission order. A map-only chunk has one slice.
struct MapTaskOutput {
  MapTaskOutput(size_t num_partitions, bool map_only)
      : slices(num_partitions), map_only(map_only) {}

  void Add(std::string key, std::string value) {
    const size_t p =
        map_only ? 0 : static_cast<size_t>(Fnv1a64(key) % slices.size());
    slices[p].Add(std::move(key), std::move(value), map_only);
  }

  std::vector<KeyedRecords> slices;
  bool map_only;
  Counters counters;
};

// Private output of one reducer partition.
struct ReduceTaskOutput {
  std::vector<std::string> records;
  uint64_t bytes = 0;
  Counters counters;
  uint64_t groups = 0;
};

void MergeCounters(Counters* into, const Counters& from) {
  for (const auto& [name, value] : from) (*into)[name] += value;
}

// Moves the strings of `from` onto the end of `to`.
void AppendMoved(std::vector<std::string>* to,
                 std::vector<std::string>* from) {
  to->insert(to->end(), std::make_move_iterator(from->begin()),
             std::make_move_iterator(from->end()));
}

void KeyedRecords::Absorb(KeyedRecords* from) {
  AppendMoved(&keys, &from->keys);
  AppendMoved(&values, &from->values);
  records += from->records;
  bytes += from->bytes;
  *from = KeyedRecords();
}

// Orders `records` by key alone. The sort is stable, so each key's values
// keep the order they were gathered in.
void StableSortByKey(KeyedRecords* records) {
  std::vector<size_t> order(records->keys.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const std::vector<std::string>& keys = records->keys;
  std::stable_sort(order.begin(), order.end(),
                   [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  for (std::vector<std::string>* column : {&records->keys, &records->values}) {
    std::vector<std::string> sorted;
    sorted.reserve(order.size());
    for (size_t i : order) sorted.push_back(std::move((*column)[i]));
    *column = std::move(sorted);
  }
}

// Calls fn(key, values) once per run of equal keys of sorted `records`;
// `values` views the run's values in place.
template <typename Fn>
void ForEachKeyRun(const KeyedRecords& records, const Fn& fn) {
  const std::vector<std::string>& keys = records.keys;
  size_t i = 0;
  while (i < keys.size()) {
    size_t j = i + 1;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    fn(keys[i], std::span<const std::string>(records.values).subspan(i, j - i));
    i = j;
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Transient failures are re-attempted; everything else (kOutOfSpace in
// particular, the paper's failure mode) kills the job immediately.
bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kUnavailable;
}

// Shared retry bookkeeping: `failed_attempts` transient failures happened
// before this op's final attempt, which may itself have failed on
// exhaustion — either way the op made failed_attempts + 1 attempts.
void AccountRetries(JobMetrics* metrics, uint32_t failed_attempts,
                    uint64_t op_bytes, double backoff_base) {
  if (failed_attempts == 0) return;
  metrics->tasks_retried += 1;
  metrics->task_attempts += failed_attempts + 1;
  metrics->wasted_bytes += op_bytes * failed_attempts;
  for (uint32_t n = 1; n <= failed_attempts; ++n) {
    metrics->retry_backoff_seconds +=
        backoff_base * static_cast<double>(1ULL << (n - 1));
  }
}

// Opens `path` for scanning, re-attempting transient failures up to
// `max_attempts` total attempts (Hadoop re-runs the whole map attempt, so
// each retry re-reads — and wastes — the full input).
Result<SimDfs::ScanHandle> OpenScanWithRetry(SimDfs* dfs,
                                             const std::string& path,
                                             uint32_t max_attempts,
                                             double backoff_base,
                                             JobMetrics* metrics) {
  uint32_t failed = 0;
  for (;;) {
    auto scan = dfs->OpenScan(path);
    if (scan.ok()) {
      AccountRetries(metrics, failed, scan->total_bytes(), backoff_base);
      return scan;
    }
    if (!IsTransient(scan.status()) || failed + 1 >= max_attempts) {
      AccountRetries(metrics, failed, 0, backoff_base);
      return scan.status();
    }
    ++failed;
  }
}

// Writes `path`, re-attempting transient failures. Retry needs the lines
// kept alive across attempts, so every attempt but the last writes a copy.
// Only a FaultPlan makes a write fail transiently, so without one the
// lines are written once and never copied.
Status WriteWithRetry(SimDfs* dfs, const std::string& path,
                      std::vector<std::string> lines, uint64_t op_bytes,
                      uint32_t max_attempts, double backoff_base,
                      JobMetrics* metrics) {
  const bool may_retry = max_attempts > 1 && dfs->HasFaultPlan();
  uint32_t failed = 0;
  for (;;) {
    const bool last = !may_retry || failed + 1 >= max_attempts;
    Status st = dfs->WriteFile(path, last ? std::move(lines) : lines);
    if (st.ok()) {
      AccountRetries(metrics, failed, op_bytes, backoff_base);
      return st;
    }
    if (last || !IsTransient(st)) {
      AccountRetries(metrics, failed, op_bytes, backoff_base);
      return st;
    }
    ++failed;
  }
}

// Executes one map chunk against its line range with its own instance of
// the input's mapper: its pairs go straight to the chunk's output.
//
// `selected` (nullable) is the input's resolved vertical-partition hint:
// ascending indices of the lines whose property the mapper can act on.
// When set (mapped inputs only), the chunk feeds the mapper just the
// selected lines inside its range — legal because the compiler guarantees
// the mapper no-ops on every skipped line, so emissions and counters are
// byte-identical to the full scan.
void RunMapChunk(MapFn map, const MapChunk& chunk,
                 const SimDfs::ScanHandle& scan,
                 const std::vector<uint64_t>* selected, MapTaskOutput* out) {
  std::string scratch;
  const MapEmit emit = [out](std::string key, std::string value) {
    out->Add(std::move(key), std::move(value));
  };
  if (selected == nullptr) {
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      map(scan.LineRef(i, &scratch), emit, &out->counters);
    }
    return;
  }
  auto it = std::lower_bound(selected->begin(), selected->end(),
                             static_cast<uint64_t>(chunk.begin));
  for (; it != selected->end() && *it < chunk.end; ++it) {
    map(scan.LineRef(*it, &scratch), emit, &out->counters);
  }
}

// Combines partition `p` of one block task, whose chunks' outputs are
// `task`, with its own instance of the combiner: the chunks' slices are
// gathered in chunk order (the task's emission order), stable-sorted by
// key, and each key's values combined once into the first chunk's slice.
// A key lives in one partition, so the task's partitions together combine
// exactly what one combine over the whole block task would.
void CombineTaskPartition(CombineFn combine, std::span<MapTaskOutput> task,
                          size_t p, Counters* counters) {
  KeyedRecords gathered;
  for (MapTaskOutput& chunk : task) gathered.Absorb(&chunk.slices[p]);
  if (gathered.records == 0) return;
  (*counters)["combine_input_records"] += gathered.records;
  StableSortByKey(&gathered);
  KeyedRecords& out = task.front().slices[p];
  ForEachKeyRun(gathered, [&](const std::string& key,
                              std::span<const std::string> values) {
    for (std::string& value : combine(key, values, counters)) {
      out.Add(key, std::move(value), /*map_only=*/false);
    }
  });
}

// Synthesizes operator spans beneath a phase span from `op.`-prefixed
// counters (key convention `op.<operator>.<field>`). Counters merge
// deterministically at phase barriers, so the resulting span structure is
// byte-identical across thread counts; Counters is a sorted map, so the
// operator order is fixed too.
void AddOperatorSpans(const RunContext& phase_ctx, const Counters& counters) {
  std::map<std::string, std::vector<std::pair<std::string, uint64_t>>> ops;
  for (const auto& [key, value] : counters) {
    if (key.rfind("op.", 0) != 0) continue;
    size_t dot = key.find('.', 3);
    if (dot == std::string::npos) continue;
    ops[key.substr(3, dot - 3)].emplace_back(key.substr(dot + 1), value);
  }
  for (const auto& [op, fields] : ops) {
    ScopedSpan span(phase_ctx, op);
    for (const auto& [field, value] : fields) span.Attr(field, value);
  }
}

}  // namespace

JobRunResult RunJob(SimDfs* dfs, const JobSpec& spec,
                    const JobRunOptions& options) {
  RDFMR_CHECK(dfs != nullptr);
  JobRunResult run;
  JobMetrics& metrics = run.metrics;
  if (spec.inputs.empty()) {
    run.status =
        Status::InvalidArgument("job '" + spec.name + "' has no inputs");
    return run;
  }
  if (spec.output_path.empty()) {
    run.status =
        Status::InvalidArgument("job '" + spec.name + "' has no output");
    return run;
  }
  // Without a pool, a one-thread pool runs everything inline.
  std::optional<ThreadPool> inline_pool;
  ThreadPool* pool =
      options.pool != nullptr ? options.pool : &inline_pool.emplace(1);
  uint32_t max_attempts = options.max_attempts;
  if (max_attempts == 0) max_attempts = dfs->config().max_task_attempts;
  if (max_attempts == 0) max_attempts = 1;
  const double backoff_base = dfs->config().retry_backoff_seconds;

  ScopedSpan job_span(options.ctx, "job");
  job_span.Attr("job", spec.name);
  const RunContext job_ctx = job_span.context();
  const bool tracing = job_span.enabled();

  metrics.job_name = spec.name;
  metrics.full_scans_of_base = spec.full_scans_of_base;

  const bool map_only = (spec.reduce == nullptr);
  const uint32_t num_reducers = dfs->config().num_reducers;
  RDFMR_CHECK(num_reducers > 0);

  // ---- Map phase -------------------------------------------------------
  // Open the inputs for scanning (metered, on the calling thread) and cut
  // each into per-block map tasks; a line belongs to the block holding
  // its first byte, as a Hadoop input split would. Task structure and
  // input metering always cover the FULL file — a vertical-partition
  // hint prunes which lines reach the mapper, never what the job reads.
  // Each task is cut further into host chunks of about kChunkBytes of the
  // lines its mapper sees (under a hint, the selected lines alone).
  auto map_start = std::chrono::steady_clock::now();
  ScopedSpan map_span(job_ctx, "map");
  const uint64_t block_size = dfs->config().block_size;
  std::vector<SimDfs::ScanHandle> scans(spec.inputs.size());
  // Resolved per-input hints; null = feed every line to the mapper.
  std::vector<std::unique_ptr<std::vector<uint64_t>>> selected(
      spec.inputs.size());
  std::vector<MapTask> tasks;
  std::vector<MapChunk> chunks;
  for (size_t in = 0; in < spec.inputs.size(); ++in) {
    const MapInput& input = spec.inputs[in];
    auto scan = OpenScanWithRetry(dfs, input.path, max_attempts,
                                  backoff_base, &metrics);
    if (!scan.ok()) {
      run.status =
          scan.status().WithContext("job '" + spec.name + "' input");
      return run;
    }
    scans[in] = scan.MoveValueUnsafe();
    metrics.input_records += scans[in].line_count();
    metrics.input_bytes += scans[in].total_bytes();
    if (scans[in].mapped() && input.scan_properties != nullptr) {
      selected[in] = std::make_unique<std::vector<uint64_t>>(
          scans[in].MatchingLines(*input.scan_properties));
    }
    const std::vector<uint64_t>* seen = selected[in].get();

    const uint64_t line_count = scans[in].line_count();
    uint64_t offset = 0;
    uint64_t task_block = 0;
    uint64_t chunk_bytes = 0;
    size_t chunk_begin = 0;
    size_t next_seen = 0;  // the first entry of *seen not below line i
    const auto close_chunk = [&](size_t end) {
      chunks.push_back(MapChunk{in, chunk_begin, end});
      chunk_begin = end;
      chunk_bytes = 0;
    };
    const auto close_task = [&](size_t end) {
      close_chunk(end);
      const size_t first = tasks.empty() ? 0 : tasks.back().end_chunk;
      tasks.push_back(MapTask{first, chunks.size()});
    };
    for (size_t i = 0; i < line_count; ++i) {
      const uint64_t block = offset / block_size;
      if (block != task_block) {
        close_task(i);
        task_block = block;
      } else if (chunk_bytes >= kChunkBytes) {
        close_chunk(i);
      }
      const uint64_t bytes = scans[in].LineBytes(i) + 1;
      offset += bytes;
      if (seen == nullptr) {
        chunk_bytes += bytes;
      } else if (next_seen < seen->size() && (*seen)[next_seen] == i) {
        chunk_bytes += bytes;
        ++next_seen;
      }
    }
    if (chunk_begin < line_count) close_task(line_count);
  }

  // Every chunk maps concurrently into its own output. A combiner job then
  // combines each (block task, partition) once, concurrently, into the
  // task's first chunk's slice, with counters of its own.
  const size_t num_partitions =
      map_only ? 1 : static_cast<size_t>(num_reducers);
  const bool combining = spec.combine != nullptr && !map_only;
  std::vector<MapTaskOutput> chunk_outputs(
      chunks.size(), MapTaskOutput(num_partitions, map_only));
  pool->ParallelFor(chunks.size(), [&](size_t c) {
    const size_t in = chunks[c].input_index;
    RunMapChunk(spec.inputs[in].map, chunks[c], scans[in],
                selected[in].get(), &chunk_outputs[c]);
  });
  scans.clear();
  selected.clear();
  std::vector<Counters> combine_counters(
      combining ? tasks.size() * num_partitions : 0);
  pool->ParallelFor(combine_counters.size(), [&](size_t i) {
    const MapTask& task = tasks[i / num_partitions];
    CombineTaskPartition(
        spec.combine,
        std::span<MapTaskOutput>(chunk_outputs)
            .subspan(task.first_chunk, task.end_chunk - task.first_chunk),
        i % num_partitions, &combine_counters[i]);
  });

  // Barrier reached: the slices carry their own metering, so the map phase
  // only sums them and folds the counters (the job's counters hold the
  // map phase's alone until the reduce fold).
  uint64_t map_records = 0;
  uint64_t map_bytes = 0;
  for (const MapTaskOutput& out : chunk_outputs) {
    for (const KeyedRecords& slice : out.slices) {
      map_records += slice.records;
      map_bytes += slice.bytes;
    }
    MergeCounters(&metrics.counters, out.counters);
  }
  for (const Counters& counters : combine_counters) {
    MergeCounters(&metrics.counters, counters);
  }
  if (map_only) {
    metrics.map_direct_output_records = map_records;
    metrics.map_direct_output_bytes = map_bytes;
  } else {
    metrics.map_output_records = map_records;
    metrics.map_output_bytes = map_bytes;
  }
  if (tracing) {
    map_span.Attr("tasks", static_cast<uint64_t>(tasks.size()));
    map_span.Attr("input_records", metrics.input_records);
    map_span.Attr("input_bytes", metrics.input_bytes);
    AddOperatorSpans(map_span.context(), metrics.counters);
  }
  map_span.Close();
  metrics.map_seconds = SecondsSince(map_start);

  ScopedSpan shuffle_span(job_ctx, "shuffle");
  if (tracing) {
    if (map_only) {
      shuffle_span.Attr("direct_records", map_records);
      shuffle_span.Attr("direct_bytes", map_bytes);
    } else {
      shuffle_span.Attr("partitions", static_cast<uint64_t>(num_reducers));
      shuffle_span.Attr("shuffle_records", map_records);
      shuffle_span.Attr("shuffle_bytes", map_bytes);
    }
  }
  shuffle_span.Close();

  // ---- Shuffle + reduce phase -------------------------------------------
  std::vector<std::string> output;
  if (map_only) {
    // The values in chunk order, which is (input, block) task order: a
    // sequential run's order.
    for (MapTaskOutput& out : chunk_outputs) {
      AppendMoved(&output, &out.slices[0].values);
    }
    chunk_outputs.clear();
    metrics.output_bytes = map_bytes;
  } else {
    // Each partition gathers its slices in chunk order — (input, block)
    // task order, the emission order of a sequential run — and
    // stable-sorts them by key, all partitions concurrently.
    auto sort_start = std::chrono::steady_clock::now();
    ScopedSpan sort_span(job_ctx, "sort");
    sort_span.Attr("partitions", static_cast<uint64_t>(num_reducers));
    std::vector<KeyedRecords> partitions(num_partitions);
    pool->ParallelFor(num_partitions, [&](size_t p) {
      KeyedRecords& part = partitions[p];
      for (MapTaskOutput& out : chunk_outputs) part.Absorb(&out.slices[p]);
      StableSortByKey(&part);
    });
    chunk_outputs.clear();
    sort_span.Close();
    metrics.shuffle_sort_seconds = SecondsSince(sort_start);

    // Per-partition reduce, each partition with its own instance of the
    // reducer and private output buffers and counters, merged in partition
    // order behind the barrier — the sequential partition-loop order.
    auto reduce_start = std::chrono::steady_clock::now();
    ScopedSpan reduce_span(job_ctx, "reduce");
    std::vector<ReduceTaskOutput> reduce_outputs(num_partitions);
    pool->ParallelFor(num_partitions, [&](size_t p) {
      const ReduceFn reduce = spec.reduce;
      ReduceTaskOutput& out = reduce_outputs[p];
      const RecordEmit emit = [&out](std::string record) {
        out.bytes += record.size() + 1;
        out.records.push_back(std::move(record));
      };
      ForEachKeyRun(partitions[p], [&](const std::string& key,
                                       std::span<const std::string> values) {
        out.groups += 1;
        reduce(key, values, emit, &out.counters);
      });
      partitions[p] = KeyedRecords();
    });
    Counters reduce_counters;
    for (ReduceTaskOutput& out : reduce_outputs) {
      metrics.reduce_input_groups += out.groups;
      metrics.output_bytes += out.bytes;
      AppendMoved(&output, &out.records);
      MergeCounters(&reduce_counters, out.counters);
    }
    if (tracing) {
      reduce_span.Attr("groups", metrics.reduce_input_groups);
      AddOperatorSpans(reduce_span.context(), reduce_counters);
    }
    MergeCounters(&metrics.counters, reduce_counters);
    reduce_span.Close();
    metrics.reduce_seconds = SecondsSince(reduce_start);
  }

  // ---- Output materialization --------------------------------------------
  ScopedSpan write_span(job_ctx, "write");
  metrics.output_records = output.size();
  metrics.output_bytes_replicated =
      metrics.output_bytes * dfs->config().replication;
  if (tracing) {
    write_span.Attr("output_records", metrics.output_records);
    write_span.Attr("output_bytes", metrics.output_bytes);
    write_span.Attr("replicated_bytes", metrics.output_bytes_replicated);
  }

  if (spec.demux == nullptr) {
    Status st = WriteWithRetry(dfs, spec.output_path, std::move(output),
                               metrics.output_bytes, max_attempts,
                               backoff_base, &metrics);
    if (!st.ok()) {
      run.status = st.WithContext("job '" + spec.name + "' output");
      return run;
    }
  } else {
    // MultipleOutputs: route records to per-suffix files (stable order).
    std::map<std::string, std::vector<std::string>> demuxed;
    for (std::string& line : output) {
      demuxed[spec.demux(line)].push_back(std::move(line));
    }
    write_span.Attr("demuxed_files", static_cast<uint64_t>(demuxed.size()));
    for (auto& [suffix, lines] : demuxed) {
      uint64_t suffix_bytes = 0;
      for (const std::string& line : lines) suffix_bytes += line.size() + 1;
      Status st = WriteWithRetry(dfs, spec.output_path + suffix,
                                 std::move(lines), suffix_bytes,
                                 max_attempts, backoff_base, &metrics);
      if (!st.ok()) {
        run.status = st.WithContext("job '" + spec.name + "' output");
        return run;
      }
    }
    for (const std::string& path : spec.ensure_outputs) {
      if (!dfs->Exists(path)) {
        Status st = WriteWithRetry(dfs, path, {}, 0, max_attempts,
                                   backoff_base, &metrics);
        if (!st.ok()) {
          run.status = st.WithContext("job '" + spec.name + "' output");
          return run;
        }
      }
    }
  }
  return run;
}

void JobMetrics::Accumulate(const JobMetrics& other) {
  input_records += other.input_records;
  input_bytes += other.input_bytes;
  map_output_records += other.map_output_records;
  map_output_bytes += other.map_output_bytes;
  map_direct_output_records += other.map_direct_output_records;
  map_direct_output_bytes += other.map_direct_output_bytes;
  reduce_input_groups += other.reduce_input_groups;
  output_records += other.output_records;
  output_bytes += other.output_bytes;
  output_bytes_replicated += other.output_bytes_replicated;
  full_scans_of_base += other.full_scans_of_base;
  map_seconds += other.map_seconds;
  shuffle_sort_seconds += other.shuffle_sort_seconds;
  reduce_seconds += other.reduce_seconds;
  task_attempts += other.task_attempts;
  tasks_retried += other.tasks_retried;
  wasted_bytes += other.wasted_bytes;
  retry_backoff_seconds += other.retry_backoff_seconds;
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
}

}  // namespace rdfmr
