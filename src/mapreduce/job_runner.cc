#include "mapreduce/job_runner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace rdfmr {

namespace {

struct ShuffleRecord {
  std::string key;
  std::string value;
  uint64_t seq;  // preserves map emission order for stable grouping
};

// One per-block map task: a contiguous line range of one input, mirroring
// an HDFS input split (a record belongs to the block containing its first
// byte, so the task count per input never exceeds SimDfs::BlockCount).
struct MapTask {
  size_t input_index = 0;
  size_t begin = 0;  // first line (inclusive)
  size_t end = 0;    // last line (exclusive)
};

// Private output of one map task, merged deterministically at the phase
// barrier: emissions in emission order, counters into the job counters.
struct MapTaskOutput {
  std::vector<std::pair<std::string, std::string>> emits;
  Counters counters;
};

// Private output of one reducer partition.
struct ReduceTaskOutput {
  std::vector<std::string> records;
  Counters counters;
  uint64_t groups = 0;
};

void MergeCounters(Counters* into, const Counters& from) {
  for (const auto& [name, value] : from) (*into)[name] += value;
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

// Runs fn(i) for i in [0, n) — concurrently when a pool is supplied,
// inline otherwise.
void ForEachTask(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

// Executes one map task against its line range: either plain mapping or
// the per-task combiner path (buffer -> combine per key -> emit), exactly
// the Hadoop combiner scope.
//
// `selected` (nullable) is the input's resolved vertical-partition hint:
// ascending indices of the lines whose property the mapper can act on.
// When set (mapped inputs only), the task feeds the mapper just the
// selected lines inside its range — legal because the compiler guarantees
// the mapper no-ops on every skipped line, so emissions and counters are
// byte-identical to the full scan.
void RunMapTask(const JobSpec& spec, const MapTask& task,
                const SimDfs::ScanHandle& scan,
                const std::vector<uint64_t>* selected, bool map_only,
                MapTaskOutput* out) {
  const MapFn& map = spec.inputs[task.input_index].map;
  std::string scratch;
  const auto for_each_record = [&](const MapEmit& emit) {
    if (selected == nullptr) {
      for (size_t i = task.begin; i < task.end; ++i) {
        map(scan.LineRef(i, &scratch), emit, &out->counters);
      }
      return;
    }
    auto it = std::lower_bound(selected->begin(), selected->end(),
                               static_cast<uint64_t>(task.begin));
    for (; it != selected->end() && *it < task.end; ++it) {
      map(scan.LineRef(*it, &scratch), emit, &out->counters);
    }
  };
  if (spec.combine == nullptr || map_only) {
    MapEmit emit = [out](std::string key, std::string value) {
      out->emits.emplace_back(std::move(key), std::move(value));
    };
    for_each_record(emit);
    return;
  }
  // Combiner path: buffer this task's output, combine per key, then hand
  // the combined pairs on (insertion order preserved).
  std::map<std::string, std::vector<std::string>> task_output;
  std::vector<std::string> key_order;
  MapEmit emit = [&](std::string key, std::string value) {
    out->counters["combine_input_records"] += 1;
    auto [it, inserted] = task_output.try_emplace(std::move(key));
    if (inserted) key_order.push_back(it->first);
    it->second.push_back(std::move(value));
  };
  for_each_record(emit);
  for (const std::string& key : key_order) {
    std::vector<std::string> combined =
        spec.combine(key, task_output.at(key), &out->counters);
    for (std::string& value : combined) {
      out->emits.emplace_back(key, std::move(value));
    }
  }
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
  ThreadPool* pool = options.pool;
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
  int num_reducers = spec.num_reducers > 0
                         ? spec.num_reducers
                         : static_cast<int>(dfs->config().num_reducers);
  RDFMR_CHECK(num_reducers > 0);

  // ---- Map phase -------------------------------------------------------
  // Open the inputs for scanning (metered, on the calling thread) and cut
  // each into per-block map tasks; a line belongs to the block holding
  // its first byte, as a Hadoop input split would. Task structure and
  // input metering always cover the FULL file — a vertical-partition
  // hint prunes which lines reach the mapper, never what the job reads.
  auto map_start = std::chrono::steady_clock::now();
  ScopedSpan map_span(job_ctx, "map");
  const uint64_t block_size = dfs->config().block_size;
  std::vector<SimDfs::ScanHandle> scans(spec.inputs.size());
  // Resolved per-input hints; null = feed every line to the mapper.
  std::vector<std::unique_ptr<std::vector<uint64_t>>> selected(
      spec.inputs.size());
  std::vector<MapTask> tasks;
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

    const uint64_t line_count = scans[in].line_count();
    uint64_t offset = 0;
    uint64_t task_block = 0;
    size_t task_begin = 0;
    for (size_t i = 0; i < line_count; ++i) {
      uint64_t block = offset / block_size;
      if (block != task_block) {
        tasks.push_back(MapTask{in, task_begin, i});
        task_block = block;
        task_begin = i;
      }
      offset += scans[in].LineBytes(i) + 1;
    }
    if (task_begin < line_count) {
      tasks.push_back(MapTask{in, task_begin, line_count});
    }
  }

  std::vector<MapTaskOutput> task_outputs(tasks.size());
  ForEachTask(pool, tasks.size(), [&](size_t t) {
    RunMapTask(spec, tasks[t], scans[tasks[t].input_index],
               selected[tasks[t].input_index].get(), map_only,
               &task_outputs[t]);
  });

  if (tracing) {
    map_span.Attr("tasks", static_cast<uint64_t>(tasks.size()));
    map_span.Attr("input_records", metrics.input_records);
    map_span.Attr("input_bytes", metrics.input_bytes);
    // Operator spans from the map tasks' deterministic counters (extra
    // tracing-only pass; job counters merge unchanged below).
    Counters map_phase_counters;
    for (const MapTaskOutput& out : task_outputs) {
      MergeCounters(&map_phase_counters, out.counters);
    }
    AddOperatorSpans(map_span.context(), map_phase_counters);
  }
  map_span.Close();

  // Barrier reached: merge the per-task buffers in (input, block) order —
  // the exact emission order of a sequential run — assigning shuffle
  // sequence numbers and metering the shuffle volume. Map-only emissions
  // go straight to the output buffer and are metered separately (they
  // never cross a shuffle).
  ScopedSpan shuffle_span(job_ctx, "shuffle");
  std::vector<std::vector<ShuffleRecord>> partitions(
      map_only ? 1 : static_cast<size_t>(num_reducers));
  std::vector<std::string> map_only_output;
  uint64_t seq = 0;
  for (MapTaskOutput& out : task_outputs) {
    for (auto& [key, value] : out.emits) {
      if (map_only) {
        metrics.map_direct_output_records += 1;
        metrics.map_direct_output_bytes += value.size() + 1;
        map_only_output.push_back(std::move(value));
      } else {
        metrics.map_output_records += 1;
        metrics.map_output_bytes += key.size() + value.size() + 2;
        size_t p = static_cast<size_t>(Fnv1a64(key) %
                                       static_cast<uint64_t>(num_reducers));
        partitions[p].push_back(
            ShuffleRecord{std::move(key), std::move(value), seq++});
      }
    }
    MergeCounters(&metrics.counters, out.counters);
  }
  scans.clear();
  selected.clear();
  task_outputs.clear();
  metrics.map_seconds = SecondsSince(map_start);
  if (tracing) {
    if (map_only) {
      shuffle_span.Attr("direct_records", metrics.map_direct_output_records);
      shuffle_span.Attr("direct_bytes", metrics.map_direct_output_bytes);
    } else {
      shuffle_span.Attr("partitions", static_cast<uint64_t>(num_reducers));
      shuffle_span.Attr("shuffle_records", metrics.map_output_records);
      shuffle_span.Attr("shuffle_bytes", metrics.map_output_bytes);
    }
  }
  shuffle_span.Close();

  // ---- Shuffle + reduce phase -------------------------------------------
  std::vector<std::string> output;
  if (map_only) {
    output = std::move(map_only_output);
  } else {
    // Per-partition stable sort, all partitions concurrently.
    auto sort_start = std::chrono::steady_clock::now();
    ScopedSpan sort_span(job_ctx, "sort");
    sort_span.Attr("partitions", static_cast<uint64_t>(num_reducers));
    ForEachTask(pool, partitions.size(), [&](size_t p) {
      std::vector<ShuffleRecord>& part = partitions[p];
      // Secondary sort: by key, ties broken by emission order (stable).
      std::sort(part.begin(), part.end(),
                [](const ShuffleRecord& a, const ShuffleRecord& b) {
                  if (a.key != b.key) return a.key < b.key;
                  return a.seq < b.seq;
                });
    });
    sort_span.Close();
    metrics.shuffle_sort_seconds = SecondsSince(sort_start);

    // Per-partition reduce with private output buffers and counters,
    // merged in partition order behind the barrier — the sequential
    // partition-loop order.
    auto reduce_start = std::chrono::steady_clock::now();
    ScopedSpan reduce_span(job_ctx, "reduce");
    std::vector<ReduceTaskOutput> reduce_outputs(partitions.size());
    ForEachTask(pool, partitions.size(), [&](size_t p) {
      std::vector<ShuffleRecord>& part = partitions[p];
      ReduceTaskOutput& out = reduce_outputs[p];
      RecordEmit emit = [&out](std::string record) {
        out.records.push_back(std::move(record));
      };
      size_t i = 0;
      while (i < part.size()) {
        size_t j = i;
        std::vector<std::string> values;
        while (j < part.size() && part[j].key == part[i].key) {
          values.push_back(std::move(part[j].value));
          ++j;
        }
        out.groups += 1;
        spec.reduce(part[i].key, values, emit, &out.counters);
        i = j;
      }
      part.clear();
      part.shrink_to_fit();
    });
    Counters reduce_phase_counters;
    for (ReduceTaskOutput& out : reduce_outputs) {
      metrics.reduce_input_groups += out.groups;
      for (std::string& record : out.records) {
        output.push_back(std::move(record));
      }
      MergeCounters(&metrics.counters, out.counters);
      if (tracing) MergeCounters(&reduce_phase_counters, out.counters);
    }
    if (tracing) {
      reduce_span.Attr("groups", metrics.reduce_input_groups);
      AddOperatorSpans(reduce_span.context(), reduce_phase_counters);
    }
    reduce_span.Close();
    metrics.reduce_seconds = SecondsSince(reduce_start);
  }

  // ---- Output materialization --------------------------------------------
  ScopedSpan write_span(job_ctx, "write");
  metrics.output_records = output.size();
  for (const std::string& line : output) {
    metrics.output_bytes += line.size() + 1;
  }
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
