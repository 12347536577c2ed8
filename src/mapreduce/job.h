// MapReduce job specification and metrics.
//
// A job reads one or more DFS input files (each with its own map function —
// the Hadoop MultipleInputs idiom, needed by reduce-side joins), shuffles
// (hash partition + sort by key), reduces, and writes one DFS output file.
// Map-only jobs skip the shuffle and write map emissions directly.
//
// Map and reduce functions are std::function objects so plan compilers can
// close over query structure; everything that flows between phases is a
// serialized string, making every byte the simulated cluster moves real.
//
// The closure contract: the runner calls one copy of a job's closure per
// map chunk, combine item (block task x partition) or reduce partition,
// never shared between threads. A closure may keep per-task state
// (readers, walks, hash tables, builders) in `mutable` captures, cleared
// per call; compiled query structure is shared immutably by every copy,
// behind a `std::shared_ptr<const ...>`, so a copy costs a refcount.

#ifndef RDFMR_MAPREDUCE_JOB_H_
#define RDFMR_MAPREDUCE_JOB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace rdfmr {

/// \brief Free-form named counters, akin to Hadoop job counters.
using Counters = std::map<std::string, uint64_t>;

/// \brief Emission callback for map functions: (shuffle key, value).
using MapEmit = std::function<void(std::string key, std::string value)>;

/// \brief Emission callback for reduce / map-only outputs: one record line.
using RecordEmit = std::function<void(std::string record)>;

/// \brief Map function: one input record -> zero or more (key, value).
using MapFn =
    std::function<void(const std::string& record, const MapEmit& emit,
                       Counters* counters)>;

/// \brief Reduce function: (key, all values for key) -> output records.
/// The values arrive in map emission order — (input, block) task order,
/// then each task's emission order — and view the partition's sorted
/// records in place: they stay valid for the call only.
using ReduceFn = std::function<void(
    const std::string& key, std::span<const std::string> values,
    const RecordEmit& emit, Counters* counters)>;

/// \brief Combine function (map-side pre-aggregation, Hadoop combiner):
/// rewrites the values emitted for one key by one map task before they are
/// shuffled. It is called once per key the task emitted, with that key's
/// values in emission order. Must be idempotent and safe to apply to any
/// subset of a key's values (the framework may run it zero or more times).
using CombineFn = std::function<std::vector<std::string>(
    const std::string& key, std::span<const std::string> values,
    Counters* counters)>;

/// \brief One input of a job: a DFS path plus the mapper applied to it.
struct MapInput {
  std::string path;
  MapFn map;
  /// Optional vertical-partition scan hint for mapped (LineSource-backed)
  /// inputs: the set of property terms whose records the mapper can act
  /// on. It must hold ONLY when the mapper provably no-ops (zero
  /// emissions, zero counter changes) on every well-formed record whose
  /// property is outside the set — then a mapped scan may skip those
  /// records without changing any deterministic metric. Scans of the base
  /// relation get it from MakeBaseScan (query/base_scan.h), which derives
  /// it from the same patterns the mapper matches. Null means scan
  /// everything; an empty set means no record matches (pure rescan
  /// accounting). Ignored for materialized inputs.
  std::shared_ptr<const std::vector<std::string>> scan_properties;
};

/// \brief Full specification of one MapReduce job.
struct JobSpec {
  std::string name;
  std::vector<MapInput> inputs;
  /// Null reduce => map-only job; map values become output records.
  ReduceFn reduce;
  /// Optional map-side combiner; applied per block-sized map task before
  /// the shuffle (Hadoop semantics: one combiner scope per map task, not
  /// per input file), so shuffle volume is metered post-combining.
  CombineFn combine;
  std::string output_path;
  /// Optional output demultiplexer (Hadoop MultipleOutputs): maps an output
  /// record to a path suffix; the record is written unchanged to
  /// `output_path + suffix`. Null writes everything to `output_path`.
  std::function<std::string(const std::string& record)> demux;
  /// With demux: full paths that must exist after the job even when no
  /// record routed to them (empty files are created), so downstream jobs
  /// can rely on their inputs existing.
  std::vector<std::string> ensure_outputs;
  /// True if this job scans the full base triple relation through each
  /// listed input (used for the paper's "full scans" metric).
  uint32_t full_scans_of_base = 0;
};

/// \brief Measured I/O of one executed job.
struct JobMetrics {
  std::string job_name;
  uint64_t input_records = 0;
  uint64_t input_bytes = 0;          ///< HDFS bytes read
  /// Shuffle volume: records/bytes entering the (post-combine) shuffle.
  /// Map-only jobs have no shuffle; their emissions are metered in
  /// map_direct_output_* instead and never count here.
  uint64_t map_output_records = 0;
  uint64_t map_output_bytes = 0;     ///< shuffle volume (key+value bytes)
  /// Map-only jobs: records/bytes emitted straight to the output file
  /// (no shuffle, no sort; bytes are as-written, value + newline).
  uint64_t map_direct_output_records = 0;
  uint64_t map_direct_output_bytes = 0;
  uint64_t reduce_input_groups = 0;
  uint64_t output_records = 0;
  uint64_t output_bytes = 0;         ///< logical HDFS bytes written
  uint64_t output_bytes_replicated = 0;  ///< physical incl. replicas
  uint32_t full_scans_of_base = 0;
  /// Real (host) wall-clock seconds per phase of this job's execution —
  /// diagnostic only, NOT deterministic and NOT part of the simulated
  /// cost model. map_seconds covers input scan + map tasks (which
  /// partition and meter their own output) + the counter fold;
  /// shuffle_sort_seconds each partition's gather of its map slices and
  /// its sort; reduce_seconds the reduce calls + output merge.
  double map_seconds = 0.0;
  double shuffle_sort_seconds = 0.0;
  double reduce_seconds = 0.0;
  /// Fault-tolerance accounting, all zero on a fault-free run. These are
  /// deterministic given a FaultPlan, but they are intentionally excluded
  /// from the byte-identical-stats contract: a recovered run matches the
  /// fault-free run on every *other* deterministic metric while these
  /// record what the recovery cost.
  uint64_t task_attempts = 0;   ///< attempts (incl. final) of retried ops
  uint64_t tasks_retried = 0;   ///< DFS ops that needed more than 1 attempt
  uint64_t wasted_bytes = 0;    ///< logical bytes re-processed by retries
  /// Modeled exponential backoff accrued before retries (base * 2^(n-1)
  /// for the n-th failed attempt); never slept, never in modeled_seconds.
  double retry_backoff_seconds = 0.0;
  Counters counters;

  /// \brief Accumulates `other` into this (for workflow totals).
  void Accumulate(const JobMetrics& other);
};

}  // namespace rdfmr

#endif  // RDFMR_MAPREDUCE_JOB_H_
