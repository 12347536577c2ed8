// Executes a single MapReduce job against a SimDfs instance.

#ifndef RDFMR_MAPREDUCE_JOB_RUNNER_H_
#define RDFMR_MAPREDUCE_JOB_RUNNER_H_

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "dfs/sim_dfs.h"
#include "mapreduce/job.h"

namespace rdfmr {

/// \brief Execution knobs + observability sink for one job run.
struct JobRunOptions {
  /// Runs map chunks, combine items and reducer partitions; null runs them
  /// inline on a one-thread pool (the runtime guarantees byte-identical
  /// output and metrics either way).
  ThreadPool* pool = nullptr;

  /// Total attempts per DFS task operation for transient failures; 0
  /// defers to ClusterConfig::max_task_attempts, 1 disables retry.
  uint32_t max_attempts = 0;

  /// Span sink: when enabled, the runner opens a "job" span with
  /// map/shuffle/sort/reduce/write phase children (operator spans are
  /// synthesized beneath map/reduce from `op.`-prefixed counters). The
  /// default disabled context costs one pointer compare per phase.
  RunContext ctx;
};

/// \brief Outcome of RunJob: status plus metrics that are *always*
/// populated — complete on success, partial on failure (in particular the
/// retry accounting of an exhausted op, which workflow totals must keep).
struct JobRunResult {
  Status status;
  JobMetrics metrics;

  bool ok() const { return status.ok(); }
};

/// \brief Runs `spec` to completion on `dfs`.
///
/// Phases: scan inputs (metered reads) -> map -> hash-partition by
/// Fnv1a64(key) % R -> per-partition stable sort by key -> reduce ->
/// write output (can fail with kOutOfSpace, which is how the paper's
/// failed executions arise).
///
/// The block is the simulated task; the chunk is the host's unit of work.
/// The map phase is decomposed into one task per HDFS block of each input
/// (the same granularity SimDfs::BlockCount reports): the map span's
/// `tasks` attribute counts them, and the combiner runs once per task.
/// Each task is cut into host chunks of a fixed budget of the bytes its
/// mapper sees, at every thread count, and chunks run concurrently on
/// `options.pool`. Each chunk puts its emissions straight into private
/// per-partition slices, each metering its records and bytes. A combiner
/// job then combines each (task, partition) once, its slices gathered in
/// chunk order and stable-sorted by key; a key lives in one partition, so
/// this is the per-task combine. Each reducer partition gathers its
/// slices in chunk order —
/// (input, block) task order, the sequential emission order — and
/// stable-sorts them by key; partitions sort and reduce concurrently and
/// their output is concatenated in partition order. Output and every
/// metric except the wall-clock *_seconds fields are therefore
/// byte-identical to the sequential run. The same discipline covers
/// spans: they are opened only on the calling thread, so span structure
/// and non-time attributes are byte-identical across thread counts.
///
/// Fault tolerance: transient DFS failures (kIoError, kUnavailable — the
/// kinds a FaultPlan injects) are re-attempted up to
/// `options.max_attempts` total attempts per read/write, Hadoop-attempt
/// style. Retries are accounted in the metrics' task_attempts /
/// tasks_retried / wasted_bytes / retry_backoff_seconds and never perturb
/// any other metric, so a recovered run is byte-identical to a fault-free
/// run everywhere else. kOutOfSpace and semantic errors are never
/// retried. Output writes are re-attempted only while a FaultPlan is
/// installed, the only source of transient write failures.
JobRunResult RunJob(SimDfs* dfs, const JobSpec& spec,
                    const JobRunOptions& options);

}  // namespace rdfmr

#endif  // RDFMR_MAPREDUCE_JOB_RUNNER_H_
