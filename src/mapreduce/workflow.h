// Multi-job MapReduce workflows.
//
// A workflow is an ordered list of jobs; later jobs consume earlier jobs'
// outputs. As on a real Hadoop deployment, intermediate outputs stay in the
// DFS until the whole workflow finishes (fault-tolerance materialization) —
// this accumulation is exactly what exhausts disk space for redundant
// relational plans in the paper's failed runs.

#ifndef RDFMR_MAPREDUCE_WORKFLOW_H_
#define RDFMR_MAPREDUCE_WORKFLOW_H_

#include <string>
#include <vector>

#include "common/runtime_options.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "dfs/sim_dfs.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/job.h"

namespace rdfmr {

/// \brief Workflow specification: jobs in execution order plus the paths to
/// clean up afterwards (everything but the final output, typically).
struct WorkflowSpec {
  std::string name;
  std::vector<JobSpec> jobs;
  /// Intermediate DFS paths deleted after the workflow completes or fails.
  std::vector<std::string> intermediate_paths;
  /// Path of the final query answer file.
  std::string final_output_path;
  /// On failure, also delete every file a demuxed job wrote (its
  /// `output_path + suffix` family plus `ensure_outputs`). Demux suffixes
  /// are data-dependent, so `intermediate_paths` cannot enumerate them up
  /// front; without this sweep a failed workflow leaks partial demuxed
  /// outputs into the next run. Callers that scrub a temporary namespace
  /// themselves (e.g. the engine's tmp-prefix cleanup) may disable it to
  /// keep partial outputs observable for post-mortem stats.
  bool cleanup_demuxed_on_failure = true;
};

/// \brief Outcome of executing a workflow.
struct WorkflowResult {
  Status status;                   ///< OK, or the failing job's error
  int failed_job_index = -1;       ///< -1 when status.ok()
  std::vector<JobMetrics> job_metrics;  ///< metrics of completed jobs
  JobMetrics totals;               ///< accumulated over completed jobs
  double modeled_seconds = 0.0;    ///< cost-model time of completed jobs
  uint64_t peak_dfs_used_bytes = 0;  ///< high-water physical DFS usage

  bool ok() const { return status.ok(); }
  size_t num_mr_cycles() const { return job_metrics.size(); }
};

/// \brief Human-readable rendering of a workflow's job graph: one line per
/// job with its inputs, output, and operator hints (used by `rdfmr run
/// --plan` and plan tests).
std::string DescribeWorkflow(const WorkflowSpec& spec);

/// \brief Execution knobs + observability sink for one workflow run.
struct WorkflowRunOptions {
  CostModelConfig cost;

  /// Host-side parallelism and retry budget, resolved against the
  /// cluster config via the RuntimeOptions precedence rule (CLI flag >
  /// RDFMR_THREADS / RDFMR_MAX_ATTEMPTS env > option > config default).
  RuntimeOptions runtime;

  /// The pool every job runs on. Null builds one for the run from
  /// `runtime.num_threads`; a caller that has other work to run on the
  /// same threads (Exec's read-back) passes its own, and then
  /// `runtime.num_threads` is not consulted.
  ThreadPool* pool = nullptr;

  /// Span sink: when enabled, every job runs under an "mr_cycle" span
  /// (attrs: cycle ordinal, job name) whose child is the runner's "job"
  /// span tree. Disabled (default) costs one branch per job.
  RunContext ctx;
};

/// \brief Runs every job in order; stops at the first failure.
///
/// Intermediate paths are removed afterwards in both the success and the
/// failure case (so a failed engine run leaves the DFS reusable for the
/// next engine in a benchmark), but the recorded peak usage reflects the
/// accumulation while the workflow ran.
///
/// `options.pool`, or else `options.runtime.num_threads`, selects the
/// host-side execution parallelism of every job's map and reduce phases.
/// Any value yields
/// byte-identical outputs, metrics, and span structure (only wall times
/// differ) — see RunJob.
///
/// `options.runtime.max_attempts` bounds the per-op attempt count for
/// transient DFS failures in every job; retry accounting lands in the job
/// metrics and totals (a failed job's retry accounting is folded into the
/// totals too). Whenever the workflow succeeds, its outputs and every
/// non-retry, non-wall-time metric are byte-identical to a fault-free run.
WorkflowResult RunWorkflow(
    SimDfs* dfs, const WorkflowSpec& spec,
    const WorkflowRunOptions& options = WorkflowRunOptions());

}  // namespace rdfmr

#endif  // RDFMR_MAPREDUCE_WORKFLOW_H_
