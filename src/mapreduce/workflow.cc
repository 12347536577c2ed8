#include "mapreduce/workflow.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "mapreduce/job_runner.h"

namespace rdfmr {

std::string DescribeWorkflow(const WorkflowSpec& spec) {
  std::string out = "workflow '" + spec.name + "' (" +
                    std::to_string(spec.jobs.size()) + " MR cycle(s))\n";
  for (size_t i = 0; i < spec.jobs.size(); ++i) {
    const JobSpec& job = spec.jobs[i];
    out += "  MR" + std::to_string(i + 1) + " " + job.name + ": ";
    for (size_t k = 0; k < job.inputs.size(); ++k) {
      if (k > 0) out += " + ";
      out += job.inputs[k].path;
    }
    out += " -> " + job.output_path;
    if (job.demux != nullptr) out += "<demuxed>";
    if (job.reduce == nullptr) out += "  [map-only]";
    if (job.combine != nullptr) out += "  [combiner]";
    if (job.full_scans_of_base > 0) {
      out += "  [" + std::to_string(job.full_scans_of_base) +
             " full scan(s)]";
    }
    out += "\n";
  }
  if (!spec.final_output_path.empty()) {
    out += "  final: " + spec.final_output_path + "\n";
  }
  return out;
}

WorkflowResult RunWorkflow(SimDfs* dfs, const WorkflowSpec& spec,
                           const WorkflowRunOptions& options) {
  WorkflowResult result;
  result.peak_dfs_used_bytes = dfs->UsedBytes();

  // One pool for the whole workflow, the caller's if it passed one; with
  // one thread no workers are spawned and every job runs inline on this
  // thread.
  std::unique_ptr<ThreadPool> own_pool;
  if (options.pool == nullptr) {
    own_pool = std::make_unique<ThreadPool>(
        ResolveNumThreads(options.runtime, dfs->config().num_threads));
  }
  ThreadPool* pool = options.pool != nullptr ? options.pool : own_pool.get();
  uint32_t max_attempts =
      ResolveMaxAttempts(options.runtime, dfs->config().max_task_attempts);

  for (size_t i = 0; i < spec.jobs.size(); ++i) {
    const JobSpec& job = spec.jobs[i];
    RDFMR_LOG(Info) << "workflow '" << spec.name << "': running job "
                    << (i + 1) << "/" << spec.jobs.size() << " '" << job.name
                    << "'";
    ScopedSpan cycle_span(options.ctx, "mr_cycle");
    cycle_span.Attr("cycle", static_cast<uint64_t>(i + 1));
    cycle_span.Attr("job", job.name);
    JobRunOptions job_options;
    job_options.pool = pool;
    job_options.max_attempts = max_attempts;
    job_options.ctx = cycle_span.context();
    JobRunResult run = RunJob(dfs, job, job_options);
    if (!run.ok()) {
      result.status =
          run.status.WithContext("workflow '" + spec.name + "'");
      result.failed_job_index = static_cast<int>(i);
      // The failed job's retry accounting (attempts burned before
      // exhaustion) must stay visible in the totals; its other metrics are
      // partial and are deliberately dropped.
      result.totals.task_attempts += run.metrics.task_attempts;
      result.totals.tasks_retried += run.metrics.tasks_retried;
      result.totals.wasted_bytes += run.metrics.wasted_bytes;
      result.totals.retry_backoff_seconds +=
          run.metrics.retry_backoff_seconds;
      break;
    }
    result.job_metrics.push_back(std::move(run.metrics));
    result.totals.Accumulate(result.job_metrics.back());
    result.peak_dfs_used_bytes =
        std::max(result.peak_dfs_used_bytes, dfs->UsedBytes());
  }

  result.modeled_seconds =
      ModelWorkflowSeconds(result.job_metrics, dfs->config(), options.cost);

  // Clean up intermediates (and any partial final output on failure) so the
  // DFS can be reused by the next engine under test.
  for (const std::string& path : spec.intermediate_paths) {
    if (dfs->Exists(path)) {
      Status st = dfs->DeleteFile(path);
      if (!st.ok()) {
        RDFMR_LOG(Warning) << "cleanup failed for " << path << ": "
                           << st.ToString();
      }
    }
  }
  if (!result.ok() && !spec.final_output_path.empty() &&
      dfs->Exists(spec.final_output_path)) {
    (void)dfs->DeleteFile(spec.final_output_path);
  }
  // Demuxed jobs write `output_path + suffix` files whose suffixes are
  // data-dependent, so intermediate_paths cannot list them; sweep them by
  // prefix after a failure (including the failed job itself, which may
  // have materialized some suffix files before running out of space).
  if (!result.ok() && spec.cleanup_demuxed_on_failure) {
    size_t ran_or_failed =
        std::min(spec.jobs.size(),
                 static_cast<size_t>(result.failed_job_index) + 1);
    for (size_t i = 0; i < ran_or_failed; ++i) {
      const JobSpec& job = spec.jobs[i];
      if (job.demux == nullptr) continue;
      for (const std::string& path : dfs->ListFiles()) {
        if (StartsWith(path, job.output_path)) {
          (void)dfs->DeleteFile(path);
        }
      }
      for (const std::string& path : job.ensure_outputs) {
        if (dfs->Exists(path)) (void)dfs->DeleteFile(path);
      }
    }
  }
  return result;
}

}  // namespace rdfmr
