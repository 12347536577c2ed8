// Per-layer attribution for the traced run. The benchmark wraps each call
// into the system in its own span, hangs the program's RunContext tree
// (query -> mr_cycle -> job -> map/shuffle/sort/reduce/write) under it,
// and replays the compiled plan outside the timed section to measure the
// work Exec does after its `query` span closes (answer decode and the
// redundancy re-scan), which no program span covers.

#ifndef PERFBENCH_ATTRIBUTION_H_
#define PERFBENCH_ATTRIBUTION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"
#include "dfs/sim_dfs.h"
#include "engine/engine.h"
#include "harness.h"

namespace perfbench {

/// \brief What one traced Exec cost, layer by layer.
struct ExecAttribution {
  double wall_ms = 0.0;      ///< the benchmark's span around Exec
  double workflow_ms = 0.0;  ///< the program's `query` span
  /// Self time of the map, shuffle, sort, reduce and write spans.
  double phase_ms[5] = {0, 0, 0, 0, 0};
  uint64_t records_in = 0;
  uint64_t records_shuffled = 0;
  /// Replayed outside the timed section (0 when not replayed).
  double compile_ms = 0.0;
  double decode_ms = 0.0;
  double redundancy_ms = 0.0;
  bool replayed = false;
  bool relational = false;
  uint64_t answers = 0;
  /// Share of wall_ms covered by measured spans (workflow plus the
  /// replayed compile/decode/redundancy estimates).
  double coverage = 0.0;
};

/// \brief Runs Exec under a `span_name` span on `trace`'s root; when
/// `replay` is set, then compiles and re-runs the plan outside that span
/// to time compile, decode and the redundancy scans, and adds those as
/// estimate spans inside the request span's pre- and post-run gaps.
rdfmr::Result<rdfmr::ExecResult> TracedExec(
    rdfmr::SimDfs* dfs, const std::string& base,
    const rdfmr::ExecRequest& request, const rdfmr::EngineOptions& options,
    rdfmr::Trace* trace, const char* span_name, bool replay,
    ExecAttribution* out);

/// \brief Appends a closed span with explicit timing under `parent`.
rdfmr::TraceSpan* AddSpan(rdfmr::TraceSpan* parent, const std::string& name,
                          int64_t start_micros, int64_t duration_micros);

/// \brief Sums of ExecAttribution over a traced window.
class LayerAccounts {
 public:
  void Add(const ExecAttribution& sample);
  size_t count() const { return samples_.size(); }
  /// Fills mapreduce.*, relational.workflow_ms, engine.compile_ms,
  /// engine.post_run_*, engine.redundancy_ms, query.decode_ms,
  /// query.answers_per_query and bench.trace_coverage.
  void Emit(Report* report) const;

 private:
  std::vector<ExecAttribution> samples_;
};

/// \brief Process-wide NTGA operator histograms (rdfmr_ntga_*_micros and
/// the beta_unnest output counter), read as a delta over a window.
class NtgaProbe {
 public:
  NtgaProbe();  ///< snapshots now
  /// Emits ntga.*_ms and ntga.beta_unnest_outputs per execution.
  void Emit(uint64_t executions, Report* report) const;

 private:
  std::map<std::string, double> start_;
};

/// \brief Writes the Chrome trace and prints/writes the self-time table:
/// per span name, its layer, count, total and self milliseconds.
void WriteTraceOutputs(const rdfmr::Trace& trace, const std::string& path_stem);

}  // namespace perfbench

#endif  // PERFBENCH_ATTRIBUTION_H_
