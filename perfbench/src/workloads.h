// The four workloads. Each sets itself up (timed as setup_s), measures
// for Options::seconds, checks every answer against the oracle, and fills
// a Report: end-to-end metrics in the plain run, per-layer metrics in the
// traced run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Closed loop, one caller: the paper's B0-B6 x engine grid via Exec.
Report RunSweep(const Options& options);
/// Closed loop, one unix connection: never-seen ad-hoc SPARQL, engine auto.
Report RunExplore(const Options& options);
/// Open loop at a ladder of rates: warm result-cache hits.
Report RunDashboard(const Options& options);
/// Open loop at one rate while the dataset is re-indexed and reloaded.
Report RunRefresh(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
