// Cost-based plan chooser behind EngineKind::kAuto.
//
// Scores every candidate engine for one ExecRequest against a per-dataset
// GraphStats catalog: each candidate's plan is compiled (cheap — no DFS
// work) to obtain its exact MR cycle structure, per-cycle I/O volumes are
// projected from the advisor's star-phase predictions plus per-pattern
// property cardinalities, and the calibrated cost model prices the
// resulting synthetic job metrics. The modeled-cheapest candidate whose
// projected footprint fits the cluster wins; a non-fitting plan is never
// selected while a fitting candidate exists. The same table is the only
// place an engine is selected or refused: EngineKind::kAuto takes its pick,
// and a DiskPressurePolicy reads the row of the engine that will run.

#ifndef RDFMR_ENGINE_PLAN_CHOOSER_H_
#define RDFMR_ENGINE_PLAN_CHOOSER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "dfs/cluster_config.h"
#include "dfs/sim_dfs.h"
#include "engine/engine.h"
#include "rdf/graph_stats.h"

namespace rdfmr {

/// \brief The chooser's decision: the engine to run plus the full scored
/// candidate table (recorded in ExecStats and served by the protocol's
/// `explain` verb).
struct PlanChoice {
  EngineKind kind = EngineKind::kNtgaLazy;
  std::vector<PlanCandidate> candidates;
  std::string rationale;
};

/// \brief Scores every candidate engine for `request` and picks the
/// modeled-cheapest plan.
///
/// Deterministic: a pure function of (request queries, stats, base_bytes,
/// used_bytes, cluster, options). Candidates whose projected footprint
/// does not fit the cluster are excluded as long as at least one fitting
/// candidate remains; exact-cost ties break toward the earlier candidate
/// in the fixed order pig|hive|eager|lazy|lazyfull|lazypartial (the
/// paper's adaptive LazyUnnest policy before its fixed variants, so a tie
/// resolves to the engine a caller would get without the chooser).
/// `base_bytes` is the serialized size of the base triple relation and
/// `used_bytes` the DFS usage before the run (for the footprint filter).
///
/// Fails with InvalidArgument when no candidate can run the payload at
/// all (e.g. an empty batch).
Result<PlanChoice> ChoosePlan(const ExecRequest& request,
                              const GraphStats& stats, uint64_t base_bytes,
                              uint64_t used_bytes,
                              const ClusterConfig& cluster,
                              const EngineOptions& options);

/// \brief ChoosePlan for a run of `request` against the base relation at
/// `base_path` on `dfs`: the statistics catalog is `request.stats` when
/// set, otherwise one scan of the base; the base size, the DFS usage and
/// the cluster come from `dfs`. Every read runs with faults suspended —
/// planning is not engine work. Exec (engine selection and the
/// disk-pressure policy), the service and `rdfmr run --explain` all read
/// their candidate table from here.
Result<PlanChoice> ChoosePlanOnDfs(SimDfs* dfs, const std::string& base_path,
                                   const ExecRequest& request,
                                   const EngineOptions& options);

/// \brief Renders a PlanChoice as the human-readable candidate table
/// printed by `rdfmr run --engine auto --explain`.
std::string RenderPlanChoice(const PlanChoice& choice);

}  // namespace rdfmr

#endif  // RDFMR_ENGINE_PLAN_CHOOSER_H_
