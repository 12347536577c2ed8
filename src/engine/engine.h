// Unified query execution façade: compiles a query for a chosen engine
// (Pig-style, Hive-style, or NTGA with an unnesting strategy), runs the MR
// workflow on a simulated cluster, and collects every metric the paper's
// evaluation reports.

#ifndef RDFMR_ENGINE_ENGINE_H_
#define RDFMR_ENGINE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dfs/sim_dfs.h"
#include "engine/compiled_plan.h"
#include "mapreduce/workflow.h"
#include "ntga/logical_plan.h"
#include "ntga/ntga_compiler.h"
#include "query/aggregate.h"
#include "query/pattern.h"
#include "query/solution.h"
#include "rdf/graph_stats.h"
#include "relational/rel_compiler.h"

namespace rdfmr {

/// \brief The systems compared in the paper's evaluation, plus kAuto:
/// cost-based selection among them by the plan chooser.
enum class EngineKind {
  kPig,              ///< relational, per-operand scans, flat n-tuples
  kHive,             ///< relational, shared scan per cycle, flat n-tuples
  kNtgaEager,        ///< NTGA, β-unnest at the star-join (grouping) cycle
  kNtgaLazyFull,     ///< NTGA, full β-unnest at the join's map phase
  kNtgaLazyPartial,  ///< NTGA, partial β-unnest (φ_m) at the join's map phase
  kNtgaLazy,         ///< NTGA, the paper's LazyUnnest policy (auto choice)
  kAuto,             ///< pick the modeled-cheapest of the above per query
};

const char* EngineKindToString(EngineKind kind);

/// \brief Parses the CLI / wire-protocol engine names
/// (pig|hive|eager|lazyfull|lazypartial|lazy|auto).
Result<EngineKind> EngineKindFromString(const std::string& name);

/// \brief What the engine does when the plan chooser's row for the engine
/// that will run projects an intermediate footprint that does not fit the
/// cluster.
enum class DiskPressurePolicy {
  /// No preflight: run and let the workflow die mid-flight with
  /// kOutOfSpace, exactly the paper's Fig 9(a) failed executions.
  kNone,
  /// Pre-emptively switch an Eager plan to Lazy (partial β-unnest) when
  /// the lazy projection fits; otherwise fail fast like kFailFast.
  kDegrade,
  /// Refuse to launch: return a measured kResourceExhausted failure
  /// without burning any MR cycle.
  kFailFast,
};

struct EngineOptions {
  EngineKind kind = EngineKind::kNtgaLazy;
  /// φ_m partition count for TG_OptUnbJoin.
  uint32_t phi_partitions = 1024;
  /// Relational grouping variant (Fig. 3 case study).
  RelationalGrouping grouping = RelationalGrouping::kStarPerCycle;
  /// Decode the final output into a solution set (verification; the
  /// decode cost is NOT charged to the engine's metrics).
  bool decode_answers = true;
  /// Host-side runtime knobs (thread count, retry budget), resolved via
  /// the RuntimeOptions precedence rule: CLI flag > RDFMR_THREADS /
  /// RDFMR_MAX_ATTEMPTS env > this struct > ClusterConfig default.
  /// Outputs and all byte/record metrics are byte-identical for any
  /// thread count — only real wall time changes; max_attempts affects
  /// retry accounting only (recovered runs stay byte-identical to
  /// fault-free runs everywhere else).
  RuntimeOptions runtime;
  /// Disk-pressure preflight policy (see DiskPressurePolicy). Applies to
  /// every payload: the chooser projects single, batch and union payloads
  /// alike before any job launches.
  DiskPressurePolicy disk_pressure = DiskPressurePolicy::kNone;
  /// Cost model for the modeled execution time.
  CostModelConfig cost;
};

/// \brief One scored row of the kAuto plan chooser's candidate table.
struct PlanCandidate {
  EngineKind kind = EngineKind::kNtgaLazy;
  /// Projected execution time under the calibrated cost model, summed
  /// over the candidate's planned MR cycles.
  double modeled_seconds = 0.0;
  size_t planned_cycles = 0;
  /// Advisor prediction of the candidate's star-join phase output.
  uint64_t star_bytes = 0;
  /// Projected physical peak DFS footprint (incl. existing usage).
  uint64_t peak_bytes = 0;
  bool fits = true;      ///< peak within cluster capacity
  bool feasible = true;  ///< the engine can run this payload at all
  bool chosen = false;
  std::string note;  ///< infeasibility / rejection reason, if any
};

/// \brief Everything the paper's figures report about one execution.
struct ExecStats {
  std::string engine;
  std::string query;
  Status status;              ///< non-OK == the figures' failed runs ('X')
  int failed_job_index = -1;

  size_t mr_cycles = 0;       ///< jobs completed (planned cycles if failed)
  size_t planned_cycles = 0;  ///< length of the compiled workflow
  uint32_t full_scans = 0;    ///< scans of the base triple relation
  uint64_t hdfs_read_bytes = 0;
  uint64_t hdfs_write_bytes = 0;             ///< logical
  uint64_t hdfs_write_bytes_replicated = 0;  ///< physical incl. replicas
  uint64_t shuffle_bytes = 0;                ///< map output volume
  uint64_t star_phase_write_bytes = 0;  ///< output of the star-join phase
  uint64_t intermediate_write_bytes = 0;  ///< all writes minus final output
  uint64_t final_output_bytes = 0;
  uint64_t peak_dfs_used_bytes = 0;
  /// Redundancy factor of the star-join phase output: fraction of its
  /// bytes in excess of the nested triplegroup footprint of the same
  /// content. Meaningful for flat relational intermediates; exactly 0 for
  /// the NTGA engines, whose output is that nested representation.
  double redundancy_factor = 0.0;
  /// Same measure over the final output (the paper's C4 numbers report
  /// both: 0.93 at the star-join phase growing to 0.98 in the final
  /// Pig/Hive output).
  double final_redundancy_factor = 0.0;
  double modeled_seconds = 0.0;
  /// Real (host) wall-clock seconds the simulator spent per MR phase,
  /// summed over jobs — perf attribution for the runtime itself, NOT a
  /// simulated quantity (and the one part of ExecStats that is not
  /// deterministic across runs or thread counts).
  double map_seconds = 0.0;
  double shuffle_sort_seconds = 0.0;
  double reduce_seconds = 0.0;
  /// Fault-tolerance accounting over all jobs (see JobMetrics): zero on a
  /// fault-free run, deterministic given a FaultPlan, and excluded from
  /// the byte-identical-stats contract so a recovered run still matches
  /// the fault-free stats everywhere else.
  uint64_t task_attempts = 0;
  uint64_t tasks_retried = 0;
  uint64_t wasted_bytes = 0;
  double retry_backoff_seconds = 0.0;
  /// Engine the run was degraded away from by the disk-pressure preflight
  /// ("EagerUnnest" after an Eager→Lazy switch); empty when no
  /// degradation happened.
  std::string degraded_from;
  /// Human-readable outcome of the disk-pressure preflight; empty when
  /// the policy is kNone.
  std::string preflight;
  /// Engine the plan chooser selected when the request asked for
  /// EngineKind::kAuto (same value as `engine`); empty on explicit-engine
  /// runs. Like degraded_from/preflight, the chooser fields are outside
  /// the byte-identical-stats contract: an auto run matches its concrete
  /// engine everywhere else.
  std::string chosen_engine;
  /// The chooser's full scored candidate table (kAuto runs only).
  std::vector<PlanCandidate> plan_candidates;
  /// One-line decision rationale (kAuto runs only).
  std::string plan_rationale;
  Counters counters;
  std::vector<JobMetrics> jobs;

  bool ok() const { return status.ok(); }
};

// ---- The execution entry point ---------------------------------------------
//
// Exec is the only way a query runs: the CLI, the service, the benches and
// the tests all build an ExecRequest. Each run compiles its plan afresh
// under its own temporary prefix (the paper's engines likewise compile one
// MR workflow per query).

/// \brief Payload shape of an ExecRequest.
enum class ExecPayload {
  /// One query, optionally with a COUNT/GROUP BY/HAVING constraint
  /// appended as one extra MR cycle (the paper's "unbound-property queries
  /// with aggregation constraints" future direction). The aggregation
  /// cycle reads the engine's final output in its native representation:
  /// the NTGA engines feed it nested triplegroups, whose combinations the
  /// mapper expands in flight, shipping only (group key, counted value)
  /// pairs; the relational engines feed it their flat n-tuples. Answers
  /// bind the group variables plus the count.
  kSingle,
  /// Several queries run as ONE NTGA workflow sharing a single scan and a
  /// single subject-grouping cycle (MRShare-style sharing, which the
  /// TripleGroup model gets structurally: γ_S(T) is query-independent).
  /// NTGA engines only; relational engines have no shared grouping to
  /// exploit — run them per query and sum.
  kBatch,
  /// A UNION of conjunctive queries — the shape produced by rewriting
  /// ontological queries (Section 1: such rewritings are a major source of
  /// unbound-property subqueries) — run as one shared-scan batch whose
  /// answer files decode into one table.
  kUnion,
};

/// \brief A complete execution request: what to run, in which shape.
struct ExecRequest {
  ExecPayload payload = ExecPayload::kSingle;
  /// The query (kSingle). Ignored for batch/union payloads.
  std::shared_ptr<const GraphPatternQuery> query;
  /// Optional COUNT/GROUP BY/HAVING cycle (kSingle only).
  std::optional<AggregateSpec> aggregate;
  /// The member queries (kBatch / kUnion). Ignored for kSingle.
  std::vector<std::shared_ptr<const GraphPatternQuery>> queries;
  /// Optional precomputed statistics catalog for the base relation, read
  /// by the plan chooser (EngineKind::kAuto and the disk-pressure policy):
  /// when set, candidates are scored against it without scanning the base;
  /// when null, the chooser computes statistics by scanning the base (with
  /// faults suspended).
  std::shared_ptr<const GraphStats> stats;

  /// \brief A kSingle request for `query`, optionally aggregated.
  static ExecRequest Single(
      std::shared_ptr<const GraphPatternQuery> query,
      std::optional<AggregateSpec> aggregate = std::nullopt) {
    ExecRequest request;
    request.query = std::move(query);
    request.aggregate = std::move(aggregate);
    return request;
  }
  /// \brief A kBatch request over `queries`.
  static ExecRequest Batch(
      std::vector<std::shared_ptr<const GraphPatternQuery>> queries) {
    ExecRequest request;
    request.payload = ExecPayload::kBatch;
    request.queries = std::move(queries);
    return request;
  }
  /// \brief A kUnion request over `branches`.
  static ExecRequest Union(
      std::vector<std::shared_ptr<const GraphPatternQuery>> branches) {
    ExecRequest request = Batch(std::move(branches));
    request.payload = ExecPayload::kUnion;
    return request;
  }
};

/// \brief Exec's result: one set of workflow stats, the answers, and (for
/// batch payloads) the per-query answer sets.
struct ExecResult {
  ExecStats stats;
  /// kSingle: the query's answers. kUnion: the union over branches.
  /// kBatch: empty (use per_query).
  SolutionSet answers;
  /// kBatch: aligned with request.queries. Empty otherwise.
  std::vector<SolutionSet> per_query;
};

/// \brief The request checks Exec runs before it touches the DFS: a
/// payload shape with its non-null member(s) and φ_m ≥ 1. InvalidArgument
/// names the first violation.
Status CheckExecRequest(const ExecRequest& request,
                        const EngineOptions& options);

/// \brief The name a run of `request` records in ExecStats.query: the
/// query's name (+"+count" when aggregated), or "batch-of-N"/"union-of-N".
/// `request` must pass CheckExecRequest.
std::string RunName(const ExecRequest& request);

/// \brief Runs `request` against the triple relation at `base_path` on
/// `dfs` using the engine selected in `options` — or, with
/// EngineKind::kAuto, the modeled-cheapest candidate the plan chooser
/// picks; the decision is recorded in stats.chosen_engine /
/// plan_candidates / plan_rationale, and every other stat is
/// byte-identical to running the chosen engine explicitly.
///
/// All temporary DFS state is removed before returning (also on failure),
/// so one SimDfs instance can host an engine-comparison sweep. A run that
/// fails *inside* the workflow (e.g. kOutOfSpace) still returns OK from
/// this function, with the failure recorded in ExecStats — callers
/// distinguish infrastructure errors (non-OK Result) from the measured
/// engine failures the paper plots.
Result<ExecResult> Exec(SimDfs* dfs, const std::string& base_path,
                        const ExecRequest& request,
                        const EngineOptions& options,
                        RunContext ctx = RunContext());

/// \brief Computes the redundancy factor of serialized flat tuples: bytes
/// in excess of one copy of each distinct triple per subject, divided by
/// total bytes. Lines that are not flat tuples contribute no redundancy.
double ComputeRedundancyFactor(const std::vector<std::string>& lines);

// ---- Compilation ----------------------------------------------------------

/// \brief Compiles `request` for the concrete engine in `options`,
/// placing every temporary under `tmp_prefix`: one plan whose
/// final_output_paths hold one answer file per query. A single payload
/// compiles as a batch of one (plus the trailing aggregation cycle when it
/// is aggregated); batch and union payloads compile to one shared-scan
/// workflow (NTGA engines only — see ExecPayload::kBatch). Exec compiles
/// each run this way under its run's fresh prefix, and the plan chooser
/// compiles each candidate this way.
Result<CompiledPlan> CompilePlan(const ExecRequest& request,
                                 const std::string& base_path,
                                 const std::string& tmp_prefix,
                                 const EngineOptions& options);

/// \brief A fixed temporary prefix for compiling a plan outside any run
/// (the chooser's candidate plans, tools that replay a plan by hand).
/// Base relations must not live under it.
inline constexpr const char kPlanTemplatePrefix[] = "tmp/plan-template";

/// \brief CompilePlan of a single payload under kPlanTemplatePrefix;
/// rejects a base relation that lives under that prefix.
Result<CompiledPlan> CompileQueryPlanTemplate(
    std::shared_ptr<const GraphPatternQuery> query,
    const std::string& base_path,
    const std::optional<AggregateSpec>& aggregate,
    const EngineOptions& options);

}  // namespace rdfmr

#endif  // RDFMR_ENGINE_ENGINE_H_
