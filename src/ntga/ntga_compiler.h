// Physical NTGA plan compiler: turns the rewritten logical plan into a
// MapReduce workflow over the simulated cluster.
//
// One compiler serves one query and a batch alike: a single query is a
// batch of one.
//
// Physical operators (Algorithms 1-3 of the paper):
//  * Job 1, "TG_GroupBy + TG_(Unb)GrpFilter": ONE cycle computes every star
//    subpattern of every query — map tags triples by subject, reduce
//    assembles subject triplegroups, applies each query's disjunctive (β)
//    group-filter, and (eager strategy only) β-unnests. Output is demuxed
//    into one file per equivalence class.
//  * Job 2..k, "TG_Join / TG_UnbJoin / TG_OptUnbJoin": one cycle per star
//    join. TG_UnbJoin β-unnests at the map side when the join key is an
//    unbound pattern's object; TG_OptUnbJoin partially β-unnests with φ_m,
//    shuffles by partition key, and completes the unnest at the reduce side
//    with a per-partition hash join.

#ifndef RDFMR_NTGA_NTGA_COMPILER_H_
#define RDFMR_NTGA_NTGA_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/compiled_plan.h"
#include "ntga/logical_plan.h"
#include "query/pattern.h"

namespace rdfmr {

struct NtgaOptions {
  NtgaStrategy strategy = NtgaStrategy::kLazyAuto;
  /// φ_m partition count for TG_OptUnbJoin (paper uses φ_1K).
  uint32_t phi_partitions = 1024;
};

/// \brief Compiles `queries` into one NTGA MR workflow reading the triple
/// relation at `base_path`; intermediates go under `tmp_prefix`.
///
/// This is the only NTGA compiler, and a single query is a batch of one.
/// γ_S(T) does not depend on the query, so every query of the list shares
/// the one grouping cycle (MRShare-style sharing, which NTGA gets
/// structurally); each query then runs its own join cycles. Star ids are
/// global over the list, so the one `decoder` serves every query's answer
/// file (`final_output_paths`, in list order).
///
/// Names follow the number of queries. One query compiles to the plain
/// workflow (`tg-group-filter`, `tg-join-…`, `tgjoinN` files) with its
/// answer file also in `workflow.final_output_path`. Two or more mark the
/// shared cycle `tg-group-filter-shared` and prefix each query's join
/// cycles and files with `qN-`.
Result<CompiledPlan> CompileNtgaPlan(
    const std::vector<std::shared_ptr<const GraphPatternQuery>>& queries,
    const std::string& base_path, const std::string& tmp_prefix,
    const NtgaOptions& options);

}  // namespace rdfmr

#endif  // RDFMR_NTGA_NTGA_COMPILER_H_
