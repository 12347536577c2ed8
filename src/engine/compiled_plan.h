// The common output type of all plan compilers (relational and NTGA): an
// executable MapReduce workflow plus the plan's one answer decoder, which
// expands answer records into the canonical answer table.
//
// The decoder exists because engines differ in their *final representation*
// (flat n-tuples vs. nested triplegroups — the paper's LazyUnnest keeps
// results "compact till the end"); answer comparison must not charge that
// expansion to the engine's I/O. It is the only way a record becomes rows,
// for the read-back and the aggregation cycle's mapper alike.

#ifndef RDFMR_ENGINE_COMPILED_PLAN_H_
#define RDFMR_ENGINE_COMPILED_PLAN_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "mapreduce/workflow.h"
#include "query/solution.h"

namespace rdfmr {

/// \brief Expands an engine's final output lines into the set of the
/// solutions they represent; fails on the first line it rejects.
using AnswerDecoder =
    std::function<Result<SolutionSet>(std::span<const std::string> lines)>;

/// \brief A fully compiled, executable plan for one query or a batch.
struct CompiledPlan {
  WorkflowSpec workflow;
  /// Per query, in request order: the DFS path of its answer file. A
  /// single-query plan has one, equal to workflow.final_output_path.
  std::vector<std::string> final_output_paths;
  /// Decode any of the plan's answer files.
  AnswerDecoder decoder;
  /// DFS paths holding the star-join phase outputs (inputs to later join
  /// cycles); used for the paper's "redundancy factor" and "HDFS writes
  /// after the star-join computation phase" metrics.
  std::vector<std::string> star_phase_paths;
};

}  // namespace rdfmr

#endif  // RDFMR_ENGINE_COMPILED_PLAN_H_
