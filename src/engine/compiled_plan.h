// The common output type of all plan compilers (relational and NTGA): an
// executable MapReduce workflow plus a decoder that expands the engine's
// final output file into canonical solution mappings for verification.
//
// The decoder exists because engines differ in their *final representation*
// (flat n-tuples vs. nested triplegroups — the paper's LazyUnnest keeps
// results "compact till the end"); answer comparison must not charge that
// expansion to the engine's I/O.

#ifndef RDFMR_ENGINE_COMPILED_PLAN_H_
#define RDFMR_ENGINE_COMPILED_PLAN_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "mapreduce/workflow.h"
#include "query/solution.h"

namespace rdfmr {

/// \brief Expands an engine's final output lines into solutions.
using AnswerDecoder = std::function<Result<SolutionSet>(
    const std::vector<std::string>& lines)>;

/// \brief Expands ONE final-output record into the solutions it implicitly
/// represents (a flat tuple yields one; a nested joined triplegroup may
/// yield many). Used by post-processing cycles, e.g. aggregation.
using RecordDecoder = std::function<Result<std::vector<Solution>>(
    const std::string& record)>;

/// \brief A fully compiled, executable plan for one query or a batch.
struct CompiledPlan {
  WorkflowSpec workflow;
  /// Per query, in request order: the DFS path of its answer file. A
  /// single-query plan has one, equal to workflow.final_output_path.
  std::vector<std::string> final_output_paths;
  /// Decode any of the plan's answer files.
  AnswerDecoder decoder;
  RecordDecoder record_decoder;
  /// DFS paths holding the star-join phase outputs (inputs to later join
  /// cycles); used for the paper's "redundancy factor" and "HDFS writes
  /// after the star-join computation phase" metrics.
  std::vector<std::string> star_phase_paths;
};

}  // namespace rdfmr

#endif  // RDFMR_ENGINE_COMPILED_PLAN_H_
