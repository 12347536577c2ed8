// The common output type of all plan compilers (relational and NTGA): an
// executable MapReduce workflow plus the plan's one answer decoder, which
// expands answer records into rows of the canonical answer table.
//
// The decoder exists because engines differ in their *final representation*
// (flat n-tuples vs. nested triplegroups — the paper's LazyUnnest keeps
// results "compact till the end"); answer comparison must not charge that
// expansion to the engine's I/O. It is the only way a record becomes rows:
// it knows the plan's answer variables and appends the rows of a span of
// lines to a caller's builder. The read-back appends every answer file of
// one answer and finishes the table once (AnswerDecoder::Decode); the
// aggregation cycle's mapper appends one record's rows and reads them
// without finishing a table.

#ifndef RDFMR_ENGINE_COMPILED_PLAN_H_
#define RDFMR_ENGINE_COMPILED_PLAN_H_

#include <string>
#include <vector>

#include "mapreduce/workflow.h"
#include "query/solution.h"

namespace rdfmr {

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
