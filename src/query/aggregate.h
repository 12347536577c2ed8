// Aggregation constraints over graph pattern queries — the paper's stated
// future direction ("unbound-property queries with aggregation
// constraints"). Supports the COUNT family:
//
//   SELECT ?g (COUNT(DISTINCT ?p) AS ?n)
//   WHERE  { ?g <label> ?l . ?g ?p ?x . }
//   GROUP BY ?g
//   HAVING (COUNT(DISTINCT ?p) >= 3)
//
// i.e., "subjects related through at least 3 distinct kinds of edges" —
// counting over the matches of an unbound property. Execution appends one
// aggregation MR cycle to any engine's plan; NTGA feeds it from nested
// triplegroups (small reads), the relational engines from flat tuples.
// The cycle's mapper expands each record through the plan's answer
// decoder (engine/engine.cc); the in-memory oracle here folds its own
// Solutions, so it stays an independent judge of that cycle.

#ifndef RDFMR_QUERY_AGGREGATE_H_
#define RDFMR_QUERY_AGGREGATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "query/pattern.h"
#include "query/solution.h"
#include "rdf/triple.h"

namespace rdfmr {

/// \brief COUNT aggregation with grouping and a HAVING threshold.
struct AggregateSpec {
  /// GROUP BY variables (must be non-empty and bound by the BGP).
  std::vector<std::string> group_vars;
  /// The variable counted per group.
  std::string counted_var;
  /// Output variable name carrying the count.
  std::string count_var = "count";
  /// COUNT(DISTINCT ?v) when true, COUNT(?v) over solutions otherwise.
  bool distinct = true;
  /// HAVING (COUNT >= min_count); 0 disables the constraint.
  uint64_t min_count = 0;

  /// \brief Validates the spec against the query's variables.
  Status Validate(const GraphPatternQuery& query) const;
};

/// \brief Aggregates a solution set per the spec: one output solution per
/// surviving group, binding the group variables and the count.
SolutionSet AggregateSolutions(const SolutionSet& solutions,
                               const AggregateSpec& spec);

/// \brief Ground-truth: evaluate the BGP in memory, then aggregate.
SolutionSet EvaluateAggregateInMemory(const GraphPatternQuery& query,
                                      const AggregateSpec& spec,
                                      const std::vector<Triple>& triples);

}  // namespace rdfmr

#endif  // RDFMR_QUERY_AGGREGATE_H_
