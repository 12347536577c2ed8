// Relational n-tuple representation of (joined) star matches.
//
// A star-join over k triple patterns yields tuples of relational arity 3k —
// (Sub, Prop, Obj) columns per pattern, subject repeated in every column
// group, exactly as the paper describes for vertically-partitioned
// relational processing. This repetition *is* the redundancy under study:
// the byte footprint of these serialized tuples is what the relational
// engines ship between MR cycles.

#ifndef RDFMR_RELATIONAL_REL_TUPLE_H_
#define RDFMR_RELATIONAL_REL_TUPLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/pattern.h"
#include "query/solution.h"
#include "rdf/triple.h"

namespace rdfmr {

/// \brief The schema of a relational intermediate: the ordered triple
/// patterns whose matches the tuple columns hold.
using RelSchema = std::vector<TriplePattern>;

/// \brief One tuple: a matched triple per schema pattern, aligned.
struct RelTuple {
  std::vector<Triple> triples;

  /// \brief Serializes as 3k tab-separated fields.
  std::string Serialize() const;

  /// \brief Parses a record with exactly `arity` triples.
  static Result<RelTuple> Deserialize(std::string_view line, size_t arity);

  /// \brief Derives the solution mapping by re-matching each triple against
  /// its schema pattern; fails if the tuple is inconsistent.
  Result<Solution> ToSolution(const RelSchema& schema) const;
};

/// \brief A joined tuple's record: its two input records side by side,
/// which is the Serialize() of their concatenated triples.
std::string JoinTupleRecords(std::string_view left, std::string_view right);

/// \brief Decodes a whole relational output file (schema-wide tuples) into
/// a solution set. Each line is split into field views and bound through a
/// column -> slot plan computed once from `schema`, with ToSolution's
/// checks and Status codes; no RelTuple or Solution is built.
Result<SolutionSet> DecodeRelationalAnswers(
    const RelSchema& schema, const std::vector<std::string>& lines);

/// \brief Extracts the value of variable `var` from a tuple under `schema`
/// (subject or object position of the first pattern carrying it).
Result<std::string> ExtractJoinKey(const RelSchema& schema,
                                   const RelTuple& tuple,
                                   const std::string& var);

}  // namespace rdfmr

#endif  // RDFMR_RELATIONAL_REL_TUPLE_H_
