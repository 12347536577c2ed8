// Solution mappings (variable -> value bindings) and their canonical
// serialization. Every engine's final MR output is a file of canonical
// solution lines, which makes cross-engine answer comparison (the Lemma 1
// content-equivalence check) a direct set comparison.

#ifndef RDFMR_QUERY_SOLUTION_H_
#define RDFMR_QUERY_SOLUTION_H_

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace rdfmr {

/// \brief One solution mapping: variable name -> bound value.
///
/// Stored as a flat vector of (variable, value) pairs sorted by variable:
/// solutions bind a handful of variables, so a sorted vector is smaller
/// and faster to copy, merge and compare than a node-based map, while its
/// iteration order, ordering and Serialize() are exactly the map's.
class Solution {
 public:
  using Binding = std::pair<std::string, std::string>;

  Solution() = default;

  /// \brief Binds `var` to `value`. Returns false (and changes nothing) if
  /// `var` is already bound to a different value — the consistency rule for
  /// merging partial matches.
  bool Bind(std::string_view var, std::string_view value);

  /// \brief Returns the value bound to `var`, or nullptr.
  const std::string* Get(std::string_view var) const;

  bool Has(std::string_view var) const { return Get(var) != nullptr; }

  size_t size() const { return bindings_.size(); }

  /// \brief Reserves room for `n` bindings.
  void Reserve(size_t n) { bindings_.reserve(n); }

  /// \brief The bindings, sorted by variable.
  const std::vector<Binding>& bindings() const { return bindings_; }

  /// \brief True iff every variable bound in both solutions has the same
  /// value in each (their merge is consistent).
  bool CompatibleWith(const Solution& other) const;

  /// \brief Merges `other` into this solution in place. Returns false and
  /// leaves this solution unchanged if the two are inconsistent.
  bool MergeInto(const Solution& other);

  /// \brief Canonical line: "var=value;var=value" sorted by var, escaped.
  std::string Serialize() const;

  static Result<Solution> Deserialize(std::string_view line);

  bool operator==(const Solution& o) const { return bindings_ == o.bindings_; }
  bool operator<(const Solution& o) const { return bindings_ < o.bindings_; }

 private:
  std::vector<Binding> bindings_;
};

/// \brief A set of solutions (set semantics, as produced by BGP matching on
/// set-based RDF graphs).
using SolutionSet = std::set<Solution>;

/// \brief Builds the set of `solutions` (which it sorts and deduplicates in
/// place) with one linear pass over the sorted range.
SolutionSet ToSolutionSet(std::vector<Solution>* solutions);

/// \brief Parses a whole answer file into a solution set.
Result<SolutionSet> ParseSolutionFile(const std::vector<std::string>& lines);

}  // namespace rdfmr

#endif  // RDFMR_QUERY_SOLUTION_H_
