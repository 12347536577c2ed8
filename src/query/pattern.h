// Graph pattern model: triple patterns with possibly unbound properties,
// star subpatterns, and basic graph patterns (BGPs).
//
// Terminology follows the paper:
//  * bound-property triple pattern:    ?s <label> ?o
//  * unbound-property triple pattern:  ?s ?p ?o       ("don't care" edge)
//  * partially-bound object:           ?s ?p ?o . FILTER(CONTAINS(?o, "..."))
//    — the property is unknown but something is known about the object.

#ifndef RDFMR_QUERY_PATTERN_H_
#define RDFMR_QUERY_PATTERN_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace rdfmr {

/// \brief Subject or object position of a triple pattern.
struct NodePattern {
  enum class Kind { kVariable, kConstant };

  Kind kind = Kind::kVariable;
  /// Variable name (without '?') or constant value.
  std::string value;
  /// Optional substring filter on the matched value (only for variables) —
  /// this is how "partially-bound" objects are expressed.
  std::string contains_filter;

  static NodePattern Var(std::string name, std::string contains = "") {
    NodePattern n;
    n.kind = Kind::kVariable;
    n.value = std::move(name);
    n.contains_filter = std::move(contains);
    return n;
  }
  static NodePattern Const(std::string value) {
    NodePattern n;
    n.kind = Kind::kConstant;
    n.value = std::move(value);
    return n;
  }

  bool is_variable() const { return kind == Kind::kVariable; }
  bool is_constant() const { return kind == Kind::kConstant; }
  bool partially_bound() const {
    return is_variable() && !contains_filter.empty();
  }

  /// \brief True iff the concrete `term` satisfies this position (constant
  /// equality or contains filter; an unconstrained variable matches all).
  bool Matches(std::string_view term) const;

  bool operator==(const NodePattern& o) const {
    return kind == o.kind && value == o.value &&
           contains_filter == o.contains_filter;
  }
};

/// \brief One triple pattern.
struct TriplePattern {
  NodePattern subject;
  /// True when the property is a constant edge label.
  bool property_bound = true;
  /// Property constant when bound; property *variable name* when unbound.
  std::string property;
  NodePattern object;
  /// SPARQL OPTIONAL semantics: solutions are extended with this pattern's
  /// matches when compatible ones exist and kept unextended otherwise.
  /// Optional patterns introduce only fresh variables (validated at query
  /// construction) so the left join stays star-local.
  bool optional = false;

  static TriplePattern Bound(NodePattern s, std::string property,
                             NodePattern o) {
    TriplePattern tp;
    tp.subject = std::move(s);
    tp.property_bound = true;
    tp.property = std::move(property);
    tp.object = std::move(o);
    return tp;
  }

  static TriplePattern Unbound(NodePattern s, std::string property_var,
                               NodePattern o) {
    TriplePattern tp;
    tp.subject = std::move(s);
    tp.property_bound = false;
    tp.property = std::move(property_var);
    tp.object = std::move(o);
    return tp;
  }

  bool unbound_property() const { return !property_bound; }

  /// \brief All variable names mentioned by this pattern.
  std::vector<std::string> Variables() const;

  std::string ToString() const;

  bool operator==(const TriplePattern& o) const {
    return subject == o.subject && property_bound == o.property_bound &&
           property == o.property && object == o.object &&
           optional == o.optional;
  }
};

/// \brief A star subpattern: triple patterns sharing one subject variable.
struct StarPattern {
  std::string subject_var;
  std::vector<TriplePattern> patterns;

  /// \brief Constants of the non-optional bound-property patterns (the
  /// paper's P_bnd): what the (β) group-filter requires.
  std::set<std::string> BoundProperties() const;

  /// \brief Constants of ALL bound-property patterns including optional
  /// ones (what a triplegroup must retain for expansion).
  std::set<std::string> AllBoundProperties() const;

  /// \brief Indexes of patterns with unbound properties (P_unbnd),
  /// including optional ones.
  std::vector<size_t> UnboundIndexes() const;

  bool HasUnbound() const { return !UnboundIndexes().empty(); }
  size_t NumUnbound() const { return UnboundIndexes().size(); }

  /// \brief Number of triple patterns (the star's arity).
  size_t Arity() const { return patterns.size(); }

  std::string ToString() const;
};

/// \brief Kind of a join connecting two star subpatterns.
enum class StarJoinKind { kObjectSubject, kObjectObject, kSubjectSubject };

const char* StarJoinKindToString(StarJoinKind kind);

/// \brief A join edge between two stars of a decomposed BGP.
struct StarJoin {
  size_t left_star = 0;
  size_t right_star = 0;
  std::string variable;  ///< the shared variable
  StarJoinKind kind = StarJoinKind::kObjectSubject;
  /// Index of the triple pattern (within its star) whose *object* carries
  /// the variable; -1 means the variable is that star's subject.
  int left_pattern_index = -1;
  int right_pattern_index = -1;
};

/// \brief A basic graph pattern plus its star decomposition.
class GraphPatternQuery {
 public:
  /// \brief Builds a query from triple patterns; decomposes into stars
  /// (grouped by subject variable, in first-appearance order) and derives
  /// the star join graph. Fails if the join graph is disconnected or a
  /// subject position is constant (not needed by the testbed).
  static Result<GraphPatternQuery> Create(std::string name,
                                          std::vector<TriplePattern> patterns);

  const std::string& name() const { return name_; }
  const std::vector<StarPattern>& stars() const { return stars_; }
  const std::vector<StarJoin>& joins() const { return joins_; }
  const std::vector<TriplePattern>& patterns() const { return patterns_; }

  /// \brief All variable names in the query, sorted.
  const std::vector<std::string>& variables() const { return variables_; }

  /// \brief True if any star has an unbound-property pattern.
  bool HasUnbound() const;

  /// \brief Total number of unbound-property triple patterns.
  size_t NumUnbound() const;

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<TriplePattern> patterns_;
  std::vector<StarPattern> stars_;
  std::vector<StarJoin> joins_;
  std::vector<std::string> variables_;
};

}  // namespace rdfmr

#endif  // RDFMR_QUERY_PATTERN_H_
