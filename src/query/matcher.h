// Reference matcher: enumerates solution mappings of star patterns over a
// subject's triples. It is the in-memory oracle the engines are judged
// against (tests, the fuzzer, the quickstart example). No engine calls its
// star enumerator, and it uses neither the engines' star walk nor their
// slot plan (query/star_walk.h): the judge stays independent of the code
// it judges. MatchesTriplePattern is the one triple-vs-pattern test every
// engine shares.

#ifndef RDFMR_QUERY_MATCHER_H_
#define RDFMR_QUERY_MATCHER_H_

#include <optional>
#include <string_view>
#include <vector>

#include "query/pattern.h"
#include "query/solution.h"
#include "rdf/triple.h"

namespace rdfmr {

/// \brief True iff the triple (subject, property, object) matches
/// `pattern`: its constants, its CONTAINS filter, and equal values wherever
/// the pattern repeats a variable (`?x p ?x`). Builds no bindings.
bool MatchesTriplePattern(const TriplePattern& pattern,
                          std::string_view subject, std::string_view property,
                          std::string_view object);

inline bool MatchesTriplePattern(const TriplePattern& pattern,
                                 const Triple& triple) {
  return MatchesTriplePattern(pattern, triple.subject, triple.property,
                              triple.object);
}

/// \brief Matches one triple against one pattern; bindings for subject,
/// property (if unbound), and object variables. nullopt on mismatch.
std::optional<Solution> MatchTriplePattern(const TriplePattern& pattern,
                                           const Triple& triple);

/// \brief Extends `*solution` in place with the bindings MatchTriplePattern
/// would produce. Returns false if the triple does not match the pattern
/// or a binding conflicts with one already in `*solution`, which may then
/// be partially extended.
bool BindTriplePattern(const TriplePattern& pattern, const Triple& triple,
                       Solution* solution);

/// \brief One complete match of a star: the triple chosen for each pattern
/// (in pattern order) plus the combined bindings. A single triple may
/// satisfy several patterns simultaneously — including both a bound and the
/// unbound pattern, the paper's "triple plays multiple roles" case.
struct StarMatch {
  std::vector<Triple> matched;  ///< one triple per pattern, aligned
  Solution solution;
};

/// \brief Enumerates all matches of `star` over the triples of one subject
/// (all entries must share the same subject value).
std::vector<StarMatch> MatchStarDetailed(
    const StarPattern& star, const std::vector<Triple>& subject_triples);

/// \brief Bindings-only variant of MatchStarDetailed.
std::vector<Solution> MatchStar(const StarPattern& star,
                                const std::vector<Triple>& subject_triples);

/// \brief Ground-truth evaluation of a whole query by in-memory join of the
/// per-star matches (tests and the quickstart example use this; the MR
/// engines must agree with it — Lemma 1).
SolutionSet EvaluateQueryInMemory(const GraphPatternQuery& query,
                                  const std::vector<Triple>& triples);

}  // namespace rdfmr

#endif  // RDFMR_QUERY_MATCHER_H_
