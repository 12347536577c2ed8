// The NTGA operators from the paper, over AnnTg values:
//
//  * BuildAnnTg            — γ + σ^γ / σ^βγ reduce-side assembly: builds the
//                            annotated triplegroup of one subject for one
//                            star subpattern, or nothing if the group fails
//                            the (β) group-filter (Definition 1 /
//                            Algorithm 2, TG_UnbGrpFilter).
//  * UnboundCandidates     — the implicit candidate set of an unbound
//                            pattern: its override if present, else every
//                            pair passing the pattern's object constraint.
//  * BetaUnnest            — μ^β (Definition 2): expands a triplegroup into
//                            "perfect" triplegroups, one per combination of
//                            unbound-pattern candidates (generalized to any
//                            number of unbound patterns per star).
//  * PartialBetaUnnest     — μ^β_φm (Definition 3): restricts one unbound
//                            pattern's candidates per φ_m partition of the
//                            join key, producing ≤ m triplegroups.
//  * ExpandJoinedTg        — final answer extraction: enumerates the
//                            solution mappings a triplegroup record
//                            implicitly represents (content equivalence,
//                            Lemma 1).

#ifndef RDFMR_NTGA_OPERATORS_H_
#define RDFMR_NTGA_OPERATORS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "ntga/triplegroup.h"
#include "query/pattern.h"
#include "query/solution.h"
#include "rdf/triple.h"

namespace rdfmr {

/// \brief Test-only fault injection: when enabled, BuildAnnTg inverts the
/// satisfaction verdict of mandatory *unbound* patterns in the β
/// group-filter — a realistic operator bug (σ^βγ admitting exactly the
/// wrong groups) that only the NTGA engines exhibit. The differential fuzz
/// harness uses it to prove it can catch and shrink a seeded defect; it
/// must never be enabled outside tests.
void SetBetaGroupFilterFlipForTesting(bool enabled);
bool BetaGroupFilterFlippedForTesting();

/// \brief The partition function φ_m over join-key values.
uint32_t PhiPartition(std::string_view value, uint32_t m);

/// \brief Builds the AnnTg of one subject for star `star_id`, applying the
/// group-filter (all-bound stars: σ^γ) or β group-filter (unbound stars:
/// σ^βγ). Pairs irrelevant to every pattern of the star are dropped; for
/// unbound stars all relevant pairs are retained as implicit candidates.
/// Returns nullopt when the group fails the filter.
std::optional<AnnTg> BuildAnnTg(const StarPattern& star, uint32_t star_id,
                                const std::string& subject,
                                const std::vector<PropObj>& subject_pairs);

/// \brief Candidate pairs of unbound pattern `tp_index` in `tg` (override
/// if present, else implicit set filtered by the pattern's object
/// constraint).
std::vector<PropObj> UnboundCandidates(const StarPattern& star,
                                       const AnnTg& tg, size_t tp_index);

/// \brief Full β-unnest of `tg` with respect to the unbound patterns listed
/// in `tp_indexes` (empty => all unbound patterns of the star). Each output
/// is compacted. A triplegroup with u candidates for a single unbound
/// pattern yields exactly u outputs; multiple unbound patterns yield the
/// cartesian product.
std::vector<AnnTg> BetaUnnest(const StarPattern& star, const AnnTg& tg,
                              std::vector<size_t> tp_indexes = {});

/// \brief Partial β-unnest: restricts unbound pattern `tp_index` to one
/// partition of φ_m over the candidate objects; yields ≤ m triplegroups,
/// each paired with its partition id.
std::vector<std::pair<uint32_t, AnnTg>> PartialBetaUnnest(
    const StarPattern& star, const AnnTg& tg, size_t tp_index, uint32_t m);

/// \brief Enumerates the solution mappings a triplegroup record implicitly
/// represents: each component's (bound pairs x unbound candidates, with
/// shared-variable consistency) for its star, merged across components;
/// inconsistent combinations (residual join predicates) drop out. Fails
/// with IoError on a record TgRecordReader rejects or a component naming a
/// star outside `stars`.
Result<std::vector<Solution>> ExpandJoinedTg(
    const std::vector<StarPattern>& stars, std::string_view record);

/// \brief Decodes a final output file of triplegroup records into the set
/// of their ExpandJoinedTg solutions. Records are read as views
/// (TgRecordReader) and expanded straight into the table's handle rows, so
/// each distinct term is copied once and no Solution is built.
Result<SolutionSet> DecodeJoinedTgAnswers(
    const std::vector<StarPattern>& stars,
    const std::vector<std::string>& lines);

}  // namespace rdfmr

#endif  // RDFMR_NTGA_OPERATORS_H_
