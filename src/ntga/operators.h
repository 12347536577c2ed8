// The NTGA operators from the paper, over triplegroup records:
//
//  * BuildAnnTg            — γ + σ^γ / σ^βγ reduce-side assembly: writes the
//                            annotated triplegroup of one subject for one
//                            star subpattern, or nothing if the group fails
//                            the (β) group-filter (Definition 1 /
//                            Algorithm 2, TG_UnbGrpFilter).
//  * BetaUnnester          — μ^β (Definition 2) and μ^β_φm (Definition 3):
//                            rewrites one component of a record into
//                            "perfect" triplegroups or into ≤ m
//                            triplegroups, one per φ_m partition.
//  * JoinedTgAnswerDecoder — final answer extraction: enumerates the
//                            solution mappings triplegroup records
//                            implicitly represent (content equivalence,
//                            Lemma 1) through the star walk the
//                            relational star join uses too.

#ifndef RDFMR_NTGA_OPERATORS_H_
#define RDFMR_NTGA_OPERATORS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
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

/// \brief σ^γ / σ^βγ: appends the one-component record of `subject`'s
/// group for star `star_id` to `*out` and returns true, or returns false
/// and appends nothing when the group fails the group-filter (all-bound
/// stars: σ^γ) or β group-filter (unbound stars: σ^βγ). Pairs irrelevant
/// to every pattern of the star are dropped; for unbound stars all
/// relevant pairs are retained as implicit candidates. `subject_pairs`
/// must be sorted and distinct.
bool BuildAnnTg(const StarPattern& star, uint32_t star_id,
                std::string_view subject,
                std::span<const PropObj> subject_pairs, std::string* out);

/// \brief Calls visit(property leaf, object leaf) for each candidate of
/// pattern `tp` (index `tp_index`) in component `site` of the record
/// `reader` last read, in order: the pairs of an unbound pattern's
/// override if it has one, else the pairs (of a bound pattern's property),
/// each only if it passes the pattern's object constraint. This is the one
/// candidate rule: a perfect triplegroup's candidate triple matches its
/// pattern (Definition 2), wherever the record came from.
template <typename Visit>
void ForEachCandidate(const TriplePattern& tp, size_t tp_index,
                      const TgRecordReader& reader,
                      const TgRecordReader::Component& site, Visit visit) {
  if (tp.unbound_property()) {
    for (uint32_t o = site.overrides_begin; o < site.overrides_end; ++o) {
      const TgRecordReader::Entry& e = reader.overrides()[o];
      if (e.tp_index != tp_index) continue;
      for (uint32_t j = e.begin; j < e.end; j += 2) {
        if (tp.object.Matches(reader.leaves()[j + 1])) visit(j, j + 1);
      }
      return;
    }
  }
  const std::vector<std::string_view>& leaves = reader.leaves();
  for (uint32_t p = site.pairs_begin; p < site.pairs_end; ++p) {
    const TgRecordReader::Entry& e = reader.pairs()[p];
    if (tp.property_bound && leaves[e.begin] != tp.property) continue;
    for (uint32_t j = e.begin + 1; j < e.end; ++j) {
      if (tp.object.Matches(leaves[j])) visit(e.begin, j);
    }
    if (tp.property_bound) return;
  }
}

/// \brief μ^β and μ^β_φm over one star, on records read as views; built
/// once per star when a plan is compiled. Both rewrite component `site` of
/// the record `reader` last read. Each output is that record with `site`
/// replaced in place: the chosen candidates become the pinned patterns'
/// overrides, and the pairs keep only what something can still consume —
/// a bound-property pair, or one that passes the object constraint of an
/// unbound pattern with no override. Those pairs depend only on which
/// patterns are pinned, so they are written once for all outputs. The
/// methods are const and may run concurrently.
class BetaUnnester {
 public:
  explicit BetaUnnester(StarPattern star);

  const StarPattern& star() const { return star_; }

  /// \brief μ^β: pins each pattern of `tp_indexes` (ascending) to one
  /// candidate, one output per combination, the first pattern outermost.
  /// Empty `tp_indexes` pins every non-optional unbound pattern that lacks
  /// a single-pair override (Eager); optional patterns stay implicit, as
  /// the left join keeps a solution unextended. Calls visit(object pinned
  /// for the first pattern, output record); returns the output count.
  size_t BetaUnnest(
      const TgRecordReader& reader, const TgRecordReader::Component& site,
      const std::vector<size_t>& tp_indexes,
      const std::function<void(std::string_view, std::string_view)>& visit)
      const;

  /// \brief μ^β_φm: restricts pattern `tp_index` to each φ_m partition of
  /// its candidates' objects, ascending. Calls visit(partition, output
  /// record); returns the output count (≤ m).
  size_t PartialBetaUnnest(
      const TgRecordReader& reader, const TgRecordReader::Component& site,
      size_t tp_index, uint32_t m,
      const std::function<void(uint32_t, std::string_view)>& visit) const;

 private:
  StarPattern star_;
  std::vector<std::string> bound_;  // AllBoundProperties, sorted
  std::vector<size_t> unbound_;     // UnboundIndexes
};

/// \brief The answer grammar of triplegroup records of `stars` (indexed by
/// the star ids their components carry), over the stars' variables: a
/// record's rows are the solution mappings it implicitly represents — each
/// component's matches for its star (ForEachCandidate's candidates,
/// enumerated by the one star walk, query/star_walk.h), merged across
/// components; inconsistent combinations (residual join predicates) drop
/// out. The binding plan is built once, here. Records are read as views
/// (TgRecordReader) and expanded straight into the builder's handle rows,
/// so each distinct term is copied once. Fails with IoError on a record
/// TgRecordReader rejects or a component naming a star outside `stars`.
AnswerDecoder JoinedTgAnswerDecoder(std::vector<StarPattern> stars);

}  // namespace rdfmr

#endif  // RDFMR_NTGA_OPERATORS_H_
