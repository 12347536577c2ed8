// One star walk: how the engines enumerate a star's matches over one
// subject, and the slot plan they bind variables through. The relational
// star join binds triples as field views, the NTGA answer expansion
// triplegroup leaves as interned handles. The order is MatchStarDetailed's:
// the product of the mandatory patterns' candidates, the first outermost,
// then each OPTIONAL pattern left-joined in pattern order (a row is
// extended by each candidate that agrees with it, kept unextended when none
// does). The oracle (query/matcher.h) keeps its own enumerator as the judge.

#ifndef RDFMR_QUERY_STAR_WALK_H_
#define RDFMR_QUERY_STAR_WALK_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "query/pattern.h"
#include "query/solution.h"

namespace rdfmr {

/// \brief A pattern list and its variable slots: its variables, sorted and
/// distinct (slot k binds variables()[k]), and the slot each pattern's
/// subject, property and object binds, or kNoSlot.
class SlotPlan {
 public:
  /// \brief Subject, property and object slot of one pattern.
  using PatternSlots = std::array<size_t, 3>;

  explicit SlotPlan(std::vector<TriplePattern> patterns)
      : patterns_(std::move(patterns)) {
    for (const TriplePattern& tp : patterns_) {
      for (std::string& var : tp.Variables()) {
        variables_.push_back(std::move(var));
      }
    }
    std::sort(variables_.begin(), variables_.end());
    variables_.erase(std::unique(variables_.begin(), variables_.end()),
                     variables_.end());
    for (const TriplePattern& tp : patterns_) {
      slots_.push_back(PatternSlots{
          tp.subject.is_variable() ? SlotOf(tp.subject.value) : kNoSlot,
          tp.property_bound ? kNoSlot : SlotOf(tp.property),
          tp.object.is_variable() ? SlotOf(tp.object.value) : kNoSlot});
    }
  }

  const std::vector<TriplePattern>& patterns() const { return patterns_; }
  const std::vector<std::string>& variables() const { return variables_; }
  size_t width() const { return variables_.size(); }
  /// \brief The slot of `var`, or kNoSlot.
  size_t SlotOf(std::string_view var) const {
    return rdfmr::SlotOf(variables_, var);
  }
  /// \brief The slots of pattern `pattern`, in the list's order.
  const PatternSlots& slots(size_t pattern) const { return slots_[pattern]; }

 private:
  std::vector<TriplePattern> patterns_;
  std::vector<std::string> variables_;
  std::vector<PatternSlots> slots_;
};

/// \brief Enumerates the matches of one star over per-pattern candidates,
/// binding and unbinding the slots of one row of Values in place (Values
/// are compared with ==). A walk is reused from star to star: Start(),
/// Add() the candidates pattern after pattern, Run(). One walk serves one
/// thread.
template <typename Value>
class StarWalk {
 public:
  /// \brief The chosen candidate of an unmatched OPTIONAL pattern.
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  /// \brief Starts a star of `patterns` (which must outlive Run) over rows
  /// of `width` slots, each holding `unbound` until a candidate binds it,
  /// with no candidates yet.
  void Start(std::span<const TriplePattern> patterns, size_t width,
             const Value& unbound) {
    patterns_ = patterns;
    unbound_ = unbound;
    row_.assign(width, unbound);
    bound_.assign(width, 0);
    candidates_.clear();
    begin_.assign(patterns.size() + 1, 0);
    chosen_.assign(patterns.size(), kNone);
    order_.clear();
    for (bool optional : {false, true}) {
      for (size_t p = 0; p < patterns.size(); ++p) {
        if (patterns[p].optional == optional) order_.push_back(p);
      }
    }
  }

  /// \brief Adds a candidate to pattern `p`, numbered by the order of the
  /// Add calls since Start(), which come pattern after pattern (the walk
  /// tries a pattern's candidates in that order): slots[j] := value_of(j)
  /// for each of the pattern's subject, property and object slots (j = 0,
  /// 1, 2) other than kNoSlot. A candidate whose values disagree on a
  /// repeated slot (`?s p ?s` over s != o) never matches.
  template <typename ValueOf>
  void Add(size_t p, const SlotPlan::PatternSlots& slots,
           const ValueOf& value_of) {
    Candidate& cand = candidates_.emplace_back();
    for (size_t j = 0; j < 3; ++j) {
      if (slots[j] == kNoSlot) continue;
      cand.slots[cand.size] = static_cast<uint32_t>(slots[j]);
      cand.values[cand.size++] = value_of(j);
    }
    std::fill(begin_.begin() + p + 1, begin_.end(), candidates_.size());
  }

  /// \brief Calls visit(row, chosen) once per match, in the walk's order:
  /// `row` holds the slots' values (`unbound` where nothing binds), and
  /// chosen[p] is the number of pattern p's candidate (see Add), or kNone
  /// for an unmatched OPTIONAL pattern. Returns the match count.
  template <typename Visit>
  size_t Run(const Visit& visit) { return Step(0, visit); }

 private:
  // Level L tries each candidate of pattern order_[L] against the row,
  // binding its unbound slots and undoing them afterwards.
  template <typename Visit>
  size_t Step(size_t level, const Visit& visit) {
    if (level == order_.size()) {
      visit(std::span<const Value>(row_), std::span<const uint32_t>(chosen_));
      return 1;
    }
    const size_t p = order_[level];
    const Candidate* const candidates = candidates_.data();
    Value* const row = row_.data();
    uint8_t* const bound = bound_.data();
    size_t matches = 0;
    bool any = false;
    for (uint32_t k = begin_[p]; k < begin_[p + 1]; ++k) {
      const Candidate& cand = candidates[k];
      uint32_t set[3];
      uint32_t num_set = 0;
      bool agrees = true;
      for (uint32_t b = 0; agrees && b < cand.size; ++b) {
        const uint32_t slot = cand.slots[b];
        if (!bound[slot]) {
          row[slot] = cand.values[b];
          bound[slot] = 1;
          set[num_set++] = slot;
        } else {
          agrees = row[slot] == cand.values[b];
        }
      }
      if (agrees) {
        any = true;
        chosen_[p] = k;
        matches += Step(level + 1, visit);
      }
      for (uint32_t s = 0; s < num_set; ++s) {
        row[set[s]] = unbound_;
        bound[set[s]] = 0;
      }
    }
    chosen_[p] = kNone;
    if (!any && patterns_[p].optional) matches += Step(level + 1, visit);
    return matches;
  }

  // At most three (slot, value) bindings.
  struct Candidate {
    uint32_t size = 0;
    uint32_t slots[3];
    Value values[3];
  };

  std::span<const TriplePattern> patterns_;
  Value unbound_{};
  std::vector<Value> row_;
  std::vector<uint8_t> bound_;         // per slot
  std::vector<Candidate> candidates_;  // pattern after pattern
  std::vector<uint32_t> begin_;  // pattern p's: [begin_[p], begin_[p + 1])
  std::vector<uint32_t> chosen_;  // per pattern
  std::vector<size_t> order_;     // mandatory patterns, then optional ones
};

}  // namespace rdfmr

#endif  // RDFMR_QUERY_STAR_WALK_H_
