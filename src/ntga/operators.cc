#include "ntga/operators.h"

#include <algorithm>
#include <atomic>

#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace rdfmr {

namespace {
std::atomic<bool> g_flip_beta_group_filter{false};

// Per-operator instrumentation, resolved from the global registry only
// when a sink enabled operator metrics: the disabled path is one relaxed
// atomic load and no clock read. Wall times are observation-only and
// never feed deterministic outputs or counters.
struct OperatorProbe {
  explicit OperatorProbe(const char* op) {
    if (!OperatorMetricsEnabled()) return;
    MetricsRegistry& registry = MetricsRegistry::Global();
    std::string base = std::string("rdfmr_ntga_") + op;
    registry.GetCounter(base + "_calls", "operator invocations")
        ->Increment();
    outputs_ = registry.GetCounter(base + "_output_groups",
                                   "triplegroups / solutions produced");
    timer_.emplace(registry.GetHistogram(base + "_micros",
                                         "operator wall time per call"));
  }
  void Outputs(uint64_t n) {
    if (outputs_ != nullptr) outputs_->Increment(n);
  }

 private:
  Counter* outputs_ = nullptr;
  std::optional<ScopedTimerMicros> timer_;
};
}  // namespace

void SetBetaGroupFilterFlipForTesting(bool enabled) {
  g_flip_beta_group_filter.store(enabled, std::memory_order_relaxed);
}

bool BetaGroupFilterFlippedForTesting() {
  return g_flip_beta_group_filter.load(std::memory_order_relaxed);
}

uint32_t PhiPartition(const std::string& value, uint32_t m) {
  RDFMR_CHECK(m > 0) << "phi partition count must be positive";
  return static_cast<uint32_t>(Fnv1a64(value) % m);
}

std::optional<AnnTg> BuildAnnTg(const StarPattern& star, uint32_t star_id,
                                const std::string& subject,
                                const std::vector<PropObj>& subject_pairs) {
  OperatorProbe probe("build_anntg");
  AnnTg tg;
  tg.subject = subject;
  tg.star_id = star_id;

  // Keep pairs relevant to at least one pattern of this star. For bound
  // patterns relevance means property equality plus the object constraint;
  // for unbound patterns any pair passing the object constraint is a
  // candidate (β group-filter keeps the implicit candidate set).
  for (const PropObj& po : subject_pairs) {
    bool relevant = false;
    for (const TriplePattern& tp : star.patterns) {
      if (tp.property_bound) {
        if (tp.property == po.property && tp.object.Matches(po.object)) {
          relevant = true;
          break;
        }
      } else {
        if (tp.object.Matches(po.object)) {
          relevant = true;
          break;
        }
      }
    }
    if (relevant) tg.AddPair(po.property, po.object);
  }

  // Structural validation: every mandatory bound property present with a
  // pair that passes its pattern's object constraint, and every mandatory
  // unbound pattern with at least one candidate. Optional patterns impose
  // no requirement (their pairs, if any, were retained above).
  for (const TriplePattern& tp : star.patterns) {
    if (tp.optional) continue;
    bool satisfied = false;
    if (tp.property_bound) {
      auto it = tg.pairs.find(tp.property);
      if (it != tg.pairs.end()) {
        for (const std::string& o : it->second) {
          if (tp.object.Matches(o)) {
            satisfied = true;
            break;
          }
        }
      }
    } else {
      for (const auto& [property, objects] : tg.pairs) {
        (void)property;
        for (const std::string& o : objects) {
          if (tp.object.Matches(o)) {
            satisfied = true;
            break;
          }
        }
        if (satisfied) break;
      }
      if (g_flip_beta_group_filter.load(std::memory_order_relaxed)) {
        satisfied = !satisfied;
      }
    }
    if (!satisfied) return std::nullopt;
  }
  probe.Outputs(1);
  return tg;
}

std::vector<PropObj> UnboundCandidates(const StarPattern& star,
                                       const AnnTg& tg, size_t tp_index) {
  RDFMR_CHECK(tp_index < star.patterns.size());
  const TriplePattern& tp = star.patterns[tp_index];
  RDFMR_CHECK(tp.unbound_property())
      << "candidates requested for a bound pattern";
  auto it = tg.overrides.find(static_cast<uint32_t>(tp_index));
  if (it != tg.overrides.end()) return it->second;
  std::vector<PropObj> out;
  for (const auto& [property, objects] : tg.pairs) {
    for (const std::string& o : objects) {
      if (tp.object.Matches(o)) out.push_back(PropObj{property, o});
    }
  }
  return out;
}

std::vector<AnnTg> BetaUnnest(const StarPattern& star, const AnnTg& tg,
                              std::vector<size_t> tp_indexes) {
  OperatorProbe probe("beta_unnest");
  if (tp_indexes.empty()) {
    for (size_t idx : star.UnboundIndexes()) {
      // Optional patterns stay implicit: pinning one would wrongly force a
      // match where the left join should keep the solution unextended.
      if (star.patterns[idx].optional) continue;
      if (tg.overrides.count(static_cast<uint32_t>(idx)) == 0 ||
          tg.overrides.at(static_cast<uint32_t>(idx)).size() > 1) {
        tp_indexes.push_back(idx);
      }
    }
  }
  std::vector<AnnTg> current = {tg};
  for (size_t idx : tp_indexes) {
    std::vector<AnnTg> next;
    for (const AnnTg& base : current) {
      for (const PropObj& cand : UnboundCandidates(star, base, idx)) {
        AnnTg pinned = base;
        pinned.overrides[static_cast<uint32_t>(idx)] = {cand};
        next.push_back(std::move(pinned));
      }
    }
    current = std::move(next);
  }
  for (AnnTg& out : current) out.Compact(star);
  probe.Outputs(current.size());
  return current;
}

std::vector<std::pair<uint32_t, AnnTg>> PartialBetaUnnest(
    const StarPattern& star, const AnnTg& tg, size_t tp_index, uint32_t m) {
  OperatorProbe probe("partial_beta_unnest");
  std::map<uint32_t, std::vector<PropObj>> partitions;
  for (const PropObj& cand : UnboundCandidates(star, tg, tp_index)) {
    partitions[PhiPartition(cand.object, m)].push_back(cand);
  }
  std::vector<std::pair<uint32_t, AnnTg>> out;
  out.reserve(partitions.size());
  for (auto& [partition, cands] : partitions) {
    AnnTg restricted = tg;
    restricted.overrides[static_cast<uint32_t>(tp_index)] = std::move(cands);
    restricted.Compact(star);
    out.emplace_back(partition, std::move(restricted));
  }
  probe.Outputs(out.size());
  return out;
}

namespace {

// Answer extraction works on the query's variables as slots, numbered in
// variable name order, holding pointers to values stored in the
// triplegroups: candidate products bind and unbind slots in place, and
// strings are copied only into finished solutions, whose bindings then
// come out already sorted.
using VarSlots = std::vector<const std::string*>;  // sorted, distinct
using Row = std::vector<const std::string*>;       // value per slot, or null

constexpr size_t kNoSlot = static_cast<size_t>(-1);

void AddStarVariables(const StarPattern& star, VarSlots* vars) {
  for (const TriplePattern& tp : star.patterns) {
    if (tp.subject.is_variable()) vars->push_back(&tp.subject.value);
    if (!tp.property_bound) vars->push_back(&tp.property);
    if (tp.object.is_variable()) vars->push_back(&tp.object.value);
  }
}

bool VarLess(const std::string* a, const std::string* b) { return *a < *b; }

void SortSlots(VarSlots* vars) {
  std::sort(vars->begin(), vars->end(), VarLess);
  vars->erase(std::unique(vars->begin(), vars->end(),
                          [](const std::string* a, const std::string* b) {
                            return *a == *b;
                          }),
              vars->end());
}

size_t SlotOf(const VarSlots& vars, const std::string& var) {
  return static_cast<size_t>(
      std::lower_bound(vars.begin(), vars.end(), &var, VarLess) -
      vars.begin());
}

struct SlotValue {
  size_t slot;
  const std::string* value;
};

// The bindings of one candidate pair of one pattern (at most subject,
// property and object), distinct slots.
struct Candidate {
  SlotValue entries[3];
  size_t size = 0;

  // Adds slot=value; false if the slot already holds a different value.
  bool Bind(size_t slot, const std::string* value) {
    for (size_t k = 0; k < size; ++k) {
      if (entries[k].slot == slot) return *entries[k].value == *value;
    }
    entries[size++] = SlotValue{slot, value};
    return true;
  }
};

// Binds `cand` into `row`; returns false on a conflicting slot. The slots
// it newly set are recorded in `set` so the caller can undo them.
bool BindCandidate(const Candidate& cand, Row* row, size_t set[3],
                   size_t* num_set) {
  *num_set = 0;
  for (size_t k = 0; k < cand.size; ++k) {
    const SlotValue& e = cand.entries[k];
    const std::string*& slot = (*row)[e.slot];
    if (slot == nullptr) {
      slot = e.value;
      set[(*num_set)++] = e.slot;
    } else if (*slot != *e.value) {
      return false;
    }
  }
  return true;
}

// The product of the mandatory patterns' candidates, in candidate order.
void ExpandRecurse(const std::vector<const std::vector<Candidate>*>& mandatory,
                   size_t level, Row* row, std::vector<Row>* out) {
  if (level == mandatory.size()) {
    out->push_back(*row);
    return;
  }
  for (const Candidate& cand : *mandatory[level]) {
    size_t set[3];
    size_t num_set;
    if (BindCandidate(cand, row, set, &num_set)) {
      ExpandRecurse(mandatory, level + 1, row, out);
    }
    for (size_t k = 0; k < num_set; ++k) (*row)[set[k]] = nullptr;
  }
}

// The rows `tg` implicitly represents for `star` (see ExpandAnnTg).
std::vector<Row> ExpandAnnTgRows(const StarPattern& star, const AnnTg& tg,
                                 const VarSlots& vars) {
  std::vector<std::vector<Candidate>> candidates(star.patterns.size());
  std::vector<const std::vector<Candidate>*> mandatory;
  for (size_t i = 0; i < star.patterns.size(); ++i) {
    const TriplePattern& tp = star.patterns[i];
    const size_t subject_slot =
        tp.subject.is_variable() ? SlotOf(vars, tp.subject.value) : kNoSlot;
    const size_t property_slot =
        tp.property_bound ? kNoSlot : SlotOf(vars, tp.property);
    const size_t object_slot =
        tp.object.is_variable() ? SlotOf(vars, tp.object.value) : kNoSlot;
    const auto add = [&](const std::string& property,
                         const std::string& object) {
      if (!tp.object.Matches(object)) return;
      Candidate cand;
      if (subject_slot != kNoSlot) cand.Bind(subject_slot, &tg.subject);
      if (property_slot != kNoSlot && !cand.Bind(property_slot, &property)) {
        return;
      }
      if (object_slot != kNoSlot && !cand.Bind(object_slot, &object)) return;
      candidates[i].push_back(cand);
    };
    if (tp.property_bound) {
      auto it = tg.pairs.find(tp.property);
      if (it != tg.pairs.end()) {
        for (const std::string& o : it->second) add(it->first, o);
      }
    } else if (auto it = tg.overrides.find(static_cast<uint32_t>(i));
               it != tg.overrides.end()) {
      for (const PropObj& po : it->second) add(po.property, po.object);
    } else {
      // UnboundCandidates, read in place.
      for (const auto& [property, objects] : tg.pairs) {
        for (const std::string& o : objects) add(property, o);
      }
    }
    if (tp.optional) continue;
    if (candidates[i].empty()) return {};
    mandatory.push_back(&candidates[i]);
  }
  Row row(vars.size(), nullptr);
  std::vector<Row> rows;
  ExpandRecurse(mandatory, 0, &row, &rows);

  // Left-join the optional patterns (extend when compatible, else keep).
  for (size_t i = 0; i < star.patterns.size(); ++i) {
    if (!star.patterns[i].optional) continue;
    std::vector<Row> extended;
    for (Row& r : rows) {
      bool any = false;
      for (const Candidate& cand : candidates[i]) {
        Row merged = r;
        size_t set[3];
        size_t num_set;
        if (BindCandidate(cand, &merged, set, &num_set)) {
          any = true;
          extended.push_back(std::move(merged));
        }
      }
      if (!any) extended.push_back(std::move(r));
    }
    rows = std::move(extended);
  }
  return rows;
}

// Merges `b` into a copy of `a`; false if some slot holds different values.
bool MergeRows(const Row& a, const Row& b, Row* out) {
  *out = a;
  for (size_t slot = 0; slot < b.size(); ++slot) {
    if (b[slot] == nullptr) continue;
    const std::string*& value = (*out)[slot];
    if (value == nullptr) {
      value = b[slot];
    } else if (value != b[slot] && *value != *b[slot]) {
      return false;
    }
  }
  return true;
}

// Appends the rows of `jtg` (see ExpandJoinedTg) to `out`.
void ExpandJoinedTgRows(const std::vector<StarPattern>& stars,
                        const JoinedTg& jtg, const VarSlots& vars,
                        std::vector<Row>* out) {
  OperatorProbe probe("expand_joined_tg");
  std::vector<Row> acc = {Row(vars.size(), nullptr)};
  for (size_t c = 0; c < jtg.components.size(); ++c) {
    const AnnTg& component = jtg.components[c];
    RDFMR_CHECK(component.star_id < stars.size())
        << "joined component references unknown star";
    std::vector<Row> expanded =
        ExpandAnnTgRows(stars[component.star_id], component, vars);
    if (c == 0) {
      acc = std::move(expanded);  // the empty row merges to each
    } else {
      std::vector<Row> next;
      Row merged;
      for (const Row& a : acc) {
        for (const Row& b : expanded) {
          if (MergeRows(a, b, &merged)) next.push_back(merged);
        }
      }
      acc = std::move(next);
    }
    if (acc.empty()) break;
  }
  probe.Outputs(acc.size());
  out->insert(out->end(), std::make_move_iterator(acc.begin()),
              std::make_move_iterator(acc.end()));
}

// Row order and equality are those of the solutions the rows become:
// bindings compare as (variable, value) sequences, and slot order is
// variable order.
int CompareRows(const Row& a, const Row& b) {
  size_t i = 0, j = 0;
  for (;; ++i, ++j) {
    while (i < a.size() && a[i] == nullptr) ++i;
    while (j < b.size() && b[j] == nullptr) ++j;
    if (i == a.size() || j == b.size()) {
      return (i == a.size() ? 0 : 1) - (j == b.size() ? 0 : 1);
    }
    if (i != j) return i < j ? -1 : 1;
    if (a[i] != b[j]) {
      if (int c = a[i]->compare(*b[j]); c != 0) return c;
    }
  }
}

Solution RowToSolution(const VarSlots& vars, const Row& row) {
  Solution s;
  s.Reserve(row.size() - std::count(row.begin(), row.end(), nullptr));
  for (size_t slot = 0; slot < row.size(); ++slot) {
    if (row[slot] != nullptr) s.Bind(*vars[slot], *row[slot]);
  }
  return s;
}

std::vector<Solution> RowsToSolutions(const VarSlots& vars,
                                      const std::vector<Row>& rows) {
  std::vector<Solution> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToSolution(vars, row));
  return out;
}

}  // namespace

std::vector<Solution> ExpandAnnTg(const StarPattern& star, const AnnTg& tg) {
  VarSlots vars;
  AddStarVariables(star, &vars);
  SortSlots(&vars);
  return RowsToSolutions(vars, ExpandAnnTgRows(star, tg, vars));
}

std::vector<Solution> ExpandJoinedTg(const std::vector<StarPattern>& stars,
                                     const JoinedTg& jtg) {
  VarSlots vars;
  for (const StarPattern& star : stars) AddStarVariables(star, &vars);
  SortSlots(&vars);
  std::vector<Row> rows;
  ExpandJoinedTgRows(stars, jtg, vars, &rows);
  return RowsToSolutions(vars, rows);
}

Result<SolutionSet> DecodeJoinedTgAnswers(
    const std::vector<StarPattern>& stars,
    const std::vector<std::string>& lines) {
  VarSlots vars;
  for (const StarPattern& star : stars) AddStarVariables(star, &vars);
  SortSlots(&vars);
  // Rows point into the parsed records, which therefore outlive them.
  std::vector<JoinedTg> records;
  records.reserve(lines.size());
  std::vector<Row> rows;
  for (const std::string& line : lines) {
    RDFMR_ASSIGN_OR_RETURN(JoinedTg jtg, JoinedTg::Deserialize(line));
    records.push_back(std::move(jtg));
    ExpandJoinedTgRows(stars, records.back(), vars, &rows);
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return CompareRows(a, b) < 0;
  });
  rows.erase(std::unique(rows.begin(), rows.end(),
                         [](const Row& a, const Row& b) {
                           return CompareRows(a, b) == 0;
                         }),
             rows.end());
  std::vector<Solution> solutions = RowsToSolutions(vars, rows);
  return SolutionSet(std::make_move_iterator(solutions.begin()),
                     std::make_move_iterator(solutions.end()));
}

}  // namespace rdfmr
