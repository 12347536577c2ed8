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

uint32_t PhiPartition(std::string_view value, uint32_t m) {
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
// variable name order, holding handles of the terms interned from the
// records: candidate products bind and unbind slots in place, equal terms
// have equal handles, and rows go to the answer table as they are.
using Handle = SolutionSet::Handle;
constexpr Handle kUnbound = SolutionSet::kUnbound;
constexpr size_t kNoSlot = static_cast<size_t>(-1);

std::vector<std::string> StarVariables(const std::vector<StarPattern>& stars) {
  std::vector<std::string> vars;
  for (const StarPattern& star : stars) {
    for (const TriplePattern& tp : star.patterns) {
      for (std::string& var : tp.Variables()) vars.push_back(std::move(var));
    }
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

struct SlotValue {
  size_t slot;
  Handle value;
};

// The bindings of one candidate pair of one pattern (at most subject,
// property and object), distinct slots.
struct Candidate {
  SlotValue entries[3];
  size_t size = 0;

  // Adds slot=value; false if the slot already holds a different value.
  bool Bind(size_t slot, Handle value) {
    for (size_t k = 0; k < size; ++k) {
      if (entries[k].slot == slot) return entries[k].value == value;
    }
    entries[size++] = SlotValue{slot, value};
    return true;
  }
};

// Binds `cand` into `row`; returns false on a conflicting slot. The slots
// it newly set are recorded in `set` so the caller can undo them.
bool BindCandidate(const Candidate& cand, Handle* row, size_t set[3],
                   size_t* num_set) {
  *num_set = 0;
  for (size_t k = 0; k < cand.size; ++k) {
    const SlotValue& e = cand.entries[k];
    Handle& slot = row[e.slot];
    if (slot == kUnbound) {
      slot = e.value;
      set[(*num_set)++] = e.slot;
    } else if (slot != e.value) {
      return false;
    }
  }
  return true;
}

// Expands triplegroup records into rows of handles over the variable slots
// of `stars`, interning the leaves it binds into one builder. Scratch
// buffers are reused from record to record.
class RowExpander {
 public:
  RowExpander(const std::vector<StarPattern>& stars,
              SolutionSet::Builder* builder)
      : stars_(stars), builder_(builder), width_(builder->width()) {
    const std::vector<std::string>& vars = builder->variables();
    auto slot_of = [&vars](const std::string& var) {
      return static_cast<size_t>(
          std::lower_bound(vars.begin(), vars.end(), var) - vars.begin());
    };
    for (const StarPattern& star : stars) {
      std::vector<PatternSlots>& slots = slots_.emplace_back();
      for (const TriplePattern& tp : star.patterns) {
        slots.push_back(PatternSlots{
            tp.subject.is_variable() ? slot_of(tp.subject.value) : kNoSlot,
            tp.property_bound ? kNoSlot : slot_of(tp.property),
            tp.object.is_variable() ? slot_of(tp.object.value) : kNoSlot});
      }
    }
  }

  // Expands the rows a record represents: each component's rows, merged
  // across components; inconsistent combinations drop out. The rows stay
  // in rows() until the next call.
  Status Expand(const TgRecordReader& record) {
    for (const TgRecordReader::Component& c : record.components()) {
      if (c.star_id >= stars_.size()) {
        return Status::IoError("record component references unknown star " +
                               std::to_string(c.star_id));
      }
    }
    OperatorProbe probe("expand_joined_tg");
    BeginRecord(record);
    acc_.assign(width_, kUnbound);  // the empty row merges to each
    for (const TgRecordReader::Component& c : record.components()) {
      if (&c == &record.components().front()) {
        ExpandComponent(c.star_id, record, c, &acc_);
      } else {
        ExpandComponent(c.star_id, record, c, &expanded_);
        MergeRows();
      }
      if (acc_.empty()) break;
    }
    probe.Outputs(NumRows(acc_));
    return Status::OK();
  }

  const std::vector<Handle>& rows() const { return acc_; }

  size_t NumRows(const std::vector<Handle>& rows) const {
    return width_ == 0 ? 0 : rows.size() / width_;
  }

 private:
  // Leaves are interned on first use: a bound pattern's property and an
  // object no pattern accepts never reach the builder.
  void BeginRecord(const TgRecordReader& record) {
    leaves_ = &record.leaves();
    handles_.assign(leaves_->size(), kUnbound);
  }

  Handle LeafHandle(uint32_t leaf) {
    Handle& h = handles_[leaf];
    if (h == kUnbound) h = builder_->Intern((*leaves_)[leaf]);
    return h;
  }

  void ExpandComponent(size_t star_index, const TgRecordReader& record,
                       const TgRecordReader::Component& c,
                       std::vector<Handle>* rows) {
    const StarPattern& star = stars_[star_index];
    const std::vector<std::string_view>& leaves = record.leaves();
    if (candidates_.size() < star.patterns.size()) {
      candidates_.resize(star.patterns.size());
    }
    mandatory_.clear();
    rows->clear();
    for (size_t i = 0; i < star.patterns.size(); ++i) {
      const TriplePattern& tp = star.patterns[i];
      std::vector<Candidate>& candidates = candidates_[i];
      candidates.clear();
      const auto [subject_slot, property_slot, object_slot] =
          slots_[star_index][i];
      const auto add = [&](uint32_t property, uint32_t object) {
        if (!tp.object.Matches(leaves[object])) return;
        Candidate cand;
        if (subject_slot != kNoSlot) {
          cand.Bind(subject_slot, LeafHandle(c.subject));
        }
        if (property_slot != kNoSlot &&
            !cand.Bind(property_slot, LeafHandle(property))) {
          return;
        }
        if (object_slot != kNoSlot &&
            !cand.Bind(object_slot, LeafHandle(object))) {
          return;
        }
        candidates.push_back(cand);
      };
      const std::vector<TgRecordReader::Entry>& pairs = record.pairs();
      const std::vector<TgRecordReader::Entry>& overrides =
          record.overrides();
      const TgRecordReader::Entry* pinned = nullptr;
      if (!tp.property_bound) {
        for (uint32_t o = c.overrides_begin; o < c.overrides_end; ++o) {
          if (overrides[o].tp_index == i) {
            pinned = &overrides[o];
            break;
          }
        }
      }
      if (pinned != nullptr) {
        for (uint32_t j = pinned->begin; j < pinned->end; j += 2) {
          add(j, j + 1);
        }
      } else {
        // Bound: the property's objects. Unbound: UnboundCandidates, read
        // in place.
        for (uint32_t p = c.pairs_begin; p < c.pairs_end; ++p) {
          const TgRecordReader::Entry& e = pairs[p];
          if (tp.property_bound && leaves[e.begin] != tp.property) continue;
          for (uint32_t j = e.begin + 1; j < e.end; ++j) add(e.begin, j);
          if (tp.property_bound) break;
        }
      }
      if (tp.optional) continue;
      if (candidates.empty()) return;
      mandatory_.push_back(&candidates);
    }
    row_.assign(width_, kUnbound);
    ExpandRecurse(0, rows);

    // Left-join the optional patterns (extend when compatible, else keep).
    for (size_t i = 0; i < star.patterns.size(); ++i) {
      if (!star.patterns[i].optional) continue;
      extended_.clear();
      for (size_t r = 0; r < rows->size(); r += width_) {
        bool any = false;
        for (const Candidate& cand : candidates_[i]) {
          merged_.assign(rows->begin() + r, rows->begin() + r + width_);
          size_t set[3];
          size_t num_set;
          if (BindCandidate(cand, merged_.data(), set, &num_set)) {
            any = true;
            extended_.insert(extended_.end(), merged_.begin(), merged_.end());
          }
        }
        if (!any) {
          extended_.insert(extended_.end(), rows->begin() + r,
                           rows->begin() + r + width_);
        }
      }
      rows->swap(extended_);
    }
  }

  // The product of the mandatory patterns' candidates, in candidate order.
  void ExpandRecurse(size_t level, std::vector<Handle>* rows) {
    if (level == mandatory_.size()) {
      rows->insert(rows->end(), row_.begin(), row_.end());
      return;
    }
    for (const Candidate& cand : *mandatory_[level]) {
      size_t set[3];
      size_t num_set;
      if (BindCandidate(cand, row_.data(), set, &num_set)) {
        ExpandRecurse(level + 1, rows);
      }
      for (size_t k = 0; k < num_set; ++k) row_[set[k]] = kUnbound;
    }
  }

  // acc_ := every consistent merge of an acc_ row with an expanded_ row.
  void MergeRows() {
    next_.clear();
    for (size_t a = 0; a < acc_.size(); a += width_) {
      for (size_t b = 0; b < expanded_.size(); b += width_) {
        const size_t start = next_.size();
        next_.insert(next_.end(), acc_.begin() + a, acc_.begin() + a + width_);
        Handle* merged = next_.data() + start;
        for (size_t slot = 0; slot < width_; ++slot) {
          const Handle h = expanded_[b + slot];
          if (h == kUnbound || merged[slot] == h) continue;
          if (merged[slot] != kUnbound) {
            next_.resize(start);
            break;
          }
          merged[slot] = h;
        }
      }
    }
    acc_.swap(next_);
  }

  struct PatternSlots {
    size_t subject, property, object;
  };

  const std::vector<StarPattern>& stars_;
  SolutionSet::Builder* builder_;
  const size_t width_;
  std::vector<std::vector<PatternSlots>> slots_;  // per star, per pattern
  const std::vector<std::string_view>* leaves_ = nullptr;
  std::vector<Handle> handles_;  // per leaf of the current record
  std::vector<std::vector<Candidate>> candidates_;
  std::vector<const std::vector<Candidate>*> mandatory_;
  std::vector<Handle> row_, merged_, acc_, expanded_, next_, extended_;
};

std::vector<Solution> RowsToSolutions(const SolutionSet::Builder& builder,
                                      const std::vector<Handle>& rows) {
  std::vector<Solution> out;
  const size_t width = builder.width();
  if (width == 0) return out;
  out.reserve(rows.size() / width);
  for (size_t r = 0; r < rows.size(); r += width) {
    out.push_back(builder.RowSolution(rows.data() + r));
  }
  return out;
}

}  // namespace

Result<std::vector<Solution>> ExpandJoinedTg(
    const std::vector<StarPattern>& stars, std::string_view record) {
  TgRecordReader reader;
  RDFMR_RETURN_NOT_OK(reader.Read(record));
  SolutionSet::Builder builder(StarVariables(stars));
  RowExpander expander(stars, &builder);
  RDFMR_RETURN_NOT_OK(expander.Expand(reader));
  return RowsToSolutions(builder, expander.rows());
}

Result<SolutionSet> DecodeJoinedTgAnswers(
    const std::vector<StarPattern>& stars,
    const std::vector<std::string>& lines) {
  SolutionSet::Builder builder(StarVariables(stars));
  RowExpander expander(stars, &builder);
  TgRecordReader record;
  const size_t width = builder.width();
  for (const std::string& line : lines) {
    RDFMR_RETURN_NOT_OK(record.Read(line));
    RDFMR_RETURN_NOT_OK(expander.Expand(record));
    const std::vector<Handle>& rows = expander.rows();
    for (size_t r = 0; r < rows.size(); r += width) {
      builder.AddRow(rows.data() + r);
    }
  }
  return builder.Finish();
}

}  // namespace rdfmr
