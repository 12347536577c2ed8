#include "ntga/operators.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "query/star_walk.h"

namespace rdfmr {

namespace {
std::atomic<bool> g_flip_beta_group_filter{false};

// The probed operators, by the name their metrics carry.
constexpr char kBuildAnnTg[] = "build_anntg";
constexpr char kBetaUnnest[] = "beta_unnest";
constexpr char kPartialBetaUnnest[] = "partial_beta_unnest";
constexpr char kExpandJoinedTg[] = "expand_joined_tg";

// Per-operator instrumentation, active only when a sink enabled operator
// metrics: the disabled path is one relaxed atomic load and no clock read.
// Metrics are resolved on an operator's first probed call and kept, so
// MetricsRegistry::ResetForTesting must not follow one. Wall times never
// feed deterministic outputs or counters.
template <const char* kOp>
class OperatorProbe {
 public:
  OperatorProbe() {
    if (!OperatorMetricsEnabled()) return;
    MetricsRegistry& registry = MetricsRegistry::Global();
    static const std::string base = std::string("rdfmr_ntga_") + kOp;
    static Counter* const calls =
        registry.GetCounter(base + "_calls", "operator invocations");
    static Counter* const outputs = registry.GetCounter(
        base + "_output_groups", "triplegroups / solutions produced");
    static HistogramMetric* const micros = registry.GetHistogram(
        base + "_micros", "operator wall time per call");
    calls->Increment();
    outputs_ = outputs;
    timer_.emplace(micros);
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

bool BuildAnnTg(const StarPattern& star, uint32_t star_id,
                std::string_view subject,
                std::span<const PropObj> subject_pairs, std::string* out) {
  OperatorProbe<kBuildAnnTg> probe;
  // A pair satisfies a pattern when it passes the object constraint and,
  // for a bound pattern, carries its property.
  const auto satisfies = [](const TriplePattern& tp, const PropObj& po) {
    return (!tp.property_bound || tp.property == po.property) &&
           tp.object.Matches(po.object);
  };

  // Every mandatory pattern needs a satisfying pair (an unbound one, a
  // candidate); optional patterns impose nothing.
  for (const TriplePattern& tp : star.patterns) {
    if (tp.optional) continue;
    bool satisfied = std::any_of(
        subject_pairs.begin(), subject_pairs.end(),
        [&](const PropObj& po) { return satisfies(tp, po); });
    if (tp.unbound_property() &&
        g_flip_beta_group_filter.load(std::memory_order_relaxed)) {
      satisfied = !satisfied;
    }
    if (!satisfied) return false;
  }

  // Keep the pairs that satisfy a pattern of this star: for an unbound
  // pattern, that keeps every candidate (the β group-filter retains the
  // implicit candidate set). Sorted pairs nest under their property.
  TgWriter writer(out, subject, star_id);
  const PropObj* previous = nullptr;
  for (const PropObj& po : subject_pairs) {
    if (std::none_of(star.patterns.begin(), star.patterns.end(),
                     [&](const TriplePattern& tp) {
                       return satisfies(tp, po);
                     })) {
      continue;
    }
    if (previous == nullptr || previous->property != po.property) {
      writer.Property(po.property);
    }
    previous = &po;
    writer.Object(po.object);
  }
  writer.EndPairs();
  probe.Outputs(1);
  return true;
}

namespace {

using Entry = TgRecordReader::Entry;
using Component = TgRecordReader::Component;

// A candidate that an output may pin pattern `tp_index` to: the leaves of
// its property and its object, and for μ^β_φm the object's φ_m partition.
struct Pin {
  uint32_t tp_index;
  uint32_t property;
  uint32_t object;
  uint32_t partition = 0;
};

const Entry* OverrideOf(const TgRecordReader& reader, const Component& site,
                        size_t tp_index) {
  for (uint32_t o = site.overrides_begin; o < site.overrides_end; ++o) {
    if (reader.overrides()[o].tp_index == tp_index) {
      return &reader.overrides()[o];
    }
  }
  return nullptr;
}

std::vector<Pin> Candidates(const StarPattern& star, size_t tp_index,
                                  const TgRecordReader& reader,
                                  const Component& site) {
  RDFMR_CHECK(star.patterns[tp_index].unbound_property())
      << "μ^β pins a bound pattern";
  std::vector<Pin> out;
  ForEachCandidate(star.patterns[tp_index], tp_index, reader, site,
                   [&](uint32_t property, uint32_t object) {
                     out.push_back(Pin{
                         static_cast<uint32_t>(tp_index), property, object});
                   });
  return out;
}

// Writes the record's bytes before `site`, then `site` up to its overrides
// with the pairs compacted for `pinned` (see BetaUnnester); returns the
// writer, whose open field is the overrides.
TgWriter WriteShared(const StarPattern& star,
                     const std::vector<std::string>& bound,
                     const std::vector<size_t>& unbound,
                     const TgRecordReader& reader, const Component& site,
                     const std::vector<size_t>& pinned, std::string* out) {
  std::vector<const TriplePattern*> open;
  for (size_t idx : unbound) {
    if (OverrideOf(reader, site, idx) == nullptr &&
        std::find(pinned.begin(), pinned.end(), idx) == pinned.end()) {
      open.push_back(&star.patterns[idx]);
    }
  }
  const std::vector<std::string_view>& leaves = reader.leaves();
  out->assign(reader.line().data(), site.raw.data());
  TgWriter writer(out, leaves[site.subject], site.star_id);
  for (uint32_t p = site.pairs_begin; p < site.pairs_end; ++p) {
    const Entry& e = reader.pairs()[p];
    const std::string_view property = leaves[e.begin];
    const bool keep_all =
        std::binary_search(bound.begin(), bound.end(), property);
    bool written = false;
    for (uint32_t j = e.begin + 1; j < e.end; ++j) {
      if (!keep_all && std::none_of(open.begin(), open.end(),
                                    [&](const TriplePattern* tp) {
                                      return tp->object.Matches(leaves[j]);
                                    })) {
        continue;
      }
      if (!written) writer.Property(property);
      written = true;
      writer.Object(leaves[j]);
    }
  }
  writer.EndPairs();
  return writer;
}

// Writes one output's overrides field — `site`'s own entries but those of
// the pinned patterns, merged in index order with the pinned candidates
// [pin, end) (by ascending pattern) — then the record's bytes after
// `site`.
void WriteOverrides(const TgRecordReader& reader, const Component& site,
                    const Pin* pin, const Pin* end,
                    TgWriter* writer, std::string* out) {
  const std::vector<std::string_view>& leaves = reader.leaves();
  const auto write_pins_before = [&](uint64_t tp_index) {
    while (pin != end && pin->tp_index < tp_index) {
      writer->Override(pin->tp_index);
      for (const uint32_t tp = pin->tp_index;
           pin != end && pin->tp_index == tp; ++pin) {
        writer->Pinned(leaves[pin->property], leaves[pin->object]);
      }
    }
  };
  for (uint32_t o = site.overrides_begin; o < site.overrides_end; ++o) {
    const Entry& e = reader.overrides()[o];
    write_pins_before(e.tp_index);
    if (pin != end && pin->tp_index == e.tp_index) continue;
    writer->Override(e.tp_index);
    for (uint32_t j = e.begin; j < e.end; j += 2) {
      writer->Pinned(leaves[j], leaves[j + 1]);
    }
  }
  write_pins_before(uint64_t{1} << 32);
  const std::string_view line = reader.line();
  out->append(site.raw.data() + site.raw.size(), line.data() + line.size());
}

}  // namespace

BetaUnnester::BetaUnnester(StarPattern star)
    : star_(std::move(star)), unbound_(star_.UnboundIndexes()) {
  const std::set<std::string> bound = star_.AllBoundProperties();
  bound_.assign(bound.begin(), bound.end());
}

size_t BetaUnnester::BetaUnnest(
    const TgRecordReader& reader, const Component& site,
    const std::vector<size_t>& tp_indexes,
    const std::function<void(std::string_view, std::string_view)>& visit)
    const {
  OperatorProbe<kBetaUnnest> probe;
  std::vector<size_t> pinned = tp_indexes;
  if (pinned.empty()) {
    for (size_t idx : unbound_) {
      const Entry* o = OverrideOf(reader, site, idx);
      if (!star_.patterns[idx].optional &&
          (o == nullptr || o->end - o->begin > 2)) {
        pinned.push_back(idx);
      }
    }
  }
  std::vector<std::vector<Pin>> candidates;
  for (size_t idx : pinned) {
    candidates.push_back(Candidates(star_, idx, reader, site));
    if (candidates.back().empty()) return 0;
  }

  std::string out;
  TgWriter writer =
      WriteShared(star_, bound_, unbound_, reader, site, pinned, &out);
  const size_t shared = out.size();
  std::vector<size_t> choice(pinned.size(), 0);
  std::vector<Pin> pins(pinned.size());
  size_t outputs = 0;
  while (true) {
    for (size_t k = 0; k < pinned.size(); ++k) {
      pins[k] = candidates[k][choice[k]];
    }
    out.resize(shared);
    WriteOverrides(reader, site, pins.data(), pins.data() + pins.size(),
                   &writer, &out);
    visit(pins.empty() ? std::string_view() : reader.leaves()[pins[0].object],
          out);
    ++outputs;
    // The next combination: the last pattern turns fastest.
    size_t k = pinned.size();
    while (k > 0 && ++choice[k - 1] == candidates[k - 1].size()) {
      choice[--k] = 0;
    }
    if (k == 0) break;
  }
  probe.Outputs(outputs);
  return outputs;
}

size_t BetaUnnester::PartialBetaUnnest(
    const TgRecordReader& reader, const Component& site, size_t tp_index,
    uint32_t m,
    const std::function<void(uint32_t, std::string_view)>& visit) const {
  OperatorProbe<kPartialBetaUnnest> probe;
  // The candidates by ascending partition, in candidate order within one.
  std::vector<Pin> candidates =
      Candidates(star_, tp_index, reader, site);
  for (Pin& c : candidates) {
    c.partition = PhiPartition(reader.leaves()[c.object], m);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Pin& a, const Pin& b) {
                     return a.partition < b.partition;
                   });

  std::string out;
  TgWriter writer =
      WriteShared(star_, bound_, unbound_, reader, site, {tp_index}, &out);
  const size_t shared = out.size();
  size_t outputs = 0;
  for (size_t begin = 0, end = 0; begin < candidates.size(); begin = end) {
    const uint32_t partition = candidates[begin].partition;
    while (end < candidates.size() && candidates[end].partition == partition) {
      ++end;
    }
    out.resize(shared);
    WriteOverrides(reader, site, &candidates[begin], candidates.data() + end,
                   &writer, &out);
    visit(partition, out);
    ++outputs;
  }
  probe.Outputs(outputs);
  return outputs;
}

namespace {

// Answer extraction works on the query's variables as slots, numbered in
// variable name order, holding handles of the terms interned from the
// records: the star walk binds and unbinds slots in place, equal terms have
// equal handles, and rows go to the answer table as they are.
using Handle = SolutionSet::Handle;
constexpr Handle kUnbound = SolutionSet::kUnbound;

// How records of `stars` bind: one SlotPlan over the stars' patterns, star
// after star, so the slots are the stars' variables, sorted.
class TgAnswerPlan {
 public:
  explicit TgAnswerPlan(std::vector<StarPattern> stars)
      : stars_(std::move(stars)), slots_([this] {
          std::vector<TriplePattern> patterns;  // star after star
          for (const StarPattern& star : stars_) {
            first_pattern_.push_back(patterns.size());
            patterns.insert(patterns.end(), star.patterns.begin(),
                            star.patterns.end());
          }
          return SlotPlan(std::move(patterns));
        }()) {}

  const std::vector<StarPattern>& stars() const { return stars_; }
  const std::vector<std::string>& variables() const {
    return slots_.variables();
  }
  // The subject, property and object slots of pattern `pattern` of star
  // `star`.
  const SlotPlan::PatternSlots& slots(size_t star, size_t pattern) const {
    return slots_.slots(first_pattern_[star] + pattern);
  }

 private:
  std::vector<StarPattern> stars_;
  std::vector<size_t> first_pattern_;  // per star, its first pattern's index
  SlotPlan slots_;
};

// Expands triplegroup records into rows of handles over the variable slots
// of `stars`, interning the leaves it binds into one builder. Scratch
// buffers are reused from record to record.
class RowExpander {
 public:
  RowExpander(const TgAnswerPlan& plan, SolutionSet::Builder* builder)
      : plan_(plan), builder_(builder), width_(builder->width()) {}

  // Adds the rows a record represents to the builder: each component's
  // rows, merged across components; inconsistent combinations drop out.
  Status Expand(const TgRecordReader& record) {
    for (const TgRecordReader::Component& c : record.components()) {
      if (c.star_id >= plan_.stars().size()) {
        return Status::IoError("record component references unknown star " +
                               std::to_string(c.star_id));
      }
    }
    OperatorProbe<kExpandJoinedTg> probe;
    leaves_ = &record.leaves();
    handles_.assign(leaves_->size(), kUnbound);
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
    probe.Outputs(width_ == 0 ? 0 : acc_.size() / width_);
    for (size_t r = 0; r < acc_.size(); r += width_) {
      builder_->AddRow(acc_.data() + r);
    }
    return Status::OK();
  }

 private:
  // Leaves are interned on first use: a bound pattern's property and an
  // object no pattern accepts never reach the builder.
  Handle LeafHandle(uint32_t leaf) {
    Handle& h = handles_[leaf];
    if (h == kUnbound) h = builder_->Intern((*leaves_)[leaf]);
    return h;
  }

  // The rows of component `c` (of star `star_index`): each pattern's
  // candidates (ForEachCandidate) bound as leaf handles, walked.
  void ExpandComponent(size_t star_index, const TgRecordReader& record,
                       const TgRecordReader::Component& c,
                       std::vector<Handle>* rows) {
    const StarPattern& star = plan_.stars()[star_index];
    rows->clear();
    walk_.Start(star.patterns, width_, kUnbound);
    for (size_t i = 0; i < star.patterns.size(); ++i) {
      const auto add = [&](uint32_t property, uint32_t object) {
        const uint32_t leaves[3] = {c.subject, property, object};
        walk_.Add(i, plan_.slots(star_index, i),
                  [&](size_t j) { return LeafHandle(leaves[j]); });
      };
      ForEachCandidate(star.patterns[i], i, record, c, add);
    }
    walk_.Run([rows](std::span<const Handle> row, std::span<const uint32_t>) {
      rows->insert(rows->end(), row.begin(), row.end());
    });
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

  const TgAnswerPlan& plan_;
  SolutionSet::Builder* builder_;
  const size_t width_;
  const std::vector<std::string_view>* leaves_ = nullptr;
  std::vector<Handle> handles_;  // per leaf of the current record
  StarWalk<Handle> walk_;
  std::vector<Handle> acc_, expanded_, next_;
};

}  // namespace

AnswerDecoder JoinedTgAnswerDecoder(std::vector<StarPattern> stars) {
  const TgAnswerPlan plan(std::move(stars));
  return {plan.variables(),
          [plan](std::span<const std::string> lines,
                 SolutionSet::Builder* builder) {
            RowExpander expander(plan, builder);
            TgRecordReader record;
            for (const std::string& line : lines) {
              RDFMR_RETURN_NOT_OK(record.Read(line));
              RDFMR_RETURN_NOT_OK(expander.Expand(record));
            }
            return Status::OK();
          }};
}

}  // namespace rdfmr
