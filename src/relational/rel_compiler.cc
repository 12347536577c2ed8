#include "relational/rel_compiler.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>

#include "common/strings.h"
#include "query/base_scan.h"
#include "query/matcher.h"
#include "query/star_walk.h"
#include "rdf/triple.h"
#include "relational/rel_tuple.h"

namespace rdfmr {

namespace {

using QueryPtr = std::shared_ptr<const GraphPatternQuery>;

// ---- Base scans ---------------------------------------------------------------

// The counter a VP scan bumps per emitted triple.
constexpr char kVpScan[] = "op.vp_scan.output_records";

// Hive's shared scan of one star: a triple is emitted once per pattern it
// matches, mirroring its membership in several VP relations.
MapInput MakeStarScan(const std::string& path, const StarPattern& star) {
  return MakeBaseScan(path, {.patterns = star.patterns,
                             .per_pattern = true,
                             .counter = kVpScan});
}

// ---- Star joins -------------------------------------------------------------

// One star's join: its slot plan, compiled once per star and shared by
// every copy, and a walk of the copy's own. Match() enumerates the star's
// matches over a subject's distinct triples through the one star walk
// (query/star_walk.h), each pattern's candidates being the triples that
// pass MatchesTriplePattern, bound as field views. A match's record is its
// triples' lines side by side, an unmatched OPTIONAL column three empty
// fields.
class StarMatcher {
 public:
  explicit StarMatcher(const StarPattern& star)
      : slots_(std::make_shared<const SlotPlan>(star.patterns)) {}

  // Emits the record of each match over `triples` (distinct, sorted);
  // returns the match count.
  size_t Match(const std::vector<TripleView>& triples,
               const RecordEmit& emit) {
    using Walk = StarWalk<std::string_view>;
    const std::vector<TriplePattern>& patterns = slots_->patterns();
    walk_.Start(patterns, slots_->width(), std::string_view());
    sources_.clear();
    for (size_t p = 0; p < patterns.size(); ++p) {
      for (uint32_t t = 0; t < triples.size(); ++t) {
        const TripleView& v = triples[t];
        const std::string_view fields[3] = {v.subject, v.property, v.object};
        if (MatchesTriplePattern(patterns[p], fields[0], fields[1],
                                 fields[2])) {
          walk_.Add(p, slots_->slots(p), [&](size_t j) { return fields[j]; });
          sources_.push_back(t);
        }
      }
    }
    return walk_.Run([&](std::span<const std::string_view> /*row*/,
                         std::span<const uint32_t> chosen) {
      std::string record;
      for (size_t p = 0; p < chosen.size(); ++p) {
        if (p > 0) record.push_back('\t');
        if (chosen[p] == Walk::kNone) {
          record.append("\t\t");
        } else {
          triples[sources_[chosen[p]]].AppendLine(&record);
        }
      }
      emit(std::move(record));
    });
  }

 private:
  std::shared_ptr<const SlotPlan> slots_;
  StarWalk<std::string_view> walk_;
  std::vector<uint32_t> sources_;  // the triple each candidate binds
};

// Star-join reducer: reads a subject's triple lines as views into its
// task's TripleViews (cleared per group), keeps the distinct ones and
// writes the star's matches (relational arity 3k).
ReduceFn MakeStarReducer(const StarPattern& star) {
  return [matcher = StarMatcher(star), triples = TripleViews()](
             const std::string& /*key*/, std::span<const std::string> values,
             const RecordEmit& emit, Counters* counters) mutable {
    triples.Clear();
    uint64_t rejected = 0;
    for (const std::string& v : values) {
      if (!triples.Add(v).ok()) ++rejected;
    }
    if (rejected > 0) (*counters)["bad_records"] += rejected;
    triples.SortDistinct();
    const size_t matches = matcher.Match(triples.views(), emit);
    (*counters)["op.star_join.input_groups"] += 1;
    (*counters)["op.star_join.output_records"] += matches;
  };
}

// ---- Join cycles --------------------------------------------------------------

// Tags a relational intermediate tuple with its join-key value: the
// reader's binding of the join variable, which is a node variable outside
// any OPTIONAL and so bound in every tuple the reader accepts.
MapFn MakeJoinMapper(const RelSchema& schema, const std::string& var,
                     std::string tag) {
  RelRecordReader reader(schema);
  const size_t slot = reader.SlotOf(var);
  return [reader = std::move(reader), slot, tag = std::move(tag)](
             const std::string& record, const MapEmit& emit,
             Counters* counters) mutable {
    if (!reader.Read(record).ok() || slot == RelRecordReader::kNoSlot ||
        !reader.bound(slot)) {
      (*counters)["bad_records"] += 1;
      return;
    }
    emit(std::string(reader.value(slot)), JoinTagged(tag, record));
  };
}

// What a join reducer reads its inputs with: a reader per side, and the
// (left slot, right slot) of each variable both sides bind.
struct JoinReaders {
  JoinReaders(const RelSchema& left_schema, const RelSchema& right_schema)
      : left(left_schema), right(right_schema) {
    for (size_t l = 0; l < left.variables().size(); ++l) {
      const size_t r = right.SlotOf(left.variables()[l]);
      if (r != RelRecordReader::kNoSlot) shared.emplace_back(l, r);
    }
  }

  RelRecordReader left;
  RelRecordReader right;
  std::vector<std::pair<size_t, size_t>> shared;
};

// One input of a join reducer: each tuple is held by the reader copy that
// bound it (a deque, so earlier tuples' views stay valid).
using JoinSide = std::deque<RelRecordReader>;

// Reads `record` (which must outlive `side`) into a new tuple of `side`;
// false, adding nothing, if `reader` rejects it.
bool AddTuple(const RelRecordReader& reader, std::string_view record,
              JoinSide* side) {
  if (side->emplace_back(reader).Read(record).ok()) return true;
  side->pop_back();
  return false;
}

// Emits the joined record of every (left, right) pair, left-major in input
// order, that holds one value for each shared variable bound on both
// sides: the rule by which two solutions merge.
void JoinTuples(const JoinReaders& readers, const JoinSide& lefts,
                const JoinSide& rights, const RecordEmit& emit) {
  const auto& shared = readers.shared;
  for (const RelRecordReader& l : lefts) {
    for (const RelRecordReader& r : rights) {
      auto agree = [&l, &r](const std::pair<size_t, size_t>& slots) {
        return !l.bound(slots.first) || !r.bound(slots.second) ||
               l.value(slots.first) == r.value(slots.second);
      };
      if (std::all_of(shared.begin(), shared.end(), agree)) {
        emit(JoinTupleRecords(l.line(), r.line()));
      }
    }
  }
}

// Reduce-side join of two relational intermediates; enforces consistency of
// ALL shared variables (not only the shuffle key) so multi-predicate joins
// between the same pair of stars stay correct.
ReduceFn MakeJoinReducer(const RelSchema& left_schema,
                         const RelSchema& right_schema) {
  return [readers = JoinReaders(left_schema, right_schema)](
             const std::string& /*key*/,
             std::span<const std::string> values, const RecordEmit& emit,
             Counters* counters) {
    JoinSide lefts, rights;
    for (const std::string& v : values) {
      std::string_view tag, record;
      if (!SplitJoinTag(v, &tag, &record)) {
        (*counters)["bad_records"] += 1;
        continue;
      }
      const bool left = tag == "L";
      if (!AddTuple(left ? readers.left : readers.right, record,
                    left ? &lefts : &rights)) {
        (*counters)["bad_records"] += 1;
      }
    }
    (*counters)["op.rel_join.input_records"] += lefts.size() + rights.size();
    JoinTuples(readers, lefts, rights, [&emit, counters](std::string record) {
      (*counters)["op.rel_join.output_records"] += 1;
      emit(std::move(record));
    });
  };
}

// ---- Plan assembly ----------------------------------------------------------

struct RelationState {
  std::string path;
  RelSchema schema;
  /// Single-pattern stars need no star-join cycle: the pattern's VP scan is
  /// folded directly into the map side of the join cycle that consumes it
  /// (this is how Hive/Pig evaluate a lone edge pattern, e.g. A5's label
  /// lookup: 2 jobs, both scanning the triple relation).
  bool inline_single_pattern = false;
};

// Builds the standard plan: one star-join cycle per star, then one join
// cycle per spanning star join.
Result<CompiledPlan> CompileStarPerCycle(QueryPtr query,
                                         const std::string& base_path,
                                         const std::string& tmp_prefix,
                                         const RelationalOptions& options) {
  CompiledPlan plan;
  plan.workflow.name = query->name() + "/" +
                       (options.style == RelationalStyle::kPig ? "pig"
                                                               : "hive");
  std::string scan_path = base_path;
  bool scanning_base = true;

  // Pig prepends a map-only filter/compress job for unbound multi-star
  // queries (the paper's observed A4/A6 behaviour).
  if (options.style == RelationalStyle::kPig && query->HasUnbound() &&
      query->stars().size() > 1) {
    JobSpec job;
    job.name = "pig-filter-compress";
    job.full_scans_of_base = 1;
    job.inputs.push_back(MakeBaseScan(
        base_path, {.patterns = query->patterns(), .key = ScanKey::kNone}));
    job.output_path = tmp_prefix + "/compressed";
    plan.workflow.jobs.push_back(std::move(job));
    plan.workflow.intermediate_paths.push_back(tmp_prefix + "/compressed");
    scan_path = tmp_prefix + "/compressed";
    scanning_base = false;
  }

  // --- Star-join cycles.
  std::vector<RelationState> relations(query->stars().size());
  for (size_t s = 0; s < query->stars().size(); ++s) {
    const StarPattern& star = query->stars()[s];
    if (star.patterns.size() == 1 && query->stars().size() > 1) {
      // Lone edge pattern: fold its scan into the consuming join cycle.
      relations[s] = RelationState{scan_path, star.patterns, true};
      continue;
    }
    JobSpec job;
    job.name = StringFormat("star-join-%zu", s);
    if (options.style == RelationalStyle::kPig) {
      // One scan per join operand (VP relation).
      for (const TriplePattern& tp : star.patterns) {
        job.inputs.push_back(
            MakeBaseScan(scan_path, {.patterns = {tp}, .counter = kVpScan}));
      }
      job.full_scans_of_base =
          scanning_base ? static_cast<uint32_t>(star.patterns.size()) : 0;
    } else {
      job.inputs.push_back(MakeStarScan(scan_path, star));
      job.full_scans_of_base = scanning_base ? 1 : 0;
    }
    job.reduce = MakeStarReducer(star);
    job.output_path = StringFormat("%s/star%zu", tmp_prefix.c_str(), s);
    relations[s] = RelationState{job.output_path, star.patterns};
    plan.star_phase_paths.push_back(job.output_path);
    plan.workflow.jobs.push_back(std::move(job));
  }

  // --- Join cycles (union-find over stars).
  std::vector<size_t> component(query->stars().size());
  std::iota(component.begin(), component.end(), 0);
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (component[x] != x) x = component[x] = component[component[x]];
    return x;
  };

  size_t join_count = 0;
  for (const StarJoin& join : query->joins()) {
    size_t a = find(join.left_star);
    size_t b = find(join.right_star);
    if (a == b) continue;  // residual predicate; enforced inside reducers
    const RelationState& left = relations[a];
    const RelationState& right = relations[b];

    JobSpec job;
    job.name = StringFormat("join-%zu-on-%s", join_count,
                            join.variable.c_str());
    auto add_side = [&](const RelationState& rel, const char* tag) {
      if (!rel.inline_single_pattern) {
        job.inputs.push_back(
            MapInput{rel.path, MakeJoinMapper(rel.schema, join.variable, tag),
                     /*scan_properties=*/nullptr});
        return;
      }
      // The triple relation is scanned as the arity-1 tuples of the lone
      // pattern: keyed by the join variable's field, a triple the pattern
      // rejects skipped uncounted.
      job.inputs.push_back(MakeBaseScan(rel.path,
                                        {.patterns = rel.schema,
                                         .key = ScanKey::kVariable,
                                         .key_variable = join.variable,
                                         .tag = tag}));
      if (scanning_base) job.full_scans_of_base += 1;
    };
    add_side(left, "L");
    add_side(right, "R");
    job.reduce = MakeJoinReducer(left.schema, right.schema);
    job.output_path = StringFormat("%s/join%zu", tmp_prefix.c_str(),
                                   join_count);
    RelSchema joined_schema = left.schema;
    joined_schema.insert(joined_schema.end(), right.schema.begin(),
                         right.schema.end());
    component[b] = a;
    relations[a] = RelationState{job.output_path, std::move(joined_schema)};
    plan.workflow.jobs.push_back(std::move(job));
    ++join_count;
  }

  const RelationState& final_rel = relations[find(0)];
  plan.workflow.final_output_path = final_rel.path;
  for (const JobSpec& job : plan.workflow.jobs) {
    if (job.output_path != final_rel.path &&
        job.output_path != tmp_prefix + "/compressed") {
      plan.workflow.intermediate_paths.push_back(job.output_path);
    }
  }
  plan.decoder = RelationalAnswerDecoder(final_rel.schema);
  return plan;
}

// Builds the Fig. 3 "Sel-SJ-first" grouping for two-star queries.
Result<CompiledPlan> CompileSelSJFirst(QueryPtr query,
                                       const std::string& base_path,
                                       const std::string& tmp_prefix) {
  if (query->stars().size() != 2 || query->joins().empty()) {
    return Status::NotImplemented(
        "Sel-SJ-first grouping is defined for two-star queries");
  }
  const StarJoin& join = query->joins()[0];

  CompiledPlan plan;
  plan.workflow.name = query->name() + "/sel-sj-first";

  if (join.kind == StarJoinKind::kObjectSubject) {
    // The star whose SUBJECT is the join variable can be folded into the
    // join cycle; the other star ("first") is computed in cycle 1.
    size_t first = join.left_star;    // carries the object side
    size_t folded = join.right_star;  // subject side, folded into cycle 2

    // Cycle 1: compute `first`.
    JobSpec job1;
    job1.name = StringFormat("selsj-star-%zu", first);
    job1.inputs.push_back(MakeStarScan(base_path, query->stars()[first]));
    job1.full_scans_of_base = 1;
    job1.reduce = MakeStarReducer(query->stars()[first]);
    job1.output_path = tmp_prefix + "/selsj-first";
    plan.star_phase_paths.push_back(job1.output_path);
    plan.workflow.jobs.push_back(std::move(job1));

    // Cycle 2: scan base for `folded`'s patterns keyed by subject, join
    // with cycle 1's tuples keyed by the join variable.
    RelSchema first_schema = query->stars()[first].patterns;
    RelSchema folded_schema = query->stars()[folded].patterns;

    JobSpec job2;
    job2.name = "selsj-join";
    job2.inputs.push_back(
        MapInput{tmp_prefix + "/selsj-first",
                 MakeJoinMapper(first_schema, join.variable, "L"),
                 /*scan_properties=*/nullptr});
    // Routing only: a triple goes once, and the reducer derives matches.
    job2.inputs.push_back(MakeBaseScan(
        base_path, {.patterns = folded_schema, .tag = "B"}));
    job2.full_scans_of_base = 1;
    job2.reduce = [matcher = StarMatcher(query->stars()[folded]),
                   readers = JoinReaders(first_schema, folded_schema),
                   triples = TripleViews()](
                      const std::string& /*key*/,
                      std::span<const std::string> values,
                      const RecordEmit& emit, Counters* counters) mutable {
      triples.Clear();
      JoinSide lefts;
      for (const std::string& v : values) {
        std::string_view tag, record;
        const bool read =
            SplitJoinTag(v, &tag, &record) &&
            (tag == "B" ? triples.Add(record).ok()
                        : AddTuple(readers.left, record, &lefts));
        if (!read) (*counters)["bad_records"] += 1;
      }
      if (lefts.empty() || triples.views().empty()) return;
      triples.SortDistinct();
      std::vector<std::string> match_records;
      matcher.Match(triples.views(), [&match_records](std::string record) {
        match_records.push_back(std::move(record));
      });
      JoinSide rights;
      for (const std::string& record : match_records) {
        if (!AddTuple(readers.right, record, &rights)) {
          (*counters)["bad_records"] += 1;
        }
      }
      JoinTuples(readers, lefts, rights, emit);
    };
    job2.output_path = tmp_prefix + "/selsj-out";
    plan.workflow.jobs.push_back(std::move(job2));

    plan.workflow.final_output_path = tmp_prefix + "/selsj-out";
    plan.workflow.intermediate_paths.push_back(tmp_prefix + "/selsj-first");
    RelSchema final_schema = first_schema;
    final_schema.insert(final_schema.end(), folded_schema.begin(),
                        folded_schema.end());
    plan.decoder = RelationalAnswerDecoder(final_schema);
    return plan;
  }

  // Object-Object (or Subject-Subject) joins cannot fold a star into the
  // join cycle: fall back to 3 cycles, with the join cycle re-scanning the
  // base relation (reproducing the case study's observation that
  // Sel-SJ-first does a full scan in all 3 cycles for O-O joins).
  RelationalOptions hive;
  hive.style = RelationalStyle::kHive;
  RDFMR_ASSIGN_OR_RETURN(
      CompiledPlan plan3,
      CompileStarPerCycle(query, base_path, tmp_prefix, hive));
  plan3.workflow.name = query->name() + "/sel-sj-first";
  if (!plan3.workflow.jobs.empty()) {
    JobSpec& join_job = plan3.workflow.jobs.back();
    join_job.inputs.push_back(MakeBaseScan(base_path, {}));  // rescan
    join_job.full_scans_of_base += 1;
  }
  return plan3;
}

}  // namespace

Result<CompiledPlan> CompileRelationalPlan(
    std::shared_ptr<const GraphPatternQuery> query,
    const std::string& base_path, const std::string& tmp_prefix,
    const RelationalOptions& options) {
  if (query == nullptr) {
    return Status::InvalidArgument("null query");
  }
  RDFMR_ASSIGN_OR_RETURN(
      CompiledPlan plan,
      options.grouping == RelationalGrouping::kSelSJFirst
          ? CompileSelSJFirst(query, base_path, tmp_prefix)
          : CompileStarPerCycle(query, base_path, tmp_prefix, options));
  plan.final_output_paths = {plan.workflow.final_output_path};
  return plan;
}

}  // namespace rdfmr
