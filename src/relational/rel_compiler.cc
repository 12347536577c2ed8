#include "relational/rel_compiler.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <set>

#include "common/strings.h"
#include "query/matcher.h"
#include "relational/rel_tuple.h"

namespace rdfmr {

namespace {

using QueryPtr = std::shared_ptr<const GraphPatternQuery>;

// ---- Vertical-partition scan hints -----------------------------------------

using ScanHint = std::shared_ptr<const std::vector<std::string>>;

// Hint for a mapper that only reacts to triples matching one of
// `patterns`: the set of property constants when EVERY pattern is
// property-bound, null (scan everything) when any pattern's property is a
// variable. Sound because each mapper below ignores — no emissions, no
// counter changes — any well-formed record whose property matches no
// pattern, so a mapped scan may skip those records without changing
// answers or deterministic metrics.
ScanHint HintForPatterns(const std::vector<TriplePattern>& patterns) {
  std::vector<std::string> properties;
  for (const TriplePattern& tp : patterns) {
    if (!tp.property_bound) return nullptr;
    properties.push_back(tp.property);
  }
  return std::make_shared<const std::vector<std::string>>(
      std::move(properties));
}

// Hint selecting nothing: for pure rescan-accounting inputs whose mapper
// never emits regardless of the record.
ScanHint EmptyHint() {
  return std::make_shared<const std::vector<std::string>>();
}

// ---- Map-side helpers -------------------------------------------------------

// True iff `t` can contribute to any triple pattern of the query (used by
// Pig's initial filter/compress job).
bool RelevantToAnyPattern(const GraphPatternQuery& query, const Triple& t) {
  for (const TriplePattern& tp : query.patterns()) {
    if (MatchesTriplePattern(tp, t)) return true;
  }
  return false;
}

// Mapper scanning for ONE triple pattern (a VP relation operand, Pig-style).
MapFn MakeSinglePatternMapper(QueryPtr query, size_t star, size_t tp_index) {
  return [query, star, tp_index](const std::string& record,
                                 const MapEmit& emit, Counters* counters) {
    Result<Triple> t = Triple::Deserialize(record);
    if (!t.ok()) {
      (*counters)["bad_records"] += 1;
      return;
    }
    const TriplePattern& tp = query->stars()[star].patterns[tp_index];
    if (MatchesTriplePattern(tp, *t)) {
      (*counters)["op.vp_scan.output_records"] += 1;
      emit(t->subject, record);
    }
  };
}

// Mapper scanning for ALL patterns of one star in a single pass
// (Hive-style shared scan). A triple matching several patterns is emitted
// once per pattern, mirroring its membership in several VP relations.
MapFn MakeStarMapper(QueryPtr query, size_t star) {
  return [query, star](const std::string& record, const MapEmit& emit,
                       Counters* counters) {
    Result<Triple> t = Triple::Deserialize(record);
    if (!t.ok()) {
      (*counters)["bad_records"] += 1;
      return;
    }
    for (const TriplePattern& tp : query->stars()[star].patterns) {
      if (MatchesTriplePattern(tp, *t)) {
        (*counters)["op.vp_scan.output_records"] += 1;
        emit(t->subject, record);
      }
    }
  };
}

// Star-join reducer: assembles all distinct triples of one subject and
// enumerates the star's n-tuples (relational arity 3k).
ReduceFn MakeStarReducer(QueryPtr query, size_t star) {
  return [query, star](const std::string& /*key*/,
                       const std::vector<std::string>& values,
                       const RecordEmit& emit, Counters* counters) {
    std::set<Triple> distinct;
    for (const std::string& v : values) {
      Result<Triple> t = Triple::Deserialize(v);
      if (t.ok()) distinct.insert(t.MoveValueUnsafe());
    }
    std::vector<Triple> triples(distinct.begin(), distinct.end());
    std::vector<StarMatch> matches =
        MatchStarDetailed(query->stars()[star], triples);
    (*counters)["op.star_join.input_groups"] += 1;
    (*counters)["op.star_join.output_records"] += matches.size();
    for (StarMatch& m : matches) {
      emit(RelTuple{std::move(m.matched)}.Serialize());
    }
  };
}

// Tags a relational intermediate tuple with its join-key value: the
// reader's binding of the join variable, which is a node variable outside
// any OPTIONAL and so bound in every tuple the reader accepts. With `scan`
// the input is the triple relation, scanned for an inlined single-pattern
// star (a triple record is an arity-1 tuple record), and a triple that does
// not match the pattern is skipped uncounted.
MapFn MakeJoinMapper(const RelSchema& schema, const std::string& var,
                     std::string tag, bool scan) {
  RelRecordReader reader(schema);
  const size_t slot = reader.SlotOf(var);
  return [reader = std::move(reader), slot, tag = std::move(tag), scan](
             const std::string& record, const MapEmit& emit,
             Counters* counters) {
    RelRecordReader tuple = reader;
    const Status read = tuple.Read(record);
    if (scan && read.IsInvalidArgument()) return;
    if (!read.ok() || slot == RelRecordReader::kNoSlot || !tuple.bound(slot)) {
      (*counters)["bad_records"] += 1;
      return;
    }
    emit(std::string(tuple.value(slot)), tag + "|" + record);
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
             const std::vector<std::string>& values, const RecordEmit& emit,
             Counters* counters) {
    JoinSide lefts, rights;
    for (const std::string& v : values) {
      const size_t bar = v.find('|');
      if (bar == std::string::npos) continue;
      const bool is_left = v.compare(0, bar, "L") == 0;
      if (!AddTuple(is_left ? readers.left : readers.right,
                    std::string_view(v).substr(bar + 1),
                    is_left ? &lefts : &rights)) {
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

// The decoder of a final output of `schema`-wide tuples. Its reader's
// binding plan is built once, here, and shared by every decode.
void SetAnswerDecoder(const RelSchema& schema, CompiledPlan* plan) {
  plan->decoder = [reader = RelRecordReader(schema)](
                      std::span<const std::string> lines) {
    return DecodeRelationalAnswers(reader, lines);
  };
}

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
    job.inputs.push_back(MapInput{
        base_path, [query](const std::string& record, const MapEmit& emit,
                           Counters* counters) {
          Result<Triple> t = Triple::Deserialize(record);
          if (!t.ok()) {
            (*counters)["bad_records"] += 1;
            return;
          }
          if (RelevantToAnyPattern(*query, *t)) emit("", record);
        },
        /*scan_properties=*/nullptr});
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
      for (size_t i = 0; i < star.patterns.size(); ++i) {
        job.inputs.push_back(
            MapInput{scan_path, MakeSinglePatternMapper(query, s, i),
                     HintForPatterns({star.patterns[i]})});
      }
      job.full_scans_of_base =
          scanning_base ? static_cast<uint32_t>(star.patterns.size()) : 0;
    } else {
      job.inputs.push_back(MapInput{scan_path, MakeStarMapper(query, s),
                                    HintForPatterns(star.patterns)});
      job.full_scans_of_base = scanning_base ? 1 : 0;
    }
    job.reduce = MakeStarReducer(query, s);
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
      const bool scan = rel.inline_single_pattern;
      job.inputs.push_back(MapInput{
          rel.path, MakeJoinMapper(rel.schema, join.variable, tag, scan),
          scan ? HintForPatterns(rel.schema) : nullptr});
      if (scan && scanning_base) job.full_scans_of_base += 1;
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
  SetAnswerDecoder(final_rel.schema, &plan);
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
    job1.inputs.push_back(
        MapInput{base_path, MakeStarMapper(query, first),
                 HintForPatterns(query->stars()[first].patterns)});
    job1.full_scans_of_base = 1;
    job1.reduce = MakeStarReducer(query, first);
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
                 MakeJoinMapper(first_schema, join.variable, "L",
                                /*scan=*/false),
                 /*scan_properties=*/nullptr});
    job2.inputs.push_back(MapInput{
        base_path,
        [query, folded](const std::string& record, const MapEmit& emit,
                        Counters* counters) {
          Result<Triple> t = Triple::Deserialize(record);
          if (!t.ok()) {
            (*counters)["bad_records"] += 1;
            return;
          }
          for (const TriplePattern& tp : query->stars()[folded].patterns) {
            if (MatchesTriplePattern(tp, *t)) {
              emit(t->subject, "B|" + record);
              break;  // routing only; the reducer re-derives matches
            }
          }
        },
        HintForPatterns(query->stars()[folded].patterns)});
    job2.full_scans_of_base = 1;
    job2.reduce = [query, folded,
                   readers = JoinReaders(first_schema, folded_schema)](
                      const std::string& /*key*/,
                      const std::vector<std::string>& values,
                      const RecordEmit& emit, Counters* counters) {
      std::set<Triple> triples;
      JoinSide lefts;
      for (const std::string& v : values) {
        const size_t bar = v.find('|');
        if (bar == std::string::npos) continue;
        const std::string_view payload = std::string_view(v).substr(bar + 1);
        if (v.compare(0, bar, "B") == 0) {
          Result<Triple> t = Triple::Deserialize(payload);
          if (t.ok()) triples.insert(t.MoveValueUnsafe());
        } else if (!AddTuple(readers.left, payload, &lefts)) {
          (*counters)["bad_records"] += 1;
        }
      }
      if (lefts.empty() || triples.empty()) return;
      std::vector<Triple> star_triples(triples.begin(), triples.end());
      std::vector<std::string> match_records;
      for (StarMatch& m :
           MatchStarDetailed(query->stars()[folded], star_triples)) {
        match_records.push_back(RelTuple{std::move(m.matched)}.Serialize());
      }
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
    SetAnswerDecoder(final_schema, &plan);
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
    join_job.inputs.push_back(MapInput{
        base_path,
        [](const std::string&, const MapEmit&, Counters*) { /* rescan */ },
        EmptyHint()});
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
