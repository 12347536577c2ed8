#include "ntga/ntga_compiler.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "common/logging.h"
#include "common/strings.h"
#include "ntga/operators.h"
#include "query/base_scan.h"
#include "rdf/triple.h"

namespace rdfmr {

namespace {

using QueryPtr = std::shared_ptr<const GraphPatternQuery>;

// What σ^βγ asks of a triple (BuildAnnTg's pair test): `tp`'s property
// constant and object constraint. The group scan matches this pattern, so
// neither the subject nor a variable repeated across positions filters it.
TriplePattern PairPattern(TriplePattern tp) {
  tp.subject = NodePattern::Var(" s");
  if (!tp.property_bound) tp.property = " p";
  if (tp.object.is_variable()) tp.object.value = " o";
  return tp;
}

std::string EcPath(const std::string& tmp_prefix, size_t star) {
  return StringFormat("%s/ec%zu", tmp_prefix.c_str(), star);
}

// ---- Job 2..k: TG_Join / TG_UnbJoin / TG_OptUnbJoin -------------------------
//
// A join's output record is its two input records side by side
// (JoinRecords); components pass through as bytes. Only the component at
// an unbound join site is rewritten: μ^β / μ^β_φm (BetaUnnester) pin it in
// place.

// The component of `record` that belongs to `star_id`, or nullptr.
const TgRecordReader::Component* SiteComponent(const TgRecordReader& record,
                                               uint32_t star_id) {
  for (const TgRecordReader::Component& c : record.components()) {
    if (c.star_id == star_id) return &c;
  }
  return nullptr;
}

// Calls visit(value, record) for each concrete join-key value of the record
// `record` last read, at `side`'s site, whose component is `site`. At a
// subject or bound-object site the record is the line read itself; at an
// unbound site μ^β pins each candidate in turn (completing the β-unnest).
template <typename Visit>
void ForEachJoinValue(const BetaUnnester& unnester, const JoinSidePlan& side,
                      const TgRecordReader& record,
                      const TgRecordReader::Component& site, Visit visit) {
  const std::vector<std::string_view>& leaves = record.leaves();
  if (side.site_tp < 0) {
    visit(leaves[site.subject], record.line());
    return;
  }
  const auto tp_index = static_cast<size_t>(side.site_tp);
  if (side.site_unbound) {
    unnester.BetaUnnest(record, site, {tp_index}, visit);
    return;
  }
  ForEachCandidate(unnester.star().patterns[tp_index], tp_index, record,
                   site, [&](uint32_t, uint32_t object) {
                     visit(leaves[object], record.line());
                   });
}

// The shuffle key of a TG_OptUnbJoin's φ_m partition.
std::string PartitionKey(uint32_t partition) {
  return StringFormat("p%u", partition);
}

MapFn MakeJoinSideMapper(const StarPattern& star, JoinSidePlan side,
                         std::string tag, bool partial, uint32_t m) {
  return [unnester = std::make_shared<const BetaUnnester>(star),
          side = std::move(side), tag = std::move(tag), partial, m,
          record = TgRecordReader(),
          by_partition = std::vector<std::pair<uint32_t, std::string>>()](
             const std::string& line, const MapEmit& emit,
             Counters* counters) mutable {
    const TgRecordReader::Component* site =
        record.Read(line).ok() ? SiteComponent(record, side.site_star)
                               : nullptr;
    if (site == nullptr) {
      (*counters)["bad_records"] += 1;
      return;
    }

    if (side.unnest == UnnestPlacement::kLazyPartial) {
      // TG_OptUnbJoin map: partial β-unnest; one output per φ_m partition,
      // keyed by the partition — triplegroups bound for the same reducer
      // stay implicitly represented.
      const size_t outputs = unnester->PartialBetaUnnest(
          record, *site, static_cast<size_t>(side.site_tp), m,
          [&](uint32_t partition, std::string_view out) {
            emit(PartitionKey(partition), JoinTagged(tag, out));
          });
      (*counters)["op.mu_beta_phi.calls"] += 1;
      (*counters)["op.mu_beta_phi.output_groups"] += outputs;
      return;
    }

    // Subject / bound-object sites, or full β-unnest at the map side
    // (TG_UnbJoin): one output per concrete join value.
    uint64_t outputs = 0;
    if (!partial) {
      ForEachJoinValue(*unnester, side, record, *site,
                       [&](std::string_view value, std::string_view out) {
                         ++outputs;
                         emit(std::string(value), JoinTagged(tag, out));
                       });
    } else {
      // The other side of a TG_OptUnbJoin: key by the value's partition,
      // partitions ascending. A nested group with several values in one
      // partition is sent once at a bound-object site, where it is the
      // line read for each (tagged once it is sent); pinned copies
      // (unbound site) differ, so each is sent.
      by_partition.clear();
      ForEachJoinValue(
          *unnester, side, record, *site,
          [&](std::string_view value, std::string_view out) {
            ++outputs;
            by_partition.emplace_back(
                PhiPartition(value, m),
                side.site_unbound ? JoinTagged(tag, out) : std::string());
          });
      std::stable_sort(
          by_partition.begin(), by_partition.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      for (size_t i = 0; i < by_partition.size(); ++i) {
        auto& [partition, out] = by_partition[i];
        if (side.site_unbound) {
          emit(PartitionKey(partition), std::move(out));
        } else if (i == 0 || by_partition[i - 1].first != partition) {
          emit(PartitionKey(partition), JoinTagged(tag, line));
        }
      }
    }
    if (side.site_unbound) {
      (*counters)["op.mu_beta.calls"] += 1;
      (*counters)["op.mu_beta.output_groups"] += outputs;
    }
  };
}

// Splits a reduce value "L|record" / "R|record"; false, counting it, for a
// value without a tag.
bool SplitSide(const std::string& value, std::string_view* record,
               bool* is_left, Counters* counters) {
  std::string_view tag;
  if (!SplitJoinTag(value, &tag, record)) {
    (*counters)["bad_records"] += 1;
    return false;
  }
  *is_left = tag == "L";
  return true;
}

void EmitJoined(std::string_view left, std::string_view right,
                const RecordEmit& emit, Counters* counters) {
  (*counters)["op.tg_join.output_groups"] += 1;
  emit(JoinRecords(left, right));
}

ReduceFn MakePlainJoinReducer() {
  return [record = TgRecordReader(), lefts = std::vector<std::string_view>(),
          rights = std::vector<std::string_view>()](
             const std::string& /*key*/, std::span<const std::string> values,
             const RecordEmit& emit, Counters* counters) mutable {
    lefts.clear();
    rights.clear();
    for (const std::string& v : values) {
      std::string_view line;
      bool is_left;
      if (!SplitSide(v, &line, &is_left, counters)) continue;
      if (!record.Read(line).ok()) {
        (*counters)["bad_records"] += 1;
        continue;
      }
      (is_left ? lefts : rights).push_back(line);
    }
    (*counters)["op.tg_join.input_groups"] += lefts.size() + rights.size();
    for (std::string_view l : lefts) {
      for (std::string_view r : rights) EmitJoined(l, r, emit, counters);
    }
  };
}

// The expanded records of one φ_m partition by actual join value, both
// sides in one buffer that the reducer keeps and clears per partition.
struct JoinRows {
  struct Row {
    size_t begin;  // value, then record, in `bytes`
    size_t value_size;
    size_t record_size;
    bool left;
  };
  std::string_view value(const Row& row) const {
    return std::string_view(bytes).substr(row.begin, row.value_size);
  }
  std::string_view record(const Row& row) const {
    return std::string_view(bytes).substr(row.begin + row.value_size,
                                          row.record_size);
  }

  std::string bytes;
  std::vector<Row> rows;
};

// TG_OptUnbJoin reduce (Algorithm 3): all groups of one φ_m partition land
// here; complete the β-unnest, hash by the actual join key, and join: join
// values ascending, each left row with each right row in the order read.
ReduceFn MakePartialJoinReducer(const StarPattern& left_star,
                                JoinSidePlan left,
                                const StarPattern& right_star,
                                JoinSidePlan right) {
  return [left_unnester = std::make_shared<const BetaUnnester>(left_star),
          left = std::move(left),
          right_unnester = std::make_shared<const BetaUnnester>(right_star),
          right = std::move(right), record = TgRecordReader(),
          table = JoinRows()](const std::string& /*key*/,
                              std::span<const std::string> values,
                              const RecordEmit& emit,
                              Counters* counters) mutable {
    table.bytes.clear();
    table.rows.clear();
    for (const std::string& v : values) {
      std::string_view line;
      bool is_left;
      if (!SplitSide(v, &line, &is_left, counters)) continue;
      const JoinSidePlan& side = is_left ? left : right;
      const TgRecordReader::Component* site =
          record.Read(line).ok() ? SiteComponent(record, side.site_star)
                                 : nullptr;
      if (site == nullptr) {
        (*counters)["bad_records"] += 1;
        continue;
      }
      ForEachJoinValue(
          is_left ? *left_unnester : *right_unnester, side, record, *site,
          [&](std::string_view value, std::string_view expanded) {
            table.rows.push_back(JoinRows::Row{
                table.bytes.size(), value.size(), expanded.size(), is_left});
            table.bytes.append(value).append(expanded);
          });
    }
    std::stable_sort(table.rows.begin(), table.rows.end(),
                     [&table](const JoinRows::Row& a, const JoinRows::Row& b) {
                       return table.value(a) < table.value(b);
                     });
    for (auto run = table.rows.begin(); run != table.rows.end();) {
      const auto end = std::find_if(run, table.rows.end(), [&](const auto& r) {
        return table.value(r) != table.value(*run);
      });
      for (auto l = run; l != end; ++l) {
        for (auto r = run; l->left && r != end; ++r) {
          if (!r->left) {
            EmitJoined(table.record(*l), table.record(*r), emit, counters);
          }
        }
      }
      run = end;
    }
  };
}

// Builds the join cycles of one query of the plan and returns the path of
// its answer file. `star_offset` maps the query's local star indexes to the
// global ids its records carry; EC files follow the global numbering.
std::string AppendJoinCycles(QueryPtr query, const NtgaLogicalPlan& plan,
                             uint32_t star_offset,
                             const std::string& tmp_prefix,
                             const std::string& name_prefix,
                             const std::string& path_prefix,
                             const NtgaOptions& options,
                             WorkflowSpec* workflow) {
  std::map<uint32_t, std::string> current_path;
  for (size_t s = 0; s < query->stars().size(); ++s) {
    current_path[static_cast<uint32_t>(s)] =
        EcPath(tmp_prefix, star_offset + s);
  }
  for (size_t j = 0; j < plan.joins.size(); ++j) {
    JoinCyclePlan cycle = plan.joins[j];
    const std::string& left_path = current_path[cycle.left.stars[0]];
    const std::string& right_path = current_path[cycle.right.stars[0]];
    const StarPattern& left_star = query->stars()[cycle.left.site_star];
    const StarPattern& right_star = query->stars()[cycle.right.site_star];

    // Records carry global component ids.
    JoinSidePlan left_side = cycle.left;
    left_side.site_star += star_offset;
    JoinSidePlan right_side = cycle.right;
    right_side.site_star += star_offset;

    JobSpec job;
    job.name = StringFormat(
        "%s%s-%zu-on-%s", name_prefix.c_str(),
        cycle.partial ? "tg-optunbjoin"
                      : (cycle.left.unnest != UnnestPlacement::kNone ||
                                 cycle.right.unnest != UnnestPlacement::kNone
                             ? "tg-unbjoin"
                             : "tg-join"),
        j, cycle.variable.c_str());
    job.inputs.push_back(
        MapInput{left_path,
                 MakeJoinSideMapper(left_star, left_side, "L",
                                    cycle.partial, options.phi_partitions),
                 /*scan_properties=*/nullptr});
    job.inputs.push_back(
        MapInput{right_path,
                 MakeJoinSideMapper(right_star, right_side, "R",
                                    cycle.partial, options.phi_partitions),
                 /*scan_properties=*/nullptr});
    job.reduce = cycle.partial
                     ? MakePartialJoinReducer(left_star, left_side,
                                              right_star, right_side)
                     : MakePlainJoinReducer();
    job.output_path = StringFormat("%s/%sjoin%zu", tmp_prefix.c_str(),
                                   path_prefix.c_str(), j);
    std::string new_path = job.output_path;
    workflow->jobs.push_back(std::move(job));

    for (uint32_t s : cycle.left.stars) current_path[s] = new_path;
    for (uint32_t s : cycle.right.stars) current_path[s] = new_path;
  }
  return plan.joins.empty()
             ? EcPath(tmp_prefix, star_offset)
             : StringFormat("%s/%sjoin%zu", tmp_prefix.c_str(),
                            path_prefix.c_str(), plan.joins.size() - 1);
}

}  // namespace

Result<CompiledPlan> CompileNtgaPlan(const std::vector<QueryPtr>& queries,
                                     const std::string& base_path,
                                     const std::string& tmp_prefix,
                                     const NtgaOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("empty query batch");
  }
  for (const QueryPtr& q : queries) {
    if (q == nullptr) return Status::InvalidArgument("null query");
  }

  // Global star numbering + per-query rewritten plans.
  std::vector<uint32_t> offsets;
  std::vector<StarPattern> all_stars;
  std::vector<NtgaLogicalPlan> plans;
  for (const QueryPtr& q : queries) {
    offsets.push_back(static_cast<uint32_t>(all_stars.size()));
    all_stars.insert(all_stars.end(), q->stars().begin(), q->stars().end());
    RDFMR_ASSIGN_OR_RETURN(NtgaLogicalPlan plan,
                           RewriteToNtga(*q, options.strategy));
    plans.push_back(std::move(plan));
  }

  // Names follow the number of queries: a single query runs the plain
  // single-query workflow; a batch marks its shared cycle and prefixes
  // each query's join cycles with "qN-".
  const bool shared = queries.size() > 1;
  CompiledPlan out;
  out.workflow.name =
      (shared ? StringFormat("batch-of-%zu", queries.size())
              : queries[0]->name()) +
      "/ntga-" + NtgaStrategyToString(options.strategy);

  // --- Job 1: one scan and one subject-grouping shuffle compute every star
  // subpattern of every query; each subject group passes through every
  // query's group filters.
  JobSpec job1;
  job1.name = shared ? "tg-group-filter-shared" : "tg-group-filter";
  job1.full_scans_of_base = 1;
  // NTGA's shared scan: a triple is shuffled once if σ^βγ can use it for
  // any pattern of any star subpattern of any query.
  BaseScan scan;
  for (const QueryPtr& q : queries) {
    for (const TriplePattern& tp : q->patterns()) {
      scan.patterns.push_back(PairPattern(tp));
    }
  }
  job1.inputs.push_back(MakeBaseScan(base_path, std::move(scan)));
  // The batch and each star's μ^β (Eager's grouping cycle), compiled once.
  struct GroupFilter {
    std::vector<QueryPtr> queries;
    std::vector<uint32_t> offsets;
    std::vector<NtgaLogicalPlan> plans;
    std::vector<std::vector<BetaUnnester>> unnesters;
  };
  auto filter = std::make_shared<GroupFilter>(
      GroupFilter{queries, offsets, plans, {}});
  for (const QueryPtr& q : queries) {
    filter->unnesters.emplace_back(q->stars().begin(), q->stars().end());
  }
  job1.reduce = [filter = std::shared_ptr<const GroupFilter>(filter),
                 record = TgRecordReader(), triples = TripleViews(),
                 pairs = std::vector<PropObj>()](
                    const std::string& key,
                    std::span<const std::string> values,
                    const RecordEmit& emit, Counters* counters) mutable {
    const auto& [queries, offsets, plans, unnesters] = *filter;
    triples.Clear();
    uint64_t rejected = 0;
    for (const std::string& v : values) {
      if (!triples.Add(v).ok()) ++rejected;
    }
    if (rejected > 0) (*counters)["bad_records"] += rejected;
    pairs.clear();
    for (const TripleView& t : triples.views()) {
      pairs.push_back(PropObj{t.property, t.object});
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t s = 0; s < queries[q]->stars().size(); ++s) {
        const StarPattern& star = queries[q]->stars()[s];
        const bool unbound = star.HasUnbound();
        (*counters)[unbound ? "op.sigma_beta_gamma.input_groups"
                            : "op.sigma_gamma.input_groups"] += 1;
        std::string group;
        if (!BuildAnnTg(star, offsets[q] + static_cast<uint32_t>(s), key,
                        pairs, &group)) {
          continue;
        }
        (*counters)[unbound ? "op.sigma_beta_gamma.output_groups"
                            : "op.sigma_gamma.output_groups"] += 1;
        if (!plans[q].eager_unnest[s]) {
          emit(std::move(group));
          continue;
        }
        RDFMR_CHECK(record.Read(group).ok()) << "σ^βγ wrote a bad group";
        const size_t outputs = unnesters[q][s].BetaUnnest(
            record, record.components().front(), {},
            [&emit](std::string_view, std::string_view out) {
              emit(std::string(out));
            });
        (*counters)["op.mu_beta.calls"] += 1;
        (*counters)["op.mu_beta.output_groups"] += outputs;
      }
    }
  };
  job1.output_path = tmp_prefix + "/ec";
  job1.demux = [](const std::string& record) {
    Result<uint32_t> star = PeekStarId(record);
    return star.ok() ? std::to_string(*star) : std::string("x");
  };
  for (size_t g = 0; g < all_stars.size(); ++g) {
    job1.ensure_outputs.push_back(EcPath(tmp_prefix, g));
    out.star_phase_paths.push_back(EcPath(tmp_prefix, g));
  }
  out.workflow.jobs.push_back(std::move(job1));

  // --- Job 2..k: each query's join pipeline.
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string prefix = shared ? StringFormat("q%zu-", q) : "";
    out.final_output_paths.push_back(AppendJoinCycles(
        queries[q], plans[q], offsets[q], tmp_prefix, prefix,
        shared ? prefix : "tg", options, &out.workflow));
  }
  if (!shared) out.workflow.final_output_path = out.final_output_paths[0];

  // --- Cleanup bookkeeping (everything that is not some query's answer).
  std::set<std::string> finals(out.final_output_paths.begin(),
                               out.final_output_paths.end());
  for (size_t g = 0; g < all_stars.size(); ++g) {
    if (finals.count(EcPath(tmp_prefix, g)) == 0) {
      out.workflow.intermediate_paths.push_back(EcPath(tmp_prefix, g));
    }
  }
  out.workflow.intermediate_paths.push_back(tmp_prefix + "/ecx");
  for (const JobSpec& job : out.workflow.jobs) {
    if (job.demux == nullptr && finals.count(job.output_path) == 0) {
      out.workflow.intermediate_paths.push_back(job.output_path);
    }
  }

  // Records carry global star ids, so one decoder serves every answer
  // file.
  out.decoder = JoinedTgAnswerDecoder(std::move(all_stars));
  return out;
}

}  // namespace rdfmr
