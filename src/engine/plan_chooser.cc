#include "engine/plan_chooser.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/strings.h"
#include "engine/advisor.h"
#include "mapreduce/cost_model.h"
#include "rdf/triple.h"

namespace rdfmr {

namespace {

// Base-path placeholder for the throwaway candidate compilations; the
// chooser never touches a DFS, it only needs to recognize which compiled
// inputs scan the base relation.
constexpr char kChooserBase[] = "auto-chooser/base";

// Join and aggregation cycles keep roughly this fraction of their input
// (equi-joins on star subjects are selective but not degenerate).
constexpr double kJoinOutputFraction = 0.5;

// Candidate order: the paper's default adaptive policy (LazyUnnest)
// precedes its fixed full/partial variants so exact-cost ties resolve to
// the engine a caller would get without the chooser.
const EngineKind kCandidateOrder[] = {
    EngineKind::kPig,          EngineKind::kHive,
    EngineKind::kNtgaEager,    EngineKind::kNtgaLazy,
    EngineKind::kNtgaLazyFull, EngineKind::kNtgaLazyPartial,
};

bool IsRelational(EngineKind kind) {
  return kind == EngineKind::kPig || kind == EngineKind::kHive;
}

// The only map from an engine kind to the advisor's per-strategy star
// prediction (the footprint filter and the cost model both read it).
double FamilyStarBytes(const StrategyAdvice& advice, EngineKind kind) {
  if (IsRelational(kind)) return advice.relational_star_bytes;
  if (kind == EngineKind::kNtgaEager) return advice.eager_star_bytes;
  return advice.lazy_star_bytes;
}

// Bytes of base-relation triples matching any of the query's patterns —
// the shuffle volume of a relational star-phase map, which filters at the
// mapper (unlike the NTGA grouping cycle, which ships every triple to
// group by subject). Priors match the advisor's EstimateStar.
double MatchedTripleBytes(const GraphPatternQuery& query,
                          const GraphStats& stats) {
  double bytes = 0.0;
  for (const StarPattern& star : query.stars()) {
    for (const TriplePattern& tp : star.patterns) {
      double matched;
      if (tp.property_bound) {
        matched = static_cast<double>(stats.ForProperty(tp.property)
                                          .triple_count) *
                  kTripleBytes;
      } else {
        matched = static_cast<double>(stats.triple_count()) * kTripleBytes;
      }
      if (tp.object.is_constant()) {
        matched *= kConstantObjectSelectivity;
      } else if (tp.object.partially_bound()) {
        matched *= kContainsFilterSelectivity;
      }
      bytes += matched;
    }
  }
  return bytes;
}

// Everything the per-candidate scoring needs, precomputed once per
// request (candidate-independent).
struct RequestModel {
  StrategyAdvice summed;  ///< per-strategy star bytes, summed over queries
  double matched_bytes = 0.0;
  double flat_growth = 1.0;  ///< flat/nested ratio: full-unnest expansion
  bool partial_join = false;
};

RequestModel
ModelRequest(const std::vector<std::shared_ptr<const GraphPatternQuery>>&
                 queries,
             const GraphStats& stats, const ClusterConfig& cluster) {
  RequestModel model;
  for (const auto& query : queries) {
    if (query == nullptr) continue;
    StrategyAdvice advice = AdviseStrategy(*query, stats, cluster);
    model.summed.relational_star_bytes += advice.relational_star_bytes;
    model.summed.eager_star_bytes += advice.eager_star_bytes;
    model.summed.lazy_star_bytes += advice.lazy_star_bytes;
    model.matched_bytes += MatchedTripleBytes(*query, stats);
    if (advice.phi_partitions > 1) model.partial_join = true;
  }
  if (model.summed.lazy_star_bytes > 0.0) {
    model.flat_growth = std::max(
        1.0,
        model.summed.relational_star_bytes / model.summed.lazy_star_bytes);
  }
  return model;
}

// Shuffle expansion at non-star cycles: a lazy-full join map β-unnests
// its nested input to flat tuples before shipping; partial unnest (and
// the adaptive policy, wherever it plans a partial join) keeps the nested
// representation on the wire.
double ShuffleGrowth(EngineKind kind, const RequestModel& model) {
  switch (kind) {
    case EngineKind::kNtgaLazyFull:
      return model.flat_growth;
    case EngineKind::kNtgaLazyPartial:
      return 1.0;
    case EngineKind::kNtgaLazy:
      return model.partial_join ? 1.0 : model.flat_growth;
    default:
      return 1.0;  // relational and eager intermediates are already flat
  }
}

// Projects the candidate's modeled execution time: walk the compiled
// workflow in order, estimate each job's I/O from the advisor predictions
// and property cardinalities, and price it with the calibrated cost model.
double ScoreCandidate(const CompiledPlan& plan, EngineKind kind,
                      const RequestModel& model, uint64_t base_bytes,
                      const ClusterConfig& cluster,
                      const CostModelConfig& cost) {
  const double star_total = std::max(
      0.0, FamilyStarBytes(model.summed, kind));
  std::map<std::string, double> sizes;
  sizes[kChooserBase] = static_cast<double>(base_bytes);

  // Star cycles share the family's predicted output evenly.
  size_t num_star_jobs = 0;
  auto is_star_job = [&plan](const JobSpec& job) {
    for (const std::string& path : plan.star_phase_paths) {
      if (path == job.output_path) return true;
      for (const std::string& ensured : job.ensure_outputs) {
        if (path == ensured) return true;
      }
    }
    return false;
  };
  for (const JobSpec& job : plan.workflow.jobs) {
    if (is_star_job(job)) ++num_star_jobs;
  }

  double total_seconds = 0.0;
  for (const JobSpec& job : plan.workflow.jobs) {
    double input = 0.0;
    for (const MapInput& in : job.inputs) {
      auto it = sizes.find(in.path);
      if (it != sizes.end()) input += it->second;
    }
    const bool map_only = !job.reduce;
    const bool star_job = is_star_job(job);

    double shuffle = 0.0;
    double output = 0.0;
    if (star_job) {
      output = star_total / static_cast<double>(std::max<size_t>(
                                num_star_jobs, 1));
      if (!map_only) {
        // Relational star maps filter pattern-matching triples before the
        // shuffle; the NTGA grouping cycle ships every record to group by
        // subject (γ_S(T) is query-independent).
        shuffle = IsRelational(kind)
                      ? std::min(input,
                                 model.matched_bytes /
                                     static_cast<double>(std::max<size_t>(
                                         num_star_jobs, 1)))
                      : input;
      }
    } else if (map_only) {
      // Pig's filter/compress pre-pass: keeps only pattern-relevant
      // triples.
      output = std::min(input, model.matched_bytes);
    } else {
      shuffle = input * ShuffleGrowth(kind, model);
      output = input * kJoinOutputFraction;
    }

    JobMetrics metrics;
    metrics.input_bytes = static_cast<uint64_t>(input);
    metrics.map_output_bytes = static_cast<uint64_t>(shuffle);
    metrics.map_output_records =
        static_cast<uint64_t>(shuffle / kPairBytes);
    metrics.output_bytes_replicated = static_cast<uint64_t>(
        output * static_cast<double>(cluster.replication));
    total_seconds += ModelJobSeconds(metrics, cluster, cost);

    sizes[job.output_path] = output;
    if (!job.ensure_outputs.empty()) {
      const double share =
          output / static_cast<double>(job.ensure_outputs.size());
      for (const std::string& path : job.ensure_outputs) {
        sizes[path] = share;
      }
    }
  }
  return total_seconds;
}

// Computes the base relation's statistics by scanning it. The scan goes
// through the same handle the map phase uses: on a mounted (.rdx-mapped)
// base this decodes one record at a time into a scratch buffer instead of
// materializing the whole line vector.
Result<GraphStats> ComputeBaseStats(const SimDfs& dfs,
                                    const std::string& base_path) {
  RDFMR_ASSIGN_OR_RETURN(SimDfs::ScanHandle scan, dfs.OpenScan(base_path));
  std::vector<Triple> triples;
  triples.reserve(scan.line_count());
  std::string scratch;
  for (uint64_t i = 0; i < scan.line_count(); ++i) {
    RDFMR_ASSIGN_OR_RETURN(Triple triple,
                           Triple::Deserialize(scan.LineRef(i, &scratch)));
    triples.push_back(std::move(triple));
  }
  return GraphStats::Compute(triples);
}

}  // namespace

Result<PlanChoice> ChoosePlan(const ExecRequest& request,
                              const GraphStats& stats, uint64_t base_bytes,
                              uint64_t used_bytes,
                              const ClusterConfig& cluster,
                              const EngineOptions& options) {
  std::vector<std::shared_ptr<const GraphPatternQuery>> queries;
  if (request.payload == ExecPayload::kSingle) {
    queries.push_back(request.query);
  } else {
    queries = request.queries;
  }
  const RequestModel model = ModelRequest(queries, stats, cluster);

  PlanChoice choice;
  std::string first_failure;
  bool any_fits = false;
  for (EngineKind kind : kCandidateOrder) {
    PlanCandidate candidate;
    candidate.kind = kind;
    EngineOptions candidate_options = options;
    candidate_options.kind = kind;
    // A compile error means the candidate cannot run this payload.
    Result<CompiledPlan> plan = CompilePlan(
        request, kChooserBase, kPlanTemplatePrefix, candidate_options);
    if (!plan.ok()) {
      candidate.feasible = false;
      candidate.fits = false;
      candidate.note = plan.status().message();
      if (first_failure.empty()) first_failure = plan.status().message();
      choice.candidates.push_back(std::move(candidate));
      continue;
    }
    candidate.planned_cycles = plan->workflow.jobs.size();
    candidate.modeled_seconds = ScoreCandidate(
        *plan, kind, model, base_bytes, cluster, options.cost);
    FootprintProjection projection = ProjectFootprint(
        FamilyStarBytes(model.summed, kind), used_bytes, cluster);
    candidate.star_bytes = projection.star_bytes;
    candidate.peak_bytes = projection.peak_bytes;
    candidate.fits = projection.fits;
    if (!candidate.fits) {
      candidate.note = StringFormat(
          "projected peak %s exceeds capacity %s",
          HumanBytes(projection.peak_bytes).c_str(),
          HumanBytes(projection.capacity_bytes).c_str());
    }
    any_fits = any_fits || candidate.fits;
    choice.candidates.push_back(std::move(candidate));
  }

  // Pick the modeled-cheapest candidate, never selecting a non-fitting
  // plan while a fitting one exists. Strictly-less comparison in the
  // fixed candidate order makes ties deterministic.
  const PlanCandidate* best = nullptr;
  for (const PlanCandidate& candidate : choice.candidates) {
    if (!candidate.feasible) continue;
    if (any_fits && !candidate.fits) continue;
    if (best == nullptr ||
        candidate.modeled_seconds < best->modeled_seconds) {
      best = &candidate;
    }
  }
  if (best == nullptr) {
    return Status::InvalidArgument(
        "auto: no candidate engine can run this request" +
        (first_failure.empty() ? std::string()
                               : " (" + first_failure + ")"));
  }
  choice.kind = best->kind;

  const PlanCandidate* runner_up = nullptr;
  for (const PlanCandidate& candidate : choice.candidates) {
    if (&candidate == best || !candidate.feasible) continue;
    if (any_fits && !candidate.fits) continue;
    if (runner_up == nullptr ||
        candidate.modeled_seconds < runner_up->modeled_seconds) {
      runner_up = &candidate;
    }
  }
  choice.rationale = StringFormat(
      "auto: chose %s (modeled %.1fs, %zu cycle(s), star phase %s)",
      EngineKindToString(best->kind), best->modeled_seconds,
      best->planned_cycles, HumanBytes(best->star_bytes).c_str());
  if (runner_up != nullptr) {
    choice.rationale += StringFormat(
        " over %s (modeled %.1fs)", EngineKindToString(runner_up->kind),
        runner_up->modeled_seconds);
  }
  for (PlanCandidate& candidate : choice.candidates) {
    candidate.chosen = candidate.kind == choice.kind;
  }
  return choice;
}

Result<PlanChoice> ChoosePlanOnDfs(SimDfs* dfs, const std::string& base_path,
                                   const ExecRequest& request,
                                   const EngineOptions& options) {
  SimDfs::ScopedFaultSuspension suspend_faults(dfs);
  std::shared_ptr<const GraphStats> stats = request.stats;
  if (stats == nullptr) {
    RDFMR_ASSIGN_OR_RETURN(GraphStats computed,
                           ComputeBaseStats(*dfs, base_path));
    stats = std::make_shared<const GraphStats>(std::move(computed));
  }
  Result<uint64_t> base_size = dfs->FileSize(base_path);
  return ChoosePlan(request, *stats, base_size.ok() ? *base_size : 0,
                    dfs->UsedBytes(), dfs->config(), options);
}

std::string RenderPlanChoice(const PlanChoice& choice) {
  std::string out = StringFormat(
      "%-19s %10s %7s %11s %11s %5s %7s\n", "engine", "modeled(s)",
      "cycles", "star-bytes", "peak-bytes", "fits", "chosen");
  for (const PlanCandidate& candidate : choice.candidates) {
    if (!candidate.feasible) {
      out += StringFormat("%-19s %10s %7s %11s %11s %5s %7s  (%s)\n",
                          EngineKindToString(candidate.kind), "-", "-", "-",
                          "-", "-", "-", candidate.note.c_str());
      continue;
    }
    const std::string note =
        candidate.note.empty() ? "" : "  (" + candidate.note + ")";
    out += StringFormat(
        "%-19s %10.1f %7zu %11s %11s %5s %7s%s\n",
        EngineKindToString(candidate.kind), candidate.modeled_seconds,
        candidate.planned_cycles, HumanBytes(candidate.star_bytes).c_str(),
        HumanBytes(candidate.peak_bytes).c_str(),
        candidate.fits ? "yes" : "no", candidate.chosen ? "<==" : "",
        note.c_str());
  }
  out += choice.rationale + "\n";
  return out;
}

}  // namespace rdfmr
