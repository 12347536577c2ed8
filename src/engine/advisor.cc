#include "engine/advisor.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "ntga/logical_plan.h"

namespace rdfmr {

namespace {

// Object-constraint selectivity for one pattern.
double ObjectSelectivity(const TriplePattern& tp, const GraphStats& stats) {
  if (tp.object.is_constant()) {
    // Equality on one value out of the property's objects; approximate by
    // the inverse subject count (at least one subject matches).
    PropertyStats ps = stats.ForProperty(tp.property);
    return ps.subject_count > 0 ? 1.0 / static_cast<double>(ps.subject_count)
                                : 0.0;
  }
  if (tp.object.partially_bound()) return kContainsFilterSelectivity;
  return 1.0;
}

struct StarEstimate {
  double qualifying_subjects = 0.0;  // subjects passing the group filter
  double combos_per_subject = 1.0;   // relational combinations per subject
  double nested_pairs = 0.0;         // pairs retained in the nested AnnTG
  double unbound_combos = 1.0;       // product over unbound candidates only
};

StarEstimate EstimateStar(const StarPattern& star, const GraphStats& stats) {
  StarEstimate est;
  // Candidate pool for unbound patterns: every pair of the subject.
  double avg_pairs = stats.AvgTriplesPerSubject();

  // Subjects qualifying: the rarest mandatory bound property dominates
  // (bound properties of one star co-occur on its entity class in all our
  // schemas; the min is the standard independence-free estimate).
  double subjects = static_cast<double>(stats.distinct_subjects());
  bool any_bound = false;
  for (const TriplePattern& tp : star.patterns) {
    if (tp.optional) continue;
    if (tp.property_bound) {
      any_bound = true;
      PropertyStats ps = stats.ForProperty(tp.property);
      double with_filter = static_cast<double>(ps.subject_count);
      if (tp.object.partially_bound()) {
        with_filter *= kContainsFilterSelectivity;
      } else if (tp.object.is_constant()) {
        with_filter *= kConstantObjectSelectivity;
      }
      subjects = std::min(subjects, with_filter);
    }
  }
  if (!any_bound) {
    // Only unbound mandatory patterns: any subject with a matching pair.
    subjects = static_cast<double>(stats.distinct_subjects());
  }
  est.qualifying_subjects = std::max(subjects, 0.0);

  // Per-subject combinations and the nested footprint.
  double nested_pairs = 0.0;
  for (const TriplePattern& tp : star.patterns) {
    double multiplicity = 1.0;
    if (tp.property_bound) {
      PropertyStats ps = stats.ForProperty(tp.property);
      multiplicity = std::max(1.0, ps.avg_multiplicity) *
                     ObjectSelectivity(tp, stats);
      nested_pairs += std::max(1.0, ps.avg_multiplicity);
    } else {
      multiplicity = avg_pairs * ObjectSelectivity(tp, stats);
      nested_pairs = std::max(nested_pairs + 0.0, avg_pairs);
      if (!tp.optional) {
        est.unbound_combos *= std::max(1.0, multiplicity);
      }
    }
    if (!tp.optional) {
      est.combos_per_subject *= std::max(1.0, multiplicity);
    }
  }
  est.nested_pairs = std::max(nested_pairs, 1.0);
  return est;
}

}  // namespace

StrategyAdvice AdviseStrategy(const GraphPatternQuery& query,
                              const GraphStats& stats,
                              const ClusterConfig& cluster) {
  StrategyAdvice advice;
  double relational = 0.0, eager = 0.0, lazy = 0.0;
  double flat_total = 0.0, nested_total = 0.0;

  for (const StarPattern& star : query.stars()) {
    StarEstimate est = EstimateStar(star, stats);
    double arity = static_cast<double>(star.Arity());
    double flat = est.qualifying_subjects * est.combos_per_subject *
                  arity * kTripleBytes;
    double nested = est.qualifying_subjects *
                    (kTermBytes + est.nested_pairs * kPairBytes);
    // Eager keeps bound components nested but materializes one group per
    // unbound combination.
    double eager_star =
        est.qualifying_subjects * est.unbound_combos *
        (kTermBytes + (est.nested_pairs / std::max(1.0, arity)) *
                             kPairBytes +
         kPairBytes);
    relational += flat;
    eager += star.HasUnbound() ? eager_star : nested;
    lazy += nested;
    flat_total += flat;
    nested_total += nested;
  }
  advice.relational_star_bytes = relational;
  advice.eager_star_bytes = eager;
  advice.lazy_star_bytes = lazy;
  advice.predicted_redundancy =
      flat_total > 0.0 ? std::max(0.0, 1.0 - nested_total / flat_total)
                       : 0.0;

  // φ_m (paper Section 4.1): input size over reducer capacity, scaled by
  // the redundancy to be eliminated.
  bool partial_join = false;
  auto plan = RewriteToNtga(query, NtgaStrategy::kLazyAuto);
  if (plan.ok()) {
    for (const JoinCyclePlan& join : plan->joins) {
      if (join.partial) partial_join = true;
    }
  }
  if (partial_join) {
    double input_tuples = static_cast<double>(stats.triple_count());
    double phi = input_tuples *
                 std::max(0.1, advice.predicted_redundancy) /
                 kTuplesPerReducer *
                 static_cast<double>(cluster.num_reducers);
    advice.phi_partitions = static_cast<uint32_t>(std::clamp(
        phi, 16.0, 65536.0));
  } else {
    advice.phi_partitions = 1;
  }

  advice.rationale = StringFormat(
      "predicted star-join output: relational %s, eager %s, lazy %s "
      "(redundancy %.2f); %s",
      HumanBytes(static_cast<uint64_t>(relational)).c_str(),
      HumanBytes(static_cast<uint64_t>(eager)).c_str(),
      HumanBytes(static_cast<uint64_t>(lazy)).c_str(),
      advice.predicted_redundancy,
      partial_join
          ? StringFormat("join on an unbound object -> TG_OptUnbJoin with "
                         "phi_m=%u",
                         advice.phi_partitions)
              .c_str()
          : "no unbound-object join -> plain lazy evaluation");
  return advice;
}

FootprintProjection ProjectFootprint(double star_bytes, uint64_t used_bytes,
                                     const ClusterConfig& cluster) {
  FootprintProjection projection;
  projection.star_bytes = static_cast<uint64_t>(std::max(0.0, star_bytes));
  // Intermediates are replicated like any other HDFS file and accumulate
  // until the workflow finishes (fault-tolerance materialization).
  double peak = static_cast<double>(used_bytes) +
                star_bytes * kPeakGrowthFactor *
                    static_cast<double>(cluster.replication);
  projection.peak_bytes = static_cast<uint64_t>(std::max(0.0, peak));
  projection.capacity_bytes = cluster.TotalCapacity();
  projection.fits = projection.peak_bytes <= projection.capacity_bytes;
  return projection;
}

}  // namespace rdfmr
