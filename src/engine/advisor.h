// Statistics-based strategy advisor.
//
// Predicts, from graph statistics alone, the star-join-phase footprint of
// the relational, eager, and lazy interpretations of a query, the
// redundancy factor of the relational representation, and a φ_m partition
// factor for TG_OptUnbJoin — the paper's own guidance: "the partition
// factor used by φ depends on the size of input, potential redundancy
// factor, and average number of tuples that can be processed by a
// reducer". Predictions are coarse (selectivity of contains-filters is a
// fixed prior), but they order the strategies correctly, which is all a
// plan chooser needs.

#ifndef RDFMR_ENGINE_ADVISOR_H_
#define RDFMR_ENGINE_ADVISOR_H_

#include <string>

#include "dfs/cluster_config.h"
#include "query/pattern.h"
#include "rdf/graph_stats.h"

namespace rdfmr {

/// \brief Per-strategy footprint predictions and the φ_m recommendation.
struct StrategyAdvice {
  /// Predicted star-join phase output, bytes.
  double relational_star_bytes = 0.0;
  double eager_star_bytes = 0.0;
  double lazy_star_bytes = 0.0;
  /// Predicted redundancy factor of the relational star-join output.
  double predicted_redundancy = 0.0;
  /// Recommended φ_m for TG_OptUnbJoin (1 when no partial join is planned).
  uint32_t phi_partitions = 1;
  /// Human-readable reasoning.
  std::string rationale;
};

/// \brief Selectivity prior for a contains-filter on an object (the
/// advisor has no value histograms; this matches the testbed's filters to
/// within a small factor).
inline constexpr double kContainsFilterSelectivity = 0.3;

/// \brief Selectivity prior for a constant object on a bound property (a
/// class-membership style lookup): a fixed fraction of the property's
/// carriers.
inline constexpr double kConstantObjectSelectivity = 0.25;

/// \brief Byte priors shared by the advisor and the plan chooser: rough
/// serialized size of one term (identifier or literal), of one (s, p, o)
/// column group in a flat tuple, and of one nested (property, object) pair.
inline constexpr double kTermBytes = 12.0;
inline constexpr double kTripleBytes = 3 * kTermBytes + 3;
inline constexpr double kPairBytes = 2 * kTermBytes + 2;

/// \brief Tuples one reducer comfortably processes per cycle (the paper's
/// "average number of tuples that can be processed by a reducer" knob).
inline constexpr double kTuplesPerReducer = 4096.0;

/// \brief Produces footprint predictions and a φ_m recommendation for
/// `query` over a graph described by `stats` on `cluster`.
StrategyAdvice AdviseStrategy(const GraphPatternQuery& query,
                              const GraphStats& stats,
                              const ClusterConfig& cluster);

/// \brief Projected peak DFS footprint of one run.
struct FootprintProjection {
  uint64_t star_bytes = 0;      ///< predicted star-join output, logical
  uint64_t peak_bytes = 0;      ///< projected physical peak incl. base
  uint64_t capacity_bytes = 0;  ///< cluster total capacity
  bool fits = false;            ///< peak_bytes <= capacity_bytes
};

/// \brief Intermediate accumulation factor over the star-join output: the
/// star phase materializes its output AND the subsequent join cycle's
/// output of comparable size before any cleanup runs (fault-tolerance
/// materialization), so the projected peak charges the star bytes twice.
inline constexpr double kPeakGrowthFactor = 2.0;

/// \brief Projects the peak footprint of a run whose star-join phase
/// writes `star_bytes` (one of StrategyAdvice's per-strategy predictions;
/// the plan chooser maps engine kinds to them). `used_bytes` is the DFS
/// usage before the run (the base relation and any neighbors).
FootprintProjection ProjectFootprint(double star_bytes, uint64_t used_bytes,
                                     const ClusterConfig& cluster);

}  // namespace rdfmr

#endif  // RDFMR_ENGINE_ADVISOR_H_
