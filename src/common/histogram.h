// Power-of-two bucketed histogram for the query service's latency and
// queue-depth distributions. Fixed memory, O(1) Add, approximate
// percentiles (upper bucket bound), mergeable, JSON-exportable.
//
// Histogram is a plain, unsynchronized value; threads record into an
// AtomicHistogram (the service, HistogramMetric) and read a snapshot.

#ifndef RDFMR_COMMON_HISTOGRAM_H_
#define RDFMR_COMMON_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace rdfmr {

/// \brief Histogram over uint64 samples with buckets [0], [1], [2,3],
/// [4,7], ... (bucket i>0 spans [2^(i-1), 2^i - 1]).
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 41;  // covers up to ~1.1e12

  void Add(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// \brief Upper bound of the bucket holding the p-th percentile sample
  /// (p in [0, 100]); 0 when empty. Approximate by construction.
  uint64_t Percentile(double p) const;

  const std::array<uint64_t, kNumBuckets>& buckets() const {
    return buckets_;
  }

  /// \brief {"count":..,"sum":..,"min":..,"max":..,"mean":..,
  /// "p50":..,"p95":..,"p99":..} as a JSON object string.
  std::string ToJson() const;

 private:
  friend class AtomicHistogram;  // Snapshot() fills these fields directly

  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ULL;
  uint64_t max_ = 0;
};

/// \brief Lock-free histogram over the same power-of-two buckets: Add is
/// a handful of relaxed atomic RMWs (the same discipline as the
/// operator-metrics gate and Counter in common/metrics.h), so concurrent
/// writers never serialize. Readers fold a point-in-time Histogram with
/// Snapshot(); the fold derives `count` from the bucket array so count
/// and buckets always agree, while `sum`/`min`/`max` are independently
/// relaxed loads — each monotone on its own, but a snapshot taken during
/// an Add may momentarily lag one sample on those fields (the documented
/// price of the lock-free hot path).
class AtomicHistogram {
 public:
  AtomicHistogram() = default;
  AtomicHistogram(const AtomicHistogram&) = delete;
  AtomicHistogram& operator=(const AtomicHistogram&) = delete;

  /// \brief Records `value`. Safe to call from any thread concurrently
  /// with other Add and Snapshot calls; never blocks.
  void Add(uint64_t value);

  /// \brief Folds the current state into a plain Histogram.
  Histogram Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, Histogram::kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ULL};
  std::atomic<uint64_t> max_{0};
};

}  // namespace rdfmr

#endif  // RDFMR_COMMON_HISTOGRAM_H_
