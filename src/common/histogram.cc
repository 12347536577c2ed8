#include "common/histogram.h"

#include <algorithm>
#include <bit>

#include "common/strings.h"

namespace rdfmr {

namespace {

size_t BucketIndex(uint64_t value) {
  if (value == 0) return 0;
  size_t index = static_cast<size_t>(std::bit_width(value));
  return std::min(index, Histogram::kNumBuckets - 1);
}

uint64_t BucketUpperBound(size_t index) {
  if (index == 0) return 0;
  if (index >= 64) return ~0ULL;
  return (1ULL << index) - 1;
}

}  // namespace

void Histogram::Add(uint64_t value) {
  buckets_[BucketIndex(value)] += 1;
  count_ += 1;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the percentile sample, 1-based (nearest-rank definition).
  uint64_t rank = static_cast<uint64_t>(p / 100.0 *
                                        static_cast<double>(count_));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return std::min(BucketUpperBound(i), max_);
  }
  return max_;
}

void AtomicHistogram::Add(uint64_t value) {
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  // The bucket update comes last so a snapshot that counts this sample
  // (count derives from the buckets) has usually seen its sum/min/max too.
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

Histogram AtomicHistogram::Snapshot() const {
  Histogram folded;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    const uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    folded.buckets_[i] = n;
    folded.count_ += n;
  }
  folded.sum_ = sum_.load(std::memory_order_relaxed);
  folded.min_ = min_.load(std::memory_order_relaxed);
  folded.max_ = max_.load(std::memory_order_relaxed);
  if (folded.count_ > 0 && folded.min_ == ~0ULL) {
    // A racing Add bumped its bucket before publishing min_: report the
    // smallest defensible value instead of the empty-sentinel.
    folded.min_ = 0;
  }
  return folded;
}

std::string Histogram::ToJson() const {
  return StringFormat(
      "{\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu,"
      "\"mean\":%.3f,\"p50\":%llu,\"p95\":%llu,\"p99\":%llu}",
      static_cast<unsigned long long>(count_),
      static_cast<unsigned long long>(sum_),
      static_cast<unsigned long long>(min()),
      static_cast<unsigned long long>(max_), Mean(),
      static_cast<unsigned long long>(Percentile(50)),
      static_cast<unsigned long long>(Percentile(95)),
      static_cast<unsigned long long>(Percentile(99)));
}

}  // namespace rdfmr
