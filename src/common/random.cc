#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace rdfmr {

uint64_t Rng::Next() {
  // splitmix64 (public domain, Sebastiano Vigna).
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Uniform(uint64_t bound) {
  RDFMR_CHECK(bound > 0) << "Uniform bound must be positive";
  // Rejection sampling to avoid modulo bias for large bounds.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  RDFMR_CHECK(lo <= hi) << "UniformRange requires lo <= hi";
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::Chance(double p) { return NextDouble() < p; }

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n) {
  RDFMR_CHECK(n > 0) << "ZipfSampler needs n > 0";
  cdf_.reserve(n);
  double total = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i), s);
    cdf_.push_back(total);
  }
  for (double& v : cdf_) v /= total;
}

uint64_t ZipfSampler::Sample(Rng* rng) const {
  double u = rng->NextDouble();
  // Binary search for the first cdf entry >= u.
  uint64_t lo = 0, hi = n_ - 1;
  while (lo < hi) {
    uint64_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace rdfmr
