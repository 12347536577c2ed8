// Deterministic pseudo-random number generation for data generators and
// property tests. All generators in rdfmr are seeded explicitly so every
// experiment is exactly reproducible.

#ifndef RDFMR_COMMON_RANDOM_H_
#define RDFMR_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace rdfmr {

/// \brief splitmix64-based PRNG: tiny, fast, and identical across platforms.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ULL) {}

  /// \brief Next raw 64-bit value.
  uint64_t Next();

  /// \brief Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// \brief Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// \brief Uniform double in [0, 1).
  double NextDouble();

  /// \brief Bernoulli trial with probability p of true.
  bool Chance(double p);

 private:
  uint64_t state_;
};

/// \brief Zipf-distributed sampler over {0, .., n-1} with exponent s.
///
/// Used to model skewed property multiplicity in real-world RDF data
/// (Bio2RDF property multiplicity reaches 13K for a few hot properties).
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s);

  /// \brief Samples a rank; rank 0 is the most probable.
  uint64_t Sample(Rng* rng) const;

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  std::vector<double> cdf_;
};

}  // namespace rdfmr

#endif  // RDFMR_COMMON_RANDOM_H_
