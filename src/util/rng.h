/// \file rng.h
/// \brief Deterministic, forkable random number generation.
///
/// All stochastic components of the simulator (data synthesis, weight
/// initialization, client selection, minibatch shuffling, heterogeneity
/// sampling) draw from an `Rng`. Determinism across thread schedules is
/// achieved by *forking*: a parent generator derives independent child
/// generators from a stream id (e.g. `Fork(round, client_id)`), so the
/// sequence a client sees does not depend on execution order.

#ifndef FEDADMM_UTIL_RNG_H_
#define FEDADMM_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "util/status.h"

namespace fedadmm {

/// \brief SplitMix64 mix function; used to derive fork seeds.
uint64_t SplitMix64(uint64_t x);

/// \brief A seeded pseudo-random generator with convenience samplers.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(uint64_t seed)
      : seed_material_(seed), engine_(SplitMix64(seed ^ kGolden)) {}

  /// Derives an independent child generator for stream `(a, b, c)`.
  /// Forking with the same arguments always yields the same child,
  /// irrespective of how many samples were drawn from this generator.
  Rng Fork(uint64_t a, uint64_t b = 0, uint64_t c = 0) const {
    uint64_t s = seed_material_;
    s = SplitMix64(s ^ SplitMix64(a + 0x9e3779b97f4a7c15ULL));
    s = SplitMix64(s ^ SplitMix64(b + 0xbf58476d1ce4e5b9ULL));
    s = SplitMix64(s ^ SplitMix64(c + 0x94d049bb133111ebULL));
    return Rng(s);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Normal sample: N(mean, stddev^2).
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Fisher–Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Samples `k` distinct values from {0, ..., n-1}, uniformly at random.
  /// Returns InvalidArgument if k > n or either argument is negative.
  /// Costs O(k): it runs a partial Fisher–Yates on an identity array that
  /// each sampling thread keeps between calls, 4·n bytes for the largest
  /// `n` that thread has sampled.
  Result<std::vector<int>> SampleWithoutReplacement(int n, int k);

  /// Samples from a symmetric Dirichlet(alpha) distribution of dimension `k`.
  std::vector<double> Dirichlet(int k, double alpha);

  /// The underlying engine (for interop with <random> distributions).
  std::mt19937_64& engine() { return engine_; }

  /// Serializes the complete generator state — the fork seed material plus
  /// the engine's exact position — so a checkpointed stream resumes on the
  /// very next draw it would have produced.
  std::string SerializeState() const;

  /// Restores a `SerializeState` blob; InvalidArgument on a malformed one.
  Status RestoreState(const std::string& blob);

 private:
  static constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

  uint64_t seed_material_ = 0;
  std::mt19937_64 engine_;
};

}  // namespace fedadmm

#endif  // FEDADMM_UTIL_RNG_H_
