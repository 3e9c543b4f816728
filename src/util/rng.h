/// \file rng.h
/// \brief Deterministic, forkable random number generation.
///
/// All stochastic components of the simulator (data synthesis, weight
/// initialization, client selection, minibatch shuffling, heterogeneity
/// sampling) draw from an `Rng`. Determinism across thread schedules is
/// achieved by *forking*: a parent generator derives independent child
/// generators from a stream id (e.g. `Fork(round, client_id)`), so the
/// sequence a client sees does not depend on execution order.
///
/// `Uniform`, `Normal` and `Bernoulli` reproduce libstdc++'s `<random>`
/// arithmetic as GCC 12 ships it, so their draws no longer depend on later
/// libstdc++ releases (`UniformInt` and `Dirichlet` still draw through
/// `<random>`). rng.cc must stay at the baseline ISA: with `-mfma`, GCC 12
/// contracts `a*b + c` into an FMA even under `-std=c++20`, which would
/// change bits.

#ifndef FEDADMM_UTIL_RNG_H_
#define FEDADMM_UTIL_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/status.h"

namespace fedadmm {

/// \brief SplitMix64 mix function; used to derive fork seeds.
uint64_t SplitMix64(uint64_t x);

/// \brief `std::generate_canonical<double, 53>` of one 64-bit engine word,
/// as libstdc++ computes it: x / 2⁶⁴ correctly rounded, with a result that
/// rounds up to 1 clamped to `nextafter(1, 0)`.
double CanonicalDouble(uint64_t word);

/// \brief MT19937-64, bit-identical to `std::mt19937_64`.
///
/// Same parameters, seeding (x₀ = seed,
/// xᵢ = 6364136223846793005·(xᵢ₋₁ ⊕ (xᵢ₋₁ ≫ 62)) + i), tempering, state (312
/// words plus a position) and `operator<<`/`>>` text, so every draw, every
/// `<random>` distribution fed from it and every serialized state equal
/// the standard engine's. It is in-house for its twist only: GCC 12's
/// libstdc++ compiles `(y & 1) ? a : 0` into a conditional jump on a
/// random bit, which mispredicts half the time. This twist computes
/// `(0 − (y & 1)) & a`, two words per step in a 16-byte vector (SSE2 on
/// x86-64, NEON on AArch64, no ISA flag). On a shared 4-vCPU Xeon at
/// 2.1 GHz (AVX2, GCC 12.2, Release, no `-mavx2`) a draw costs 3.7–4.0 ns,
/// against 4.8–5.7 ns for a one-word branch-free twist and 10.9–11.5 ns
/// for the standard engine, and a fork plus one `UniformInt` (seeding and
/// one twist, `BM_RngForkDraw`) 1.1–1.2 µs, against 1.3–1.8 µs and
/// 2.7–4.0 µs.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kStateSize = 312;
  static constexpr result_type kDefaultSeed = 5489;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed = kDefaultSeed);

  result_type operator()() {
    if (pos_ >= kStateSize) [[unlikely]] Twist();
    result_type z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// The 312 state words, each followed by a space, then the position:
  /// the text `std::mt19937_64`'s inserter writes.
  friend std::ostream& operator<<(std::ostream& os, const Mt19937_64& e);
  /// Reads that text; on a malformed one sets failbit, and `e` may hold a
  /// partial read.
  friend std::istream& operator>>(std::istream& is, Mt19937_64& e);

 private:
  /// Regenerates all 312 words and rewinds the position.
  void Twist();

  std::array<result_type, kStateSize> x_;  // written in full by seeding
  size_t pos_ = kStateSize;
};

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

  /// Uniform real in [lo, hi): `std::uniform_real_distribution`'s value.
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Normal sample N(mean, stddev²): a fresh `std::normal_distribution`'s
  /// value (Marsaglia's polar method; the second variate is discarded).
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with success probability `p` (clamped to [0,1]):
  /// `std::bernoulli_distribution`'s value.
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

  /// Serializes the complete generator state — the fork seed material plus
  /// the engine's exact position — so a checkpointed stream resumes on the
  /// very next draw it would have produced.
  std::string SerializeState() const;

  /// Restores a `SerializeState` blob; InvalidArgument on a malformed one.
  Status RestoreState(const std::string& blob);

 private:
  static constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

  uint64_t seed_material_ = 0;
  Mt19937_64 engine_;
};

}  // namespace fedadmm

#endif  // FEDADMM_UTIL_RNG_H_
