#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fl/digest.h"

namespace fedadmm {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 30) == b.UniformInt(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, ForkIsDeterministicAndDrawIndependent) {
  Rng parent(77);
  Rng child1 = parent.Fork(3, 4);
  // Draw from the parent; forks must not be affected.
  for (int i = 0; i < 50; ++i) parent.Uniform();
  Rng child2 = parent.Fork(3, 4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(child1.UniformInt(0, 1 << 30), child2.UniformInt(0, 1 << 30));
  }
}

TEST(RngTest, ForkStreamsAreDistinct) {
  Rng parent(77);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 30) == b.UniformInt(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformRealInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalHasRoughlyCorrectMoments) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(1.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identical
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SampleWithoutReplacementBasics) {
  Rng rng(19);
  auto result = rng.SampleWithoutReplacement(10, 4);
  ASSERT_TRUE(result.ok());
  const auto& sample = result.ValueOrDie();
  EXPECT_EQ(sample.size(), 4u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 4u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
}

TEST(RngTest, SampleWithoutReplacementFullPopulation) {
  Rng rng(19);
  auto result = rng.SampleWithoutReplacement(5, 5);
  ASSERT_TRUE(result.ok());
  std::set<int> unique(result.ValueOrDie().begin(),
                       result.ValueOrDie().end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementErrors) {
  Rng rng(19);
  EXPECT_TRUE(rng.SampleWithoutReplacement(3, 4).status().IsInvalidArgument());
  EXPECT_TRUE(
      rng.SampleWithoutReplacement(-1, 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      rng.SampleWithoutReplacement(3, -1).status().IsInvalidArgument());
}

TEST(RngTest, SampleWithoutReplacementIsRoughlyUniform) {
  Rng rng(23);
  std::vector<int> counts(10, 0);
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    for (int v : rng.SampleWithoutReplacement(10, 3).ValueOrDie()) {
      ++counts[static_cast<size_t>(v)];
    }
  }
  // Each element expected trials * 3/10 = 1500 times.
  for (int c : counts) EXPECT_NEAR(c, 1500, 150);
}

// The dense partial Fisher–Yates the sampler must match draw for draw: a
// fresh identity array of n entries on every call.
std::vector<int> DenseSampleReference(Rng* rng, int n, int k) {
  std::vector<int> pool(n);
  std::iota(pool.begin(), pool.end(), 0);
  for (int i = 0; i < k; ++i) {
    std::swap(pool[i], pool[rng->UniformInt(i, n - 1)]);
  }
  pool.resize(k);
  return pool;
}

struct SampleCase {
  int n;
  int k;
};

// n ∈ {0, 1, 7, 1000, 100000} × k ∈ {0, 1, n/2, n}, skipping k > n.
std::vector<SampleCase> SampleGrid() {
  std::vector<SampleCase> cases;
  for (const int n : {0, 1, 7, 1000, 100000}) {
    for (const int k : {0, 1, n / 2, n}) {
      if (k <= n) cases.push_back({n, k});
    }
  }
  return cases;
}

// Draws the cases in order from one generator through the sampler and from
// a same-seed twin through the reference. Counts the cases where the picks
// or the generators' next UniformInt draw differ.
int CountReferenceMismatches(uint64_t seed,
                             const std::vector<SampleCase>& cases) {
  Rng rng(seed);
  Rng twin(seed);
  int mismatches = 0;
  for (const SampleCase& c : cases) {
    auto sample = rng.SampleWithoutReplacement(c.n, c.k);
    if (!sample.ok() ||
        sample.ValueOrDie() != DenseSampleReference(&twin, c.n, c.k) ||
        rng.UniformInt(0, 1 << 30) != twin.UniformInt(0, 1 << 30)) {
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(RngTest, SampleWithoutReplacementMatchesDenseReference) {
  for (const uint64_t seed : {19u, 23u, 101u, 202u}) {
    EXPECT_EQ(CountReferenceMismatches(seed, SampleGrid()), 0) << seed;
  }
}

TEST(RngTest, SampleWithoutReplacementRestoresIdentityAcrossSizes) {
  // One thread's retained array serves every size: a small draw after a
  // large one, and a large one after that, still match the reference only
  // if each call left the array as the identity.
  const std::vector<SampleCase> cases = {
      {100000, 50000}, {7, 3}, {100000, 100000}, {7, 7}, {100000, 1000}};
  for (const uint64_t seed : {5u, 6u}) {
    EXPECT_EQ(CountReferenceMismatches(seed, cases), 0) << seed;
  }
}

TEST(RngTest, SampleWithoutReplacementMatchesReferenceOnTwoThreads) {
  int mismatches[2] = {-1, -1};
  std::thread first([&] {
    mismatches[0] = CountReferenceMismatches(31, SampleGrid());
  });
  std::thread second([&] {
    mismatches[1] = CountReferenceMismatches(37, SampleGrid());
  });
  first.join();
  second.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(29);
  for (double alpha : {0.1, 1.0, 10.0}) {
    const auto p = rng.Dirichlet(8, alpha);
    ASSERT_EQ(p.size(), 8u);
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RngTest, DirichletSmallAlphaIsSkewed) {
  Rng rng(31);
  // With alpha = 0.05, mass concentrates: max component should usually
  // dominate.
  int dominated = 0;
  for (int t = 0; t < 50; ++t) {
    const auto p = rng.Dirichlet(10, 0.05);
    const double mx = *std::max_element(p.begin(), p.end());
    if (mx > 0.5) ++dominated;
  }
  EXPECT_GT(dominated, 25);
}

// ----- The engine against std::mt19937_64, its reference ------------------

// Rng seeds its engine with SplitMix64(seed ^ golden ratio).
std::mt19937_64 ReferenceEngineOf(uint64_t rng_seed) {
  return std::mt19937_64(SplitMix64(rng_seed ^ 0x9e3779b97f4a7c15ULL));
}

template <typename Engine>
std::string EngineText(const Engine& engine) {
  std::ostringstream oss;
  oss << engine;
  return oss.str();
}

// A UniformInt over the whole int64 range is one raw engine output.
constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();

int64_t ReferenceFullRangeDraw(std::mt19937_64* engine) {
  return std::uniform_int_distribution<int64_t>(kMin64, kMax64)(*engine);
}

// Counts the next `draws` raw outputs where `rng` and `reference` differ.
int CountDrawMismatches(Rng* rng, std::mt19937_64* reference, int draws) {
  int mismatches = 0;
  for (int i = 0; i < draws; ++i) {
    if (rng->UniformInt(kMin64, kMax64) != ReferenceFullRangeDraw(reference)) {
      ++mismatches;
    }
  }
  return mismatches;
}

// Draw counts on both sides of every twist boundary: the first twist's two
// loops meet at word 156, its last word is 312, the next twists start at
// 313 and 625.
constexpr int kBoundaryCounts[] = {0,   1,   155, 156, 157, 311,
                                   312, 313, 624, 625, 2000};

TEST(Mt19937_64Test, MatchesStdEngineOverThousandSeeds) {
  uint64_t seed = 0;
  int mismatched_seeds = 0;
  for (int s = 0; s < 1000; ++s) {
    seed = SplitMix64(seed);
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    int mismatches = 0;
    for (int draw = 1; draw <= 2000; ++draw) {
      if (engine() != reference()) ++mismatches;
    }
    if (mismatches > 0) ++mismatched_seeds;
  }
  EXPECT_EQ(mismatched_seeds, 0);
}

TEST(Mt19937_64Test, TenThousandthDefaultOutputIsTheStandardsAnswer) {
  // C++ [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine;
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(Mt19937_64Test, InserterWritesStdTextAtTwistBoundaries) {
  for (const uint64_t seed : {0ULL, 5489ULL, 0xdeadbeefcafef00dULL}) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    int drawn = 0;
    for (const int count : kBoundaryCounts) {
      for (; drawn < count; ++drawn) {
        engine();
        reference();
      }
      EXPECT_EQ(EngineText(engine), EngineText(reference))
          << "seed " << seed << ", " << count << " draws";
    }
  }
}

TEST(RngTest, SerializeStateIsSeedMaterialPlusStdEngineText) {
  for (const uint64_t seed : {0ULL, 42ULL, 0xfedcba9876543210ULL}) {
    Rng rng(seed);
    std::mt19937_64 reference = ReferenceEngineOf(seed);
    int drawn = 0;
    for (const int count : kBoundaryCounts) {
      for (; drawn < count; ++drawn) {
        ASSERT_EQ(rng.UniformInt(kMin64, kMax64),
                  ReferenceFullRangeDraw(&reference));
      }
      EXPECT_EQ(rng.SerializeState(),
                std::to_string(seed) + " " + EngineText(reference))
          << "seed " << seed << ", " << count << " draws";
    }
  }
}

TEST(RngTest, SamplersMatchStdDistributionsOnStdEngine) {
  for (const uint64_t seed : {3ULL, 101ULL, 7777ULL}) {
    Rng rng(seed);
    std::mt19937_64 reference = ReferenceEngineOf(seed);
    for (int i = 0; i < 500; ++i) {
      const int64_t hi = 1 + i % 17;
      ASSERT_EQ(rng.UniformInt(1, hi),
                std::uniform_int_distribution<int64_t>(1, hi)(reference));
      ASSERT_EQ(rng.Uniform(-2.0, 3.0),
                std::uniform_real_distribution<double>(-2.0, 3.0)(reference));
      ASSERT_EQ(rng.Normal(0.5, 2.0),
                std::normal_distribution<double>(0.5, 2.0)(reference));
      ASSERT_EQ(rng.Bernoulli(0.25),
                std::bernoulli_distribution(0.25)(reference));
    }
    std::gamma_distribution<double> gamma(0.3, 1.0);
    std::vector<double> expected(6);
    double sum = 0.0;
    for (double& v : expected) sum += (v = gamma(reference));
    for (double& v : expected) v /= sum;
    EXPECT_EQ(rng.Dirichlet(6, 0.3), expected);
  }
}

// memcmp, not ==: the samplers must agree on every bit, the sign of a zero
// included.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(RngTest, DoubleSamplersMatchStdDistributionsBitwise) {
  struct Params {
    double a;
    double b;
  };
  // (mean, stddev) and [lo, hi) pairs; the last Uniform range is empty.
  constexpr Params kNormal[] = {{0.0, 1.0}, {0.0, 1.5}, {0.5, 2.0},
                                {-3.0, 1e-3}};
  constexpr Params kUniform[] = {{0.0, 1.0}, {-2.0, 3.0}, {1e-3, 1e3},
                                 {5.0, 5.0}};
  constexpr double kBernoulli[] = {0.0, 0.25, 0.5, 1.0 - 1e-12, 1.0};
  int mismatched_seeds = 0;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed);
    std::mt19937_64 reference = ReferenceEngineOf(seed);
    int mismatches = 0;
    for (int i = 0; i < 10000; ++i) {
      const Params& n = kNormal[i % 4];
      const Params& u = kUniform[i % 4];
      const double p = kBernoulli[i % 5];
      mismatches += !SameBits(
          rng.Normal(n.a, n.b),
          std::normal_distribution<double>(n.a, n.b)(reference));
      mismatches += !SameBits(
          rng.Uniform(u.a, u.b),
          std::uniform_real_distribution<double>(u.a, u.b)(reference));
      mismatches +=
          rng.Bernoulli(p) != std::bernoulli_distribution(p)(reference);
    }
    if (mismatches > 0) ++mismatched_seeds;
  }
  EXPECT_EQ(mismatched_seeds, 0);
}

#if !defined(_GLIBCXX_ASSERTIONS)
TEST(RngTest, UncheckedParametersMatchStdWithoutAssertions) {
  // Without the libstdc++ assertions neither side checks its parameters:
  // no abort, and the same arithmetic on them.
  const double nan = std::nan("");
  Rng rng(9);
  std::mt19937_64 reference = ReferenceEngineOf(9);
  int mismatches = 0;
  for (int i = 0; i < 1000; ++i) {
    mismatches += !SameBits(
        rng.Normal(1.0, 0.0),
        std::normal_distribution<double>(1.0, 0.0)(reference));
    mismatches += !SameBits(
        rng.Normal(1.0, -2.0),
        std::normal_distribution<double>(1.0, -2.0)(reference));
    mismatches += !SameBits(
        rng.Uniform(3.0, -1.0),
        std::uniform_real_distribution<double>(3.0, -1.0)(reference));
    mismatches += rng.Bernoulli(nan) !=
                  std::bernoulli_distribution(std::clamp(nan, 0.0, 1.0))(
                      reference);
  }
  EXPECT_EQ(mismatches, 0);
}
#endif

// An engine that returns one fixed word, to feed std::generate_canonical.
struct FixedWordEngine {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  result_type word;
};

TEST(RngTest, CanonicalDoubleMatchesStdAtConversionEdges) {
  constexpr uint64_t k53 = uint64_t{1} << 53;
  constexpr uint64_t k63 = uint64_t{1} << 63;
  constexpr uint64_t kMax = ~uint64_t{0};
  // 2⁶⁴ − 1025 rounds down to the largest double below 2⁶⁴; 2⁶⁴ − 1024 (a
  // tie, to even) and 2⁶⁴ − 1 round to 2⁶⁴ and hit the clamp, which random
  // draws reach with probability 2⁻⁵⁴.
  for (const uint64_t word : {uint64_t{0}, uint64_t{1}, k53 - 1, k53 + 1,
                              k63 - 1, k63, k63 + 1, kMax - 1024, kMax - 1023,
                              kMax}) {
    FixedWordEngine engine{word};
    EXPECT_TRUE(SameBits(CanonicalDouble(word),
                         std::generate_canonical<double, 53>(engine)))
        << word;
  }
  const double below_one = std::nextafter(1.0, 0.0);
  EXPECT_TRUE(SameBits(CanonicalDouble(kMax - 1024), below_one));
  EXPECT_TRUE(SameBits(CanonicalDouble(kMax - 1023), below_one));
  EXPECT_TRUE(SameBits(CanonicalDouble(kMax), below_one));
}

// One seed's draws from every sampler, interleaved, so the twist falls at a
// different point of each sampler from seed to seed.
void DigestSamplers(uint64_t seed, Fnv1a* digest) {
  const auto add = [digest](auto v) { digest->Bytes(&v, sizeof(v)); };
  Rng rng(seed);
  for (int i = 0; i < 64; ++i) {
    add(rng.Normal());
    add(rng.Normal(0.0, 1.5));
    add(rng.Normal(0.5, 2.0));
    add(rng.Normal(-3.0, 1e-3));
    add(rng.Uniform());
    add(rng.Uniform(-2.0, 3.0));
    add(rng.UniformInt(0, 9));
    add(rng.UniformInt(0, 99999));
    add(rng.Bernoulli(0.3));
    add(rng.Bernoulli(0.0));
    add(rng.Bernoulli(1.5));  // clamped to 1
  }
  for (const int v : rng.SampleWithoutReplacement(100000, 1000).ValueOrDie()) {
    add(v);
  }
  for (const int v : rng.SampleWithoutReplacement(12000, 12000).ValueOrDie()) {
    add(v);
  }
  add(rng.Fork(0x7A46E7, seed).Normal(0.0, 1.5));
  add(rng.Fork(0xC11E, seed, 3).UniformInt(1, 5));
  const std::string state = rng.SerializeState();
  digest->Bytes(state.data(), state.size());
}

TEST(RngTest, SamplerBitsArePinned) {
  // Taken from the libstdc++ distributions on std::mt19937_64's stream.
  Fnv1a digest;
  for (uint64_t seed = 0; seed < 300; ++seed) DigestSamplers(seed, &digest);
  EXPECT_EQ(Hex(digest.value()), "0xb764975dcd2d12c1");
}

TEST(RngTest, RestoreStateReadsStdEngineText) {
  for (const int count : kBoundaryCounts) {
    std::mt19937_64 reference(SplitMix64(static_cast<uint64_t>(count)));
    for (int i = 0; i < count; ++i) reference();
    const std::string blob = "77 " + EngineText(reference);
    Rng rng(1);
    ASSERT_TRUE(rng.RestoreState(blob).ok()) << count;
    EXPECT_EQ(rng.SerializeState(), blob) << count;
    Rng forked = rng.Fork(5, 6);
    Rng expected_fork = Rng(77).Fork(5, 6);
    EXPECT_EQ(forked.SerializeState(), expected_fork.SerializeState());
    EXPECT_EQ(CountDrawMismatches(&rng, &reference, 1000), 0) << count;
  }
}

TEST(RngTest, RestoredPositionPastTheStateTwistsOnNextDraw) {
  std::mt19937_64 source(2024);
  for (int i = 0; i < 100; ++i) source();
  const std::string text = EngineText(source);
  const std::string words = text.substr(0, text.rfind(' ') + 1);
  for (const char* position : {"312", "313", "400", "100000"}) {
    SCOPED_TRACE(position);
    std::mt19937_64 reference;
    std::istringstream(words + position) >> reference;
    Rng rng(0);
    ASSERT_TRUE(rng.RestoreState("9 " + words + position).ok());
    EXPECT_EQ(rng.SerializeState(), "9 " + words + position);
    EXPECT_EQ(CountDrawMismatches(&rng, &reference, 1000), 0);
    EXPECT_EQ(rng.SerializeState(), "9 " + EngineText(reference));
  }
}

TEST(RngTest, RestoreStateRefusesTruncatedAndNonNumericBlobs) {
  Rng source(8);
  for (int i = 0; i < 10; ++i) source.Uniform();
  const std::string blob = source.SerializeState();
  const size_t first_space = blob.find(' ');
  const size_t second_space = blob.find(' ', first_space + 1);
  const std::vector<std::string> malformed = {
      "",
      "8",
      blob.substr(0, first_space + 1),
      blob.substr(0, blob.size() / 2),
      blob.substr(0, blob.rfind(' ')),  // every word, no position
      "x" + blob,
      blob.substr(0, first_space + 1) + "abc" + blob.substr(second_space),
      blob.substr(0, blob.rfind(' ') + 1) + "end",
  };
  Rng rng(3);
  rng.Uniform();
  const std::string before = rng.SerializeState();
  for (const std::string& bad : malformed) {
    EXPECT_TRUE(rng.RestoreState(bad).IsInvalidArgument())
        << bad.substr(0, 40);
    EXPECT_EQ(rng.SerializeState(), before);
  }
}

TEST(SplitMix64Test, IsDeterministicAndMixes) {
  EXPECT_EQ(SplitMix64(42), SplitMix64(42));
  EXPECT_NE(SplitMix64(42), SplitMix64(43));
  EXPECT_NE(SplitMix64(0), 0u);
}

#if defined(_GLIBCXX_ASSERTIONS)
// libstdc++ checks its distributions' parameters in these builds only, and
// the samplers check the same conditions in the same builds.
TEST(RngDeathTest, NormalRefusesNonPositiveStddev) {
  Rng rng(1);
  EXPECT_DEATH(rng.Normal(0.0, 0.0), "stddev > 0");
}

TEST(RngDeathTest, UniformRefusesReversedBounds) {
  Rng rng(1);
  EXPECT_DEATH(rng.Uniform(1.0, 0.0), "lo <= hi");
}

TEST(RngDeathTest, BernoulliRefusesNaN) {
  Rng rng(1);
  EXPECT_DEATH(rng.Bernoulli(std::nan("")), "p in \\[0, 1\\]");
}
#endif

}  // namespace
}  // namespace fedadmm
