#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

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

TEST(SplitMix64Test, IsDeterministicAndMixes) {
  EXPECT_EQ(SplitMix64(42), SplitMix64(42));
  EXPECT_NE(SplitMix64(42), SplitMix64(43));
  EXPECT_NE(SplitMix64(0), 0u);
}

}  // namespace
}  // namespace fedadmm
