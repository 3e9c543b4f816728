#include "data/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace fedadmm {
namespace {

/// Labels for n samples, round-robin over `classes`.
std::vector<int> RoundRobinLabels(int n, int classes) {
  std::vector<int> labels(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) labels[static_cast<size_t>(i)] = i % classes;
  return labels;
}

/// Checks that a partition is a disjoint cover of [0, n).
void ExpectDisjointCover(const Partition& p, int n) {
  std::vector<int> seen(static_cast<size_t>(n), 0);
  for (const auto& client : p) {
    for (int idx : client) {
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, n);
      ++seen[static_cast<size_t>(idx)];
    }
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], 1) << "sample " << i;
  }
}

TEST(PartitionIidTest, DisjointCoverAndBalance) {
  Rng rng(1);
  const auto p = PartitionIid(103, 10, &rng).ValueOrDie();
  ASSERT_EQ(p.size(), 10u);
  ExpectDisjointCover(p, 103);
  for (const auto& client : p) {
    EXPECT_GE(client.size(), 10u);
    EXPECT_LE(client.size(), 11u);
  }
}

TEST(PartitionIidTest, LabelMixIsDiverse) {
  Rng rng(2);
  const auto labels = RoundRobinLabels(1000, 10);
  const auto p = PartitionIid(1000, 10, &rng).ValueOrDie();
  const auto stats = ComputePartitionStats(p, labels);
  // Each IID client (100 samples) should see nearly all 10 classes.
  EXPECT_GT(stats.mean_distinct_labels, 9.0);
}

TEST(PartitionIidTest, Errors) {
  Rng rng(3);
  EXPECT_TRUE(PartitionIid(5, 0, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(PartitionIid(5, 6, &rng).status().IsInvalidArgument());
}

TEST(PartitionShardsTest, TwoShardsGiveAtMostTwoClasses) {
  Rng rng(4);
  // 1000 samples, 10 classes, contiguous by label after sorting: shards of
  // 50 samples contain at most 2 labels each; 2 shards -> <= 4 but in the
  // paper's regime (shard = half a class) clients mostly see 2 classes.
  std::vector<int> labels;
  for (int c = 0; c < 10; ++c) {
    labels.insert(labels.end(), 100, c);
  }
  const auto p = PartitionShards(labels, 10, 2, &rng).ValueOrDie();
  ExpectDisjointCover(p, 1000);
  const auto stats = ComputePartitionStats(p, labels);
  // Pathological split: far fewer distinct labels than IID.
  EXPECT_LE(stats.mean_distinct_labels, 3.0);
  EXPECT_GE(stats.mean_distinct_labels, 1.0);
}

TEST(PartitionShardsTest, EqualSizes) {
  Rng rng(5);
  const auto labels = RoundRobinLabels(600, 10);
  const auto p = PartitionShards(labels, 30, 2, &rng).ValueOrDie();
  for (const auto& client : p) EXPECT_EQ(client.size(), 20u);
}

TEST(PartitionShardsTest, Errors) {
  Rng rng(6);
  const auto labels = RoundRobinLabels(10, 2);
  EXPECT_TRUE(
      PartitionShards(labels, 0, 2, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(
      PartitionShards(labels, 20, 2, &rng).status().IsInvalidArgument());
}

TEST(PartitionShardsTest, ShuffleDependsOnSeed) {
  const auto labels = RoundRobinLabels(400, 10);
  Rng rng_a(7), rng_b(8);
  const auto pa = PartitionShards(labels, 20, 2, &rng_a).ValueOrDie();
  const auto pb = PartitionShards(labels, 20, 2, &rng_b).ValueOrDie();
  EXPECT_NE(pa, pb);
  Rng rng_c(7);
  const auto pc = PartitionShards(labels, 20, 2, &rng_c).ValueOrDie();
  EXPECT_EQ(pa, pc);
}

TEST(PartitionImbalancedTest, ReproducesTable6Statistics) {
  // Paper Table VI (FMNIST row): 200 clients, 60,000 samples, 10,000
  // shards of 6 -> mean 300, stdev ≈ 171.
  Rng rng(9);
  std::vector<int> labels;
  for (int c = 0; c < 10; ++c) labels.insert(labels.end(), 6000, c);
  const auto p =
      PartitionImbalancedGroups(labels, 200, 10000, &rng).ValueOrDie();
  ExpectDisjointCover(p, 60000);
  const auto stats = ComputePartitionStats(p, labels);
  EXPECT_EQ(stats.total_samples, 60000);
  EXPECT_NEAR(stats.mean_size, 300.0, 1.0);
  EXPECT_NEAR(stats.stddev_size, 171.0, 6.0);
}

TEST(PartitionImbalancedTest, GroupMembersScaleWithGroupIndex) {
  Rng rng(10);
  std::vector<int> labels;
  for (int c = 0; c < 10; ++c) labels.insert(labels.end(), 200, c);
  // 20 clients, 10 groups; shards = 2 * (1+...+10) = 110 + 10 leftover.
  const auto p = PartitionImbalancedGroups(labels, 20, 120, &rng).ValueOrDie();
  ExpectDisjointCover(p, 2000);
  // Group 1 members (clients 0, 1) must hold fewer samples than group 9
  // members (clients 16, 17).
  EXPECT_LT(p[0].size() + p[1].size(), p[16].size() + p[17].size());
}

TEST(PartitionImbalancedTest, Errors) {
  Rng rng(11);
  const auto labels = RoundRobinLabels(1000, 10);
  EXPECT_TRUE(PartitionImbalancedGroups(labels, 3, 100, &rng)
                  .status()
                  .IsInvalidArgument());  // odd clients
  EXPECT_TRUE(PartitionImbalancedGroups(labels, 20, 10, &rng)
                  .status()
                  .IsInvalidArgument());  // too few shards
}

TEST(PartitionDirichletTest, DisjointCover) {
  Rng rng(12);
  const auto labels = RoundRobinLabels(500, 5);
  const auto p = PartitionDirichlet(labels, 8, 5, 0.5, &rng).ValueOrDie();
  ExpectDisjointCover(p, 500);
}

TEST(PartitionDirichletTest, SmallAlphaIsMoreSkewedThanLarge) {
  const auto labels = RoundRobinLabels(5000, 10);
  Rng rng_a(13), rng_b(13);
  const auto skewed =
      PartitionDirichlet(labels, 20, 10, 0.05, &rng_a).ValueOrDie();
  const auto uniform =
      PartitionDirichlet(labels, 20, 10, 100.0, &rng_b).ValueOrDie();
  const auto s1 = ComputePartitionStats(skewed, labels);
  const auto s2 = ComputePartitionStats(uniform, labels);
  EXPECT_LT(s1.mean_distinct_labels, s2.mean_distinct_labels);
}

TEST(PartitionDirichletTest, Errors) {
  Rng rng(14);
  const auto labels = RoundRobinLabels(100, 4);
  EXPECT_TRUE(
      PartitionDirichlet(labels, 0, 4, 1.0, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(PartitionDirichlet(labels, 5, 4, -1.0, &rng)
                  .status()
                  .IsInvalidArgument());
  std::vector<int> bad_labels{0, 1, 7};
  EXPECT_TRUE(PartitionDirichlet(bad_labels, 2, 4, 1.0, &rng)
                  .status()
                  .IsInvalidArgument());
}

TEST(PartitionStatsTest, ComputesBasicMoments) {
  Partition p{{0, 1, 2}, {3}, {4, 5}};
  const auto stats = ComputePartitionStats(p, {});
  EXPECT_EQ(stats.num_clients, 3);
  EXPECT_EQ(stats.total_samples, 6);
  EXPECT_EQ(stats.min_size, 1);
  EXPECT_EQ(stats.max_size, 3);
  EXPECT_DOUBLE_EQ(stats.mean_size, 2.0);
  EXPECT_NEAR(stats.stddev_size, std::sqrt(2.0 / 3.0), 1e-9);
  EXPECT_FALSE(stats.ToString().empty());
}

}  // namespace
}  // namespace fedadmm
