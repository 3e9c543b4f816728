// Histogram math: exact-rank percentile semantics at bucket edges,
// empty/single-sample degenerate cases, and per-worker histogram merging.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fedadmm::obs {
namespace {

TEST(HistogramStatsTest, BucketBoundsAreLogSpaced) {
  // Bucket 0 tops out at 1 µs; every 8th bound is the next decade exactly.
  EXPECT_DOUBLE_EQ(HistogramStats::UpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(HistogramStats::UpperBound(8), 1e-5);
  EXPECT_DOUBLE_EQ(HistogramStats::UpperBound(16), 1e-4);
  EXPECT_TRUE(std::isinf(
      HistogramStats::UpperBound(HistogramStats::kNumBuckets - 1)));
  // A sample exactly at a bound lands in the bucket it tops.
  EXPECT_EQ(HistogramStats::BucketIndex(1e-5), 8);
  EXPECT_EQ(HistogramStats::BucketIndex(1e-5 * 0.999), 8);
  EXPECT_EQ(HistogramStats::BucketIndex(1e-5 * 1.001), 9);
  // Overflow bucket catches everything past 100 s.
  EXPECT_EQ(HistogramStats::BucketIndex(1e6),
            HistogramStats::kNumBuckets - 1);
}

TEST(HistogramTest, EmptyHistogramHasNanSummaries) {
  Histogram h;
  const HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, 0);
  EXPECT_TRUE(std::isnan(stats.Percentile(50)));
  EXPECT_TRUE(std::isnan(stats.Mean()));
}

TEST(HistogramTest, SingleSampleIsExactAtEveryQuantile) {
  Histogram h;
  h.Record(0.00042);
  const HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, 1);
  // Bucket resolution never widens a single sample: clamping to the exact
  // [min, max] pins every quantile to the sample itself.
  for (double q : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(stats.Percentile(q), 0.00042) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.00042);
}

TEST(HistogramTest, ExactRanksAtBucketEdges) {
  // Samples placed exactly ON bucket upper bounds: the rank sample's
  // bucket bound IS the sample, so percentiles are exact, not just
  // bucket-resolution.
  Histogram h;
  h.Record(1e-5);  // bucket 8's bound
  h.Record(1e-4);  // bucket 16's bound
  h.Record(1e-3);  // bucket 24's bound
  h.Record(1e-2);  // bucket 32's bound
  const HistogramStats stats = h.Stats();
  ASSERT_EQ(stats.count, 4);
  // rank = ceil(q/100 · 4), 1-based over the sorted samples.
  EXPECT_DOUBLE_EQ(stats.Percentile(25), 1e-5);   // rank 1
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 1e-4);   // rank 2
  EXPECT_DOUBLE_EQ(stats.Percentile(75), 1e-3);   // rank 3
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 1e-2);  // rank 4 == exact max
  // Tiny q clamps to rank 1; the min clamp keeps it at the exact minimum.
  EXPECT_DOUBLE_EQ(stats.Percentile(0.001), 1e-5);
}

TEST(HistogramTest, PercentileIsBracketedAndClamped) {
  Histogram h;
  for (double s : {0.0011, 0.0023, 0.0041, 0.0083}) h.Record(s);
  const HistogramStats stats = h.Stats();
  const double p50 = stats.Percentile(50);
  // Rank 2 is 0.0023: the reported value can sit anywhere in that sample's
  // bucket but never below the sample's bucket lower bound or outside the
  // exact extrema.
  EXPECT_GE(p50, 0.0023);
  EXPECT_LE(p50, HistogramStats::UpperBound(
                     HistogramStats::BucketIndex(0.0023)));
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 0.0083);
  EXPECT_DOUBLE_EQ(stats.min, 0.0011);
  EXPECT_DOUBLE_EQ(stats.max, 0.0083);
}

TEST(HistogramTest, NegativeSamplesClampToZero) {
  Histogram h;
  h.Record(-1.0);
  const HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, 1);
  EXPECT_DOUBLE_EQ(stats.min, 0.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 0.0);
}

TEST(HistogramTest, MergePreservesRankSemantics) {
  // Per-shard histograms merged into fleet-wide stats must behave exactly
  // like one histogram that saw all samples.
  Histogram shard0;
  Histogram shard1;
  shard0.Record(1e-5);
  shard0.Record(1e-2);
  shard1.Record(1e-4);
  shard1.Record(1e-3);

  HistogramStats merged = shard0.Stats();
  merged.MergeFrom(shard1.Stats());

  Histogram all;
  for (double s : {1e-5, 1e-2, 1e-4, 1e-3}) all.Record(s);
  const HistogramStats expected = all.Stats();

  EXPECT_EQ(merged.count, expected.count);
  EXPECT_DOUBLE_EQ(merged.sum, expected.sum);
  EXPECT_DOUBLE_EQ(merged.min, expected.min);
  EXPECT_DOUBLE_EQ(merged.max, expected.max);
  EXPECT_EQ(merged.buckets, expected.buckets);
  for (double q : {10.0, 50.0, 90.0, 100.0}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(q), expected.Percentile(q)) << q;
  }
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram h;
  h.Record(0.5);
  HistogramStats stats = h.Stats();
  stats.MergeFrom(HistogramStats{});
  EXPECT_EQ(stats.count, 1);
  EXPECT_DOUBLE_EQ(stats.min, 0.5);
  EXPECT_DOUBLE_EQ(stats.max, 0.5);

  HistogramStats empty;
  empty.MergeFrom(h.Stats());
  EXPECT_EQ(empty.count, 1);
  EXPECT_DOUBLE_EQ(empty.Percentile(50), 0.5);
}

}  // namespace
}  // namespace fedadmm::obs
