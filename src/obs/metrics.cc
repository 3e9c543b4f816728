#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fedadmm::obs {
namespace {

/// Bucket bounds are computed once: pow in a hot Record would be wasteful
/// and, worse, a per-call rounding hazard. Each decade is anchored at its
/// exact literal (1e-6 * pow(10, i/8) drifts a few ULPs below 1e-5, which
/// would push a sample sitting exactly on a decade edge one bucket high
/// and cost the edge-exactness the percentile tests pin down).
const std::array<double, HistogramStats::kNumBuckets>& BucketBounds() {
  static const auto bounds = [] {
    constexpr std::array<double, HistogramStats::kDecades> anchors = {
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1};
    std::array<double, HistogramStats::kNumBuckets> b{};
    for (int i = 0; i + 1 < HistogramStats::kNumBuckets; ++i) {
      const int decade = i / HistogramStats::kBucketsPerDecade;
      const int step = i % HistogramStats::kBucketsPerDecade;
      b[static_cast<size_t>(i)] =
          anchors[static_cast<size_t>(decade)] *
          std::pow(10.0, static_cast<double>(step) /
                             HistogramStats::kBucketsPerDecade);
    }
    b[HistogramStats::kNumBuckets - 1] =
        std::numeric_limits<double>::infinity();
    return b;
  }();
  return bounds;
}

}  // namespace

double HistogramStats::UpperBound(int i) {
  return BucketBounds()[static_cast<size_t>(i)];
}

int HistogramStats::BucketIndex(double seconds) {
  const auto& bounds = BucketBounds();
  const auto it =
      std::lower_bound(bounds.begin(), bounds.end() - 1, seconds);
  return static_cast<int>(it - bounds.begin());
}

double HistogramStats::Percentile(double q) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  const double fraction = std::clamp(q, 0.0, 100.0) / 100.0;
  // 1-based rank of the order statistic the percentile asks for; q = 0
  // still inspects the first sample.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(fraction * count)));
  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets[static_cast<size_t>(i)];
    if (cumulative >= rank) {
      // Bucket resolution, but never outside the exact extrema: the
      // overflow bucket reports max, a first-bucket rank cannot undercut
      // min, and a single-sample histogram collapses to that sample.
      return std::clamp(UpperBound(i), min, max);
    }
  }
  return max;
}

double HistogramStats::Mean() const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  return sum / static_cast<double>(count);
}

void HistogramStats::MergeFrom(const HistogramStats& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets[static_cast<size_t>(i)] += other.buckets[static_cast<size_t>(i)];
  }
}

void Histogram::Record(double seconds) {
  const double sample = std::max(seconds, 0.0);
  const int bucket = HistogramStats::BucketIndex(sample);
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_.count == 0) {
    stats_.min = sample;
    stats_.max = sample;
  } else {
    stats_.min = std::min(stats_.min, sample);
    stats_.max = std::max(stats_.max, sample);
  }
  ++stats_.count;
  stats_.sum += sample;
  ++stats_.buckets[static_cast<size_t>(bucket)];
}

HistogramStats Histogram::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace fedadmm::obs
