/// \file metrics.h
/// \brief Fixed-bucket latency histograms with exact rank percentiles.
///
/// A `Histogram` is a latency distribution over fixed log-spaced buckets
/// (1 µs … 100 s, 8 buckets/decade) with exact count/sum/min/max and
/// bucket-resolution p50/p90/p99 clamped to the exact extrema. Whoever
/// measures a latency owns its histogram: the serve frontend keeps one per
/// ingest worker and merges them (`Frontend::ingest_latency()`), and
/// `BenchResult::AddLatencyMetrics` unpacks the merged stats into a perf
/// rail. There is no global sink: engine phases are timed by `TraceScope`
/// spans (obs/trace.h), and counts live where they are produced —
/// `RoundRecord` (fl/types.h) is the per-round ledger of clients, bytes
/// and resident state, and the tiered store counts its own pool hits,
/// misses and evictions (`TieredStateStore::pool_hits()` ...).
///
/// Thread-safety: `Histogram::Record` and `Stats` are thread-safe;
/// `HistogramStats` is a plain value.

#ifndef FEDADMM_OBS_METRICS_H_
#define FEDADMM_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <mutex>

namespace fedadmm::obs {

/// \brief Immutable summary of a histogram's contents.
///
/// Self-contained (carries its bucket counts), so per-worker stats merge
/// into run-wide stats without touching the live histograms.
struct HistogramStats {
  /// Log-spaced bucket upper bounds: bucket i covers
  /// (UpperBound(i-1), UpperBound(i)]; the last bucket is the +inf
  /// overflow. 8 buckets per decade over 1e-6 s .. 1e2 s.
  static constexpr int kBucketsPerDecade = 8;
  static constexpr int kDecades = 8;
  static constexpr int kNumBuckets =
      kBucketsPerDecade * kDecades + 1;  // + overflow

  /// Upper bound of bucket `i` in seconds (+inf for the overflow bucket).
  static double UpperBound(int i);
  /// Index of the bucket a sample of `seconds` lands in.
  static int BucketIndex(double seconds);

  int64_t count = 0;
  double sum = 0.0;
  /// Exact extrema (min is +inf / max is -inf when empty).
  double min = 0.0;
  double max = 0.0;
  std::array<int64_t, kNumBuckets> buckets{};

  /// Exact-rank percentile at bucket resolution: the value at rank
  /// ceil(q/100 · count) (1-based, over the sorted samples) is bracketed by
  /// its bucket, whose upper bound is returned, clamped to the exact
  /// [min, max]. Hence a single-sample histogram returns that sample for
  /// every q, and q = 100 always returns the exact max. NaN when empty.
  double Percentile(double q) const;

  /// sum / count (NaN when empty).
  double Mean() const;

  /// Element-wise accumulation — the per-worker → run-wide merge.
  void MergeFrom(const HistogramStats& other);
};

/// \brief Thread-safe fixed-bucket latency histogram.
class Histogram {
 public:
  /// Records one sample (seconds). Negative samples clamp to 0.
  void Record(double seconds);

  /// Snapshot of the current contents.
  HistogramStats Stats() const;

 private:
  mutable std::mutex mu_;
  HistogramStats stats_;
};

}  // namespace fedadmm::obs

#endif  // FEDADMM_OBS_METRICS_H_
