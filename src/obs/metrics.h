/// \file metrics.h
/// \brief Process-wide metrics registry: counters, gauges, and fixed-bucket
/// latency histograms with exact rank percentiles.
///
/// FedADMM's headline claims are about *system* behavior — where a
/// 1M-client round spends its time, how many bytes cross the wire,
/// how resident state grows — yet until this subsystem the engine had no
/// way to see any of it. The registry is the one sink every layer reports
/// into:
///
///   * `Counter` — monotonically increasing int64 (events, wire bytes);
///   * `Gauge`   — last-written int64 (resident state bytes);
///   * `Histogram` — latency distribution over fixed log-spaced buckets
///     (1 µs … 100 s, 8 buckets/decade) with exact count/sum/min/max and
///     bucket-resolution p50/p90/p99 clamped to the exact extrema.
///
/// Metric names are flat strings; the `{key=value}` label convention
/// (`ShardLabel`) keys per-worker instances (the serve frontend's ingest
/// workers) so runs expose per-worker skew.
///
/// **Zero-perturbation contract.** The registry is disabled by default and
/// enabling it must not change any trajectory: instruments never touch RNG
/// streams or float math on the training path — they only read clocks and
/// bump counters. Hot call sites guard with `MetricsEnabled()` (one atomic
/// load) so a disabled registry costs nothing. Tests pin the stronger
/// property: enabled vs disabled runs leave θ bitwise identical.
///
/// Thread-safety: handle lookup and `Record`/`Add`/`Set` are thread-safe.
/// Handles are stable for the process lifetime — `ResetValues` zeroes
/// contents but never invalidates pointers, so call sites may cache them.

#ifndef FEDADMM_OBS_METRICS_H_
#define FEDADMM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fedadmm::obs {

/// \brief Monotonically increasing event/byte count.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Last-written instantaneous value.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Immutable summary of a histogram's contents.
///
/// Self-contained (carries its bucket counts), so per-shard stats merge
/// into fleet-wide stats without touching the live histograms.
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

  /// Element-wise accumulation — the per-shard → fleet-wide merge.
  void MergeFrom(const HistogramStats& other);
};

/// \brief Thread-safe fixed-bucket latency histogram.
class Histogram {
 public:
  /// Records one sample (seconds). Negative samples clamp to 0.
  void Record(double seconds);

  /// Snapshot of the current contents.
  HistogramStats Stats() const;

  void Reset();

 private:
  mutable std::mutex mu_;
  HistogramStats stats_;
};

/// \brief One registry entry family captured by `MetricsRegistry::Snapshot`.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;

  /// Merged stats of every histogram whose name starts with `prefix`
  /// (e.g. all `serve/ingest_seconds{shard=*}` instances).
  HistogramStats AggregateHistograms(std::string_view prefix) const;
};

/// \brief Name → metric instance map. One process-wide instance
/// (`MetricsRegistry::Global()`); tests may build their own.
class MetricsRegistry {
 public:
  /// The process-wide registry all engine instruments report into.
  static MetricsRegistry& Global();

  /// Master switch; `false` (default) makes every instrument a no-op.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Finds or creates the named metric. Pointers stay valid for the
  /// registry's lifetime (entries are never deleted).
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Point-in-time copy of every metric, sorted by name.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every value. Handles stay valid; the enabled flag is
  /// untouched. Benches call this between runs to scope metrics per run.
  void ResetValues();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::atomic<bool> enabled_{false};
};

/// One atomic load — the guard every hot call site uses.
inline bool MetricsEnabled() { return MetricsRegistry::Global().enabled(); }

/// Canonical label spelling: "base{shard=3}". Keying per-shard metric
/// instances through one helper keeps the convention from drifting.
std::string ShardLabel(std::string_view base, int shard);

/// \brief Serializes a snapshot as a JSON object:
/// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
/// min, max, mean, p50, p90, p99}}}`. Percentiles of empty histograms are
/// `null` (JSON has no NaN).
std::string SnapshotToJson(const MetricsSnapshot& snapshot);

}  // namespace fedadmm::obs

#endif  // FEDADMM_OBS_METRICS_H_
