/// \file bench_recorder.h
/// \brief The persisted perf rail: structured `BENCH_*.json` results.
///
/// Until this file the repo had **no recorded perf trajectory**: benches
/// printed tables to stdout and the numbers died with the terminal. A
/// `BenchRecorder` collects one bench binary's results — each a named row
/// with numeric metrics — plus the *config context* that makes trajectories
/// comparable across PRs (fleet preset, store spec, codec, round budget),
/// and serializes them with a stable field order so committed baselines
/// diff cleanly under git.
///
/// Schema (schema_version 1):
///
///   {
///     "bench": "state_scale",
///     "schema_version": 1,
///     "context": { "clients": "50000", "store": "lazy", ... },
///     "results": [
///       { "name": "lazy",
///         "metrics": { "final_accuracy": 0.93, "upload_bytes": 123, ... } }
///     ]
///   }
///
/// Metric-name suffix is the gating contract consumed by
/// `obs/bench_compare.h` (tools/bench_diff): deterministic metrics
/// (`*_bytes`, `*_count`, `*_rounds`, `*_sim_seconds*`) are gated exactly;
/// wall-clock metrics (`*_wall_seconds`, `*_us`) at a percentage
/// tolerance; everything else is informational. NaN metrics serialize as
/// `null` ("target never reached").
///
/// Context is sorted by key and metrics by name; results keep insertion
/// order (benches emit sweeps in a meaningful order).

#ifndef FEDADMM_OBS_BENCH_RECORDER_H_
#define FEDADMM_OBS_BENCH_RECORDER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace fedadmm::obs {

/// \brief One result row: a name plus numeric metrics.
class BenchResult {
 public:
  explicit BenchResult(std::string name) : name_(std::move(name)) {}

  /// Adds (or overwrites) one metric. NaN serializes as null.
  BenchResult& AddMetric(const std::string& key, double value);
  BenchResult& AddMetric(const std::string& key, int64_t value);

  /// Unpacks a histogram into `<prefix>_count` plus
  /// `<prefix>_{p50,p90,p99,max,mean}<unit_suffix>` metrics. The suffix
  /// decides the gating class: "_wall_seconds" for host-dependent wall
  /// time, "_sim_seconds" for deterministic simulated time.
  BenchResult& AddLatencyMetrics(const std::string& prefix,
                                 const std::string& unit_suffix,
                                 const HistogramStats& stats);

  const std::string& name() const { return name_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  std::string name_;
  std::map<std::string, double> metrics_;
};

/// \brief Collects one bench binary's context + results and writes the
/// BENCH_*.json document.
class BenchRecorder {
 public:
  explicit BenchRecorder(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Sets one config-context entry (sorted by key on output).
  void AddContext(const std::string& key, const std::string& value);
  void AddContext(const std::string& key, int64_t value);

  /// Appends a result row; the returned pointer stays valid for the
  /// recorder's lifetime.
  BenchResult* AddResult(const std::string& name);

  /// The serialized document.
  std::string ToJson() const;

  /// Writes `ToJson()` to `path`.
  Status WriteFile(const std::string& path) const;

  const std::string& bench_name() const { return bench_name_; }

 private:
  std::string bench_name_;
  std::map<std::string, std::string> context_;
  std::vector<std::unique_ptr<BenchResult>> results_;
};

}  // namespace fedadmm::obs

#endif  // FEDADMM_OBS_BENCH_RECORDER_H_
