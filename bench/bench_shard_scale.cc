/// \file bench_shard_scale.cc
/// \brief 1M-client sharded-aggregation-server scaling (W workers).
///
/// At 1 000 000 clients with 1% participation, a round aggregates 10 000
/// Δ_i vectors. With d = 128 far below the fixed reduction block
/// (tensor/vec.h kReduceBlock = 8192), the unsharded server reduce is a
/// single serial block no thread pool can split — aggregation becomes the
/// wall-clock floor of the whole simulated round. The sharded server
/// (SimulationConfig::num_shards = W) forms W per-shard partials from the
/// canonical client partition and combines them in fixed shard order:
/// W × blocks tasks run concurrently, and each W is bitwise reproducible
/// at any thread count (W = 1 is the exact legacy path).
///
/// This bench runs the same cross-device-churn round set at W ∈ {1,2,4,8}
/// and reports wall time, speedup over W = 1, per-shard resident state
/// (sharded store accounting), and the accuracy trajectory. Per-W
/// determinism means two identical invocations produce byte-identical
/// CSVs; across W the reduce regroups float additions, so trajectories
/// may differ in the last ulp — the bench hard-fails if any W's accuracy
/// trajectory drifts more than 1e-6 from W = 1.
///
/// Output: a summary table on stdout and a deterministic per-round CSV
/// (FEDADMM_BENCH_CSV, default "bench_shard_scale.csv") with `shards` and
/// `store` context columns ahead of the canonical fl/history_csv round
/// columns (wall_seconds forced to 0).
///
/// Besides stdout + CSV, each W lands one row in the obs perf rail
/// (FEDADMM_BENCH_JSON, required): deterministic resident
/// bytes and aggregation counts gate at 0% in tools/bench_diff, the run's
/// wall seconds plus the engine's per-phase aggregate latency histogram
/// (obs metrics registry, reset per W) at the wall-clock tolerance.
///
/// Knobs: FEDADMM_BENCH_CLIENTS (default 1000000), FEDADMM_BENCH_SHARDS
/// (default "1,2,4,8"), FEDADMM_BENCH_THREADS (default 8),
/// FEDADMM_BENCH_STORE (default "lazy"), FEDADMM_BENCH_STATE_DIM (default
/// 128), FEDADMM_BENCH_ROUNDS, FEDADMM_BENCH_SCALE, FEDADMM_BENCH_CSV,
/// FEDADMM_BENCH_JSON (required — no default).

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/mean_field_problem.h"
#include "core/fedadmm.h"
#include "fl/history_csv.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "obs/bench_recorder.h"
#include "obs/metrics.h"
#include "state/sharded_store.h"
#include "sys/system_model.h"
#include "tensor/vec.h"

namespace fedadmm::bench {
namespace {

std::string FormatMiB(int64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

std::vector<int> ParseShardList(const std::string& csv) {
  std::vector<int> shards;
  for (const std::string& field : ParseCodecList(csv)) {
    const int w = std::atoi(field.c_str());
    if (w >= 1) shards.push_back(w);
  }
  if (shards.empty()) shards.push_back(1);
  return shards;
}

}  // namespace
}  // namespace fedadmm::bench

int main() {
  using namespace fedadmm;
  using namespace fedadmm::bench;
  using Clock = std::chrono::steady_clock;

  const std::string json_path = RequiredBenchJsonPath();
  const int clients =
      static_cast<int>(GetEnvInt("FEDADMM_BENCH_CLIENTS", 1000000));
  const int64_t dim = GetEnvInt("FEDADMM_BENCH_STATE_DIM", 128);
  const int threads =
      static_cast<int>(GetEnvInt("FEDADMM_BENCH_THREADS", 8));
  const int rounds = RoundBudget(4, 8);
  const double participation = 0.01;
  const std::string store = GetEnvString("FEDADMM_BENCH_STORE", "lazy");
  const std::vector<int> shard_counts =
      ParseShardList(GetEnvString("FEDADMM_BENCH_SHARDS", "1,2,4,8"));

  PrintHeader("Sharded aggregation server: " + std::to_string(clients) +
              "-client cross-device-churn fleet, " +
              std::to_string(static_cast<int>(participation * 100)) +
              "% participation, d=" + std::to_string(dim) + ", store=" +
              store + ", threads=" + std::to_string(threads));

  HistoryCsvWriter csv;
  const std::string csv_path =
      GetEnvString("FEDADMM_BENCH_CSV", "bench_shard_scale.csv");
  if (!csv.Open(csv_path, {"shards", "store"}, /*deterministic_only=*/true)
           .ok()) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }

  obs::BenchRecorder recorder("shard_scale");
  recorder.AddContext("clients", static_cast<int64_t>(clients));
  recorder.AddContext("dim", dim);
  recorder.AddContext("threads", static_cast<int64_t>(threads));
  recorder.AddContext("rounds", static_cast<int64_t>(rounds));
  recorder.AddContext("store", store);
  // Enable the obs registry for the whole sweep: the engine's phase
  // histograms feed per-W latency metrics, and the equivalence tests
  // guarantee enabling it cannot move the trajectories.
  obs::MetricsRegistry::Global().set_enabled(true);

  // One shared fleet + problem: availability churn filters selection; the
  // schedule (selection, timing, byte ledgers) is identical across W.
  MeanFieldProblem problem(clients, dim, /*seed=*/17);
  FleetModel fleet =
      FleetModel::FromPreset("cross-device-churn", clients, 29).ValueOrDie();
  SystemModel model(FleetModel(fleet),
                    MakeStragglerPolicy("wait-for-all", -1.0).ValueOrDie());

  std::printf("\n%-7s | %9s | %9s | %8s | %12s | %14s | %9s\n", "shards",
              "rounds", "wall s", "speedup", "resident MiB",
              "max shard MiB", "final acc");
  std::printf("--------+-----------+-----------+----------+--------------+"
              "----------------+----------\n");

  double base_wall = -1.0;
  std::vector<double> base_acc;
  double worst_drift = 0.0;
  for (const int w : shard_counts) {
    FedAdmmOptions options;
    options.local.learning_rate = 0.3f;
    options.local.batch_size = 0;
    options.local.max_epochs = 2;
    options.local.variable_epochs = true;
    options.rho = StepSchedule(1.0);
    options.eta_active_fraction = true;
    options.state_store = store;
    FedAdmm algo(options);

    UniformFractionSelector base(clients, participation);
    AvailabilityFilterSelector selector(&base, &fleet);

    SimulationConfig config;
    config.max_rounds = rounds;
    config.seed = 7;
    config.num_threads = threads;
    config.num_shards = w;
    Simulation sim(&problem, &algo, &selector, config);
    sim.set_system_model(&model);
    obs::MetricsRegistry::Global().ResetValues();  // scope metrics per W
    const auto start = Clock::now();
    const History history = std::move(sim.Run()).ValueOrDie();
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (!csv.AppendHistory({std::to_string(w), store}, history).ok()) {
      std::fprintf(stderr, "CSV write failed\n");
      return 1;
    }

    if (base_wall < 0.0) base_wall = wall;
    const int64_t resident = history.records().back().state_bytes_resident;
    int64_t max_shard = resident;
    if (const auto* sharded = dynamic_cast<const ShardedStateStore*>(
            &algo.state_store())) {
      max_shard = 0;
      for (int s = 0; s < sharded->num_active_shards(); ++s) {
        if (sharded->bytes_resident_shard(s) > max_shard) {
          max_shard = sharded->bytes_resident_shard(s);
        }
      }
    }

    obs::BenchResult* row = recorder.AddResult("W=" + std::to_string(w));
    row->AddMetric("aggregations_count",
                   static_cast<int64_t>(history.size()));
    row->AddMetric("state_resident_bytes", resident);
    row->AddMetric("max_shard_resident_bytes", max_shard);
    row->AddMetric("upload_bytes", history.TotalUploadBytes());
    row->AddMetric("run_wall_seconds", wall);
    row->AddMetric("speedup", wall > 0.0 ? base_wall / wall : 0.0);
    row->AddMetric("final_accuracy", history.FinalAccuracy());
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    row->AddLatencyMetrics(
        "aggregate", "_wall_seconds",
        snapshot.AggregateHistograms("server/phase/aggregate_seconds"));
    std::printf("%-7d | %9d | %9.2f | %7.2fx | %12s | %14s | %9.4f\n", w,
                history.size(), wall,
                wall > 0.0 ? base_wall / wall : 0.0,
                FormatMiB(resident).c_str(), FormatMiB(max_shard).c_str(),
                history.FinalAccuracy());

    std::vector<double> acc;
    for (const RoundRecord& r : history.records()) {
      acc.push_back(r.test_accuracy);
    }
    if (base_acc.empty()) {
      base_acc = acc;
      continue;
    }
    // Sharding regroups the reduce's float additions; the trajectory must
    // stay within last-ulp-accumulation distance of W = 1.
    if (acc.size() != base_acc.size()) {
      std::fprintf(stderr, "FAIL: W=%d produced %zu records, W=%d %zu\n", w,
                   acc.size(), shard_counts.front(), base_acc.size());
      return 1;
    }
    for (size_t i = 0; i < acc.size(); ++i) {
      const double drift = std::fabs(acc[i] - base_acc[i]);
      if (drift > worst_drift) worst_drift = drift;
      if (drift > 1e-6) {
        std::fprintf(stderr,
                     "FAIL: W=%d accuracy drifted %.3e from W=%d at round "
                     "%zu (determinism bug, not reduce regrouping)\n",
                     w, drift, shard_counts.front(), i);
        return 1;
      }
    }
  }

  if (!csv.Close().ok()) {
    std::fprintf(stderr, "CSV close failed\n");
    return 1;
  }
  if (!recorder.WriteFile(json_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("perf rail written to %s\n", json_path.c_str());
  std::printf(
      "\nAccuracy trajectories agree across W (max drift %.3e <= 1e-6):\n"
      "the hierarchical reduce only regroups float additions. Each W is\n"
      "bitwise reproducible at any thread count — rerun with identical\n"
      "knobs and diff the CSV. CSV: %s\n",
      worst_drift, csv_path.c_str());
  PrintFootnote();
  return 0;
}
