/// \file bench_time_to_accuracy.cc
/// \brief Time-to-accuracy under system heterogeneity (src/sys engine),
/// with optional uplink compression (src/comm) and an execution-mode axis
/// (fl/server_loop engine: sync / buffered / async).
///
/// The paper reports rounds-to-accuracy, but rounds are free only in a
/// simulator: a deployed round costs the critical path of its slowest
/// admitted client. This bench replays the Section V-A comparison on the
/// virtual clock, in two parts:
///
///   1. **Straggler policies × codecs** (sync): FedADMM / FedAvg / FedProx
///      / SCAFFOLD across fleet presets, deadline policies and uplink
///      codecs. FedADMM tolerates variable local work, so under deadline
///      policies its stragglers contribute partial rounds where the
///      fixed-epoch baselines' late full-epoch updates are discarded.
///   2. **Execution modes** (wait-for-all admission): the same fleet run
///      sync (server waits for the whole wave), buffered (aggregate every
///      K arrivals) and async (aggregate each arrival). Budgets are
///      normalized to the same total client-update count, so any
///      sim-seconds gap is pure scheduling: the event-driven modes never
///      wait for the slowest client. FedADMM runs with η = |S_t|/m (the
///      analyzed choice; mandatory for small aggregation batches).
///
/// The round deadline is derived from *uncompressed* payloads for every
/// codec, so codec rows compare on an identical deadline and any
/// sim-seconds gap is the compression effect itself.
///
/// Output: a summary table on stdout and a deterministic per-round CSV
/// (FEDADMM_BENCH_CSV, default "bench_time_to_accuracy.csv") with context
/// columns preset,policy,codec,mode,algorithm followed by the canonical
/// fl/history_csv round columns (identical seeds produce identical
/// files).
///
/// Besides stdout + CSV, the run's summary statistics land in the obs perf
/// rail: a BENCH_time_to_accuracy.json document (FEDADMM_BENCH_JSON) with
/// one result row per (preset, policy, codec, mode, algorithm) run —
/// deterministic metrics (rounds/sim-seconds to target, byte ledgers) gate
/// at 0% in tools/bench_diff, accuracies ride along as informational.
///
/// Knobs: FEDADMM_BENCH_ROUNDS, FEDADMM_BENCH_SCALE, FEDADMM_BENCH_CSV,
/// FEDADMM_BENCH_JSON (required — no default),
/// FEDADMM_BENCH_DEADLINE_PCTL (percentile of full-work client time used as
/// the round deadline, default 60), FEDADMM_BENCH_CODECS (comma-separated
/// uplink codec specs, default "identity,q8,topk10"; see comm/codec.h),
/// FEDADMM_BENCH_PRESETS (comma-separated fleet presets, default
/// "uniform,lognormal-speed,cellular,cross-device-churn"),
/// FEDADMM_BENCH_MODES (default "sync,buffered,async"),
/// FEDADMM_BENCH_STALENESS ("constant" or "poly:<a>", default "constant").

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "comm/codec.h"
#include "fl/history_csv.h"
#include "obs/bench_recorder.h"
#include "sys/system_model.h"

namespace {

using namespace fedadmm;
using namespace fedadmm::bench;

constexpr double kTargetAccuracy = 0.80;

struct RunResult {
  History history;
  std::string algorithm;
};

// Full-work round time of `client`: download + E epochs of compute + upload.
double FullWorkSeconds(const FleetModel& fleet, int client, int steps_full,
                       int64_t payload_bytes) {
  const ClientTiming t = ComputeClientTiming(
      fleet.profile(client), steps_full, payload_bytes, payload_bytes);
  return t.TotalSeconds();
}

// Deadline that a tunable percentile of the fleet can meet with full work —
// tight enough that the straggler policies actually bite.
double FleetDeadline(const FleetModel& fleet, int steps_full,
                     int64_t payload_bytes) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(fleet.num_clients()));
  for (int c = 0; c < fleet.num_clients(); ++c) {
    times.push_back(FullWorkSeconds(fleet, c, steps_full, payload_bytes));
  }
  std::sort(times.begin(), times.end());
  const double pctl =
      GetEnvDouble("FEDADMM_BENCH_DEADLINE_PCTL", 60.0) / 100.0;
  const size_t idx = std::min(
      times.size() - 1, static_cast<size_t>(pctl * times.size()));
  return times[idx];
}

History RunWithSystem(Scenario* scenario, FederatedAlgorithm* algo,
                      const SystemModel* model, UpdateCodec* uplink,
                      int rounds, uint64_t seed,
                      ExecutionMode mode = ExecutionMode::kSync,
                      int eval_every = 1, StalenessWeightFn staleness = {},
                      int buffer_size = 0) {
  UniformFractionSelector base(scenario->problem->num_clients(), 0.3);
  AvailabilityFilterSelector selector(&base, &model->fleet());
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = seed;
  config.num_threads = 8;
  config.mode = mode;
  config.eval_every = eval_every;
  config.staleness_weight = std::move(staleness);
  config.buffer_size = buffer_size;
  Simulation sim(scenario->problem.get(), algo, &selector, config);
  sim.set_system_model(model);
  if (uplink) sim.set_uplink_codec(uplink);
  return std::move(sim.Run()).ValueOrDie();
}

// One perf-rail row per run, named "preset/policy/codec/mode/algo".
// Unreached targets record null (NaN), mirroring the table's "N+" / "--".
void RecordRun(obs::BenchRecorder* recorder, const std::string& preset,
               const std::string& policy, const std::string& codec,
               const std::string& mode, const std::string& algo,
               const History& h) {
  obs::BenchResult* row = recorder->AddResult(preset + "/" + policy + "/" +
                                              codec + "/" + mode + "/" + algo);
  const int to_rounds = h.RoundsToAccuracy(kTargetAccuracy);
  const double to_sim = h.SimSecondsToAccuracy(kTargetAccuracy);
  row->AddMetric("to_target_rounds",
                 to_rounds < 0 ? std::numeric_limits<double>::quiet_NaN()
                               : static_cast<double>(to_rounds));
  row->AddMetric("to_target_sim_seconds",
                 to_sim < 0.0 ? std::numeric_limits<double>::quiet_NaN()
                              : to_sim);
  row->AddMetric("total_sim_seconds", h.TotalSimSeconds());
  row->AddMetric("dropped_count", static_cast<int64_t>(h.TotalDropped()));
  row->AddMetric("upload_bytes", h.TotalUploadBytes());
  row->AddMetric("final_accuracy", h.FinalAccuracy());
}

void PrintRow(const char* preset, const std::string& policy,
              const std::string& codec, const std::string& mode,
              const std::string& algo, const History& h, int budget) {
  std::printf("%-18s %-22s %-9s %-9s %-9s %7s %9s %8.2f %6d %6.2f %8.3f\n",
              preset, policy.c_str(), codec.c_str(), mode.c_str(),
              algo.c_str(),
              FormatRounds(h.RoundsToAccuracy(kTargetAccuracy), budget)
                  .c_str(),
              FormatSeconds(h.SimSecondsToAccuracy(kTargetAccuracy)).c_str(),
              h.TotalSimSeconds(), h.TotalDropped(),
              static_cast<double>(h.TotalUploadBytes()) / 1.0e6,
              h.FinalAccuracy());
}

}  // namespace

int main() {
  const std::string json_path = RequiredBenchJsonPath();
  char title[128];
  std::snprintf(title, sizeof(title),
                "Time-to-accuracy under system heterogeneity "
                "(virtual clock; target acc %.2f)",
                kTargetAccuracy);
  PrintHeader(title);

  const int rounds = RoundBudget(12, 40);
  const uint64_t fleet_seed = 3;
  const uint64_t run_seed = 11;
  const std::string preset_csv = GetEnvString(
      "FEDADMM_BENCH_PRESETS",
      "uniform,lognormal-speed,cellular,cross-device-churn");
  const std::vector<std::string> presets = ParseCodecList(preset_csv);
  const std::vector<std::string> policies = {"deadline-drop",
                                             "deadline-admit-partial"};
  const std::string codec_csv =
      GetEnvString("FEDADMM_BENCH_CODECS", "identity,q8,topk10");
  const std::vector<std::string> codecs = ParseCodecList(codec_csv);
  const std::string mode_csv =
      GetEnvString("FEDADMM_BENCH_MODES", "sync,buffered,async");
  const std::vector<std::string> modes = ParseCodecList(mode_csv);
  const StalenessWeightFn staleness =
      MakeStalenessWeight(
          GetEnvString("FEDADMM_BENCH_STALENESS", "constant"))
          .ValueOrDie();

  HistoryCsvWriter csv;
  const std::string csv_path =
      GetEnvString("FEDADMM_BENCH_CSV", "bench_time_to_accuracy.csv");
  if (!csv.Open(csv_path, {"preset", "policy", "codec", "mode", "algorithm"})
           .ok()) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }

  // The perf rail: every knob that shapes the numbers goes into the
  // context so bench_diff refuses to compare incompatible runs.
  obs::BenchRecorder recorder("time_to_accuracy");
  recorder.AddContext("scale", GetEnvString("FEDADMM_BENCH_SCALE", "small"));
  recorder.AddContext("rounds", static_cast<int64_t>(rounds));
  recorder.AddContext("presets", preset_csv);
  recorder.AddContext("codecs", codec_csv);
  recorder.AddContext("modes", mode_csv);
  recorder.AddContext("staleness",
                      GetEnvString("FEDADMM_BENCH_STALENESS", "constant"));

  std::printf("%-18s %-22s %-9s %-9s %-9s %7s %9s %8s %6s %6s %8s\n",
              "fleet", "policy", "codec", "mode", "algo", "rounds",
              "sim-sec", "tot-sec", "drops", "upMB", "finalacc");

  // One shared scenario: the dataset/model/partition never vary across
  // presets, policies or codecs (runs only read it), so synthesize it once.
  Scenario scenario = MakeScenario(TaskKind::kMnistLike, /*clients=*/30,
                                   /*iid=*/false, /*seed=*/1,
                                   /*samples_per_client=*/12);

  // --- Part 1: straggler policies x codecs (sync execution). -------------
  for (const std::string& preset : presets) {
    const FleetModel fleet =
        FleetModel::FromPreset(preset, scenario.clients, fleet_seed)
            .ValueOrDie();

    // Full local work: E epochs of ceil(n_i / B) minibatch steps.
    const LocalTrainSpec spec = BenchLocalSpec();
    const int steps_full =
        spec.max_epochs *
        ((scenario.samples_per_client + spec.batch_size - 1) /
         spec.batch_size);
    const int64_t payload =
        scenario.problem->dim() * static_cast<int64_t>(sizeof(float));
    const double deadline = FleetDeadline(fleet, steps_full, payload);

    for (const std::string& policy_name : policies) {
      SystemModel model(
          fleet, MakeStragglerPolicy(policy_name, deadline).ValueOrDie());

      for (const std::string& codec_spec : codecs) {
        std::vector<RunResult> results;
        for (const char* algo_name :
             {"FedADMM", "FedAvg", "FedProx", "SCAFFOLD"}) {
          std::unique_ptr<FederatedAlgorithm> algo =
              MakeBenchAlgorithm(algo_name);
          // Fresh codec per run: stateful codecs (ef:*) must not leak
          // residuals across algorithms.
          auto codec = MakeUpdateCodec(codec_spec).ValueOrDie();
          results.push_back({RunWithSystem(&scenario, algo.get(), &model,
                                           codec.get(), rounds, run_seed),
                             algo->name()});
        }

        for (const RunResult& result : results) {
          const History& h = result.history;
          if (!csv.AppendHistory({preset, policy_name, codec_spec, "sync",
                                  result.algorithm},
                                 h)
                   .ok()) {
            std::fprintf(stderr, "CSV write failed\n");
            return 1;
          }
          RecordRun(&recorder, preset, policy_name, codec_spec, "sync",
                    result.algorithm, h);
          PrintRow(preset.c_str(), policy_name, codec_spec, "sync",
                   result.algorithm, h, rounds);
        }
      }
      std::printf("  (deadline %.2fs from raw payloads, fleet '%s', "
                  "policy '%s')\n",
                  deadline, preset.c_str(), policy_name.c_str());
    }
  }

  // --- Part 2: execution modes (wait-for-all admission, no codec). -------
  // Budgets are normalized to the same total client-update count: one sync
  // round aggregates a full wave, one buffered record K arrivals, one
  // async record a single arrival. Eval cadence scales the same way so the
  // accuracy curves have comparable resolution.
  PrintHeader("Execution modes: sync wait-for-all vs buffered/async");
  std::printf("%-18s %-22s %-9s %-9s %-9s %7s %9s %8s %6s %6s %8s\n",
              "fleet", "policy", "codec", "mode", "algo", "rounds",
              "sim-sec", "tot-sec", "drops", "upMB", "finalacc");

  // Part 2 runs longer than part 1: FedADMM under η = |S_t|/m takes ~20
  // sync waves to cross the target, and the whole point is comparing
  // *crossing times* across modes.
  const int mode_budget = RoundBudget(30, 60);
  UniformFractionSelector sizing(scenario.clients, 0.3);
  const int wave = sizing.clients_per_round();
  const int buffer_k = std::max(1, wave / 2);
  const int total_updates = mode_budget * wave;

  for (const char* preset : {"cellular", "cross-device-churn"}) {
    const FleetModel fleet =
        FleetModel::FromPreset(preset, scenario.clients, fleet_seed)
            .ValueOrDie();
    const SystemModel model(
        fleet, MakeStragglerPolicy("wait-for-all", -1.0).ValueOrDie());

    for (const std::string& mode_name : modes) {
      const ExecutionMode mode = ParseExecutionMode(mode_name).ValueOrDie();
      int mode_rounds = mode_budget;
      int eval_every = 1;
      if (mode == ExecutionMode::kBuffered) {
        mode_rounds = (total_updates + buffer_k - 1) / buffer_k;
        eval_every = std::max(1, (wave + buffer_k - 1) / buffer_k);
      } else if (mode == ExecutionMode::kAsync) {
        mode_rounds = total_updates;
        eval_every = wave;
      }

      for (const char* algo_name : {"FedADMM", "FedAvg"}) {
        std::unique_ptr<FederatedAlgorithm> algo;
        if (std::string(algo_name) == "FedADMM") {
          FedAdmmOptions options = BenchAdmmOptions();
          options.eta_active_fraction = true;  // η = |S_t|/m, see header
          algo = std::make_unique<FedAdmm>(options);
        } else {
          algo = MakeBenchAlgorithm(algo_name);
        }
        const History h = RunWithSystem(
            &scenario, algo.get(), &model, /*uplink=*/nullptr, mode_rounds,
            run_seed, mode, eval_every,
            mode == ExecutionMode::kSync ? StalenessWeightFn{} : staleness,
            mode == ExecutionMode::kBuffered ? buffer_k : 0);
        if (!csv.AppendHistory(
                   {preset, "wait-for-all", "identity", mode_name, algo_name},
                   h)
                 .ok()) {
          std::fprintf(stderr, "CSV write failed\n");
          return 1;
        }
        RecordRun(&recorder, preset, "wait-for-all", "identity", mode_name,
                  algo_name, h);
        PrintRow(preset, "wait-for-all", "identity", mode_name, algo_name, h,
                 mode_rounds);
      }
    }
    std::printf("  (fleet '%s': %d-client waves, buffered K=%d, budgets "
                "normalized to %d client updates; availability churn can "
                "shrink a wave below the nominal K)\n",
                preset, wave, buffer_k, total_updates);
  }

  if (!csv.Close().ok()) {
    std::fprintf(stderr, "CSV close failed\n");
    return 1;
  }
  if (!recorder.WriteFile(json_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nper-round CSV written to %s, perf rail to %s\n",
              csv_path.c_str(), json_path.c_str());
  PrintFootnote();
  return 0;
}
