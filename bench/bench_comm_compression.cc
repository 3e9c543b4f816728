/// \file bench_comm_compression.cc
/// \brief Communication-efficiency study: codecs × fleet presets (src/comm).
///
/// Sweeps uplink codecs over FedADMM / FedAvg / SCAFFOLD under the
/// `wait-for-all` policy, which isolates the transfer leg: with no deadline
/// there are no drops, so any sim-seconds gap between codec rows is purely
/// the smaller payload moving over the same links. The `uniform` preset
/// (fat symmetric links) shows where compression barely matters; the
/// `cellular` preset (40% of clients on a metered 0.25 MB/s uplink) is
/// where a 4-30x smaller payload buys a proportional chunk of the round's
/// critical path. SCAFFOLD uploads two vectors per round and pays double
/// for its accuracy head start — visible in the wire-MB column.
///
/// Output: summary table on stdout and a deterministic per-round CSV
/// (FEDADMM_BENCH_CSV, default "bench_comm_compression.csv") with context
/// columns preset,codec,algorithm followed by the canonical
/// fl/history_csv round columns. Double runs diff clean: no column is
/// host-dependent.
///
/// Knobs: FEDADMM_BENCH_ROUNDS, FEDADMM_BENCH_SCALE, FEDADMM_BENCH_CSV,
/// FEDADMM_BENCH_CODECS (default "identity,fp16,q8,sq4,topk10,ef:topk10").

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "comm/codec.h"
#include "fl/history_csv.h"
#include "sys/system_model.h"

namespace {

using namespace fedadmm;
using namespace fedadmm::bench;

constexpr double kTargetAccuracy = 0.80;

History RunWithCodec(Scenario* scenario, FederatedAlgorithm* algo,
                     const SystemModel* model, UpdateCodec* uplink,
                     int rounds, uint64_t seed) {
  UniformFractionSelector base(scenario->problem->num_clients(), 0.3);
  AvailabilityFilterSelector selector(&base, &model->fleet());
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = seed;
  config.num_threads = 8;
  Simulation sim(scenario->problem.get(), algo, &selector, config);
  sim.set_system_model(model);
  sim.set_uplink_codec(uplink);
  return std::move(sim.Run()).ValueOrDie();
}

}  // namespace

int main() {
  char title[160];
  std::snprintf(title, sizeof(title),
                "Uplink compression: codecs x fleets on the virtual clock "
                "(wait-for-all; target acc %.2f)",
                kTargetAccuracy);
  PrintHeader(title);

  const int rounds = RoundBudget(12, 40);
  const uint64_t fleet_seed = 3;
  const uint64_t run_seed = 11;
  const std::vector<std::string> presets = {"uniform", "cellular"};
  const std::vector<std::string> algos = {"FedADMM", "FedAvg", "SCAFFOLD"};
  const std::vector<std::string> codecs = ParseCodecList(GetEnvString(
      "FEDADMM_BENCH_CODECS", "identity,fp16,q8,sq4,topk10,ef:topk10"));

  HistoryCsvWriter csv;
  const std::string csv_path =
      GetEnvString("FEDADMM_BENCH_CSV", "bench_comm_compression.csv");
  if (!csv.Open(csv_path, {"preset", "codec", "algorithm"}).ok()) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }

  std::printf("%-10s %-10s %-9s %7s %9s %8s %8s %6s %8s\n", "fleet",
              "codec", "algo", "rounds", "sim-sec", "wireMB", "rawMB",
              "ratio", "finalacc");

  Scenario scenario = MakeScenario(TaskKind::kMnistLike, /*clients=*/30,
                                   /*iid=*/false, /*seed=*/1,
                                   /*samples_per_client=*/12);

  for (const std::string& preset : presets) {
    const FleetModel fleet =
        FleetModel::FromPreset(preset, scenario.clients, fleet_seed)
            .ValueOrDie();
    const SystemModel model(fleet, std::make_unique<WaitForAllPolicy>());

    for (const std::string& codec_spec : codecs) {
      for (const std::string& algo_name : algos) {
        std::unique_ptr<FederatedAlgorithm> algo =
            MakeBenchAlgorithm(algo_name);
        // Fresh codec per run: ef:* residuals must not leak across runs.
        auto codec = MakeUpdateCodec(codec_spec).ValueOrDie();
        const History h = RunWithCodec(&scenario, algo.get(), &model,
                                       codec.get(), rounds, run_seed);

        if (!csv.AppendHistory({preset, codec_spec, algo_name}, h).ok()) {
          std::fprintf(stderr, "CSV write failed\n");
          return 1;
        }

        const double wire_mb =
            static_cast<double>(h.TotalUploadBytes()) / 1.0e6;
        const double raw_mb =
            static_cast<double>(h.TotalUploadBytesRaw()) / 1.0e6;
        std::printf("%-10s %-10s %-9s %7s %9s %8.2f %8.2f %5.1fx %8.3f\n",
                    preset.c_str(), codec_spec.c_str(), algo_name.c_str(),
                    FormatRounds(h.RoundsToAccuracy(kTargetAccuracy), rounds)
                        .c_str(),
                    FormatSeconds(h.SimSecondsToAccuracy(kTargetAccuracy))
                        .c_str(),
                    wire_mb, raw_mb, wire_mb > 0.0 ? raw_mb / wire_mb : 0.0,
                    h.FinalAccuracy());
      }
    }
    std::printf("  (fleet '%s', wait-for-all: no drops — sim-second gaps "
                "are pure transfer savings)\n",
                preset.c_str());
  }

  if (!csv.Close().ok()) {
    std::fprintf(stderr, "CSV close failed\n");
    return 1;
  }
  std::printf("\nper-round CSV written to %s\n", csv_path.c_str());
  PrintFootnote();
  return 0;
}
