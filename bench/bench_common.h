/// \file bench_common.h
/// \brief Shared scaffolding for the paper-reproduction benchmarks.
///
/// Every bench binary regenerates one table or figure of the paper's
/// evaluation (Section V) at CPU-bench scale and prints the paper's
/// reference values next to the measured ones. Scale is controlled by
/// FEDADMM_BENCH_SCALE:
///   * "small" (default): minutes-total across all benches,
///   * "large": bigger populations / more rounds, closer to the paper.
/// Individual knobs can be overridden via FEDADMM_BENCH_ROUNDS,
/// FEDADMM_BENCH_SEEDS.
///
/// The synthetic datasets stand in for MNIST/FMNIST/CIFAR-10 (the
/// environment is offline; see README.md, "Synthetic stand-ins"). The three
/// stand-ins keep the real datasets' relative difficulty via increasing
/// noise and channels.

#ifndef FEDADMM_BENCH_BENCH_COMMON_H_
#define FEDADMM_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/fedadmm.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/algorithms/fedavg.h"
#include "fl/algorithms/fedprox.h"
#include "fl/algorithms/fedsgd.h"
#include "fl/algorithms/scaffold.h"
#include "fl/nn_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "util/env.h"

namespace fedadmm::bench {

/// Which stand-in dataset a scenario uses.
enum class TaskKind { kMnistLike, kFmnistLike, kCifarLike };

inline const char* TaskName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kMnistLike:
      return "MNIST*";
    case TaskKind::kFmnistLike:
      return "FMNIST*";
    case TaskKind::kCifarLike:
      return "CIFAR-10*";
  }
  return "?";
}

/// True when FEDADMM_BENCH_SCALE=large.
inline bool LargeScale() {
  return GetEnvString("FEDADMM_BENCH_SCALE", "small") == "large";
}

/// A federated scenario: dataset + partition + model, bench-scaled.
struct Scenario {
  TaskKind task = TaskKind::kMnistLike;
  int clients = 100;
  bool iid = false;
  /// Samples per client (controls the per-round compute).
  int samples_per_client = 12;
  uint64_t seed = 1;

  std::unique_ptr<DataSplit> split;
  Partition partition;
  ModelConfig model;
  std::unique_ptr<NnFederatedProblem> problem;
};

/// Noise level of each stand-in (keeps MNIST < FMNIST < CIFAR difficulty;
/// the 3-channel CIFAR stand-in needs proportionally more noise because its
/// prototypes carry 3x the signal pixels).
inline float TaskNoise(TaskKind kind) {
  switch (kind) {
    case TaskKind::kMnistLike:
      return 1.0f;
    case TaskKind::kFmnistLike:
      return 1.3f;
    case TaskKind::kCifarLike:
      return 3.0f;
  }
  return 1.0f;
}

/// Target accuracy per task, calibrated near each task's ceiling the way
/// the paper's targets are (97% / 80% / 45%): the interesting differences
/// between methods appear in the late, drift-dominated phase.
inline double TaskTarget(TaskKind kind) {
  switch (kind) {
    case TaskKind::kMnistLike:
      return 0.95;
    case TaskKind::kFmnistLike:
      return 0.85;
    case TaskKind::kCifarLike:
      return 0.85;
  }
  return 0.5;
}

/// The bench workhorse model: a wide (overparameterized) classifier.
///
/// Substitution note (README.md, "Synthetic stand-ins"): the paper's
/// 1.1M-1.7M-parameter CNNs operate deep in the interpolation regime, which
/// is what makes the ADMM local subproblems solvable by a few SGD epochs
/// (inexactness ε of Eq. (6) stays small). At CPU-bench scale a narrow CNN
/// leaves that regime and all the dual-ascent methods degrade; a wide MLP
/// restores it at tractable cost. Set FEDADMM_BENCH_MODEL=cnn to use the
/// scaled two-conv CNN instead; the exact paper CNNs are validated by
/// bench_table2_models.
inline ModelConfig BenchModel(TaskKind task) {
  const bool cnn = GetEnvString("FEDADMM_BENCH_MODEL", "mlp") == "cnn";
  const int channels = task == TaskKind::kCifarLike ? 3 : 1;
  if (cnn) return BenchCnnConfig(channels, 12);
  ModelConfig config;
  config.arch = ModelConfig::Arch::kMlp;
  config.in_channels = channels;
  config.height = 12;
  config.width = 12;
  config.mlp_hidden = 256;
  config.classes = 10;
  return config;
}

/// Builds a ready-to-run scenario.
inline Scenario MakeScenario(TaskKind task, int clients, bool iid,
                             uint64_t seed = 1, int samples_per_client = 12) {
  Scenario s;
  s.task = task;
  s.clients = clients;
  s.iid = iid;
  s.samples_per_client = samples_per_client;
  s.seed = seed;

  const int channels = task == TaskKind::kCifarLike ? 3 : 1;
  const int hw = 12;
  const int per_class = clients * samples_per_client / 10;
  s.split = std::make_unique<DataSplit>(GenerateSynthetic(
      SyntheticBenchSpec(channels, hw, per_class, /*test_per_class=*/30,
                         TaskNoise(task))));
  Rng rng(seed);
  s.partition =
      iid ? PartitionIid(s.split->train.size(), clients, &rng).ValueOrDie()
          : PartitionShards(s.split->train.labels(), clients, 2, &rng)
                .ValueOrDie();
  s.model = BenchModel(task);
  s.problem = std::make_unique<NnFederatedProblem>(
      s.model, &s.split->train, &s.split->test, s.partition,
      /*num_workers=*/8);
  return s;
}

/// The paper's local hyperparameters at bench scale.
inline LocalTrainSpec BenchLocalSpec(int epochs = 10, int batch = 5,
                                     float lr = 0.1f) {
  LocalTrainSpec local;
  local.learning_rate = lr;
  local.batch_size = batch;
  local.max_epochs = epochs;
  return local;
}

/// Bench default ρ for FedADMM, fixed across all scenarios (mirroring the
/// paper's fixed ρ = 0.01; the scaled tasks need a proportionally larger
/// anchor because clients hold far less data).
inline constexpr float kBenchRho = 1.0f;

/// FedADMM with the bench defaults.
inline FedAdmmOptions BenchAdmmOptions(float rho = kBenchRho,
                                       int epochs = 10) {
  FedAdmmOptions options;
  options.local = BenchLocalSpec(epochs);
  options.local.variable_epochs = true;
  options.rho = StepSchedule(rho);
  options.eta = StepSchedule(1.0);
  return options;
}

/// Runs one algorithm on a scenario; returns the history.
inline History RunScenario(Scenario* scenario, FederatedAlgorithm* algo,
                           double fraction, int rounds, uint64_t seed,
                           double target = -1.0) {
  UniformFractionSelector selector(scenario->problem->num_clients(),
                                   fraction);
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = seed;
  config.target_accuracy = target;
  config.num_threads = 8;
  Simulation sim(scenario->problem.get(), algo, &selector, config);
  return std::move(sim.Run()).ValueOrDie();
}

/// Bench-wide round budget (env-overridable).
inline int RoundBudget(int small_default, int large_default) {
  const int from_env = static_cast<int>(GetEnvInt("FEDADMM_BENCH_ROUNDS", 0));
  if (from_env > 0) return from_env;
  return LargeScale() ? large_default : small_default;
}

/// Number of seeds to average (paper: 5 runs).
inline int SeedCount() {
  const int from_env = static_cast<int>(GetEnvInt("FEDADMM_BENCH_SEEDS", 0));
  if (from_env > 0) return from_env;
  return LargeScale() ? 3 : 1;
}

/// Formats a rounds-to-target value the way the paper does ("100+" when the
/// target was not reached within the budget).
inline std::string FormatRounds(int rounds, int budget) {
  if (rounds < 0) return std::to_string(budget) + "+";
  return std::to_string(rounds);
}

/// Formats a seconds-to-target value ("--" when the target was not reached).
inline std::string FormatSeconds(double s) {
  if (s < 0.0) return "--";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", s);
  return buf;
}

/// Splits a comma-separated codec spec list ("identity,q8,topk10"); empty
/// fields are skipped.
inline std::vector<std::string> ParseCodecList(const std::string& csv) {
  std::vector<std::string> specs;
  std::string current;
  for (char c : csv) {
    if (c == ',') {
      if (!current.empty()) specs.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) specs.push_back(current);
  return specs;
}

/// Builds a bench algorithm by its display name: FedADMM runs with variable
/// epochs (paper §V-A), the baselines with fixed full-epoch work.
inline std::unique_ptr<FederatedAlgorithm> MakeBenchAlgorithm(
    const std::string& name) {
  if (name == "FedADMM") return std::make_unique<FedAdmm>(BenchAdmmOptions());
  if (name == "FedAvg") return std::make_unique<FedAvg>(BenchLocalSpec());
  if (name == "FedProx") {
    return std::make_unique<FedProx>(BenchLocalSpec(), kBenchRho);
  }
  FEDADMM_CHECK_MSG(name == "SCAFFOLD",
                    "MakeBenchAlgorithm: unknown algorithm");
  return std::make_unique<Scaffold>(BenchLocalSpec());
}

/// The perf-rail output path from FEDADMM_BENCH_JSON. There is no default:
/// a default file name, run from the repository root, would silently
/// overwrite the committed baseline of the same name. Exits with status 2
/// and a message naming the variable when it is unset or empty, before
/// the bench spends any time.
inline std::string RequiredBenchJsonPath() {
  const std::string path = GetEnvString("FEDADMM_BENCH_JSON", "");
  if (path.empty()) {
    std::fprintf(stderr,
                 "FEDADMM_BENCH_JSON is not set: name the JSON file this "
                 "rail writes (for example fresh_BENCH_<rail>.json); there "
                 "is no default, so a run cannot overwrite a committed "
                 "baseline\n");
    std::exit(2);
  }
  return path;
}

/// Prints a section header.
inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Prints the standard bench footnote on scale and substitution.
inline void PrintFootnote() {
  std::printf(
      "\n* synthetic stand-ins at CPU-bench scale (see README.md,\n"
      "  \"Synthetic stand-ins\"). Shapes (orderings, trends), not absolute\n"
      "  values, are the reproduction target. FEDADMM_BENCH_SCALE=large\n"
      "  increases scale.\n");
}

}  // namespace fedadmm::bench

#endif  // FEDADMM_BENCH_BENCH_COMMON_H_
