/// \file real_data_runner.cpp
/// \brief Trains the paper's exact CNN 1 on real MNIST/FMNIST IDX files if
/// a directory is given (or CIFAR-10 binaries with --cifar), falling back
/// to a synthetic stand-in otherwise. This is the entry point for anyone
/// who wants to reproduce the paper's Table III numbers on real data.
///
/// Run: ./real_data_runner [--cifar] [data_dir] [clients] [rounds]
///
/// WARNING: the paper-scale CNNs (1.6M parameters) are slow on CPU; with
/// the synthetic fallback this binary automatically shrinks the model so
/// the demo completes in seconds.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/fedadmm.h"
#include "data/loaders.h"
#include "data/partition.h"
#include "fl/nn_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace fedadmm;
  bool cifar = false;
  std::string data_dir;
  int clients = 20;
  int rounds = 20;
  int arg = 1;
  if (arg < argc && std::strcmp(argv[arg], "--cifar") == 0) {
    cifar = true;
    ++arg;
  }
  if (arg < argc) data_dir = argv[arg++];
  if (arg < argc) clients = std::atoi(argv[arg++]);
  if (arg < argc) rounds = std::atoi(argv[arg++]);

  // Load real data or synthesize a small stand-in.
  const SyntheticSpec fallback =
      SyntheticBenchSpec(cifar ? 3 : 1, 12, /*train_per_class=*/6 * clients,
                         /*test_per_class=*/20, 0.8f);
  const DataSplit split = LoadOrSynthesize(data_dir, cifar, fallback);
  const bool real = split.train.sample_shape().dim(1) >= 28;

  // Real data -> paper model (Table II); synthetic fallback -> bench model.
  ModelConfig model;
  if (real) {
    model = cifar ? PaperCnn2Config() : PaperCnn1Config();
  } else {
    model = BenchCnnConfig(cifar ? 3 : 1, 12);
  }
  std::printf("dataset: %d train / %d test, shape %s -> model %s\n",
              split.train.size(), split.test.size(),
              split.train.sample_shape().ToString().c_str(),
              model.ToString().c_str());

  Rng rng(41);
  const Partition partition =
      PartitionShards(split.train.labels(), clients, 2, &rng).ValueOrDie();

  NnFederatedProblem problem(model, &split.train, &split.test, partition, 4);
  FedAdmmOptions options;
  options.local.learning_rate = real ? 0.1f : 0.05f;
  options.local.batch_size = real ? 50 : 10;
  options.local.max_epochs = 5;
  options.local.variable_epochs = true;
  options.rho = StepSchedule(real ? 0.01 : 0.05);  // paper's fixed rho
  FedAdmm algorithm(options);
  UniformFractionSelector selector(clients, 0.1);

  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = 43;
  Simulation sim(&problem, &algorithm, &selector, config);
  // Round records hold no host time; the observer times each round from
  // the previous record (the first from the start of Run).
  using Clock = std::chrono::steady_clock;
  Clock::time_point last = Clock::now();
  sim.set_observer([&last](const RoundRecord& r) {
    const Clock::time_point now = Clock::now();
    std::printf("round %3d  acc %.3f  loss %.4f  (%.2fs)\n", r.round,
                r.test_accuracy, r.train_loss,
                std::chrono::duration<double>(now - last).count());
    last = now;
  });
  const History history = std::move(sim.Run()).ValueOrDie();
  std::printf("\nbest accuracy: %.3f\n", history.BestAccuracy());
  return 0;
}
