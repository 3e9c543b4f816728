/// \file harness.h
/// \brief Shared scaffolding for integration tests: builds a small synthetic
/// federated image-classification task and runs algorithms end to end.

#ifndef FEDADMM_TESTS_INTEGRATION_HARNESS_H_
#define FEDADMM_TESTS_INTEGRATION_HARNESS_H_

#include <memory>

#include "comm/codec.h"
#include "core/fedadmm.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/nn_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"

namespace fedadmm::testing {

/// \brief A self-contained federated task for tests.
///
/// The split lives behind a unique_ptr so that moving a TestBed (e.g.
/// assigning it to a fixture member) does not relocate the datasets the
/// problem points at.
struct TestBed {
  std::unique_ptr<DataSplit> split;
  Partition partition;
  std::unique_ptr<NnFederatedProblem> problem;
  ModelConfig model_config;
};

/// Builds a 10-class image task over `clients` clients.
///
/// Default geometry follows the operating regime where the primal-dual
/// methods behave as in the paper: an overparameterized (wide MLP)
/// classifier in the interpolation regime, 12x12 images, a noisy enough
/// task that clients do not trivially solve it (see README.md, "Synthetic
/// stand-ins"). With `cnn = true` the bed uses the scaled two-conv CNN
/// instead.
inline TestBed MakeTestBed(int clients, bool iid, uint64_t seed = 5,
                           int per_class = 12, float noise = 1.2f,
                           bool cnn = false) {
  TestBed bed;
  bed.split = std::make_unique<DataSplit>(GenerateSynthetic(
      SyntheticBenchSpec(1, 12, per_class, /*test_per_class=*/10, noise)));
  Rng rng(seed);
  bed.partition =
      iid ? PartitionIid(bed.split->train.size(), clients, &rng).ValueOrDie()
          : PartitionShards(bed.split->train.labels(), clients,
                            /*shards_per_client=*/2, &rng)
                .ValueOrDie();
  if (cnn) {
    bed.model_config = BenchCnnConfig(1, 12);
  } else {
    bed.model_config.arch = ModelConfig::Arch::kMlp;
    bed.model_config.in_channels = 1;
    bed.model_config.height = 12;
    bed.model_config.width = 12;
    bed.model_config.mlp_hidden = 128;
    bed.model_config.classes = 10;
  }
  bed.problem = std::make_unique<NnFederatedProblem>(
      bed.model_config, &bed.split->train, &bed.split->test, bed.partition,
      /*num_workers=*/4);
  return bed;
}

/// Runs an algorithm on the test bed; returns the history. Optional
/// uplink/downlink codecs (src/comm) are attached when non-null.
inline History RunOnBed(TestBed* bed, FederatedAlgorithm* algo,
                        double fraction, int rounds, uint64_t seed = 7,
                        double target_accuracy = -1.0,
                        UpdateCodec* uplink = nullptr,
                        UpdateCodec* downlink = nullptr) {
  UniformFractionSelector selector(bed->problem->num_clients(), fraction);
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = seed;
  config.target_accuracy = target_accuracy;
  config.num_threads = 4;
  Simulation sim(bed->problem.get(), algo, &selector, config);
  if (uplink) sim.set_uplink_codec(uplink);
  if (downlink) sim.set_downlink_codec(downlink);
  return std::move(sim.Run()).ValueOrDie();
}

/// The paper's default local hyperparameters scaled for tests.
inline LocalTrainSpec TestLocalSpec(int epochs = 5, int batch = 5,
                                    float lr = 0.1f) {
  LocalTrainSpec local;
  local.learning_rate = lr;
  local.batch_size = batch;
  local.max_epochs = epochs;
  return local;
}

/// FedADMM options matching the paper's defaults, scaled for tests.
inline FedAdmmOptions TestAdmmOptions(float rho = 1.0f, int epochs = 5) {
  FedAdmmOptions options;
  options.local = TestLocalSpec(epochs);
  options.local.variable_epochs = true;
  options.rho = StepSchedule(rho);
  options.eta = StepSchedule(1.0);
  return options;
}

}  // namespace fedadmm::testing

#endif  // FEDADMM_TESTS_INTEGRATION_HARNESS_H_
