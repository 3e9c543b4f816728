#include "fl/simulation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "fl/algorithms/fedavg.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"

namespace fedadmm {
namespace {

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = 10;
  spec.dim = 6;
  spec.seed = 51;
  return spec;
}

LocalTrainSpec Local() {
  LocalTrainSpec local;
  local.learning_rate = 0.05f;
  local.batch_size = 0;
  local.max_epochs = 2;
  return local;
}

TEST(SimulationTest, RunsRequestedRounds) {
  QuadraticProblem problem(Spec());
  FedAvg algo(Local());
  UniformFractionSelector selector(10, 0.3);
  SimulationConfig config;
  config.max_rounds = 7;
  Simulation sim(&problem, &algo, &selector, config);
  auto history = sim.Run();
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 7);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(history->records()[static_cast<size_t>(i)].round, i);
    EXPECT_EQ(history->records()[static_cast<size_t>(i)].num_selected, 3);
  }
}

TEST(SimulationTest, IsDeterministicForSeedAndThreadCount) {
  QuadraticProblem problem(Spec());
  auto run = [&problem](uint64_t seed, int threads) {
    FedAvg algo(Local());
    UniformFractionSelector selector(10, 0.3);
    SimulationConfig config;
    config.max_rounds = 10;
    config.seed = seed;
    config.num_threads = threads;
    Simulation sim(&problem, &algo, &selector, config);
    auto history = sim.Run();
    EXPECT_TRUE(history.ok());
    return sim.theta();
  };
  // Same seed, different thread counts: identical result (client streams are
  // keyed by (round, client), not by thread).
  EXPECT_EQ(run(3, 1), run(3, 4));
  EXPECT_NE(run(3, 1), run(4, 1));
}

TEST(SimulationTest, TargetAccuracyStopsEarly) {
  QuadraticProblem problem(Spec());
  FedAvg algo(Local());
  FullParticipationSelector selector(10);
  SimulationConfig config;
  config.max_rounds = 500;
  config.target_accuracy = 0.5;  // 1/(1+dist) >= 0.5 <=> dist <= 1
  Simulation sim(&problem, &algo, &selector, config);
  auto history = sim.Run();
  ASSERT_TRUE(history.ok());
  EXPECT_LT(history->size(), 500);
  EXPECT_GE(history->FinalAccuracy(), 0.5);
}

TEST(SimulationTest, EvalEverySkipsIntermediateRounds) {
  QuadraticProblem problem(Spec());
  FedAvg algo(Local());
  UniformFractionSelector selector(10, 0.3);
  SimulationConfig config;
  config.max_rounds = 10;
  config.eval_every = 3;
  Simulation sim(&problem, &algo, &selector, config);
  auto history = sim.Run();
  ASSERT_TRUE(history.ok());
  const auto& recs = history->records();
  EXPECT_FALSE(std::isnan(recs[0].test_accuracy));
  EXPECT_TRUE(std::isnan(recs[1].test_accuracy));
  EXPECT_TRUE(std::isnan(recs[2].test_accuracy));
  EXPECT_FALSE(std::isnan(recs[3].test_accuracy));
  // Last round always evaluated.
  EXPECT_FALSE(std::isnan(recs[9].test_accuracy));
}

TEST(SimulationTest, CommunicationAccounting) {
  QuadraticProblem problem(Spec());  // dim 6
  FedAvg algo(Local());
  UniformFractionSelector selector(10, 0.3);  // 3 clients/round
  SimulationConfig config;
  config.max_rounds = 4;
  Simulation sim(&problem, &algo, &selector, config);
  auto history = sim.Run();
  ASSERT_TRUE(history.ok());
  for (const RoundRecord& r : history->records()) {
    EXPECT_EQ(r.upload_bytes, 3 * 6 * 4);
    EXPECT_EQ(r.download_bytes, 3 * 6 * 4);
  }
}

TEST(SimulationTest, ObserverSeesEveryRound) {
  QuadraticProblem problem(Spec());
  FedAvg algo(Local());
  UniformFractionSelector selector(10, 0.3);
  SimulationConfig config;
  config.max_rounds = 5;
  Simulation sim(&problem, &algo, &selector, config);
  int observed = 0;
  sim.set_observer([&observed](const RoundRecord& r) {
    EXPECT_EQ(r.round, observed);
    ++observed;
  });
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(observed, 5);
}

TEST(SimulationTest, InvalidConfigsAreRejected) {
  QuadraticProblem problem(Spec());
  FedAvg algo(Local());
  UniformFractionSelector selector(10, 0.3);
  {
    SimulationConfig config;
    config.max_rounds = 0;
    Simulation sim(&problem, &algo, &selector, config);
    EXPECT_TRUE(sim.Run().status().IsInvalidArgument());
  }
  {
    SimulationConfig config;
    config.eval_every = 0;
    Simulation sim(&problem, &algo, &selector, config);
    EXPECT_TRUE(sim.Run().status().IsInvalidArgument());
  }
  {
    UniformFractionSelector wrong(11, 0.3);  // m mismatch
    SimulationConfig config;
    Simulation sim(&problem, &algo, &wrong, config);
    EXPECT_TRUE(sim.Run().status().IsInvalidArgument());
  }
  // The engine is unsharded: any num_shards but 1 is refused.
  for (const int shards : {0, 2}) {
    SimulationConfig config;
    config.num_shards = shards;
    Simulation sim(&problem, &algo, &selector, config);
    const Status status = sim.Run().status();
    EXPECT_TRUE(status.IsInvalidArgument()) << shards;
    EXPECT_NE(status.message().find("FrontendOptions::num_shards"),
              std::string::npos)
        << status.message();
  }
}

TEST(SimulationTest, TrainLossIsFiniteEveryRound) {
  QuadraticProblem problem(Spec());
  FedAvg algo(Local());
  UniformFractionSelector selector(10, 0.3);
  SimulationConfig config;
  config.max_rounds = 20;
  Simulation sim(&problem, &algo, &selector, config);
  auto history = sim.Run();
  ASSERT_TRUE(history.ok());
  for (const RoundRecord& r : history->records()) {
    EXPECT_TRUE(std::isfinite(r.train_loss));
    EXPECT_GE(r.wall_seconds, 0.0);
  }
}

}  // namespace
}  // namespace fedadmm
