#include "sys/system_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/fedadmm.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"

namespace fedadmm {
namespace {

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = 12;
  spec.dim = 7;
  spec.heterogeneity = 1.2;
  spec.seed = 91;
  return spec;
}

FedAdmmOptions Options() {
  FedAdmmOptions options;
  options.local.learning_rate = 0.05f;
  options.local.batch_size = 4;
  options.local.max_epochs = 3;
  options.local.variable_epochs = true;
  options.rho = StepSchedule(0.1);
  return options;
}

FleetModel UniformFleet(int clients) {
  return FleetModel::FromPreset("uniform", clients, 3).ValueOrDie();
}

// Runs FedADMM on the quadratic problem, optionally under a system model.
History RunWithModel(const SystemModel* model, int threads,
                     std::vector<float>* theta_out = nullptr) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(12, 0.5);
  SimulationConfig config;
  config.max_rounds = 6;
  config.seed = 7;
  config.num_threads = threads;
  Simulation sim(&problem, &algo, &selector, config);
  sim.set_system_model(model);
  History history = std::move(sim.Run()).ValueOrDie();
  if (theta_out) *theta_out = sim.theta();
  return history;
}

TEST(SystemModelTest, SyncRoundCountsFatesAndWaitsOutTheDeadline) {
  // Two clients, both selected every round: a fast one that finishes well
  // inside the 1 s deadline and a straggler that misses it.
  ClientSystemProfile fast;
  fast.device.steps_per_second = 1.0e6;
  fast.network.latency_seconds = 0.0;
  ClientSystemProfile slow = fast;
  slow.device.steps_per_second = 1.0e-3;
  SystemModel model(FleetModel({fast, slow}),
                    std::make_unique<DeadlineDropPolicy>(1.0));
  QuadraticSpec spec = Spec();
  spec.num_clients = 2;
  QuadraticProblem problem(spec);
  FedAdmm algo(Options());
  FullParticipationSelector selector(2);
  SimulationConfig config;
  config.max_rounds = 2;
  config.seed = 7;
  Simulation sim(&problem, &algo, &selector, config);
  sim.set_system_model(&model);
  const History history = std::move(sim.Run()).ValueOrDie();
  ASSERT_EQ(history.size(), 2);
  for (const RoundRecord& r : history.records()) {
    EXPECT_EQ(r.num_selected, 2);  // the cohort, drops included
    EXPECT_EQ(r.num_dropped, 1);
    EXPECT_EQ(r.num_admitted_partial, 0);
  }
  // Each round lasts until the last tracked client: the dropped one,
  // waited out to the deadline.
  EXPECT_DOUBLE_EQ(history.records()[0].sim_seconds, 1.0);
  EXPECT_DOUBLE_EQ(history.records()[1].sim_seconds, 2.0);
}

TEST(SystemModelTest, WaitForAllMatchesUnmodeledTrajectoryBitwise) {
  // Attaching a system model must only *measure* when nothing is dropped:
  // wait-for-all admits everything, so θ must equal the unmodeled run.
  SystemModel model(UniformFleet(12), std::make_unique<WaitForAllPolicy>());
  std::vector<float> theta_modeled, theta_plain;
  const History modeled = RunWithModel(&model, 1, &theta_modeled);
  const History plain = RunWithModel(nullptr, 1, &theta_plain);
  EXPECT_EQ(theta_modeled, theta_plain);

  // The virtual clock runs only in the modeled run, and monotonically.
  EXPECT_DOUBLE_EQ(plain.TotalSimSeconds(), 0.0);
  double prev = 0.0;
  for (const RoundRecord& r : modeled.records()) {
    EXPECT_GT(r.sim_seconds, prev);
    prev = r.sim_seconds;
    EXPECT_EQ(r.num_dropped, 0);
    EXPECT_EQ(r.num_admitted_partial, 0);
  }
}

TEST(SystemModelTest, SimSecondsIsThreadCountInvariant) {
  SystemModel model(UniformFleet(12), std::make_unique<WaitForAllPolicy>());
  std::vector<float> theta1, theta3;
  const History h1 = RunWithModel(&model, 1, &theta1);
  const History h3 = RunWithModel(&model, 3, &theta3);
  EXPECT_EQ(theta1, theta3);
  ASSERT_EQ(h1.size(), h3.size());
  for (int i = 0; i < h1.size(); ++i) {
    EXPECT_EQ(h1.records()[i].sim_seconds, h3.records()[i].sim_seconds);
  }
}

TEST(SystemModelTest, ImpossibleDeadlineDropsEveryoneAndFreezesTheta) {
  SystemModel model(UniformFleet(12),
                    std::make_unique<DeadlineDropPolicy>(1.0e-9));
  std::vector<float> theta_frozen;
  const History history = RunWithModel(&model, 1, &theta_frozen);
  for (const RoundRecord& r : history.records()) {
    EXPECT_EQ(r.num_dropped, r.num_selected);
    EXPECT_EQ(r.upload_bytes, 0);             // nothing arrived
    EXPECT_TRUE(std::isnan(r.train_loss));    // no loss observed either
  }
  // No update was ever aggregated: θ must still be the initialization.
  QuadraticProblem problem(Spec());
  Rng init_rng = Rng(7).Fork(0x1417);
  EXPECT_EQ(theta_frozen, problem.InitialParameters(&init_rng));
}

TEST(SystemModelTest, PartialAdmissionSalvagesTightDeadline) {
  // A deadline the full work misses but the transfers meet: admit-partial
  // keeps (scaled) updates where drop loses the round entirely.
  FleetModel slow_fleet = [] {
    ClientSystemProfile p;
    p.device.steps_per_second = 1.0;  // compute-bound
    p.network.latency_seconds = 0.0;
    std::vector<ClientSystemProfile> profiles(12, p);
    return FleetModel(std::move(profiles), "slow");
  }();
  SystemModel drop(slow_fleet, std::make_unique<DeadlineDropPolicy>(0.5));
  SystemModel partial(slow_fleet,
                      std::make_unique<DeadlineAdmitPartialPolicy>(0.5));
  const History dropped = RunWithModel(&drop, 1);
  const History admitted = RunWithModel(&partial, 1);
  EXPECT_EQ(dropped.TotalDropped(),
            12 * 6 / 2);  // every selected client, every round
  EXPECT_EQ(admitted.TotalDropped(), 0);
  int partial_total = 0;
  for (const RoundRecord& r : admitted.records()) {
    partial_total += r.num_admitted_partial;
  }
  EXPECT_GT(partial_total, 0);
}

TEST(SystemModelTest, HistoryTimeToAccuracyQueries) {
  SystemModel model(UniformFleet(12), std::make_unique<WaitForAllPolicy>());
  const History history = RunWithModel(&model, 1);
  const double final_acc = history.FinalAccuracy();
  ASSERT_GT(final_acc, 0.0);
  const double t = history.SimSecondsToAccuracy(final_acc * 0.5);
  EXPECT_GT(t, 0.0);
  EXPECT_LE(t, history.TotalSimSeconds());
  EXPECT_EQ(history.SimSecondsToAccuracy(2.0), -1.0);  // unreachable
}

TEST(SystemModelTest, PolicyFactory) {
  EXPECT_TRUE(MakeStragglerPolicy("wait-for-all", -1.0).ok());
  EXPECT_TRUE(MakeStragglerPolicy("deadline-drop", 2.0).ok());
  EXPECT_TRUE(MakeStragglerPolicy("deadline-admit-partial", 2.0).ok());
  EXPECT_FALSE(MakeStragglerPolicy("deadline-drop", 0.0).ok());
  EXPECT_FALSE(MakeStragglerPolicy("yolo", 1.0).ok());
  // NaN fails every comparison, so it must be refused here rather than
  // reach the policy constructors' CHECK; +inf is a deadline nobody misses.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(MakeStragglerPolicy("deadline-drop", nan).ok());
  EXPECT_FALSE(MakeStragglerPolicy("deadline-admit-partial", nan).ok());
  EXPECT_TRUE(MakeStragglerPolicy("deadline-drop", inf).ok());
  EXPECT_TRUE(MakeStragglerPolicy("deadline-admit-partial", inf).ok());
  EXPECT_EQ(MakeStragglerPolicy("deadline-drop", 2.0)
                .ValueOrDie()
                ->name(),
            "deadline-drop");
}

TEST(SystemModelTest, NameCombinesFleetAndPolicy) {
  SystemModel model(UniformFleet(4),
                    std::make_unique<DeadlineDropPolicy>(1.0));
  EXPECT_EQ(model.name(), "uniform/deadline-drop");
}

}  // namespace
}  // namespace fedadmm
