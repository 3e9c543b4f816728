/// Eq. (20) of the paper's proof: with η = |S_t|/m and the canonical
/// initialization (w_i⁰ = θ⁰, y_i⁰ = 0), the server model equals the mean of
/// all m augmented models u_i = w_i + y_i/ρ at every round, which makes
/// ∇_θ L vanish identically. These tests exercise the invariant through the
/// full simulator under partial participation.

#include <gtest/gtest.h>

#include <cmath>

#include "core/fedadmm.h"
#include "core/optimality.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "tensor/vec.h"

namespace fedadmm {
namespace {

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = 8;
  spec.dim = 6;
  spec.heterogeneity = 1.5;
  spec.seed = 81;
  return spec;
}

FedAdmmOptions Options() {
  FedAdmmOptions options;
  options.local.learning_rate = 0.05f;
  options.local.batch_size = 0;
  options.local.max_epochs = 3;
  options.local.variable_epochs = false;
  options.rho = StepSchedule(1.0);
  options.eta_active_fraction = true;  // η = |S_t|/m
  return options;
}

TEST(TrackingInvariantTest, ThetaEqualsMeanAugmentedModelEveryRound) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(problem.num_clients(), 0.25);

  SimulationConfig config;
  config.max_rounds = 30;
  config.seed = 3;
  config.num_threads = 2;
  Simulation sim(&problem, &algo, &selector, config);

  // Validate after every round via the observer.
  int checked = 0;
  sim.set_observer([&](const RoundRecord& record) {
    const std::vector<float> mean = algo.MeanAugmentedModel(record.round);
    const auto& theta = sim.theta();
    ASSERT_EQ(mean.size(), theta.size());
    for (size_t k = 0; k < mean.size(); ++k) {
      EXPECT_NEAR(theta[k], mean[k], 5e-4f)
          << "round " << record.round << " coord " << k;
    }
    ++checked;
  });
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_EQ(checked, 30);
}

TEST(TrackingInvariantTest, GradThetaTermOfVtIsZeroUnderEq20) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(problem.num_clients(), 0.5);
  SimulationConfig config;
  config.max_rounds = 10;
  config.seed = 4;
  Simulation sim(&problem, &algo, &selector, config);
  ASSERT_TRUE(sim.Run().ok());

  const OptimalityGap gap =
      ComputeOptimalityGap(&problem, algo, sim.theta(), /*round=*/9);
  // ∇_θ L = m ρ (θ − mean(u)) = 0 under the invariant (up to float error).
  EXPECT_LT(gap.grad_theta_sq, 1e-4);
}

TEST(TrackingInvariantTest, BrokenWithConstantEtaNotEqualFraction) {
  // Negative control: with η = 1 ≠ |S|/m the invariant must NOT hold —
  // otherwise the test above is vacuous.
  QuadraticProblem problem(Spec());
  FedAdmmOptions options = Options();
  options.eta_active_fraction = false;
  options.eta = StepSchedule(1.0);
  FedAdmm algo(options);
  UniformFractionSelector selector(problem.num_clients(), 0.25);
  SimulationConfig config;
  config.max_rounds = 10;
  config.seed = 5;
  Simulation sim(&problem, &algo, &selector, config);
  ASSERT_TRUE(sim.Run().ok());

  const std::vector<float> mean = algo.MeanAugmentedModel(9);
  double diff = 0.0;
  for (size_t k = 0; k < mean.size(); ++k) {
    diff += std::fabs(mean[k] - sim.theta()[k]);
  }
  EXPECT_GT(diff, 1e-3);
}

/// Property sweep: the Eq.-20 invariant is independent of ρ — it follows
/// purely from the message/update algebra, so it must hold for any ρ > 0.
class InvariantRhoSweep : public ::testing::TestWithParam<double> {};

TEST_P(InvariantRhoSweep, ThetaTracksMeanAugmentedModel) {
  QuadraticProblem problem(Spec());
  FedAdmmOptions options = Options();
  options.rho = StepSchedule(GetParam());
  FedAdmm algo(options);
  UniformFractionSelector selector(problem.num_clients(), 0.5);
  SimulationConfig config;
  config.max_rounds = 15;
  config.seed = 12;
  Simulation sim(&problem, &algo, &selector, config);
  ASSERT_TRUE(sim.Run().ok());
  const std::vector<float> mean = algo.MeanAugmentedModel(14);
  for (size_t k = 0; k < mean.size(); ++k) {
    EXPECT_NEAR(sim.theta()[k], mean[k], 5e-3f) << "rho " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Rho, InvariantRhoSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 10.0));

TEST(TrackingInvariantTest, HoldsUnderBernoulliActivation) {
  // Remark 2: the activation scheme is arbitrary; the invariant depends only
  // on η = |S_t|/m, not on how S_t is drawn.
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  std::vector<double> probs;
  for (int i = 0; i < problem.num_clients(); ++i) {
    probs.push_back(0.1 + 0.1 * i);  // heterogeneous participation
  }
  BernoulliSelector selector(std::move(probs));
  SimulationConfig config;
  config.max_rounds = 25;
  config.seed = 6;
  Simulation sim(&problem, &algo, &selector, config);
  ASSERT_TRUE(sim.Run().ok());

  const std::vector<float> mean = algo.MeanAugmentedModel(24);
  for (size_t k = 0; k < mean.size(); ++k) {
    EXPECT_NEAR(sim.theta()[k], mean[k], 5e-4f);
  }
}

}  // namespace
}  // namespace fedadmm
