#include "fl/local_solver.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fl/quadratic_problem.h"
#include "tensor/vec.h"

namespace fedadmm {
namespace {

QuadraticProblem MakeProblem(double heterogeneity = 1.0) {
  QuadraticSpec spec;
  spec.num_clients = 4;
  spec.dim = 6;
  spec.heterogeneity = heterogeneity;
  spec.seed = 11;
  return QuadraticProblem(spec);
}

TEST(SampleEpochsTest, FixedWhenHeterogeneityOff) {
  LocalTrainSpec spec;
  spec.max_epochs = 5;
  spec.variable_epochs = false;
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(SampleEpochs(spec, &rng), 5);
}

TEST(SampleEpochsTest, UniformWhenHeterogeneityOn) {
  LocalTrainSpec spec;
  spec.max_epochs = 5;
  spec.variable_epochs = true;
  Rng rng(2);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 5000; ++i) {
    const int e = SampleEpochs(spec, &rng);
    ASSERT_GE(e, 1);
    ASSERT_LE(e, 5);
    ++counts[static_cast<size_t>(e)];
  }
  for (int e = 1; e <= 5; ++e) EXPECT_NEAR(counts[static_cast<size_t>(e)], 1000, 150);
}

TEST(LocalSolverTest, ReducesLocalObjective) {
  QuadraticProblem problem = MakeProblem();
  auto local = problem.MakeLocalProblem(0, 0);
  std::vector<float> w(6, 2.0f);
  std::vector<float> grad(6);
  const double before = local->FullLossGradient(w, grad);

  LocalTrainSpec spec;
  spec.learning_rate = 0.1f;
  spec.batch_size = 0;
  spec.max_epochs = 10;
  Rng rng(3);
  const auto result = RunLocalSgd(local.get(), spec, 10, w, &rng, nullptr);
  const double after = local->FullLossGradient(w, grad);
  EXPECT_LT(after, before);
  EXPECT_EQ(result.epochs_run, 10);
  EXPECT_EQ(result.steps_run, 10);  // full batch: one step per epoch
}

TEST(LocalSolverTest, TransformChangesTrajectory) {
  QuadraticProblem problem = MakeProblem();
  auto local = problem.MakeLocalProblem(1, 0);
  LocalTrainSpec spec;
  spec.learning_rate = 0.05f;
  spec.batch_size = 0;
  spec.max_epochs = 3;

  std::vector<float> w_plain(6, 1.0f), w_prox(6, 1.0f);
  Rng rng_a(4), rng_b(4);
  RunLocalSgd(local.get(), spec, 3, w_plain, &rng_a, nullptr);
  const std::vector<float> anchor(6, 1.0f);
  auto prox = [&anchor](std::span<const float> w, std::span<float> g) {
    for (size_t i = 0; i < g.size(); ++i) g[i] += 10.0f * (w[i] - anchor[i]);
  };
  RunLocalSgd(local.get(), spec, 3, w_prox, &rng_b, prox);
  // The proximal pull keeps w_prox closer to the anchor.
  EXPECT_LT(vec::SquaredDistance(w_prox, anchor),
            vec::SquaredDistance(w_plain, anchor));
}

TEST(LocalSolverTest, ReportsFinalTransformedGradNorm) {
  QuadraticProblem problem = MakeProblem();
  auto local = problem.MakeLocalProblem(2, 0);
  std::vector<float> w(6, 0.5f);
  LocalTrainSpec spec;
  spec.learning_rate = 0.2f;
  spec.batch_size = 0;
  // The norm is measured only under an ε target; one this tight never
  // stops the solve early.
  spec.epsilon = 1e-300;
  Rng rng(5);
  const auto result = RunLocalSgd(local.get(), spec, 50, w, &rng, nullptr);
  std::vector<float> grad(6);
  local->FullLossGradient(w, grad);
  EXPECT_NEAR(result.final_grad_norm_sq, vec::SquaredL2Norm(grad), 1e-6);
  EXPECT_LT(result.final_grad_norm_sq, 1e-4);
}

TEST(LocalSolverTest, EpsilonStopsEarly) {
  QuadraticProblem problem = MakeProblem();
  auto local = problem.MakeLocalProblem(0, 0);
  std::vector<float> w(6, 1.0f);
  LocalTrainSpec spec;
  spec.learning_rate = 0.2f;
  spec.batch_size = 0;
  spec.epsilon = 1e-2;  // generous target: reached before 100 epochs
  Rng rng(6);
  const auto result = RunLocalSgd(local.get(), spec, 100, w, &rng, nullptr);
  EXPECT_LT(result.epochs_run, 100);
  EXPECT_LE(result.final_grad_norm_sq, 1e-2);
}

TEST(LocalSolverTest, MoreEpochsYieldSmallerInexactness) {
  // Table IV intuition: larger local workload -> smaller attained ε_i.
  QuadraticProblem problem = MakeProblem();
  LocalTrainSpec spec;
  spec.learning_rate = 0.1f;
  spec.batch_size = 0;
  spec.epsilon = 1e-300;  // measure ε_i without stopping early

  auto run = [&](int epochs) {
    auto local = problem.MakeLocalProblem(3, 0);
    std::vector<float> w(6, 1.5f);
    Rng rng(7);
    return RunLocalSgd(local.get(), spec, epochs, w, &rng, nullptr)
        .final_grad_norm_sq;
  };
  const double e1 = run(1);
  const double e5 = run(5);
  const double e20 = run(20);
  EXPECT_GT(e1, e5);
  EXPECT_GT(e5, e20);
}

TEST(LocalSolverTest, DeterministicGivenSeed) {
  QuadraticProblem problem = MakeProblem();
  LocalTrainSpec spec;
  spec.learning_rate = 0.05f;
  spec.batch_size = 2;
  auto run = [&](uint64_t seed) {
    auto local = problem.MakeLocalProblem(1, 0);
    std::vector<float> w(6, 0.3f);
    Rng rng(seed);
    RunLocalSgd(local.get(), spec, 4, w, &rng, nullptr);
    return w;
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(LocalSolverTest, StrongConvexityFromLargeRhoPreventsDivergence) {
  // With a large proximal coefficient the augmented objective is strongly
  // convex even under an aggressive learning rate that would diverge on the
  // raw objective; this is claim (i) of the paper's "Dual variables"
  // discussion.
  QuadraticProblem problem = MakeProblem(3.0);
  auto local = problem.MakeLocalProblem(0, 0);
  const std::vector<float> theta(6, 0.0f);

  LocalTrainSpec spec;
  spec.learning_rate = 0.08f;
  spec.batch_size = 0;
  const float rho = 10.0f;
  auto admm = [&theta, rho](std::span<const float> w, std::span<float> g) {
    for (size_t i = 0; i < g.size(); ++i) g[i] += rho * (w[i] - theta[i]);
  };
  std::vector<float> w(6, 1.0f);
  Rng rng(8);
  const auto result = RunLocalSgd(local.get(), spec, 30, w, &rng, admm);
  EXPECT_TRUE(std::isfinite(result.mean_loss));
  EXPECT_LT(vec::MaxAbs(w), 10.0f);
}

}  // namespace
}  // namespace fedadmm
