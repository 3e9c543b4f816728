/// Section III-B of the paper: FedADMM's local training problem reduces to
/// FedProx's when y_i ≡ 0, and to FedAvg's when additionally ρ = 0. With the
/// shared local SGD loop and aligned RNG streams, the reductions hold
/// *iterate-for-iterate*, which these property tests verify.

#include <gtest/gtest.h>

#include <cmath>

#include "core/fedadmm.h"
#include "fl/algorithms/fedavg.h"
#include "fl/algorithms/fedprox.h"
#include "fl/quadratic_problem.h"
#include "tensor/vec.h"

namespace fedadmm {
namespace {

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = 4;
  spec.dim = 7;
  spec.heterogeneity = 2.0;
  spec.seed = 71;
  return spec;
}

AlgorithmContext Ctx(const QuadraticProblem& p) {
  AlgorithmContext ctx;
  ctx.num_clients = p.num_clients();
  ctx.dim = p.dim();
  return ctx;
}

LocalTrainSpec Local(int batch_size) {
  LocalTrainSpec local;
  local.learning_rate = 0.04f;
  local.batch_size = batch_size;
  local.max_epochs = 3;
  local.variable_epochs = false;
  return local;
}

class ReductionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReductionSweep, FrozenDualsReduceToFedProxLocalSolve) {
  const int batch_size = GetParam();
  QuadraticProblem problem(Spec());
  const float rho = 0.7f;

  FedAdmmOptions options;
  options.local = Local(batch_size);
  options.rho = StepSchedule(rho);
  options.freeze_duals = true;
  // FedProx always restarts local training from θ.
  options.init = FedAdmmOptions::LocalInit::kGlobalModel;
  FedAdmm admm(options);
  FedProx prox(Local(batch_size), rho);

  std::vector<float> theta(7, 0.4f);
  admm.Setup(Ctx(problem), theta);
  prox.Setup(Ctx(problem), theta);

  for (int client = 0; client < problem.num_clients(); ++client) {
    auto l1 = problem.MakeLocalProblem(client, 0);
    auto l2 = problem.MakeLocalProblem(client, 0);
    admm.ClientUpdate(client, 0, theta, l1.get(), Rng(9));
    const UpdateMessage m_prox =
        prox.ClientUpdate(client, 0, theta, l2.get(), Rng(9));
    // FedADMM's stored local model equals FedProx's final iterate θ + Δ.
    const auto& w_admm = admm.client_model(client);
    for (size_t k = 0; k < w_admm.size(); ++k) {
      EXPECT_NEAR(w_admm[k], theta[k] + m_prox.delta[k], 1e-6f)
          << "client " << client << " coord " << k;
    }
  }
}

TEST_P(ReductionSweep, FrozenDualsAndTinyRhoReduceToFedAvgLocalSolve) {
  const int batch_size = GetParam();
  QuadraticProblem problem(Spec());
  // ρ → 0 limit: use an exactly-zero proximal pull via a tiny rho. FedADMM
  // requires rho > 0 for the augmented model, so compare local iterates with
  // rho small enough to be numerically irrelevant to the trajectory.
  const float rho = 1e-8f;

  FedAdmmOptions options;
  options.local = Local(batch_size);
  options.rho = StepSchedule(rho);
  options.freeze_duals = true;
  options.init = FedAdmmOptions::LocalInit::kGlobalModel;
  FedAdmm admm(options);
  FedAvg avg(Local(batch_size));

  std::vector<float> theta(7, -0.2f);
  admm.Setup(Ctx(problem), theta);
  avg.Setup(Ctx(problem), theta);

  for (int client = 0; client < problem.num_clients(); ++client) {
    auto l1 = problem.MakeLocalProblem(client, 0);
    auto l2 = problem.MakeLocalProblem(client, 0);
    admm.ClientUpdate(client, 0, theta, l1.get(), Rng(13));
    const UpdateMessage m_avg =
        avg.ClientUpdate(client, 0, theta, l2.get(), Rng(13));
    const auto& w_admm = admm.client_model(client);
    for (size_t k = 0; k < w_admm.size(); ++k) {
      EXPECT_NEAR(w_admm[k], theta[k] + m_avg.delta[k], 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchModes, ReductionSweep,
                         ::testing::Values(0, 2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("full_batch")
                                      : "batch_" + std::to_string(info.param);
                         });

TEST(ReductionTest, ActiveDualsDivergeFromFedProx) {
  // Sanity: with live duals (second round onward) FedADMM's local solution
  // genuinely differs from FedProx's — the dual term matters.
  QuadraticProblem problem(Spec());
  const float rho = 0.7f;
  FedAdmmOptions options;
  options.local = Local(0);
  options.rho = StepSchedule(rho);
  options.init = FedAdmmOptions::LocalInit::kGlobalModel;
  FedAdmm admm(options);
  FedProx prox(Local(0), rho);

  std::vector<float> theta(7, 0.4f);
  admm.Setup(Ctx(problem), theta);
  prox.Setup(Ctx(problem), theta);

  // Round 0 builds non-zero duals; round 1 must differ.
  for (int round = 0; round < 2; ++round) {
    auto l1 = problem.MakeLocalProblem(0, 0);
    auto l2 = problem.MakeLocalProblem(0, 0);
    admm.ClientUpdate(0, round, theta, l1.get(), Rng(17 + round));
    const UpdateMessage m_prox =
        prox.ClientUpdate(0, round, theta, l2.get(), Rng(17 + round));
    if (round == 1) {
      double diff = 0.0;
      const auto& w_admm = admm.client_model(0);
      for (size_t k = 0; k < w_admm.size(); ++k) {
        diff += std::fabs(w_admm[k] - (theta[k] + m_prox.delta[k]));
      }
      EXPECT_GT(diff, 1e-4);
    }
  }
}

}  // namespace
}  // namespace fedadmm
