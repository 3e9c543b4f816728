// The engine's pre-flight guardrails: FedADMM with a fixed η silently
// overshoots the tracking update m/|S_t|-fold under buffered/async
// aggregation (FederatedAlgorithm::ValidateForEventMode), FedPD
// (RequiresFullParticipation) cannot form its full-population mean from
// event-mode batches, a sampled cohort or a straggler policy that drops or
// shrinks updates, and no local solver can run fewer than one epoch
// (ValidateLocalTrainSpec). All must fail fast with a clear Status — never
// crash mid-run, never run and diverge.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fedadmm.h"
#include "fl/algorithms/fedavg.h"
#include "fl/algorithms/fedpd.h"
#include "fl/algorithms/fedprox.h"
#include "fl/algorithms/scaffold.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "sys/system_model.h"

namespace fedadmm {
namespace {

constexpr int kClients = 10;

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = kClients;
  spec.dim = 6;
  spec.seed = 44;
  return spec;
}

SystemModel Model() {
  FleetModel fleet =
      FleetModel::FromPreset("uniform", kClients, 2).ValueOrDie();
  return SystemModel(std::move(fleet),
                     MakeStragglerPolicy("wait-for-all", -1.0).ValueOrDie());
}

Result<History> RunAdmm(ExecutionMode mode, bool eta_active_fraction,
                        const SystemModel* model) {
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.local.max_epochs = 1;
  options.rho = StepSchedule(0.3);
  options.eta = StepSchedule(1.0);  // the overshooting fixed schedule
  options.eta_active_fraction = eta_active_fraction;
  FedAdmm algo(options);
  UniformFractionSelector selector(kClients, 0.5);
  SimulationConfig config;
  config.max_rounds = 4;
  config.seed = 9;
  config.mode = mode;
  Simulation sim(&problem, &algo, &selector, config);
  if (model) sim.set_system_model(model);
  return sim.Run();
}

TEST(EtaGuardrailTest, FixedEtaIsRejectedInEventModes) {
  const SystemModel model = Model();
  for (ExecutionMode mode :
       {ExecutionMode::kBuffered, ExecutionMode::kAsync}) {
    const auto result = RunAdmm(mode, /*eta_active_fraction=*/false, &model);
    ASSERT_FALSE(result.ok()) << ExecutionModeName(mode);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    // The message must name the fix.
    EXPECT_NE(result.status().message().find("eta_active_fraction"),
              std::string::npos);
  }
}

TEST(EtaGuardrailTest, ActiveFractionEtaRunsInEventModes) {
  const SystemModel model = Model();
  for (ExecutionMode mode :
       {ExecutionMode::kBuffered, ExecutionMode::kAsync}) {
    EXPECT_TRUE(RunAdmm(mode, /*eta_active_fraction=*/true, &model).ok())
        << ExecutionModeName(mode);
  }
}

TEST(EtaGuardrailTest, FixedEtaStaysLegalInSyncMode) {
  // Sync aggregates the full wave, where a fixed η is the paper's Fig. 6
  // knob — the guardrail must not fire.
  EXPECT_TRUE(
      RunAdmm(ExecutionMode::kSync, /*eta_active_fraction=*/false, nullptr)
          .ok());
}

TEST(EtaGuardrailTest, FedPdRejectsEventModesWithStatusNotCrash) {
  const SystemModel model = Model();
  for (ExecutionMode mode :
       {ExecutionMode::kBuffered, ExecutionMode::kAsync}) {
    QuadraticProblem problem(Spec());
    LocalTrainSpec local;
    local.max_epochs = 1;
    FedPd algo(local, 0.5f, 0.5);
    FullParticipationSelector selector(kClients);
    SimulationConfig config;
    config.max_rounds = 3;
    config.mode = mode;
    Simulation sim(&problem, &algo, &selector, config);
    sim.set_system_model(&model);
    const auto result = sim.Run();
    ASSERT_FALSE(result.ok()) << ExecutionModeName(mode);
    EXPECT_NE(result.status().message().find("full population"),
              std::string::npos);
  }
}

// Sync FedPD needs all m clients in every server step: a cohort drawn
// smaller than m, or a straggler policy that may drop or shrink updates,
// is refused with InvalidArgument naming the fix before any client runs.
TEST(EtaGuardrailTest, FedPdRejectsPartialParticipationInSync) {
  const SystemModel deadline_model(
      FleetModel::FromPreset("cellular", kClients, 2).ValueOrDie(),
      MakeStragglerPolicy("deadline-admit-partial", 0.1).ValueOrDie());
  for (const bool sampled : {true, false}) {
    SCOPED_TRACE(sampled ? "UniformFractionSelector"
                         : "deadline-admit-partial");
    QuadraticProblem problem(Spec());
    LocalTrainSpec local;
    local.max_epochs = 1;
    FedPd algo(local, 0.5f, 0.5);
    std::unique_ptr<ClientSelector> selector;
    if (sampled) {
      selector = std::make_unique<UniformFractionSelector>(kClients, 0.5);
    } else {
      selector = std::make_unique<FullParticipationSelector>(kClients);
    }
    SimulationConfig config;
    config.max_rounds = 3;
    Simulation sim(&problem, &algo, selector.get(), config);
    if (!sampled) sim.set_system_model(&deadline_model);
    const auto result = sim.Run();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("FullParticipationSelector"),
              std::string::npos);
    EXPECT_NE(result.status().message().find("wait-for-all"),
              std::string::npos);
    // No client ran: the (w_i, y_i) store, if built, is untouched.
    const ClientStateStore* store = algo.mutable_state_store();
    EXPECT_TRUE(store == nullptr || store->num_touched_clients() == 0);
  }
}

// max_epochs < 1 leaves no local epoch to run: every method that runs the
// local solver is refused with InvalidArgument naming the field before
// round 0, with fixed and with variable epochs, instead of CHECK-failing
// in the first wave's SampleEpochs.
TEST(EtaGuardrailTest, ZeroMaxEpochsIsRejectedBeforeRoundZero) {
  for (const bool variable_epochs : {false, true}) {
    LocalTrainSpec local;
    local.max_epochs = 0;
    local.variable_epochs = variable_epochs;
    FedAdmmOptions admm_options;
    admm_options.local = local;
    std::vector<std::unique_ptr<FederatedAlgorithm>> algorithms;
    algorithms.push_back(std::make_unique<FedAvg>(local));
    algorithms.push_back(std::make_unique<FedProx>(local, 0.1f));
    algorithms.push_back(std::make_unique<FedAdmm>(admm_options));
    algorithms.push_back(std::make_unique<FedPd>(local, 0.5f, 0.5));
    algorithms.push_back(std::make_unique<Scaffold>(local));
    for (const auto& algo : algorithms) {
      SCOPED_TRACE(algo->name() + (variable_epochs ? " variable" : " fixed"));
      QuadraticProblem problem(Spec());
      FullParticipationSelector selector(kClients);
      SimulationConfig config;
      config.max_rounds = 2;
      Simulation sim(&problem, algo.get(), &selector, config);
      const auto result = sim.Run();
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find("max_epochs"),
                std::string::npos);
      const ClientStateStore* store = algo->mutable_state_store();
      EXPECT_TRUE(store == nullptr || store->num_touched_clients() == 0);
    }
  }
}

}  // namespace
}  // namespace fedadmm
