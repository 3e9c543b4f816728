// The event-driven federation engine: buffered / async execution modes.
//
// Covers: mode validation, fixed-seed determinism across thread counts
// (the event queue orders by (time, sequence), never by host scheduling),
// staleness accounting and weighting, buffered flush sizes, async
// progress on the quadratic problem, and the starvation path where every
// completion event misses the deadline (event-queue drain: NaN train_loss
// records, θ untouched, run terminates).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "core/fedadmm.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "sys/system_model.h"

namespace fedadmm {
namespace {

QuadraticSpec Spec(int clients = 12, int dim = 7) {
  QuadraticSpec spec;
  spec.num_clients = clients;
  spec.dim = dim;
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
  // η = |S_t|/m, the theoretically analyzed server step. Essential in the
  // event modes: a singleton async batch at η = 1 overshoots by m×.
  options.eta_active_fraction = true;
  return options;
}

SystemModel CellularModel(int clients,
                          const std::string& policy = "wait-for-all",
                          double deadline = -1.0) {
  FleetModel fleet = FleetModel::FromPreset("cellular", clients, 3)
                         .ValueOrDie();
  return SystemModel(std::move(fleet),
                     MakeStragglerPolicy(policy, deadline).ValueOrDie());
}

struct ModeRun {
  History history;
  std::vector<float> theta;
};

ModeRun RunMode(ExecutionMode mode, const SystemModel* model, int threads,
                int rounds, uint64_t seed = 7, int buffer_size = 0,
                StalenessWeightFn weight = nullptr,
                UpdateCodec* uplink = nullptr) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(12, 0.5);
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = seed;
  config.num_threads = threads;
  config.mode = mode;
  config.buffer_size = buffer_size;
  config.staleness_weight = std::move(weight);
  Simulation sim(&problem, &algo, &selector, config);
  if (model) sim.set_system_model(model);
  if (uplink) sim.set_uplink_codec(uplink);
  ModeRun run;
  run.history = std::move(sim.Run()).ValueOrDie();
  run.theta = sim.theta();
  return run;
}

// NaN-aware equality for skipped-eval sentinels.
bool SameMetric(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

void ExpectIdenticalRuns(const ModeRun& a, const ModeRun& b) {
  EXPECT_EQ(a.theta, b.theta);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (int i = 0; i < a.history.size(); ++i) {
    const RoundRecord& ra = a.history.records()[static_cast<size_t>(i)];
    const RoundRecord& rb = b.history.records()[static_cast<size_t>(i)];
    EXPECT_EQ(ra.num_selected, rb.num_selected) << i;
    EXPECT_TRUE(SameMetric(ra.train_loss, rb.train_loss)) << i;
    EXPECT_TRUE(SameMetric(ra.test_accuracy, rb.test_accuracy)) << i;
    EXPECT_EQ(ra.upload_bytes, rb.upload_bytes) << i;
    EXPECT_EQ(ra.download_bytes, rb.download_bytes) << i;
    EXPECT_EQ(ra.sim_seconds, rb.sim_seconds) << i;
    EXPECT_EQ(ra.num_dropped, rb.num_dropped) << i;
    EXPECT_TRUE(SameMetric(ra.staleness_mean, rb.staleness_mean)) << i;
    EXPECT_EQ(ra.staleness_max, rb.staleness_max) << i;
  }
}

TEST(ExecutionModeTest, ParseAndNameRoundTrip) {
  for (ExecutionMode mode : {ExecutionMode::kSync, ExecutionMode::kBuffered,
                             ExecutionMode::kAsync}) {
    auto parsed = ParseExecutionMode(ExecutionModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.ValueOrDie(), mode);
  }
  EXPECT_FALSE(ParseExecutionMode("turbo").ok());
}

TEST(ExecutionModeTest, EventModesRequireSystemModel) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(12, 0.5);
  SimulationConfig config;
  config.max_rounds = 3;
  config.mode = ExecutionMode::kAsync;
  Simulation sim(&problem, &algo, &selector, config);
  const auto result = sim.Run();
  ASSERT_FALSE(result.ok());
}

TEST(ExecutionModeTest, AsyncIsDeterministicAcrossThreadCounts) {
  const SystemModel model = CellularModel(12);
  const ModeRun serial = RunMode(ExecutionMode::kAsync, &model, 1, 24);
  ExpectIdenticalRuns(serial, RunMode(ExecutionMode::kAsync, &model, 3, 24));
  ExpectIdenticalRuns(serial, RunMode(ExecutionMode::kAsync, &model, 8, 24));
}

TEST(ExecutionModeTest, BufferedIsDeterministicAcrossThreadCounts) {
  const SystemModel model = CellularModel(12);
  const ModeRun serial =
      RunMode(ExecutionMode::kBuffered, &model, 1, 12, 7, 3);
  ExpectIdenticalRuns(serial,
                      RunMode(ExecutionMode::kBuffered, &model, 5, 12, 7, 3));
}

TEST(ExecutionModeTest, AsyncWithStatefulCodecIsDeterministic) {
  // Error-feedback residuals are keyed by wire stream and mutated in pop
  // order; thread count must still not matter.
  const SystemModel model = CellularModel(12);
  auto codec_a = MakeUpdateCodec("ef:topk10").ValueOrDie();
  auto codec_b = MakeUpdateCodec("ef:topk10").ValueOrDie();
  const ModeRun a = RunMode(ExecutionMode::kAsync, &model, 1, 16, 7, 0,
                            nullptr, codec_a.get());
  const ModeRun b = RunMode(ExecutionMode::kAsync, &model, 4, 16, 7, 0,
                            nullptr, codec_b.get());
  ExpectIdenticalRuns(a, b);
}

TEST(ExecutionModeTest, DifferentSeedsDiverge) {
  const SystemModel model = CellularModel(12);
  EXPECT_NE(RunMode(ExecutionMode::kAsync, &model, 1, 16, 7).theta,
            RunMode(ExecutionMode::kAsync, &model, 1, 16, 8).theta);
}

TEST(ExecutionModeTest, AsyncRecordsHavePerEventShape) {
  const SystemModel model = CellularModel(12);
  const ModeRun run = RunMode(ExecutionMode::kAsync, &model, 2, 24);
  ASSERT_EQ(run.history.size(), 24);
  double last_time = 0.0;
  bool saw_stale = false;
  for (const RoundRecord& r : run.history.records()) {
    // One admitted arrival per aggregation record.
    EXPECT_EQ(r.num_selected, 1);
    // Per-event sim time is monotone non-decreasing (event-queue order).
    EXPECT_GE(r.sim_seconds, last_time);
    last_time = r.sim_seconds;
    if (r.staleness_max > 0) saw_stale = true;
    EXPECT_GE(r.staleness_mean, 0.0);
  }
  // With ~6 clients in flight, arrivals after the first overlap at least
  // one server update: staleness must actually show up.
  EXPECT_TRUE(saw_stale);
}

TEST(ExecutionModeTest, BufferedFlushesKUpdatesPerRecord) {
  const SystemModel model = CellularModel(12);
  const ModeRun run =
      RunMode(ExecutionMode::kBuffered, &model, 2, 10, 7, /*buffer=*/3);
  ASSERT_EQ(run.history.size(), 10);
  for (const RoundRecord& r : run.history.records()) {
    EXPECT_EQ(r.num_selected, 3) << "round " << r.round;
  }
}

TEST(ExecutionModeTest, AsyncMakesProgressOnQuadratic) {
  const SystemModel model = CellularModel(12);
  const ModeRun run = RunMode(ExecutionMode::kAsync, &model, 2, 120);
  // accuracy = 1/(1 + ||θ − θ*||) starts near 0; async FedADMM must climb.
  EXPECT_GT(run.history.BestAccuracy(), 0.6);
}

TEST(ExecutionModeTest, StalenessWeightChangesTrajectory) {
  const SystemModel model = CellularModel(12);
  const ModeRun constant = RunMode(ExecutionMode::kAsync, &model, 1, 24);
  const ModeRun damped = RunMode(ExecutionMode::kAsync, &model, 1, 24, 7, 0,
                                 PolynomialStalenessWeight(4.0));
  // Heavy polynomial damping nearly zeroes stale arrivals; θ must move
  // differently — but the event schedule (pure timing) is unchanged.
  EXPECT_NE(constant.theta, damped.theta);
  ASSERT_EQ(constant.history.size(), damped.history.size());
  for (int i = 0; i < constant.history.size(); ++i) {
    EXPECT_EQ(constant.history.records()[static_cast<size_t>(i)].sim_seconds,
              damped.history.records()[static_cast<size_t>(i)].sim_seconds);
  }
}

TEST(ExecutionModeTest, InvalidStalenessWeightFailsRun) {
  // A weight is caller code: a NaN, infinite or negative discount of a
  // stale arrival ends Run with InvalidArgument, not a CHECK abort.
  const SystemModel model = CellularModel(12);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -0.5}) {
    SCOPED_TRACE(bad);
    QuadraticProblem problem(Spec());
    FedAdmm algo(Options());
    UniformFractionSelector selector(12, 0.5);
    SimulationConfig config;
    config.max_rounds = 24;
    config.mode = ExecutionMode::kBuffered;
    config.staleness_weight = [bad](int staleness) {
      return staleness > 0 ? bad : 1.0;
    };
    Simulation sim(&problem, &algo, &selector, config);
    sim.set_system_model(&model);
    const Status status = sim.Run().status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    const std::string weight = "weight returned " + std::to_string(bad);
    EXPECT_NE(status.message().find(weight), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("at staleness "), std::string::npos)
        << status.message();
  }
}

TEST(ExecutionModeTest, MakeStalenessWeightParsesSpecs) {
  ASSERT_TRUE(MakeStalenessWeight("constant").ok());
  auto poly = MakeStalenessWeight("poly:0.5");
  ASSERT_TRUE(poly.ok());
  const StalenessWeightFn w = std::move(poly).ValueOrDie();
  EXPECT_DOUBLE_EQ(w(0), 1.0);
  EXPECT_DOUBLE_EQ(w(3), std::pow(4.0, -0.5));
  EXPECT_FALSE(MakeStalenessWeight("poly:").ok());
  EXPECT_FALSE(MakeStalenessWeight("poly:-1").ok());
  EXPECT_FALSE(MakeStalenessWeight("linear").ok());
}

TEST(ExecutionModeTest, SyncModeIgnoresBufferAndWeightKnobs) {
  // A sync run with event-mode knobs set must be bitwise identical to a
  // plain sync run: the knobs are dead in lockstep mode.
  const SystemModel model = CellularModel(12, "deadline-drop", 2.0);
  const ModeRun plain = RunMode(ExecutionMode::kSync, &model, 3, 8);
  const ModeRun knobs = RunMode(ExecutionMode::kSync, &model, 3, 8, 7,
                                /*buffer=*/4, PolynomialStalenessWeight(1.0));
  ExpectIdenticalRuns(plain, knobs);
}

}  // namespace
}  // namespace fedadmm
