// The sharded aggregation server (SimulationConfig::num_shards).
//
// Covers: W-sharded runs are bitwise deterministic across thread counts
// in every execution mode (per-shard partials at fixed block boundaries,
// per-worker heaps merged on (time, sequence)); the integer/schedule
// columns — selection, byte ledgers, simulated time, drops — are bitwise
// identical across W (sharding regroups float additions, never the
// schedule); the trajectory stays within float tolerance of W = 1; a
// sharded *store* under an unsharded server is storage-transparent
// (bitwise identical); and config validation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
  options.eta_active_fraction = true;
  return options;
}

SystemModel CellularModel(int clients) {
  FleetModel fleet =
      FleetModel::FromPreset("cellular", clients, 3).ValueOrDie();
  return SystemModel(std::move(fleet),
                     MakeStragglerPolicy("wait-for-all", -1.0).ValueOrDie());
}

struct ShardRun {
  History history;
  std::vector<float> theta;
};

ShardRun RunSharded(int num_shards, int threads, int rounds,
                    ExecutionMode mode = ExecutionMode::kSync,
                    const SystemModel* model = nullptr,
                    const std::string& store = "", int buffer_size = 0) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(12, 0.5);
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = 7;
  config.num_threads = threads;
  config.num_shards = num_shards;
  config.mode = mode;
  config.buffer_size = buffer_size;
  config.state_store = store;
  Simulation sim(&problem, &algo, &selector, config);
  if (model) sim.set_system_model(model);
  ShardRun run;
  run.history = std::move(sim.Run()).ValueOrDie();
  run.theta = sim.theta();
  return run;
}

bool SameMetric(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

void ExpectIdenticalRuns(const ShardRun& a, const ShardRun& b) {
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

TEST(ShardEquivalenceTest, ShardedSyncIsDeterministicAcrossThreadCounts) {
  for (int w : {2, 4}) {
    const ShardRun serial = RunSharded(w, /*threads=*/1, /*rounds=*/12);
    ExpectIdenticalRuns(serial, RunSharded(w, 3, 12));
    ExpectIdenticalRuns(serial, RunSharded(w, 8, 12));
  }
}

TEST(ShardEquivalenceTest, ShardedEventModesAreDeterministic) {
  const SystemModel model = CellularModel(12);
  const ShardRun async_serial =
      RunSharded(4, 1, 20, ExecutionMode::kAsync, &model);
  ExpectIdenticalRuns(async_serial,
                      RunSharded(4, 6, 20, ExecutionMode::kAsync, &model));
  const ShardRun buffered_serial = RunSharded(
      3, 1, 10, ExecutionMode::kBuffered, &model, "", /*buffer_size=*/3);
  ExpectIdenticalRuns(
      buffered_serial,
      RunSharded(3, 5, 10, ExecutionMode::kBuffered, &model, "", 3));
}

TEST(ShardEquivalenceTest, ScheduleColumnsAreBitwiseIdenticalAcrossW) {
  // Sharding regroups the float additions of the server reduce; it must
  // not touch anything integer-valued or timing-derived: selection,
  // byte ledgers, simulated seconds, drop counts.
  const SystemModel model = CellularModel(12);
  const ShardRun base = RunSharded(1, 4, 16, ExecutionMode::kAsync, &model);
  for (int w : {2, 4, 8}) {
    const ShardRun sharded =
        RunSharded(w, 4, 16, ExecutionMode::kAsync, &model);
    ASSERT_EQ(sharded.history.size(), base.history.size()) << "W=" << w;
    for (int i = 0; i < base.history.size(); ++i) {
      const RoundRecord& rb = base.history.records()[static_cast<size_t>(i)];
      const RoundRecord& rw =
          sharded.history.records()[static_cast<size_t>(i)];
      EXPECT_EQ(rw.num_selected, rb.num_selected) << "W=" << w << " " << i;
      EXPECT_EQ(rw.upload_bytes, rb.upload_bytes) << "W=" << w << " " << i;
      EXPECT_EQ(rw.download_bytes, rb.download_bytes)
          << "W=" << w << " " << i;
      EXPECT_EQ(rw.sim_seconds, rb.sim_seconds) << "W=" << w << " " << i;
      EXPECT_EQ(rw.num_dropped, rb.num_dropped) << "W=" << w << " " << i;
      EXPECT_EQ(rw.staleness_max, rb.staleness_max) << "W=" << w << " " << i;
    }
  }
}

TEST(ShardEquivalenceTest, TrajectoryStaysWithinFloatToleranceAcrossW) {
  // Different W may differ in the last ulp per reduce; over a short run
  // the trajectories must still agree tightly.
  const ShardRun base = RunSharded(1, 4, 16);
  for (int w : {2, 4, 8}) {
    const ShardRun sharded = RunSharded(w, 4, 16);
    ASSERT_EQ(sharded.theta.size(), base.theta.size());
    for (size_t i = 0; i < base.theta.size(); ++i) {
      EXPECT_NEAR(sharded.theta[i], base.theta[i], 1e-4f)
          << "W=" << w << " coord " << i;
    }
    ASSERT_EQ(sharded.history.size(), base.history.size());
    for (int i = 0; i < base.history.size(); ++i) {
      EXPECT_NEAR(
          sharded.history.records()[static_cast<size_t>(i)].test_accuracy,
          base.history.records()[static_cast<size_t>(i)].test_accuracy,
          1e-4)
          << "W=" << w << " round " << i;
    }
  }
}

TEST(ShardEquivalenceTest, ShardedStoreAloneIsBitwiseTransparent) {
  // An explicitly sharded *store* under the W = 1 server returns exactly
  // the floats the inner backend returns: the whole run is bitwise
  // identical to the plain store.
  const ShardRun plain = RunSharded(1, 3, 12, ExecutionMode::kSync, nullptr,
                                    /*store=*/"lazy");
  const ShardRun sharded_store = RunSharded(
      1, 3, 12, ExecutionMode::kSync, nullptr, "sharded:3:lazy");
  ExpectIdenticalRuns(plain, sharded_store);
}

TEST(ShardEquivalenceTest, ShardCountIsValidated) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(12, 0.5);
  SimulationConfig config;
  config.max_rounds = 2;
  config.num_shards = 0;
  Simulation sim(&problem, &algo, &selector, config);
  const auto result = sim.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(ShardEquivalenceTest, WMoreShardsThanClientsStillRuns) {
  // W far above the fleet size: store clamps, empty reduce shards are
  // skipped, heap shards just stay sparse.
  const ShardRun run = RunSharded(/*num_shards=*/64, 2, 8);
  EXPECT_EQ(run.history.size(), 8);
  EXPECT_FALSE(run.theta.empty());
  ExpectIdenticalRuns(run, RunSharded(64, 7, 8));
}

}  // namespace
}  // namespace fedadmm
