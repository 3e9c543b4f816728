// Deterministic replay: the same seed must reproduce the same θ trajectory
// bitwise, regardless of the worker thread count. This guards the ThreadPool
// path in src/fl/simulation.cc — per-client randomness is keyed by
// (seed, round, client), never by scheduling order.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/identity.h"
#include "core/fedadmm.h"
#include "fl/algorithms/fedavg.h"
#include "fl/algorithms/fedpd.h"
#include "fl/algorithms/fedprox.h"
#include "fl/algorithms/fedsgd.h"
#include "fl/algorithms/scaffold.h"
#include "fl/digest.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "fl/staleness.h"
#include "sys/system_model.h"

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
  // Keep the paper's system-heterogeneity default: epoch counts are drawn
  // from the per-(round, client) stream, so replay also covers it.
  options.local.variable_epochs = true;
  options.rho = StepSchedule(0.1);
  return options;
}

// Runs the simulation to `rounds` rounds and returns the final θ. Replaying
// prefixes of increasing length checks the whole trajectory, not just the
// endpoint.
std::vector<float> RunTheta(uint64_t seed, int threads, int rounds) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(12, 0.5);
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = seed;
  config.num_threads = threads;
  Simulation sim(&problem, &algo, &selector, config);
  EXPECT_TRUE(sim.Run().ok());
  return sim.theta();
}

TEST(DeterministicReplayTest, SameSeedSameThetaTrajectory) {
  for (int rounds : {1, 2, 5, 10}) {
    EXPECT_EQ(RunTheta(7, 1, rounds), RunTheta(7, 1, rounds))
        << "trajectory diverged at round " << rounds;
  }
}

TEST(DeterministicReplayTest, ThreadCountDoesNotChangeTrajectory) {
  for (int rounds : {1, 3, 8}) {
    const std::vector<float> serial = RunTheta(7, 1, rounds);
    EXPECT_EQ(serial, RunTheta(7, 3, rounds))
        << "3-thread run diverged at round " << rounds;
    EXPECT_EQ(serial, RunTheta(7, 5, rounds))
        << "5-thread run diverged at round " << rounds;
  }
}

TEST(DeterministicReplayTest, DifferentSeedsDiverge) {
  EXPECT_NE(RunTheta(7, 1, 5), RunTheta(8, 1, 5));
}

// --- Codec regression (src/comm): the no-codec path and the identity-codec
// path must be bitwise indistinguishable — in θ AND in the recorded
// History. Guards the codec plumbing in Simulation::Run against perturbing
// RNG streams or byte accounting when compression is off.

struct Replay {
  History history;
  std::vector<float> theta;
};

Replay RunReplay(uint64_t seed, int threads, int rounds,
                 UpdateCodec* uplink, UpdateCodec* downlink) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(12, 0.5);
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = seed;
  config.num_threads = threads;
  Simulation sim(&problem, &algo, &selector, config);
  if (uplink) sim.set_uplink_codec(uplink);
  if (downlink) sim.set_downlink_codec(downlink);
  Replay replay;
  replay.history = std::move(sim.Run()).ValueOrDie();
  replay.theta = sim.theta();
  return replay;
}

// NaN-aware bitwise equality for skipped-eval sentinels.
bool SameMetric(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

void ExpectBitwiseIdentical(const Replay& a, const Replay& b) {
  EXPECT_EQ(a.theta, b.theta);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (int i = 0; i < a.history.size(); ++i) {
    const RoundRecord& ra = a.history.records()[static_cast<size_t>(i)];
    const RoundRecord& rb = b.history.records()[static_cast<size_t>(i)];
    EXPECT_EQ(ra.round, rb.round);
    EXPECT_EQ(ra.num_selected, rb.num_selected);
    EXPECT_TRUE(SameMetric(ra.train_loss, rb.train_loss)) << i;
    EXPECT_TRUE(SameMetric(ra.test_accuracy, rb.test_accuracy)) << i;
    EXPECT_TRUE(SameMetric(ra.test_loss, rb.test_loss)) << i;
    EXPECT_EQ(ra.upload_bytes, rb.upload_bytes) << i;
    EXPECT_EQ(ra.download_bytes, rb.download_bytes) << i;
    EXPECT_EQ(ra.upload_bytes_raw, rb.upload_bytes_raw) << i;
    EXPECT_EQ(ra.download_bytes_raw, rb.download_bytes_raw) << i;
    EXPECT_EQ(ra.sim_seconds, rb.sim_seconds) << i;
    EXPECT_EQ(ra.num_dropped, rb.num_dropped) << i;
    EXPECT_EQ(ra.num_admitted_partial, rb.num_admitted_partial) << i;
  }
}

TEST(DeterministicReplayTest, IdentityUplinkCodecIsBitwiseInvisible) {
  IdentityCodec identity;
  ExpectBitwiseIdentical(RunReplay(7, 3, 8, nullptr, nullptr),
                         RunReplay(7, 3, 8, &identity, nullptr));
}

TEST(DeterministicReplayTest, IdentityCodecPairIsBitwiseInvisible) {
  IdentityCodec uplink;
  IdentityCodec downlink;
  ExpectBitwiseIdentical(RunReplay(7, 3, 8, nullptr, nullptr),
                         RunReplay(7, 3, 8, &uplink, &downlink));
}

TEST(DeterministicReplayTest, LossyCodecChangesThetaButNotAccounting) {
  // Sanity inversion: a real compressor must NOT be invisible — θ moves —
  // while the raw-bytes columns still mirror the uncompressed run.
  IdentityCodec identity;
  const Replay exact = RunReplay(7, 3, 8, &identity, nullptr);
  Replay lossy;
  {
    QuadraticProblem problem(Spec());
    FedAdmm algo(Options());
    UniformFractionSelector selector(12, 0.5);
    SimulationConfig config;
    config.max_rounds = 8;
    config.seed = 7;
    config.num_threads = 3;
    Simulation sim(&problem, &algo, &selector, config);
    auto codec = MakeUpdateCodec("q8");
    ASSERT_TRUE(codec.ok());
    sim.set_uplink_codec(codec->get());
    lossy.history = std::move(sim.Run()).ValueOrDie();
    lossy.theta = sim.theta();
  }
  EXPECT_NE(exact.theta, lossy.theta);
  ASSERT_EQ(exact.history.size(), lossy.history.size());
  for (int i = 0; i < exact.history.size(); ++i) {
    EXPECT_EQ(
        exact.history.records()[static_cast<size_t>(i)].upload_bytes_raw,
        lossy.history.records()[static_cast<size_t>(i)].upload_bytes_raw);
  }
}

// --- Cross-version pin: the digests below were computed by the engine
// before its sync and event loops were merged, so a refactor of the loop
// that changes any bit of θ or of a deterministic record field fails
// here. The FedAvg, FedProx, FedSGD and FedPD digests were computed
// before the algorithms shared one augmented-Lagrangian term, dual ascent
// and averaging step. Every cell runs on the `lazy` store. The pin assumes the host's
// floating-point results match the machine that produced the digests,
// the same assumption the perf rails' exact `*_sim_seconds` gates make;
// the cross-ISA contract (FEDADMM_FORCE_SCALAR=1) must give the same
// digests.

// θ's bits plus every deterministic RoundRecord field (wall_seconds is
// the only host-dependent one).
uint64_t TrajectoryDigest(const std::vector<float>& theta,
                          const History& history) {
  Fnv1a h;
  h.Bytes(theta.data(), theta.size() * sizeof(float));
  for (const RoundRecord& r : history.records()) {
    h.Int(r.round);
    h.Int(r.num_selected);
    h.Double(r.train_loss);
    h.Double(r.test_accuracy);
    h.Double(r.test_loss);
    h.Int(r.upload_bytes);
    h.Int(r.download_bytes);
    h.Int(r.upload_bytes_raw);
    h.Int(r.download_bytes_raw);
    h.Double(r.sim_seconds);
    h.Int(r.num_dropped);
    h.Int(r.num_admitted_partial);
    h.Double(r.staleness_mean);
    h.Int(r.staleness_max);
    h.Int(r.state_bytes_resident);
  }
  return h.value();
}

// Deadlines (seconds) inside the cellular fleet's per-client spread at
// this problem size, so both straggler paths fire.
constexpr double kPartialDeadline = 0.1;
constexpr double kDropDeadline = 0.12;

// One pinned configuration. Empty strings leave the knob unset: no
// system model, no codec, the engine's default staleness weight.
struct PinCell {
  /// "FedADMM", "FedAvg", "FedProx", "FedSGD", "FedPD" or "SCAFFOLD".
  std::string algorithm = "FedADMM";
  ExecutionMode mode = ExecutionMode::kSync;
  std::string policy;
  double deadline = -1.0;
  std::string uplink;
  std::string downlink;
  std::string staleness;
  int buffer_size = 0;
};

struct PinOutput {
  uint64_t digest = 0;
  int dropped = 0;
  int partial = 0;
};

// The baselines share FedADMM's local spec; FedPD runs on the full
// population it requires.
std::unique_ptr<FederatedAlgorithm> MakePinAlgorithm(
    const std::string& name, const FedAdmmOptions& options) {
  if (name == "FedAvg") return std::make_unique<FedAvg>(options.local);
  if (name == "FedProx") {
    return std::make_unique<FedProx>(options.local, 0.1f);
  }
  if (name == "FedSGD") return std::make_unique<FedSgd>(0.05f);
  if (name == "FedPD") return std::make_unique<FedPd>(options.local, 0.1f, 0.5);
  if (name == "SCAFFOLD") return std::make_unique<Scaffold>(options.local);
  return std::make_unique<FedAdmm>(options);
}

PinOutput RunPinCell(const PinCell& cell) {
  QuadraticProblem problem(Spec());
  FedAdmmOptions options = Options();
  // Event modes require the |S_t|/m server step (eta guardrail).
  options.eta_active_fraction = cell.mode != ExecutionMode::kSync;
  const std::unique_ptr<FederatedAlgorithm> algo =
      MakePinAlgorithm(cell.algorithm, options);
  std::unique_ptr<ClientSelector> selector;
  if (cell.algorithm == "FedPD") {
    selector = std::make_unique<FullParticipationSelector>(12);
  } else {
    selector = std::make_unique<UniformFractionSelector>(12, 0.5);
  }
  SimulationConfig config;
  config.max_rounds = 10;
  config.seed = 7;
  config.num_threads = 3;
  config.state_store = "lazy";
  config.mode = cell.mode;
  config.buffer_size = cell.buffer_size;
  if (!cell.staleness.empty()) {
    config.staleness_weight = MakeStalenessWeight(cell.staleness).ValueOrDie();
  }
  std::unique_ptr<SystemModel> model;
  if (!cell.policy.empty()) {
    model = std::make_unique<SystemModel>(
        FleetModel::FromPreset("cellular", 12, 3).ValueOrDie(),
        MakeStragglerPolicy(cell.policy, cell.deadline).ValueOrDie());
  }
  std::unique_ptr<UpdateCodec> uplink;
  std::unique_ptr<UpdateCodec> downlink;
  if (!cell.uplink.empty()) {
    uplink = MakeUpdateCodec(cell.uplink).ValueOrDie();
  }
  if (!cell.downlink.empty()) {
    downlink = MakeUpdateCodec(cell.downlink).ValueOrDie();
  }
  Simulation sim(&problem, algo.get(), selector.get(), config);
  sim.set_system_model(model.get());
  sim.set_uplink_codec(uplink.get());
  sim.set_downlink_codec(downlink.get());
  const History history = std::move(sim.Run()).ValueOrDie();
  PinOutput out;
  out.digest = TrajectoryDigest(sim.theta(), history);
  for (const RoundRecord& r : history.records()) {
    out.dropped += r.num_dropped;
    out.partial += r.num_admitted_partial;
  }
  return out;
}

TEST(DeterministicReplayTest, TrajectoriesMatchPinnedDigests) {
  struct Case {
    const char* name;
    PinCell cell;
    uint64_t expected;
  };
  PinCell partial_q8;
  partial_q8.policy = "deadline-admit-partial";
  partial_q8.deadline = kPartialDeadline;
  partial_q8.uplink = "q8";
  partial_q8.downlink = "q8";
  PinCell drop_ef;
  drop_ef.policy = "deadline-drop";
  drop_ef.deadline = kDropDeadline;
  drop_ef.uplink = "ef:topk10";
  PinCell scaffold;
  scaffold.algorithm = "SCAFFOLD";
  PinCell buffered;
  buffered.mode = ExecutionMode::kBuffered;
  buffered.policy = "deadline-admit-partial";
  buffered.deadline = kPartialDeadline;
  buffered.buffer_size = 3;
  buffered.staleness = "poly:1";
  PinCell async;
  async.mode = ExecutionMode::kAsync;
  async.policy = "wait-for-all";
  // The baselines, each alone and in the buffered setup.
  const auto named = [](const char* algorithm, PinCell cell) {
    cell.algorithm = algorithm;
    return cell;
  };
  const Case cases[] = {
      {"sync", PinCell{}, 0xce9b9797f3f2fad1ULL},
      {"sync partial q8/q8", partial_q8, 0x88559b9cbd1f96b6ULL},
      {"sync drop ef:topk10", drop_ef, 0xd46d087354ba5c01ULL},
      {"scaffold sync", scaffold, 0xb043f4ad2865ec3dULL},
      {"buffered partial poly:1", buffered, 0x875f03d0ab237445ULL},
      {"async", async, 0x97295ca2489f1ad5ULL},
      {"FedAvg sync", named("FedAvg", {}), 0xc17e7cd0b6804050ULL},
      {"FedAvg buffered", named("FedAvg", buffered), 0x55f4612c42441145ULL},
      {"FedProx sync", named("FedProx", {}), 0xc22976d54e916bd7ULL},
      {"FedProx buffered", named("FedProx", buffered), 0xafbf9cb7bcafc533ULL},
      {"FedSGD sync", named("FedSGD", {}), 0x8714bdb0acac5b07ULL},
      {"FedSGD buffered", named("FedSGD", buffered), 0x34fcff485714256dULL},
      {"FedPD sync", named("FedPD", {}), 0x2852edb5cc72856eULL},
  };
  for (const Case& c : cases) {
    const PinOutput out = RunPinCell(c.cell);
    EXPECT_EQ(Hex(out.digest), Hex(c.expected)) << c.name;
  }
  // The deadline cells must actually exercise the straggler paths.
  EXPECT_GT(RunPinCell(partial_q8).partial, 0);
  EXPECT_GT(RunPinCell(drop_ef).dropped, 0);
  const PinOutput event = RunPinCell(buffered);
  EXPECT_GT(event.partial, 0);
  EXPECT_GT(event.dropped, 0);
}

}  // namespace
}  // namespace fedadmm
