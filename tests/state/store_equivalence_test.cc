// Store-backend equivalence property: `lazy` and `tiered` (out-of-core,
// raw fp32 slabs — here with a pool of just 3 frames, so nearly every
// round churns through the slab log) replay the trajectories of the retired
// eager-arena backend bitwise — pinned as digests — on seeded FedADMM +
// FedPD + SCAFFOLD runs, across thread counts; `lazy` resident bytes track
// the touched population; and every bad store spec or unopenable slab log
// is a Status, never an abort.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/fedadmm.h"
#include "fl/algorithms/fedpd.h"
#include "fl/algorithms/scaffold.h"
#include "fl/digest.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "state/client_state_store.h"

namespace fedadmm {
namespace {

constexpr int kClients = 12;
constexpr int kDim = 9;
constexpr int kRounds = 14;

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = kClients;
  spec.dim = kDim;
  spec.heterogeneity = 1.3;
  spec.seed = 55;
  return spec;
}

std::unique_ptr<FederatedAlgorithm> MakeAlgo(const std::string& name) {
  LocalTrainSpec local;
  local.learning_rate = 0.05f;
  local.batch_size = 3;
  local.max_epochs = 2;
  if (name == "FedADMM") {
    FedAdmmOptions options;
    options.local = local;
    options.rho = StepSchedule(0.4);
    options.eta_active_fraction = true;
    return std::make_unique<FedAdmm>(options);
  }
  if (name == "FedPD") {
    return std::make_unique<FedPd>(local, 0.5f, 0.6, /*seed=*/7);
  }
  return std::make_unique<Scaffold>(local);
}

struct RunOutput {
  std::vector<float> theta;
  History history;
};

RunOutput RunWith(const std::string& algo_name,
                  const std::string& state_store, int threads) {
  QuadraticProblem problem(Spec());
  auto algo = MakeAlgo(algo_name);
  std::unique_ptr<ClientSelector> selector;
  if (algo_name == "FedPD") {
    selector = std::make_unique<FullParticipationSelector>(kClients);
  } else {
    selector = std::make_unique<UniformFractionSelector>(kClients, 0.5);
  }
  SimulationConfig config;
  config.max_rounds = kRounds;
  config.seed = 21;
  config.num_threads = threads;
  config.state_store = state_store;
  Simulation sim(&problem, algo.get(), selector.get(), config);
  RunOutput out;
  out.history = std::move(sim.Run()).ValueOrDie();
  out.theta = sim.theta();
  return out;
}

// θ's bits plus each round's train_loss, test_accuracy and upload_bytes:
// the fields every backend must reproduce. state_bytes_resident is left
// out — it is the one field backends are meant to differ on.
uint64_t StoreDigest(const RunOutput& run) {
  Fnv1a h;
  h.Bytes(run.theta.data(), run.theta.size() * sizeof(float));
  for (const RoundRecord& r : run.history.records()) {
    h.Double(r.train_loss);
    h.Double(r.test_accuracy);
    h.Int(r.upload_bytes);
  }
  return h.value();
}

struct PinnedRun {
  std::string algo;
  // StoreDigest of the eager-arena `dense` backend at threads = 1, computed
  // before that backend was removed (it gave the same digest at 4 threads
  // and under FEDADMM_FORCE_SCALAR=1). It stays the oracle: every
  // remaining backend must reproduce it.
  uint64_t dense_digest;

  friend void PrintTo(const PinnedRun& pin, std::ostream* os) {
    *os << pin.algo;
  }
};

class BackendEquivalenceSweep : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(BackendEquivalenceSweep, LazyAndTieredMatchPinnedDenseDigests) {
  const PinnedRun& pin = GetParam();
  // The tiered pool holds 3 frames against 12 clients × up-to-2 slots:
  // constant eviction/fault traffic, yet bitwise replay must hold.
  const std::string tiered =
      "tiered:3f:" + ::testing::TempDir() + "store_eq_" + pin.algo + ".slab";
  for (const std::string& backend : {std::string("lazy"), tiered}) {
    for (int threads : {1, 4}) {
      const RunOutput run = RunWith(pin.algo, backend, threads);
      EXPECT_EQ(run.history.size(), kRounds);
      EXPECT_EQ(Hex(StoreDigest(run)), Hex(pin.dense_digest))
          << pin.algo << " " << backend << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, BackendEquivalenceSweep,
    ::testing::Values(PinnedRun{"FedADMM", 0xac70d1352dc1ee83ULL},
                      PinnedRun{"FedPD", 0x2218e91cad079649ULL},
                      PinnedRun{"SCAFFOLD", 0x3bef8d037305ec04ULL}),
    [](const auto& info) { return info.param.algo; });

// A fixed-set selector so the touched population is known exactly.
class FixedSetSelector : public ClientSelector {
 public:
  FixedSetSelector(int num_clients, std::vector<int> set)
      : num_clients_(num_clients), set_(std::move(set)) {}
  std::vector<int> Select(int round, Rng* rng) override {
    (void)round;
    (void)rng;
    return set_;
  }
  int num_clients() const override { return num_clients_; }
  std::string name() const override { return "fixed-set"; }

 private:
  int num_clients_;
  std::vector<int> set_;
};

TEST(StateBytesResidentTest, LazyEqualsTouchedClientsTimesSlotBytes) {
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.local.learning_rate = 0.05f;
  options.local.max_epochs = 2;
  options.rho = StepSchedule(0.4);
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  FixedSetSelector selector(kClients, {2, 5, 7});
  SimulationConfig config;
  config.max_rounds = 6;
  config.seed = 3;
  config.state_store = "lazy";
  Simulation sim(&problem, &algo, &selector, config);
  const History history = std::move(sim.Run()).ValueOrDie();

  // 3 touched clients × 2 slots (w_i, y_i) × d floats.
  const int64_t expected = 3 * 2 * kDim * 4;
  EXPECT_EQ(algo.StateBytesResident(), expected);
  EXPECT_EQ(algo.state_store().num_touched_clients(), 3);
  // The cost surface reaches the per-round records (and the CSV schema).
  for (const RoundRecord& r : history.records()) {
    EXPECT_EQ(r.state_bytes_resident, expected);
  }
}

TEST(StateBytesResidentTest, DefaultStoreUnderFullCohortHoldsWholeFleet) {
  // The regime an eager arena would serve: every client selected every
  // round. The default (empty) spec resolves to lazy, which then holds
  // exactly the m·2·d floats an arena would.
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.local.max_epochs = 1;
  options.rho = StepSchedule(0.4);
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  std::vector<int> everyone(kClients);
  for (int c = 0; c < kClients; ++c) everyone[static_cast<size_t>(c)] = c;
  FixedSetSelector selector(kClients, everyone);
  SimulationConfig config;
  config.max_rounds = 2;
  config.seed = 3;
  Simulation sim(&problem, &algo, &selector, config);
  const History history = std::move(sim.Run()).ValueOrDie();
  EXPECT_EQ(algo.state_store().name(), "lazy");
  EXPECT_EQ(algo.state_store().num_touched_clients(), kClients);
  const int64_t fleet_bytes = static_cast<int64_t>(kClients) * 2 * kDim * 4;
  ASSERT_EQ(history.size(), 2);
  for (const RoundRecord& r : history.records()) {
    EXPECT_EQ(r.state_bytes_resident, fleet_bytes);
  }
}

TEST(StateStoreConfigTest, BadSpecFailsFastWithStatus) {
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  UniformFractionSelector selector(kClients, 0.5);
  SimulationConfig config;
  config.max_rounds = 2;
  config.state_store = "zstd";
  Simulation sim(&problem, &algo, &selector, config);
  const auto result = sim.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("zstd"), std::string::npos);
}

TEST(StateStoreConfigTest, BadAlgorithmDefaultSpecAlsoFailsFast) {
  // The options-level path: SimulationConfig::state_store empty, the
  // algorithm's own default bad — still a Status, not a CHECK mid-Setup.
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.eta_active_fraction = true;
  options.state_store = "quantized:20";
  FedAdmm algo(options);
  UniformFractionSelector selector(kClients, 0.5);
  SimulationConfig config;
  config.max_rounds = 2;
  Simulation sim(&problem, &algo, &selector, config);
  const auto result = sim.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown spec in spec "
                                           "'quantized:20'"),
            std::string::npos)
      << result.status().message();
}

TEST(StateStoreConfigTest, UnopenableTieredLogFailsBeforeRoundZero) {
  // The spec parses, but its slab log cannot be created: Run returns the
  // open's IoError before round 0 instead of Setup aborting.
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  UniformFractionSelector selector(kClients, 0.5);
  SimulationConfig config;
  config.max_rounds = 2;
  const std::string path =
      ::testing::TempDir() + "store_equiv_missing_dir/state.slab";
  config.state_store = "tiered:4f:" + path;
  Simulation sim(&problem, &algo, &selector, config);
  int rounds = 0;
  sim.set_observer([&rounds](const RoundRecord&) { ++rounds; });
  const auto result = sim.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError()) << result.status().ToString();
  EXPECT_NE(result.status().message().find(path), std::string::npos)
      << result.status().message();
  EXPECT_EQ(rounds, 0);
}

// Specs that must be refused with InvalidArgument, for the named reason,
// both by the factory and by Simulation::Run's pre-flight check, never by
// a CHECK. The count rows overflow their target type; the rest name
// removed backends, alone or as an inner spec.
struct RefusedSpec {
  std::string spec;  // "<p>" stands for a slab-log path
  std::string reason;

  friend void PrintTo(const RefusedSpec& row, std::ostream* os) {
    *os << row.spec;
  }
};

class StoreSpecRefusalTest : public ::testing::TestWithParam<RefusedSpec> {};

TEST_P(StoreSpecRefusalTest, FactoryAndRunReturnInvalidArgument) {
  std::string spec = GetParam().spec;
  const size_t at = spec.find("<p>");
  if (at != std::string::npos) {
    spec.replace(at, 3, ::testing::TempDir() + "refused.slab");
  }
  const Status made = MakeClientStateStore(spec).status();
  EXPECT_TRUE(made.IsInvalidArgument()) << spec << ": " << made.ToString();
  EXPECT_NE(made.message().find(GetParam().reason), std::string::npos)
      << made.message();
  // The grammar names the fix.
  EXPECT_NE(made.message().find("(accepted: lazy | tiered:"),
            std::string::npos)
      << made.message();

  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  UniformFractionSelector selector(kClients, 0.5);
  SimulationConfig config;
  config.max_rounds = 2;
  config.state_store = spec;
  Simulation sim(&problem, &algo, &selector, config);
  const auto result = sim.Run();
  ASSERT_FALSE(result.ok()) << spec;
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Specs, StoreSpecRefusalTest,
    ::testing::Values(
        // 2^43 MiB is the first capacity whose byte count overflows int64.
        RefusedSpec{"tiered:8796093022208:<p>", "bad tiered capacity"},
        RefusedSpec{"tiered:9000000000000:<p>", "bad tiered capacity"},
        RefusedSpec{"tiered:9223372036854775808f:<p>", "bad tiered capacity"},
        RefusedSpec{"dense", "unknown spec"},
        RefusedSpec{"quantized:8", "unknown spec"},
        RefusedSpec{"sharded:2:lazy", "unknown spec"},
        RefusedSpec{"tiered:64:<p>:dense", "no inner spec"},
        RefusedSpec{"sharded:2:dense", "unknown spec"}),
    [](const auto& info) {
      std::string name = info.param.spec;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace fedadmm
