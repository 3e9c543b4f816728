// The serving frontend's central claim: a run whose client waves arrive as
// wire sessions over a Transport is bitwise identical — θ, history,
// byte ledgers, simulated time, drops — to the same run executed
// in-process. Covered here for the loopback transport (FedAvg + q8 both
// ways + deadline-drop stragglers over two ingest workers; SCAFFOLD's
// two-payload uploads with and without a codec; FedPD's empty uploads
// between aggregations under a q8 uplink) and for real TCP via
// SocketTransport, plus double-run determinism of the frontend's byte
// ledger and an ingest latency sample for every acknowledged upload.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/codec.h"
#include "fl/algorithms/fedavg.h"
#include "fl/algorithms/fedpd.h"
#include "fl/algorithms/scaffold.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "serve/loadgen.h"
#include "serve/loopback.h"
#include "serve/socket_transport.h"
#include "sys/system_model.h"

namespace fedadmm::serve {
namespace {

constexpr int kClients = 24;
constexpr int kDim = 16;
constexpr int kRounds = 4;
constexpr uint64_t kSeed = 11;
constexpr int kThreads = 3;
constexpr int kShards = 2;

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = kClients;
  spec.dim = kDim;
  spec.heterogeneity = 1.1;
  spec.seed = 77;
  return spec;
}

LocalTrainSpec Local() {
  LocalTrainSpec local;
  local.learning_rate = 0.05f;
  local.batch_size = 4;
  local.max_epochs = 2;
  return local;
}

SystemModel DeadlineModel() {
  FleetModel fleet =
      FleetModel::FromPreset("cellular", kClients, 5).ValueOrDie();
  return SystemModel(std::move(fleet),
                     MakeStragglerPolicy("deadline-drop", 2.0).ValueOrDie());
}

/// What the run is made of: which algorithm, which codecs, which model.
struct RunSpec {
  bool scaffold = false;
  bool fedpd = false;
  std::string uplink_spec;    // empty = raw fp32 uploads
  std::string downlink_spec;  // empty = raw θ broadcast
  bool system_model = false;
  int rounds = kRounds;
  double collect_timeout_seconds = 60.0;
};

struct RunResult {
  std::vector<float> theta;
  History history;
  FrontendLedger ledger;  // zero-initialized for in-process runs
  obs::HistogramStats ingest_latency;  // empty for in-process runs
};

SimulationConfig Config(int rounds = kRounds) {
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = kSeed;
  config.num_threads = kThreads;
  return config;
}

std::unique_ptr<FederatedAlgorithm> MakeAlgo(const RunSpec& setup) {
  if (setup.scaffold) {
    return std::make_unique<Scaffold>(Local());
  }
  if (setup.fedpd) {
    return std::make_unique<FedPd>(Local(), 0.5f, /*comm_probability=*/0.5);
  }
  return std::make_unique<FedAvg>(Local());
}

std::unique_ptr<ClientSelector> MakeSelector(const RunSpec& setup) {
  if (setup.fedpd) return std::make_unique<FullParticipationSelector>(kClients);
  return std::make_unique<UniformFractionSelector>(kClients, 0.5);
}

RunResult RunInProcess(const RunSpec& setup) {
  QuadraticProblem problem(Spec());
  auto algo = MakeAlgo(setup);
  auto selector = MakeSelector(setup);
  Simulation sim(&problem, algo.get(), selector.get(), Config(setup.rounds));
  SystemModel model = DeadlineModel();
  if (setup.system_model) sim.set_system_model(&model);
  std::unique_ptr<UpdateCodec> uplink;
  std::unique_ptr<UpdateCodec> downlink;
  if (!setup.uplink_spec.empty()) {
    uplink = MakeUpdateCodec(setup.uplink_spec).ValueOrDie();
    sim.set_uplink_codec(uplink.get());
  }
  if (!setup.downlink_spec.empty()) {
    downlink = MakeUpdateCodec(setup.downlink_spec).ValueOrDie();
    sim.set_downlink_codec(downlink.get());
  }
  RunResult result;
  result.history = std::move(sim.Run()).ValueOrDie();
  result.theta = sim.theta();
  return result;
}

RunResult RunServed(const RunSpec& setup, Transport* transport) {
  QuadraticProblem problem(Spec());
  auto algo = MakeAlgo(setup);
  auto selector = MakeSelector(setup);
  Simulation sim(&problem, algo.get(), selector.get(), Config(setup.rounds));
  SystemModel model = DeadlineModel();
  if (setup.system_model) sim.set_system_model(&model);

  // Server-side codecs (attached to the Simulation) and their client-side
  // twins (the load generator encodes/decodes with separate instances, as
  // a real remote client would).
  std::unique_ptr<UpdateCodec> uplink;
  std::unique_ptr<UpdateCodec> uplink_twin;
  std::unique_ptr<UpdateCodec> downlink;
  std::unique_ptr<UpdateCodec> downlink_twin;
  if (!setup.uplink_spec.empty()) {
    uplink = MakeUpdateCodec(setup.uplink_spec).ValueOrDie();
    uplink_twin = MakeUpdateCodec(setup.uplink_spec).ValueOrDie();
    sim.set_uplink_codec(uplink.get());
  }
  if (!setup.downlink_spec.empty()) {
    downlink = MakeUpdateCodec(setup.downlink_spec).ValueOrDie();
    downlink_twin = MakeUpdateCodec(setup.downlink_spec).ValueOrDie();
    sim.set_downlink_codec(downlink.get());
  }

  FrontendOptions options;
  options.num_shards = kShards;
  options.collect_timeout_seconds = setup.collect_timeout_seconds;
  options.uplink_codec = uplink.get();
  if (setup.system_model) options.system_model = &model;
  Frontend frontend(options);
  sim.set_ingest(&frontend);

  EXPECT_TRUE(transport->Start(&frontend).ok());

  LoadGenOptions lg;
  lg.driver_threads = 4;
  lg.uplink_codec = uplink_twin.get();
  lg.downlink_codec = downlink_twin.get();
  lg.poll_timeout_seconds = 60.0;
  LoadGenerator loadgen(&problem, algo.get(), kSeed, kThreads, /*num_shards=*/1,
                        &frontend, transport, lg);
  Status loadgen_status = Status::OK();
  std::thread driver([&] { loadgen_status = loadgen.Run(); });

  RunResult result;
  auto history = sim.Run();
  frontend.FinishServing();
  driver.join();
  EXPECT_TRUE(loadgen_status.ok()) << loadgen_status.message();
  EXPECT_TRUE(history.ok()) << history.status().message();
  if (history.ok()) result.history = std::move(*history);
  result.theta = sim.theta();
  result.ledger = frontend.ledger();
  result.ingest_latency = frontend.ingest_latency();
  transport->Stop();
  return result;
}

bool SameMetric(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

void ExpectIdenticalRuns(const RunResult& served, const RunResult& local) {
  // Bitwise θ — the acceptance bar for the serving frontend.
  EXPECT_EQ(served.theta, local.theta);
  ASSERT_EQ(served.history.size(), local.history.size());
  for (int i = 0; i < local.history.size(); ++i) {
    const RoundRecord& rs = served.history.records()[static_cast<size_t>(i)];
    const RoundRecord& rl = local.history.records()[static_cast<size_t>(i)];
    EXPECT_EQ(rs.num_selected, rl.num_selected) << i;
    EXPECT_TRUE(SameMetric(rs.train_loss, rl.train_loss)) << i;
    EXPECT_TRUE(SameMetric(rs.test_accuracy, rl.test_accuracy)) << i;
    EXPECT_EQ(rs.upload_bytes, rl.upload_bytes) << i;
    EXPECT_EQ(rs.download_bytes, rl.download_bytes) << i;
    EXPECT_EQ(rs.upload_bytes_raw, rl.upload_bytes_raw) << i;
    EXPECT_EQ(rs.download_bytes_raw, rl.download_bytes_raw) << i;
    EXPECT_EQ(rs.sim_seconds, rl.sim_seconds) << i;
    EXPECT_EQ(rs.num_dropped, rl.num_dropped) << i;
  }
}

TEST(FrontendEquivalenceTest, LoopbackFedAvgQuantizedWithStragglers) {
  // The full stack: q8 uplink + q8 downlink, deadline-drop admission
  // mirrored into ACKs, two ingest workers.
  const RunSpec setup{
      .uplink_spec = "q8", .downlink_spec = "q8", .system_model = true};
  const RunResult local = RunInProcess(setup);
  LoopbackTransport transport;
  const RunResult served = RunServed(setup, &transport);
  ExpectIdenticalRuns(served, local);
  // Rejected clients got their mirrored verdicts; every upload decoded.
  EXPECT_GT(served.ledger.acks_accepted, 0);
  EXPECT_EQ(served.ledger.decode_errors, 0);
  EXPECT_EQ(served.ledger.malformed_frames, 0);
  // Sessions are created lazily, so only ever-selected clients HELLO.
  EXPECT_GT(served.ledger.hello_count, 0);
  EXPECT_LE(served.ledger.hello_count, kClients);
  // Every acknowledged upload left one ingest latency sample.
  EXPECT_EQ(served.ingest_latency.count, served.ledger.acks_accepted +
                                             served.ledger.acks_partial +
                                             served.ledger.acks_rejected);
  EXPECT_GE(served.ingest_latency.min, 0.0);
}

TEST(FrontendEquivalenceTest, LoopbackScaffoldTwoPayloadsRaw) {
  // SCAFFOLD uploads (Δw, Δc): the two-payload UPDATE path, raw fp32.
  RunSpec setup;
  setup.scaffold = true;
  const RunResult local = RunInProcess(setup);
  LoopbackTransport transport;
  const RunResult served = RunServed(setup, &transport);
  ExpectIdenticalRuns(served, local);
}

TEST(FrontendEquivalenceTest, LoopbackScaffoldTwoPayloadsIdentityCodec) {
  // Identity codec over both SCAFFOLD payloads: exercises the codec
  // encode/TryDecode path for dim2 != 0 with exact byte billing.
  RunSpec setup;
  setup.scaffold = true;
  setup.uplink_spec = "identity";
  const RunResult local = RunInProcess(setup);
  LoopbackTransport transport;
  const RunResult served = RunServed(setup, &transport);
  ExpectIdenticalRuns(served, local);
}

TEST(FrontendEquivalenceTest, LoopbackFedPdEmptyUploadsQuantized) {
  // FedPD uploads nothing between aggregations: an empty delta travels as
  // an empty payload (dim 0), billed 0 bytes as in process. A short
  // collect timeout makes a refused empty upload fail in seconds.
  RunSpec setup;
  setup.fedpd = true;
  setup.uplink_spec = "q8";
  setup.rounds = 8;
  setup.collect_timeout_seconds = 5.0;
  const RunResult local = RunInProcess(setup);
  int silent_rounds = 0;
  for (const RoundRecord& r : local.history.records()) {
    if (r.upload_bytes == 0) ++silent_rounds;
  }
  ASSERT_GT(silent_rounds, 0) << "no non-communication round to serve";
  ASSERT_LT(silent_rounds, setup.rounds) << "no aggregation round to serve";
  LoopbackTransport transport;
  const RunResult served = RunServed(setup, &transport);
  ExpectIdenticalRuns(served, local);
  EXPECT_EQ(served.ledger.decode_errors, 0);
  EXPECT_EQ(served.ledger.malformed_frames, 0);
}

TEST(FrontendEquivalenceTest, SocketTransportMatchesBitwise) {
  // The same trace over real TCP: the transport must be a pure byte pipe.
  RunSpec setup;
  setup.uplink_spec = "q8";
  setup.system_model = true;
  const RunResult local = RunInProcess(setup);
  SocketTransport transport;
  const RunResult served = RunServed(setup, &transport);
  ExpectIdenticalRuns(served, local);
}

TEST(FrontendEquivalenceTest, DoubleRunLedgerAndThetaAreDeterministic) {
  RunSpec setup;
  setup.uplink_spec = "q8";
  setup.downlink_spec = "q8";
  setup.system_model = true;
  LoopbackTransport t1;
  const RunResult a = RunServed(setup, &t1);
  LoopbackTransport t2;
  const RunResult b = RunServed(setup, &t2);
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.ledger.hello_count, b.ledger.hello_count);
  EXPECT_EQ(a.ledger.model_frames, b.ledger.model_frames);
  EXPECT_EQ(a.ledger.model_payload_bytes, b.ledger.model_payload_bytes);
  EXPECT_EQ(a.ledger.acks_accepted, b.ledger.acks_accepted);
  EXPECT_EQ(a.ledger.acks_partial, b.ledger.acks_partial);
  EXPECT_EQ(a.ledger.acks_rejected, b.ledger.acks_rejected);
  EXPECT_EQ(a.ledger.ingested_payload_bytes, b.ledger.ingested_payload_bytes);
  EXPECT_EQ(a.ledger.malformed_frames, 0);
  EXPECT_EQ(b.ledger.malformed_frames, 0);
  EXPECT_EQ(a.ledger.protocol_errors, 0);
  EXPECT_EQ(a.ledger.decode_errors, 0);
}

TEST(FrontendEquivalenceTest, ServeModeConfigIsValidated) {
  QuadraticProblem problem(Spec());
  FedAvg algo(Local());
  UniformFractionSelector selector(kClients, 0.5);

  // Stochastic uplink codec: sessions cannot reproduce the server's Rng.
  {
    Simulation sim(&problem, &algo, &selector, Config());
    auto sq = MakeUpdateCodec("sq4").ValueOrDie();
    sim.set_uplink_codec(sq.get());
    FrontendOptions options;
    Frontend frontend(options);
    sim.set_ingest(&frontend);
    const auto result = sim.Run();
    ASSERT_FALSE(result.ok());
  }
  // Serve mode is sync-only.
  {
    SimulationConfig config = Config();
    config.mode = ExecutionMode::kAsync;
    Simulation sim(&problem, &algo, &selector, config);
    SystemModel model = DeadlineModel();
    sim.set_system_model(&model);
    FrontendOptions options;
    Frontend frontend(options);
    sim.set_ingest(&frontend);
    const auto result = sim.Run();
    ASSERT_FALSE(result.ok());
  }
  // Incompatible with checkpointing.
  {
    SimulationConfig config = Config();
    config.checkpoint_path = "/tmp/fedadmm_serve_ckpt_should_not_exist";
    Simulation sim(&problem, &algo, &selector, config);
    FrontendOptions options;
    Frontend frontend(options);
    sim.set_ingest(&frontend);
    const auto result = sim.Run();
    ASSERT_FALSE(result.ok());
  }
}

}  // namespace
}  // namespace fedadmm::serve
