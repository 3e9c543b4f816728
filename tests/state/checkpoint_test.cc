// Crash-safe checkpoint/restore of the whole simulation: resumed runs
// replay bitwise against uninterrupted references (sync across all three
// stateful algorithms, and the buffered event mode with its in-flight
// queue), a SIGKILLed child recovers from its last committed group, and a
// torn or corrupt tail falls back to the previous group instead of
// replaying garbage.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fedadmm.h"
#include "fl/algorithms/fedavg.h"
#include "fl/algorithms/fedpd.h"
#include "fl/algorithms/scaffold.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "sys/event_queue.h"
#include "sys/system_model.h"
#include "util/file_io.h"

namespace fedadmm {
namespace {

constexpr int kClients = 10;
constexpr int kDim = 8;
constexpr int kRounds = 12;
constexpr int kHalf = 6;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = kClients;
  spec.dim = kDim;
  spec.heterogeneity = 1.2;
  spec.seed = 17;
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
  if (name == "FedAvg") return std::make_unique<FedAvg>(local);
  return std::make_unique<Scaffold>(local);
}

std::unique_ptr<ClientSelector> MakeSelector(const std::string& algo) {
  if (algo == "FedPD") {
    return std::make_unique<FullParticipationSelector>(kClients);
  }
  return std::make_unique<UniformFractionSelector>(kClients, 0.5);
}

struct RunOutput {
  std::vector<float> theta;
  History history;
};

// One sync run: fresh problem + algorithm each time (the crash-recovery
// semantic — nothing survives in process memory).
RunOutput RunSyncOnce(const std::string& algo_name, int max_rounds,
                      const std::string& checkpoint_path, bool restore,
                      const std::string& state_store = "lazy") {
  QuadraticProblem problem(Spec());
  auto algo = MakeAlgo(algo_name);
  auto selector = MakeSelector(algo_name);
  SimulationConfig config;
  config.max_rounds = max_rounds;
  config.seed = 33;
  config.num_threads = 2;
  config.state_store = state_store;
  config.checkpoint_path = checkpoint_path;
  config.restore_from_checkpoint = restore;
  Simulation sim(&problem, algo.get(), selector.get(), config);
  RunOutput out;
  out.history = std::move(sim.Run()).ValueOrDie();
  out.theta = sim.theta();
  return out;
}

// NaN-aware equality for skipped-eval sentinels.
bool SameMetric(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

// Wall-clock fields aside, every deterministic field must match bitwise.
void ExpectIdenticalTrajectories(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.theta, b.theta);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (int i = 0; i < a.history.size(); ++i) {
    const RoundRecord& ra = a.history.records()[static_cast<size_t>(i)];
    const RoundRecord& rb = b.history.records()[static_cast<size_t>(i)];
    EXPECT_EQ(ra.round, rb.round) << i;
    EXPECT_EQ(ra.num_selected, rb.num_selected) << i;
    EXPECT_TRUE(SameMetric(ra.train_loss, rb.train_loss)) << i;
    EXPECT_TRUE(SameMetric(ra.test_accuracy, rb.test_accuracy)) << i;
    EXPECT_EQ(ra.upload_bytes, rb.upload_bytes) << i;
    EXPECT_EQ(ra.download_bytes, rb.download_bytes) << i;
    EXPECT_EQ(ra.sim_seconds, rb.sim_seconds) << i;
    EXPECT_EQ(ra.num_dropped, rb.num_dropped) << i;
    EXPECT_EQ(ra.state_bytes_resident, rb.state_bytes_resident) << i;
  }
}

class SyncResumeSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(SyncResumeSweep, RestartedRunReplaysUninterruptedBitwise) {
  const std::string algo = GetParam();
  const RunOutput reference =
      RunSyncOnce(algo, kRounds, /*checkpoint_path=*/"", /*restore=*/false);

  const std::string path = TempPath("ckpt_sync_" + algo + ".slab");
  RemoveFileIfExists(path);
  // Phase 1: run half the rounds with checkpointing, then "lose" the
  // process (everything in memory is discarded with these locals).
  RunSyncOnce(algo, kHalf, path, /*restore=*/false);
  // Phase 2: a cold process restores and finishes the budget.
  const RunOutput resumed = RunSyncOnce(algo, kRounds, path, /*restore=*/true);
  ExpectIdenticalTrajectories(reference, resumed);
  RemoveFileIfExists(path);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SyncResumeSweep,
                         ::testing::Values("FedADMM", "FedPD", "SCAFFOLD"));

TEST(CheckpointTest, ResumeWorksOverTieredStore) {
  // The checkpoint's store slabs round-trip through the out-of-core
  // backend too: restore repopulates via MutableView, evictions and all.
  const std::string store =
      "tiered:3f:" + TempPath("ckpt_tiered_store.slab");
  const RunOutput reference =
      RunSyncOnce("FedADMM", kRounds, "", false, store);
  const std::string path = TempPath("ckpt_over_tiered.slab");
  RemoveFileIfExists(path);
  RunSyncOnce("FedADMM", kHalf, path, false, store);
  const RunOutput resumed = RunSyncOnce("FedADMM", kRounds, path, true, store);
  ExpectIdenticalTrajectories(reference, resumed);
  RemoveFileIfExists(path);
}

TEST(CheckpointTest, KillMidRoundRecoversToIdenticalTrajectory) {
  const std::string path = TempPath("ckpt_kill.slab");
  RemoveFileIfExists(path);
  const RunOutput reference = RunSyncOnce("FedADMM", kRounds, "", false);

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: checkpoint every round, signal each finished round through
    // the pipe, and run until SIGKILLed.
    close(fds[0]);
    QuadraticProblem problem(Spec());
    auto algo = MakeAlgo("FedADMM");
    auto selector = MakeSelector("FedADMM");
    SimulationConfig config;
    config.max_rounds = kRounds;
    config.seed = 33;
    config.num_threads = 1;
    config.state_store = "lazy";
    config.checkpoint_path = path;
    Simulation sim(&problem, algo.get(), selector.get(), config);
    sim.set_observer([&](const RoundRecord&) {
      const char byte = 'r';
      (void)!write(fds[1], &byte, 1);
    });
    (void)sim.Run();
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  // Parent: let the child commit a few rounds, then kill it mid-flight.
  char byte = 0;
  int rounds_seen = 0;
  while (rounds_seen < 4 && read(fds[0], &byte, 1) == 1) ++rounds_seen;
  ASSERT_GE(rounds_seen, 1);
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  close(fds[0]);

  // Recovery: a fresh process replays from the last committed group. If
  // the kill tore a half-written group, the log's CRC framing drops it.
  const RunOutput resumed = RunSyncOnce("FedADMM", kRounds, path, true);
  ExpectIdenticalTrajectories(reference, resumed);
  RemoveFileIfExists(path);
}

TEST(CheckpointTest, TornTailFallsBackToPreviousCommittedGroup) {
  const std::string path = TempPath("ckpt_torn.slab");
  RemoveFileIfExists(path);
  const RunOutput reference = RunSyncOnce("SCAFFOLD", kRounds, "", false);
  RunSyncOnce("SCAFFOLD", kHalf, path, false);

  // Chop into the final group's commit record: that group is now
  // uncommitted, so recovery must fall back one round and re-run it.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    ASSERT_GT(size, 8);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size - 7), 0);
  }
  const RunOutput resumed = RunSyncOnce("SCAFFOLD", kRounds, path, true);
  ExpectIdenticalTrajectories(reference, resumed);
  RemoveFileIfExists(path);
}

TEST(CheckpointTest, CorruptCommitCrcFallsBackToPreviousGroup) {
  const std::string path = TempPath("ckpt_crc.slab");
  RemoveFileIfExists(path);
  const RunOutput reference = RunSyncOnce("FedADMM", kRounds, "", false);
  RunSyncOnce("FedADMM", kHalf, path, false);

  // Flip one byte inside the trailing commit record's header.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -20, SEEK_END), 0);
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, -20, SEEK_END), 0);
    std::fputc(c ^ 0x5A, f);
    std::fclose(f);
  }
  const RunOutput resumed = RunSyncOnce("FedADMM", kRounds, path, true);
  ExpectIdenticalTrajectories(reference, resumed);
  RemoveFileIfExists(path);
}

TEST(CheckpointTest, MissingFileStartsFresh) {
  const std::string path = TempPath("ckpt_missing.slab");
  RemoveFileIfExists(path);
  const RunOutput reference = RunSyncOnce("FedADMM", kRounds, "", false);
  // restore_from_checkpoint against a file that never existed: round 0 —
  // the crash-before-first-checkpoint semantic, not an error.
  const RunOutput fresh = RunSyncOnce("FedADMM", kRounds, path, true);
  ExpectIdenticalTrajectories(reference, fresh);
  RemoveFileIfExists(path);
}

TEST(CheckpointTest, CadenceStillCheckpointsFinalRound) {
  const std::string path = TempPath("ckpt_cadence.slab");
  RemoveFileIfExists(path);
  const RunOutput reference = RunSyncOnce("FedADMM", kRounds, "", false);
  {
    QuadraticProblem problem(Spec());
    auto algo = MakeAlgo("FedADMM");
    auto selector = MakeSelector("FedADMM");
    SimulationConfig config;
    config.max_rounds = kHalf;
    config.seed = 33;
    config.num_threads = 2;
    config.state_store = "lazy";
    config.checkpoint_path = path;
    config.checkpoint_every = 4;  // kHalf = 6 is NOT a multiple.
    Simulation sim(&problem, algo.get(), selector.get(), config);
    ASSERT_TRUE(sim.Run().ok());
  }
  // The final record must have been checkpointed despite the cadence, so
  // the resumed run starts at round kHalf, not round 4.
  const RunOutput resumed = RunSyncOnce("FedADMM", kRounds, path, true);
  ExpectIdenticalTrajectories(reference, resumed);
  RemoveFileIfExists(path);
}

RunOutput RunBufferedOnce(int max_rounds, const std::string& checkpoint_path,
                          bool restore) {
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.local.learning_rate = 0.05f;
  options.local.batch_size = 4;
  options.local.max_epochs = 2;
  options.rho = StepSchedule(0.1);
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  UniformFractionSelector selector(kClients, 0.5);
  FleetModel fleet =
      FleetModel::FromPreset("cellular", kClients, 3).ValueOrDie();
  SystemModel model(std::move(fleet),
                    MakeStragglerPolicy("wait-for-all", -1.0).ValueOrDie());
  SimulationConfig config;
  config.max_rounds = max_rounds;
  config.seed = 9;
  config.num_threads = 2;
  config.mode = ExecutionMode::kBuffered;
  config.buffer_size = 3;
  config.state_store = "lazy";
  config.checkpoint_path = checkpoint_path;
  config.restore_from_checkpoint = restore;
  Simulation sim(&problem, &algo, &selector, config);
  sim.set_system_model(&model);
  RunOutput out;
  out.history = std::move(sim.Run()).ValueOrDie();
  out.theta = sim.theta();
  return out;
}

TEST(CheckpointTest, BufferedEventModeKillRecoversInFlightQueue) {
  // Event-mode checkpoints land at the loop top — a quiescent mid-run
  // state carrying the event queue, the aggregation buffer, and every
  // dispatch counter. Killing the process and restoring from the last
  // committed group must replay the uninterrupted trajectory bitwise.
  // (Note this is crash recovery, not budget extension: a run that
  // *finished* its max_rounds stopped refilling slots, so extending it is
  // a different trajectory by design.)
  const std::string path = TempPath("ckpt_event_kill.slab");
  RemoveFileIfExists(path);
  const RunOutput reference = RunBufferedOnce(kRounds, "", false);

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(fds[0]);
    QuadraticProblem problem(Spec());
    FedAdmmOptions options;
    options.local.learning_rate = 0.05f;
    options.local.batch_size = 4;
    options.local.max_epochs = 2;
    options.rho = StepSchedule(0.1);
    options.eta_active_fraction = true;
    FedAdmm algo(options);
    UniformFractionSelector selector(kClients, 0.5);
    FleetModel fleet =
        FleetModel::FromPreset("cellular", kClients, 3).ValueOrDie();
    SystemModel model(std::move(fleet),
                      MakeStragglerPolicy("wait-for-all", -1.0).ValueOrDie());
    SimulationConfig config;
    config.max_rounds = kRounds;
    config.seed = 9;
    config.num_threads = 1;
    config.mode = ExecutionMode::kBuffered;
    config.buffer_size = 3;
    config.state_store = "lazy";
    config.checkpoint_path = path;
    Simulation sim(&problem, &algo, &selector, config);
    sim.set_system_model(&model);
    sim.set_observer([&](const RoundRecord&) {
      const char byte = 'r';
      (void)!write(fds[1], &byte, 1);
    });
    (void)sim.Run();
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  char byte = 0;
  int rounds_seen = 0;
  while (rounds_seen < 4 && read(fds[0], &byte, 1) == 1) ++rounds_seen;
  ASSERT_GE(rounds_seen, 1);
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  close(fds[0]);

  const RunOutput resumed = RunBufferedOnce(kRounds, path, true);
  ExpectIdenticalTrajectories(reference, resumed);
  RemoveFileIfExists(path);
}

TEST(CheckpointTest, FinishedEventRunRestoresAsFinished) {
  const std::string path = TempPath("ckpt_event_done.slab");
  RemoveFileIfExists(path);
  const RunOutput finished = RunBufferedOnce(kRounds, path, false);
  // The final record was checkpointed; restoring with the same budget
  // replays zero events and returns the identical finished run.
  const RunOutput restored = RunBufferedOnce(kRounds, path, true);
  ExpectIdenticalTrajectories(finished, restored);
  RemoveFileIfExists(path);
}

TEST(CheckpointTest, ModeMismatchIsRejected) {
  const std::string path = TempPath("ckpt_mode.slab");
  RemoveFileIfExists(path);
  RunSyncOnce("FedADMM", kHalf, path, false);  // Sync-mode groups.
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  UniformFractionSelector selector(kClients, 0.5);
  FleetModel fleet =
      FleetModel::FromPreset("cellular", kClients, 3).ValueOrDie();
  SystemModel model(std::move(fleet),
                    MakeStragglerPolicy("wait-for-all", -1.0).ValueOrDie());
  SimulationConfig config;
  config.max_rounds = kRounds;
  config.seed = 33;
  config.mode = ExecutionMode::kBuffered;
  config.checkpoint_path = path;
  config.restore_from_checkpoint = true;
  Simulation sim(&problem, &algo, &selector, config);
  sim.set_system_model(&model);
  const auto result = sim.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("execution mode"),
            std::string::npos);
  RemoveFileIfExists(path);
}

// A kHalf-record buffered run over a `clients`-client fleet, checkpointing
// to (or restoring from) `path`.
Status RunBufferedFleet(FederatedAlgorithm* algo, int clients,
                        const std::string& path, bool restore) {
  QuadraticSpec spec = Spec();
  spec.num_clients = clients;
  QuadraticProblem problem(spec);
  UniformFractionSelector selector(clients, 0.5);
  FleetModel fleet =
      FleetModel::FromPreset("cellular", clients, 3).ValueOrDie();
  SystemModel model(std::move(fleet),
                    MakeStragglerPolicy("wait-for-all", -1.0).ValueOrDie());
  SimulationConfig config;
  config.max_rounds = kHalf;
  config.seed = 9;
  config.mode = ExecutionMode::kBuffered;
  config.buffer_size = 3;
  config.checkpoint_path = path;
  config.restore_from_checkpoint = restore;
  Simulation sim(&problem, algo, &selector, config);
  sim.set_system_model(&model);
  return sim.Run().status();
}

TEST(CheckpointTest, CheckpointFromLargerFleetIsRejected) {
  // The restored events' client ids index the run's per-client tables, so
  // a checkpoint written by a fleet twice this size must be refused before
  // any id is used. FedAvg has no client store to refuse the slabs later.
  for (const std::string name : {"FedAvg", "FedADMM"}) {
    SCOPED_TRACE(name);
    const std::string path = TempPath("ckpt_fleet_" + name + ".slab");
    RemoveFileIfExists(path);
    auto writer = MakeAlgo(name);
    ASSERT_TRUE(RunBufferedFleet(writer.get(), 2 * kClients, path, false).ok());
    auto reader = MakeAlgo(name);
    const Status status = RunBufferedFleet(reader.get(), kClients, path, true);
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.message().find(path), std::string::npos);
    const std::string fleet_size =
        "this run has " + std::to_string(kClients) + " clients";
    EXPECT_NE(status.message().find(fleet_size), std::string::npos)
        << status.message();
    RemoveFileIfExists(path);
  }
}

TEST(CheckpointTest, CodecRunsRejectCheckpointing) {
  // Error-feedback residuals are not serialized: checkpoint + codec must
  // fail fast, not silently produce a non-replayable file.
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  UniformFractionSelector selector(kClients, 0.5);
  auto codec = MakeUpdateCodec("ef:topk10").ValueOrDie();
  SimulationConfig config;
  config.max_rounds = 2;
  config.checkpoint_path = TempPath("ckpt_codec.slab");
  Simulation sim(&problem, &algo, &selector, config);
  sim.set_uplink_codec(codec.get());
  const auto result = sim.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("codec"), std::string::npos);
}

TEST(CheckpointTest, BadCadenceIsRejected) {
  QuadraticProblem problem(Spec());
  FedAdmmOptions options;
  options.eta_active_fraction = true;
  FedAdmm algo(options);
  UniformFractionSelector selector(kClients, 0.5);
  SimulationConfig config;
  config.max_rounds = 2;
  config.checkpoint_path = TempPath("ckpt_bad_cadence.slab");
  config.checkpoint_every = 0;
  Simulation sim(&problem, &algo, &selector, config);
  EXPECT_FALSE(sim.Run().ok());
}

TEST(EventSerializationTest, CompletionEventRoundTripsEveryField) {
  ClientCompletionEvent event;
  event.time = 12.75;
  event.sequence = 991;
  event.client_id = 4;
  event.wave = 3;
  event.theta_version = 17;
  event.timing.download_seconds = 0.5;
  event.timing.compute_seconds = 2.25;
  event.timing.upload_seconds = 0.125;
  event.decision.fate = ClientFate::kAdmittedPartial;
  event.decision.work_fraction = 0.75;
  event.decision.finish_seconds = 3.5;
  event.decision.download_fraction = 1.0;
  event.message.client_id = 4;
  event.message.delta = {1.0f, -2.5f, 0.125f};
  event.message.delta2 = {0.5f};
  event.message.train_loss = 0.625;
  event.message.epochs_run = 2;
  event.message.steps_run = 9;
  event.message.final_grad_norm_sq = 0.03125;
  event.message.wire_bytes = 77;

  ByteWriter writer;
  SerializeClientCompletionEvent(event, &writer);
  ByteReader reader(writer.str());
  const ClientCompletionEvent decoded =
      DeserializeClientCompletionEvent(&reader).ValueOrDie();
  EXPECT_TRUE(reader.empty());

  EXPECT_EQ(decoded.time, event.time);
  EXPECT_EQ(decoded.sequence, event.sequence);
  EXPECT_EQ(decoded.client_id, event.client_id);
  EXPECT_EQ(decoded.wave, event.wave);
  EXPECT_EQ(decoded.theta_version, event.theta_version);
  EXPECT_EQ(decoded.timing.download_seconds, event.timing.download_seconds);
  EXPECT_EQ(decoded.timing.compute_seconds, event.timing.compute_seconds);
  EXPECT_EQ(decoded.timing.upload_seconds, event.timing.upload_seconds);
  EXPECT_EQ(decoded.decision.fate, event.decision.fate);
  EXPECT_EQ(decoded.decision.work_fraction, event.decision.work_fraction);
  EXPECT_EQ(decoded.decision.finish_seconds, event.decision.finish_seconds);
  EXPECT_EQ(decoded.decision.download_fraction,
            event.decision.download_fraction);
  EXPECT_EQ(decoded.message.client_id, event.message.client_id);
  EXPECT_EQ(decoded.message.delta, event.message.delta);
  EXPECT_EQ(decoded.message.delta2, event.message.delta2);
  EXPECT_EQ(decoded.message.train_loss, event.message.train_loss);
  EXPECT_EQ(decoded.message.epochs_run, event.message.epochs_run);
  EXPECT_EQ(decoded.message.steps_run, event.message.steps_run);
  EXPECT_EQ(decoded.message.final_grad_norm_sq,
            event.message.final_grad_norm_sq);
  EXPECT_EQ(decoded.message.wire_bytes, event.message.wire_bytes);
}

}  // namespace
}  // namespace fedadmm
