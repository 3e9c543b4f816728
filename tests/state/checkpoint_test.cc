// Crash-safe checkpoint/restore of the whole simulation: resumed runs
// replay bitwise against uninterrupted references (sync across all three
// stateful algorithms, and the buffered event mode with its in-flight
// queue), finished runs extend to a larger budget in every mode, a
// SIGKILLed child recovers from its last committed group (also under
// stateless codecs), and a torn or corrupt tail falls back to the previous
// group instead of replaying garbage. Also pins the bytes of whole
// checkpoint logs, of the completion events and of the algorithm extras
// inside a checkpoint, refuses retired format tags, and checks that a
// restore into a store of another geometry is refused before it touches
// the store.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/wire.h"
#include "core/fedadmm.h"
#include "fl/algorithms/fedavg.h"
#include "fl/algorithms/fedpd.h"
#include "fl/algorithms/scaffold.h"
#include "fl/digest.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "state/checkpoint.h"
#include "state/slab_log.h"
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
                      const std::string& state_store = "lazy",
                      double target_accuracy = -1.0) {
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
  config.target_accuracy = target_accuracy;
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

// Every compared field must match bitwise.
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

// FedADMM (η = |S_t|/m) on the cellular fleet under wait-for-all in
// `mode`, with the named codecs ("" for none), checkpointing every
// `checkpoint_every` records to (or restoring from) `path`.
struct FleetRun {
  ExecutionMode mode = ExecutionMode::kBuffered;
  std::string uplink;
  std::string downlink;
  int checkpoint_every = 1;
  double target_accuracy = -1.0;
};

RunOutput RunFleetOnce(const FleetRun& run, int max_rounds,
                       const std::string& path, bool restore,
                       const RoundObserver& observer = nullptr) {
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
  std::unique_ptr<UpdateCodec> uplink;
  std::unique_ptr<UpdateCodec> downlink;
  if (!run.uplink.empty()) uplink = MakeUpdateCodec(run.uplink).ValueOrDie();
  if (!run.downlink.empty()) {
    downlink = MakeUpdateCodec(run.downlink).ValueOrDie();
  }
  SimulationConfig config;
  config.max_rounds = max_rounds;
  config.seed = 9;
  config.num_threads = 2;
  config.mode = run.mode;
  config.buffer_size = 3;
  config.state_store = "lazy";
  config.checkpoint_path = path;
  config.checkpoint_every = run.checkpoint_every;
  config.restore_from_checkpoint = restore;
  config.target_accuracy = run.target_accuracy;
  Simulation sim(&problem, &algo, &selector, config);
  sim.set_system_model(&model);
  sim.set_uplink_codec(uplink.get());
  sim.set_downlink_codec(downlink.get());
  if (observer) sim.set_observer(observer);
  RunOutput out;
  out.history = std::move(sim.Run()).ValueOrDie();
  out.theta = sim.theta();
  return out;
}

RunOutput RunBufferedOnce(int max_rounds, const std::string& checkpoint_path,
                          bool restore, double target_accuracy = -1.0) {
  FleetRun run;
  run.target_accuracy = target_accuracy;
  return RunFleetOnce(run, max_rounds, checkpoint_path, restore);
}

TEST(CheckpointTest, BufferedEventModeKillRecoversInFlightQueue) {
  // Event-mode checkpoints land at the loop top — a quiescent mid-run
  // state carrying the event queue, the aggregation buffer, and every
  // dispatch counter. Killing the process and restoring from the last
  // committed group must replay the uninterrupted trajectory bitwise.
  // (Budget extension of a finished event-mode run is EventResumeSweep.)
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

// A finished event-mode run restored with a larger budget continues as the
// longer run would have: the slot its last arrival freed is refilled from
// the restored wave counter and selection stream.
class EventResumeSweep : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(EventResumeSweep, ExtendedRunReplaysLongerRunBitwise) {
  FleetRun run;
  run.mode = GetParam();
  const RunOutput reference = RunFleetOnce(run, kRounds, "", false);
  const std::string path =
      TempPath("ckpt_extend_" + ExecutionModeName(run.mode) + ".slab");
  RemoveFileIfExists(path);
  RunFleetOnce(run, kHalf, path, /*restore=*/false);
  const RunOutput extended = RunFleetOnce(run, kRounds, path, /*restore=*/true);
  ExpectIdenticalTrajectories(reference, extended);
  RemoveFileIfExists(path);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EventResumeSweep,
    ::testing::Values(ExecutionMode::kBuffered, ExecutionMode::kAsync),
    [](const auto& info) { return ExecutionModeName(info.param); });

// Stateless codecs hold nothing a checkpoint lacks, and stochastic ones draw
// from per-(wave, client) forks of the seed's stream: a run killed after a
// committed group restores to the uninterrupted trajectory in every mode.
class CodecKillSweep
    : public ::testing::TestWithParam<
          std::tuple<ExecutionMode, std::pair<const char*, const char*>>> {};

TEST_P(CodecKillSweep, KilledRunRestoresBitwise) {
  FleetRun run;
  run.mode = std::get<0>(GetParam());
  run.uplink = std::get<1>(GetParam()).first;
  run.downlink = std::get<1>(GetParam()).second;
  run.checkpoint_every = 2;
  const RunOutput reference = RunFleetOnce(run, kRounds, "", false);
  const std::string path = TempPath("ckpt_codec_kill.slab");
  RemoveFileIfExists(path);

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: report each record through the pipe and stop at the fifth,
    // when the group holding four records is committed, until SIGKILLed.
    close(fds[0]);
    int records = 0;
    (void)RunFleetOnce(run, kRounds, path, false, [&](const RoundRecord&) {
      const char byte = 'r';
      (void)!write(fds[1], &byte, 1);
      if (++records == 5) pause();
    });
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  char byte = 0;
  int rounds_seen = 0;
  while (rounds_seen < 5 && read(fds[0], &byte, 1) == 1) ++rounds_seen;
  ASSERT_EQ(rounds_seen, 5);
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  close(fds[0]);

  const RunOutput resumed = RunFleetOnce(run, kRounds, path, true);
  ExpectIdenticalTrajectories(reference, resumed);
  RemoveFileIfExists(path);
}

std::string CodecCellName(
    const ::testing::TestParamInfo<CodecKillSweep::ParamType>& info) {
  const auto& [mode, codecs] = info.param;
  return ExecutionModeName(mode) + "_" + codecs.first + "_" + codecs.second;
}

INSTANTIATE_TEST_SUITE_P(
    StatelessCodecs, CodecKillSweep,
    ::testing::Combine(::testing::Values(ExecutionMode::kSync,
                                         ExecutionMode::kBuffered,
                                         ExecutionMode::kAsync),
                       ::testing::Values(std::pair{"q8", "q8"},
                                         std::pair{"sq4", "q4"})),
    CodecCellName);

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

TEST(CheckpointTest, TargetAccuracyRunRestoresAsFinished) {
  // A run stopped by its target checkpoints the final record; restoring it
  // with the same config returns that run instead of dispatching more.
  constexpr int kBudget = 40;
  constexpr double kTarget = 0.5;
  for (const bool buffered : {false, true}) {
    SCOPED_TRACE(buffered ? "buffered" : "sync");
    const std::string path = TempPath("ckpt_target.slab");
    RemoveFileIfExists(path);
    const auto run = [&](bool restore) {
      return buffered ? RunBufferedOnce(kBudget, path, restore, kTarget)
                      : RunSyncOnce("FedADMM", kBudget, path, restore, "lazy",
                                    kTarget);
    };
    const RunOutput finished = run(/*restore=*/false);
    ASSERT_LT(finished.history.size(), kBudget);
    ASSERT_GE(finished.history.records().back().test_accuracy, kTarget);
    const RunOutput restored = run(/*restore=*/true);
    ExpectIdenticalTrajectories(finished, restored);
    RemoveFileIfExists(path);
  }
}

TEST(CheckpointTest, ForeignGeometryIsRefusedBeforeTouchingTheStore) {
  // Clients 0 and 2 of a 3-client store with two 4-float slots, in
  // (client, slot) order: a valid slab always comes before the bad one.
  const std::string path = TempPath("ckpt_geometry.slab");
  RemoveFileIfExists(path);
  const auto make_store = [](int clients, int64_t slot1_dim) {
    auto store = MakeClientStateStore("lazy").ValueOrDie();
    std::vector<StateSlotSpec> slots(2);
    slots[0].dim = 4;
    slots[1].dim = slot1_dim;
    store->Configure(clients, std::move(slots));
    return store;
  };
  auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
  {
    auto source = make_store(3, 4);
    for (const int client : {0, 2}) {
      for (const int slot : {0, 1}) {
        for (float& v : source->MutableView(client, slot)) v = 1.5f;
      }
      source->Release(client);
    }
    ASSERT_TRUE(
        AppendSimulationCheckpoint(log.get(), 1, "engine", source.get()).ok());
  }
  const SimulationCheckpoint checkpoint =
      LoadLatestSimulationCheckpoint(*log).ValueOrDie();
  ASSERT_EQ(checkpoint.slabs.size(), 4u);
  // Client 2 is out of range of a 2-client store; slot 1 holds 4 floats
  // where the store wants 5.
  for (const auto& [clients, slot1_dim] :
       {std::pair{2, int64_t{4}}, std::pair{3, int64_t{5}}}) {
    auto target = make_store(clients, slot1_dim);
    const Status status =
        RestoreStoreContents(*log, checkpoint, target.get());
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_EQ(target->num_touched_clients(), 0) << status.ToString();
  }
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

// Appends a copy of the newest committed group of `path` whose engine blob
// carries mode tag `tag`, so the next restore reads that tag.
void AppendRetaggedGroup(const std::string& path, uint8_t tag) {
  const SimulationCheckpoint latest =
      LoadLatestSimulationCheckpoint(path).ValueOrDie();
  std::string blob = latest.engine_blob;
  ASSERT_FALSE(blob.empty());
  blob[0] = static_cast<char>(tag);
  auto log = SlabLog::Open(path, /*truncate=*/false).ValueOrDie();
  const Status appended =
      AppendSimulationCheckpoint(log.get(), latest.round, blob, nullptr);
  ASSERT_TRUE(appended.ok()) << appended.ToString();
}

TEST(CheckpointTest, OlderFormatTagsAreRejected) {
  // Retired mode tags: sync tag 1 and event tag 3 blobs carry a wall-clock
  // column in every history record, and event tag 2 blobs also a gradient
  // norm in every completion event. Restoring one must fail at the tag,
  // before any record or event is decoded under the current layout.
  const std::string path = TempPath("ckpt_old_tag.slab");
  const auto expect_refused = [](const Status& status) {
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.message().find("checkpoint format"), std::string::npos)
        << status.message();
  };
  {
    SCOPED_TRACE("sync tag 1");
    RemoveFileIfExists(path);
    RunSyncOnce("FedADMM", kHalf, path, /*restore=*/false);
    ASSERT_NO_FATAL_FAILURE(AppendRetaggedGroup(path, 1));
    QuadraticProblem problem(Spec());
    auto algo = MakeAlgo("FedADMM");
    auto selector = MakeSelector("FedADMM");
    SimulationConfig config;
    config.max_rounds = kRounds;
    config.seed = 33;
    config.checkpoint_path = path;
    config.restore_from_checkpoint = true;
    Simulation sim(&problem, algo.get(), selector.get(), config);
    expect_refused(sim.Run().status());
  }
  for (const uint8_t tag : {2, 3}) {
    SCOPED_TRACE("event tag " + std::to_string(tag));
    RemoveFileIfExists(path);
    auto writer = MakeAlgo("FedADMM");
    ASSERT_TRUE(RunBufferedFleet(writer.get(), kClients, path, false).ok());
    ASSERT_NO_FATAL_FAILURE(AppendRetaggedGroup(path, tag));
    auto reader = MakeAlgo("FedADMM");
    expect_refused(RunBufferedFleet(reader.get(), kClients, path, true));
  }
  RemoveFileIfExists(path);
}

// The bytes of the checkpoint log `run` writes at `path`, read back whole.
template <typename Run>
std::string CheckpointLogBytes(const std::string& path, const Run& run) {
  RemoveFileIfExists(path);
  run(path);
  std::string bytes;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char chunk[8192];
    size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      bytes.append(chunk, n);
    }
    std::fclose(f);
  }
  RemoveFileIfExists(path);
  return bytes;
}

TEST(CheckpointTest, LogBytesAreReproducibleAndPinned) {
  // A checkpoint log is a function of the seed and the inputs alone, so
  // one seed writes one file in every mode, and a whole-log digest pins
  // the format (engine tags 4 and 5): a layout change must take new tags
  // and re-pin.
  const auto sync_run = [](const std::string& path) {
    RunSyncOnce("FedADMM", kHalf, path, /*restore=*/false);
  };
  const auto buffered_run = [](const std::string& path) {
    RunBufferedOnce(kHalf, path, /*restore=*/false);
  };
  const std::string path = TempPath("ckpt_log_bytes.slab");
  const std::string sync_log = CheckpointLogBytes(path, sync_run);
  const std::string buffered_log = CheckpointLogBytes(path, buffered_run);
  ASSERT_FALSE(sync_log.empty());
  ASSERT_FALSE(buffered_log.empty());
  EXPECT_TRUE(sync_log == CheckpointLogBytes(path, sync_run));
  EXPECT_TRUE(buffered_log == CheckpointLogBytes(path, buffered_run));
  const auto digest = [](const std::string& bytes) {
    Fnv1a hash;
    hash.Bytes(bytes.data(), bytes.size());
    return Hex(hash.value());
  };
  EXPECT_EQ(digest(sync_log), "0xb650d16cc1a6ad41") << sync_log.size();
  EXPECT_EQ(digest(buffered_log), "0x17736fdf2d985c50") << buffered_log.size();
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

// The algorithm extras ride in every checkpoint, and checkpoints already on
// disk must restore: their bytes after a fixed short run are pinned.
TEST(CheckpointTest, ExtraStateBytesArePinned) {
  const struct {
    const char* algo;
    size_t size;
    const char* digest;
  } kPins[] = {{"FedPD", 6357, "0x65827c56ef06dca5"},
               {"SCAFFOLD", 40, "0x47712e1fbe34774a"}};
  for (const auto& pin : kPins) {
    SCOPED_TRACE(pin.algo);
    QuadraticProblem problem(Spec());
    auto algo = MakeAlgo(pin.algo);
    auto selector = MakeSelector(pin.algo);
    SimulationConfig config;
    config.max_rounds = 3;
    config.seed = 33;
    config.num_threads = 2;
    config.state_store = "lazy";
    Simulation sim(&problem, algo.get(), selector.get(), config);
    ASSERT_TRUE(sim.Run().ok());
    const std::string blob = algo->SerializeExtraState();
    Fnv1a hash;
    hash.Bytes(blob.data(), blob.size());
    EXPECT_EQ(blob.size(), pin.size);
    EXPECT_EQ(Hex(hash.value()), pin.digest);
  }
}

// Every field set to a distinct value (the partial fate, both payloads).
ClientCompletionEvent SampleEvent() {
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
  event.message.wire_bytes = 77;
  return event;
}

TEST(EventSerializationTest, CompletionEventRoundTripsEveryField) {
  const ClientCompletionEvent event = SampleEvent();
  std::vector<uint8_t> bytes;
  wire::Writer writer(&bytes);
  SerializeClientCompletionEvent(event, &writer);
  wire::ReaderView reader(bytes.data(), bytes.size());
  const ClientCompletionEvent decoded =
      DeserializeClientCompletionEvent(&reader).ValueOrDie();
  EXPECT_EQ(reader.remaining(), 0u);

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
  EXPECT_EQ(decoded.message.wire_bytes, event.message.wire_bytes);
}

// Event checkpoints hold these bytes, and checkpoints already on disk must
// restore: a change to them needs a new event-checkpoint tag.
TEST(EventSerializationTest, CompletionEventBytesArePinned) {
  std::vector<uint8_t> bytes;
  wire::Writer writer(&bytes);
  SerializeClientCompletionEvent(SampleEvent(), &writer);
  Fnv1a hash;
  hash.Bytes(bytes.data(), bytes.size());
  EXPECT_EQ(bytes.size(), 137u);
  EXPECT_EQ(Hex(hash.value()), "0xeb6fbf2f73cb31d2");
}

}  // namespace
}  // namespace fedadmm
