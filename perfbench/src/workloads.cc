#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>
#include <utility>

#include "comm/codec.h"
#include "core/fedadmm.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "decorators.h"
#include "fl/nn_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "mean_field_problem.h"
#include "nn/losses.h"
#include "nn/model_zoo.h"
#include "serve/frontend.h"
#include "serve/loadgen.h"
#include "serve/loopback.h"
#include "state/checkpoint.h"
#include "state/tiered_store.h"
#include "sys/system_model.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using fedadmm::FedAdmm;
using fedadmm::FedAdmmOptions;
using fedadmm::RoundRecord;
using fedadmm::Simulation;
using fedadmm::SimulationConfig;

// Sub-seed tags: every input the workload seed drives gets its own stream.
constexpr uint64_t kDataTag = 0xDA7A;
constexpr uint64_t kPartitionTag = 0x9A27;
constexpr uint64_t kFleetTag = 0xF1EE7;
constexpr uint64_t kTargetsTag = 0x7A46;
constexpr uint64_t kEngineTag = 0xE461;
constexpr uint64_t kInitTag = 0x1417;

uint64_t Derive(uint64_t seed, uint64_t tag) {
  return fedadmm::SplitMix64(seed ^ fedadmm::SplitMix64(tag));
}

double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Times `fn` in seconds.
double Timed(const std::function<void()>& fn) {
  const int64_t start = NowNs();
  fn();
  return SecondsBetween(start, NowNs());
}

Check MakeCheck(std::string name, bool ok, std::string detail) {
  Check check;
  check.name = std::move(name);
  check.ok = ok;
  check.detail = std::move(detail);
  return check;
}

/// What every episode collects through the engine's observer.
struct RoundLog {
  std::vector<int64_t> boundaries_ns;
  std::vector<RoundRecord> records;

  void Attach(Simulation* sim) {
    sim->set_observer([this](const RoundRecord& record) {
      const int64_t now = NowNs();
      SpanLog::Get().EndRound(now);
      boundaries_ns.push_back(now);
      records.push_back(record);
    });
  }
};

/// Shared tail of every episode: round walls, decided/failed counts,
/// θ hash and the checks every workload runs.
void FinishEpisode(const RoundLog& log, int64_t first_select_ns,
                   int64_t run_end_ns, const std::vector<float>& theta,
                   bool run_ok, const std::string& run_error,
                   int expected_rounds, Episode* ep) {
  ep->checks.push_back(MakeCheck("run_completed", run_ok, run_error));
  int64_t prev = first_select_ns;
  for (const int64_t t : log.boundaries_ns) {
    ep->round_walls.push_back(SecondsBetween(prev, t));
    prev = t;
  }
  ep->timed_seconds = SecondsBetween(first_select_ns, run_end_ns);
  int64_t admitted = 0;
  int64_t dropped = 0;
  int64_t partial = 0;
  for (const RoundRecord& r : log.records) {
    admitted += r.num_selected;
    dropped += r.num_dropped;
    partial += r.num_admitted_partial;
  }
  // In sync mode num_selected counts the cohort (drops included); in event
  // modes it counts the aggregated buffer and drops come on top.
  ep->counters["rounds"] = static_cast<double>(log.records.size());
  ep->counters["dropped"] = static_cast<double>(dropped);
  ep->counters["partial"] = static_cast<double>(partial);
  ep->counters["sim_s"] =
      log.records.empty() ? 0.0 : log.records.back().sim_seconds;
  ep->failed = dropped;
  ep->decided = admitted;
  ep->theta_hash = HashTheta(theta);
  const bool theta_finite = std::all_of(
      theta.begin(), theta.end(), [](float v) { return std::isfinite(v); });
  ep->test_loss = log.records.empty() ? std::nan("")
                                      : log.records.back().test_loss;
  ep->checks.push_back(MakeCheck(
      "theta_finite", theta_finite && !theta.empty(),
      std::to_string(theta.size()) + " coordinates"));
  ep->checks.push_back(MakeCheck("test_loss_finite",
                                 std::isfinite(ep->test_loss),
                                 std::to_string(ep->test_loss)));
  ep->checks.push_back(MakeCheck(
      "rounds_completed",
      static_cast<int>(log.records.size()) == expected_rounds,
      std::to_string(log.records.size()) + " of " +
          std::to_string(expected_rounds)));
}

/// Mirrors the engine's pre-round work for set-up-only repetitions: the
/// executor pool, θ⁰ and the algorithm's Setup. The pool's teardown is not
/// timed, as in an episode.
double EngineSetup(fedadmm::FederatedProblem* problem, FedAdmm* algo,
                   const std::string& store_spec, int threads,
                   uint64_t init_seed) {
  std::unique_ptr<fedadmm::ThreadPool> pool;
  const double seconds = Timed([&] {
    pool = std::make_unique<fedadmm::ThreadPool>(threads);
    fedadmm::Rng rng(init_seed);
    const std::vector<float> theta0 = problem->InitialParameters(&rng);
    fedadmm::AlgorithmContext ctx;
    ctx.num_clients = problem->num_clients();
    ctx.dim = problem->dim();
    ctx.state_store = store_spec;
    ctx.reduce_pool = pool.get();
    algo->Setup(ctx, theta0);
  });
  algo->DetachReducePool();
  return seconds;
}

// ---------------------------------------------------------------------------
// cnn1-sync: paper CNN 1, 100 clients x 2 label shards, 10% participation.
// ---------------------------------------------------------------------------

class Cnn1Sync : public Workload {
 public:
  static constexpr int kClients = 100;
  static constexpr int kThreads = 2;
  /// Reference-host seconds per round, used to size a run.
  static constexpr double kNominalRoundSeconds = 5.0;
  /// Short episodes on fresh sub-seeds: a run's medians then pool several
  /// seeds' data, partitions and epoch draws instead of one trajectory.
  static constexpr int kRoundsPerEpisode = 1;

  std::string name() const override { return "cnn1-sync"; }
  int busy_threads() const override { return kThreads; }
  int executor_threads() const override { return kThreads; }
  int RoundsPerEpisode(double) const override { return kRoundsPerEpisode; }
  int Episodes(double seconds) const override {
    return std::max(1, static_cast<int>(seconds / (kRoundsPerEpisode *
                                                   kNominalRoundSeconds)));
  }
  int TracedRounds() const override { return kRoundsPerEpisode; }
  bool FreshSeedPerEpisode() const override { return true; }

  double GenerateInputs(uint64_t seed) override {
    seed_ = seed;
    return Timed([&] {
      // 20 samples per client on average: 200 per class x 10 classes.
      fedadmm::SyntheticSpec spec =
          fedadmm::SyntheticMnistSpec(/*train_per_class=*/200,
                                      /*test_per_class=*/20);
      spec.seed = Derive(seed_, kDataTag);
      split_ = fedadmm::GenerateSynthetic(spec);
    });
  }

  SetupSample SetupOnce(int index) override {
    (void)index;
    SetupSample sample;
    std::unique_ptr<fedadmm::NnFederatedProblem> problem;
    const double program = Timed([&] {
      problem = BuildProblem(&sample.nn_build);
    });
    FedAdmm algo(Options());
    sample.algo_setup = EngineSetup(problem.get(), &algo, "lazy", kThreads,
                                    Derive(seed_, kInitTag));
    sample.total = program + sample.algo_setup;
    return sample;
  }

  Episode RunEpisode(int rounds, bool traced, int index) override {
    (void)index;
    Episode ep;
    ep.seed = seed_;
    std::unique_ptr<fedadmm::NnFederatedProblem> problem;
    const double program = Timed([&] {
      problem = BuildProblem(&ep.setup.nn_build);
    });
    FedAdmm algo(Options());
    fedadmm::UniformFractionSelector base(kClients, 0.1);
    SelectorProbe selector(&base);
    TracedProblem traced_problem(problem.get());
    TracedAlgorithm traced_algo(&algo);

    SimulationConfig config;
    config.max_rounds = rounds;
    config.seed = Derive(seed_, kEngineTag);
    config.num_threads = kThreads;
    config.state_store = "lazy";
    Simulation sim(traced ? static_cast<fedadmm::FederatedProblem*>(
                                &traced_problem)
                          : problem.get(),
                   traced ? static_cast<fedadmm::FederatedAlgorithm*>(
                                &traced_algo)
                          : &algo,
                   &selector, config);
    RoundLog log;
    log.Attach(&sim);

    if (traced) SpanLog::Get().Start();
    const int64_t run_start = NowNs();
    auto history = sim.Run();
    const int64_t run_end = NowNs();
    if (traced) {
      SpanLog::Get().Stop();
      ep.spans = SpanLog::Get().Collect();
      ep.loop_thread = SpanLog::Get().loop_thread();
    }
    algo.DetachReducePool();

    ep.setup.algo_setup = SecondsBetween(run_start, selector.first_select_ns());
    ep.setup.total = program + ep.setup.algo_setup;
    FinishEpisode(log, selector.first_select_ns(), run_end, sim.theta(),
                  history.ok(), history.status().ToString(), rounds, &ep);
    ep.checks.push_back(MakeCheck(
        "updates_match_schedule",
        ep.decided == static_cast<int64_t>(rounds) * (kClients / 10),
        std::to_string(ep.decided) + " updates for " +
            std::to_string(rounds) + " rounds of " +
            std::to_string(kClients / 10)));
    ep.counters["updates"] = static_cast<double>(ep.decided);
    ep.counters["touched_clients"] = algo.state_store().num_touched_clients();
    ep.counters["resident_bytes"] =
        static_cast<double>(algo.StateBytesResident());
    ep.layer_values["state.resident_bytes"] = ep.counters["resident_bytes"];
    ep.layer_values["state.touched_clients"] = ep.counters["touched_clients"];
    return ep;
  }

 private:
  FedAdmmOptions Options() const {
    FedAdmmOptions options;
    // lr = 0.01 learns; the quickstart's 0.05 leaves CNN 1 at chance.
    options.local.learning_rate = 0.01f;
    options.local.batch_size = 10;
    options.local.max_epochs = 5;
    options.local.variable_epochs = true;
    options.rho = fedadmm::StepSchedule(0.01);
    options.eta = fedadmm::StepSchedule(1.0);
    options.state_store = "lazy";
    return options;
  }

  std::unique_ptr<fedadmm::NnFederatedProblem> BuildProblem(
      double* nn_build_seconds) const {
    fedadmm::Rng rng(Derive(seed_, kPartitionTag));
    fedadmm::Partition partition =
        fedadmm::PartitionShards(split_.train.labels(), kClients,
                                 /*shards_per_client=*/2, &rng)
            .ValueOrDie();
    std::unique_ptr<fedadmm::NnFederatedProblem> problem;
    *nn_build_seconds = Timed([&] {
      problem = std::make_unique<fedadmm::NnFederatedProblem>(
          fedadmm::PaperCnn1Config(), &split_.train, &split_.test,
          std::move(partition), kThreads);
    });
    return problem;
  }

  uint64_t seed_ = 0;
  fedadmm::DataSplit split_;
};

// ---------------------------------------------------------------------------
// fleet-buffered: 100k-client cellular fleet, buffered FedADMM, tiered store
// and checkpoints.
// ---------------------------------------------------------------------------

class FleetBuffered : public Workload {
 public:
  static constexpr int kClients = 100000;
  static constexpr int64_t kDim = 256;
  static constexpr double kParticipation = 0.01;  // 1,000 in flight
  static constexpr int kBuffer = 500;             // FedBuff's K = |S|/2
  static constexpr int kPoolFrames = 2000;        // about one cohort
  static constexpr int kCheckpointEvery = 25;
  static constexpr int kAggregations = 50;
  /// Every client's transfers fit, so late clients are admitted partially
  /// and none is dropped (the benchmark's workloads fail no operation).
  static constexpr double kDeadlineSeconds = 0.24;
  /// Reference-host seconds per episode, set-up, checks and teardown
  /// included, used to size a run.
  static constexpr double kNominalEpisodeSeconds = 4.0;

  explicit FleetBuffered(std::string scratch_dir)
      : scratch_dir_(std::move(scratch_dir)) {}

  std::string name() const override { return "fleet-buffered"; }
  // The loop thread and the single executor thread hand one-client waves
  // to each other; they never run at once.
  int busy_threads() const override { return 1; }
  int executor_threads() const override { return 1; }
  int RoundsPerEpisode(double) const override { return kAggregations; }
  int Episodes(double seconds) const override {
    return std::max(1, static_cast<int>(seconds / kNominalEpisodeSeconds));
  }
  int TracedRounds() const override { return kAggregations; }
  bool FreshSeedPerEpisode() const override { return false; }

  double GenerateInputs(uint64_t seed) override {
    seed_ = seed;
    return Timed([&] {
      problem_ = std::make_unique<MeanFieldProblem>(
          kClients, kDim, Derive(seed_, kTargetsTag));
    });
  }

  SetupSample SetupOnce(int index) override {
    const std::string dir = scratch_dir_ + "/setup" + std::to_string(index);
    std::filesystem::create_directories(dir);
    SetupSample sample;
    {
      std::unique_ptr<fedadmm::SystemModel> model;
      const double program = Timed([&] {
        model = BuildSystemModel(&sample.fleet_build);
      });
      FedAdmm algo(Options(dir));
      sample.algo_setup = EngineSetup(problem_.get(), &algo, StoreSpec(dir),
                                      1, Derive(seed_, kInitTag));
      sample.total = program + sample.algo_setup;
    }
    std::filesystem::remove_all(dir);
    return sample;
  }

  Episode RunEpisode(int rounds, bool traced, int index) override {
    const std::string dir = scratch_dir_ + "/episode" + std::to_string(index);
    std::filesystem::create_directories(dir);
    Episode ep;
    ep.seed = seed_;
    {
      std::unique_ptr<fedadmm::SystemModel> model;
      const double program = Timed([&] {
        model = BuildSystemModel(&ep.setup.fleet_build);
      });
      FedAdmm algo(Options(dir));
      fedadmm::UniformFractionSelector base(kClients, kParticipation);
      SelectorProbe selector(&base);
      TracedProblem traced_problem(problem_.get());
      TracedAlgorithm traced_algo(&algo);

      SimulationConfig config;
      config.max_rounds = rounds;
      config.seed = Derive(seed_, kEngineTag);
      config.num_threads = 1;
      config.mode = fedadmm::ExecutionMode::kBuffered;
      config.buffer_size = kBuffer;
      config.state_store = StoreSpec(dir);
      config.checkpoint_path = dir + "/checkpoint.log";
      config.checkpoint_every = kCheckpointEvery;
      Simulation sim(traced ? static_cast<fedadmm::FederatedProblem*>(
                                  &traced_problem)
                            : problem_.get(),
                     traced ? static_cast<fedadmm::FederatedAlgorithm*>(
                                  &traced_algo)
                            : &algo,
                     &selector, config);
      sim.set_system_model(model.get());
      RoundLog log;
      log.Attach(&sim);

      if (traced) SpanLog::Get().Start();
      const int64_t run_start = NowNs();
      auto history = sim.Run();
      const int64_t run_end = NowNs();
      if (traced) {
        SpanLog::Get().Stop();
        ep.spans = SpanLog::Get().Collect();
        ep.loop_thread = SpanLog::Get().loop_thread();
      }
      algo.DetachReducePool();

      ep.setup.algo_setup =
          SecondsBetween(run_start, selector.first_select_ns());
      ep.setup.total = program + ep.setup.algo_setup;
      FinishEpisode(log, selector.first_select_ns(), run_end, sim.theta(),
                    history.ok(), history.status().ToString(), rounds, &ep);
      // Buffered: num_selected is the aggregated buffer; drops ride on top.
      ep.decided += ep.failed;
      ep.counters["updates"] = static_cast<double>(ep.decided);
      bool full_buffers = true;
      for (const RoundRecord& r : log.records) {
        full_buffers = full_buffers && r.num_selected == kBuffer;
      }
      ep.checks.push_back(MakeCheck(
          "updates_match_schedule", full_buffers,
          "every aggregation flushes K=" + std::to_string(kBuffer) +
              " admitted updates"));

      const auto* tiered = dynamic_cast<const fedadmm::TieredStateStore*>(
          algo.mutable_state_store());
      if (tiered == nullptr) {
        ep.checks.push_back(MakeCheck("tiered_store", false,
                                      "the algorithm's store is not tiered"));
      } else {
        const int64_t pool_bytes =
            tiered->pool_capacity_frames() * tiered->pool_frame_bytes();
        const int64_t resident = tiered->bytes_resident();
        ep.checks.push_back(MakeCheck(
            "tiered_resident_is_pool", resident == pool_bytes,
            std::to_string(resident) + " resident bytes vs " +
                std::to_string(tiered->pool_capacity_frames()) +
                " frames x " + std::to_string(tiered->pool_frame_bytes()) +
                " bytes"));
        const int64_t hits = tiered->pool_hits();
        const int64_t misses = tiered->pool_misses();
        ep.layer_values["state.pool_hits"] = static_cast<double>(hits);
        ep.layer_values["state.pool_misses"] = static_cast<double>(misses);
        ep.layer_values["state.pool_creates"] =
            static_cast<double>(tiered->pool_creates());
        ep.layer_values["state.pool_evictions"] =
            static_cast<double>(tiered->pool_evictions());
        ep.layer_values["state.pool_write_backs"] =
            static_cast<double>(tiered->pool_write_backs());
        ep.layer_values["state.pool_hit_ratio"] =
            hits + misses > 0 ? static_cast<double>(hits) /
                                    static_cast<double>(hits + misses)
                              : 0.0;
        ep.counters["resident_bytes"] = static_cast<double>(resident);
        ep.counters["touched_clients"] = tiered->num_touched_clients();
        ep.layer_values["state.resident_bytes"] =
            static_cast<double>(resident);
        ep.layer_values["state.touched_clients"] =
            tiered->num_touched_clients();
      }

      auto checkpoint =
          fedadmm::LoadLatestSimulationCheckpoint(config.checkpoint_path);
      const int64_t committed =
          checkpoint.ok() ? checkpoint.ValueOrDie().round : -1;
      ep.checks.push_back(MakeCheck(
          "checkpoint_is_last_aggregation",
          committed == static_cast<int64_t>(log.records.size()),
          "newest committed group at " + std::to_string(committed) +
              " of " + std::to_string(log.records.size()) + " records"));
    }
    std::filesystem::remove_all(dir);
    return ep;
  }

 private:
  FedAdmmOptions Options(const std::string& dir) const {
    FedAdmmOptions options;
    options.local.learning_rate = 0.3f;
    options.local.batch_size = 0;
    options.local.max_epochs = 2;
    options.local.variable_epochs = true;
    options.rho = fedadmm::StepSchedule(1.0);
    options.eta_active_fraction = true;  // η = |S_t|/m in event modes
    options.state_store = StoreSpec(dir);
    return options;
  }

  static std::string StoreSpec(const std::string& dir) {
    return "tiered:" + std::to_string(kPoolFrames) + "f:" + dir + "/slab.log";
  }

  std::unique_ptr<fedadmm::SystemModel> BuildSystemModel(
      double* fleet_build_seconds) const {
    std::unique_ptr<fedadmm::FleetModel> fleet;
    *fleet_build_seconds = Timed([&] {
      fleet = std::make_unique<fedadmm::FleetModel>(
          fedadmm::FleetModel::FromPreset("cellular", kClients,
                                          Derive(seed_, kFleetTag))
              .ValueOrDie());
    });
    return std::make_unique<fedadmm::SystemModel>(
        std::move(*fleet),
        fedadmm::MakeStragglerPolicy("deadline-admit-partial",
                                     kDeadlineSeconds)
            .ValueOrDie());
  }

  uint64_t seed_ = 0;
  std::string scratch_dir_;
  std::unique_ptr<MeanFieldProblem> problem_;
};

// ---------------------------------------------------------------------------
// serve-ingest: 12,000 wire sessions over the in-memory loopback.
// ---------------------------------------------------------------------------

class ServeIngest : public Workload {
 public:
  static constexpr int kSessions = 12000;
  static constexpr int64_t kDim = 64;
  /// Holds a shard's whole wave: no THROTTLED acks, so no back-off sleeps.
  static constexpr int kQueueCapacity = 16384;
  /// Every session's transfers fit; late ones get PARTIAL acks.
  static constexpr double kDeadlineSeconds = 0.215;
  static constexpr double kNominalRoundSeconds = 0.2;
  /// Several episodes per run, each with fresh sessions, queues and
  /// threads: run-level effects (thread placement, allocation layout) then
  /// average out inside the run instead of shifting its median.
  static constexpr int kEpisodes = 4;
  /// A traced round records about 8 spans per session; 10 rounds keep the
  /// span log near 1M entries.
  static constexpr int kTracedRounds = 10;

  std::string name() const override { return "serve-ingest"; }
  // Loop thread (aggregate/finalize), the frontend's shard worker, and one
  // load-generator thread at a time (its control thread, driver pool and
  // client executor run their phases in turn).
  int busy_threads() const override { return 3; }
  int executor_threads() const override { return 1; }
  int RoundsPerEpisode(double seconds) const override {
    return std::max(
        3, static_cast<int>(seconds / (kEpisodes * kNominalRoundSeconds)));
  }
  int Episodes(double) const override { return kEpisodes; }
  int TracedRounds() const override { return kTracedRounds; }
  bool FreshSeedPerEpisode() const override { return false; }

  double GenerateInputs(uint64_t seed) override {
    seed_ = seed;
    return Timed([&] {
      problem_ = std::make_unique<MeanFieldProblem>(
          kSessions, kDim, Derive(seed_, kTargetsTag));
    });
  }

  SetupSample SetupOnce(int index) override {
    (void)index;
    SetupSample sample;
    Stack stack;
    const double program =
        Timed([&] { Build(&stack, &sample.fleet_build, nullptr); });
    sample.algo_setup = EngineSetup(problem_.get(), stack.algo.get(), "lazy",
                                    1, Derive(seed_, kInitTag));
    sample.algo_setup += Timed([&] {
      FEDADMM_CHECK(stack.frontend->StartServing(kSessions, kDim).ok());
    });
    sample.total = program + sample.algo_setup;
    stack.frontend->FinishServing();
    stack.transport->Stop();
    return sample;
  }

  Episode RunEpisode(int rounds, bool traced, int index) override {
    (void)index;
    Episode ep;
    ep.seed = seed_;
    // Declared before the stack: the transport stops before the traced
    // sink it delivers to is destroyed.
    Tracing tracing;
    Stack stack;
    TracedProblem traced_problem(problem_.get());
    const double program = Timed([&] {
      Build(&stack, &ep.setup.fleet_build, traced ? &tracing : nullptr);
    });
    TracedAlgorithm traced_algo(stack.algo.get());
    fedadmm::FederatedProblem* problem =
        traced ? static_cast<fedadmm::FederatedProblem*>(&traced_problem)
               : problem_.get();
    fedadmm::FederatedAlgorithm* algo =
        traced ? static_cast<fedadmm::FederatedAlgorithm*>(&traced_algo)
               : stack.algo.get();

    fedadmm::UniformFractionSelector base(kSessions, 1.0);
    SelectorProbe selector(&base);
    SimulationConfig config;
    config.max_rounds = rounds;
    config.seed = Derive(seed_, kEngineTag);
    config.num_threads = 1;
    config.num_shards = 1;
    config.state_store = "lazy";
    Simulation sim(problem, algo, &selector, config);
    sim.set_system_model(stack.model.get());
    sim.set_uplink_codec(stack.uplink);
    sim.set_downlink_codec(stack.downlink);
    TracedIngest traced_ingest(stack.frontend.get());
    sim.set_ingest(traced ? static_cast<fedadmm::IngestSource*>(&traced_ingest)
                          : stack.frontend.get());

    fedadmm::serve::LoadGenOptions lg;
    lg.driver_threads = 1;
    lg.uplink_codec = stack.uplink_twin;
    lg.downlink_codec = stack.downlink_twin;
    lg.poll_timeout_seconds = 120.0;
    fedadmm::serve::LoadGenerator loadgen(
        problem, algo, config.seed, /*num_threads=*/1, /*num_shards=*/1,
        stack.frontend.get(),
        traced ? static_cast<fedadmm::serve::Transport*>(
                     tracing.transport.get())
               : stack.transport.get(),
        lg);
    RoundLog log;
    log.Attach(&sim);

    if (traced) SpanLog::Get().Start();
    fedadmm::Status loadgen_status = fedadmm::Status::OK();
    const int64_t run_start = NowNs();
    std::thread driver([&] { loadgen_status = loadgen.Run(); });
    auto history = sim.Run();
    const int64_t run_end = NowNs();
    stack.frontend->FinishServing();
    driver.join();
    stack.transport->Stop();
    if (traced) {
      SpanLog::Get().Stop();
      ep.spans = SpanLog::Get().Collect();
      ep.loop_thread = SpanLog::Get().loop_thread();
    }
    stack.algo->DetachReducePool();

    ep.setup.algo_setup = SecondsBetween(run_start, selector.first_select_ns());
    ep.setup.total = program + ep.setup.algo_setup;
    FinishEpisode(log, selector.first_select_ns(), run_end, sim.theta(),
                  history.ok() && loadgen_status.ok(),
                  history.status().ToString() + " / loadgen " +
                      loadgen_status.ToString(),
                  rounds, &ep);

    const fedadmm::serve::FrontendLedger ledger = stack.frontend->ledger();
    const fedadmm::serve::LoadGenStats stats = loadgen.stats();
    const int64_t acks =
        ledger.acks_accepted + ledger.acks_partial + ledger.acks_rejected;
    const int64_t expected = static_cast<int64_t>(kSessions) * rounds;
    ep.failed += ledger.decode_errors;
    ep.counters["updates"] = static_cast<double>(ep.decided);
    ep.counters["hellos"] = static_cast<double>(ledger.hello_count);
    ep.counters["acks_accepted"] = static_cast<double>(ledger.acks_accepted);
    ep.counters["acks_partial"] = static_cast<double>(ledger.acks_partial);
    ep.counters["acks_rejected"] = static_cast<double>(ledger.acks_rejected);
    ep.counters["model_frames"] = static_cast<double>(ledger.model_frames);
    ep.counters["ingested_payload_bytes"] =
        static_cast<double>(ledger.ingested_payload_bytes);
    ep.counters["touched_clients"] =
        stack.algo->state_store().num_touched_clients();
    ep.counters["resident_bytes"] =
        static_cast<double>(stack.algo->StateBytesResident());

    ep.checks.push_back(MakeCheck(
        "updates_match_schedule", ep.decided == expected,
        std::to_string(ep.decided) + " of " + std::to_string(expected)));
    ep.checks.push_back(MakeCheck(
        "hellos_equal_sessions", ledger.hello_count == kSessions,
        std::to_string(ledger.hello_count) + " hellos"));
    ep.checks.push_back(MakeCheck(
        "acks_cover_every_update", acks == expected,
        std::to_string(acks) + " acks for " + std::to_string(expected)));
    ep.checks.push_back(MakeCheck(
        "rejected_equals_engine_dropped",
        ledger.acks_rejected == static_cast<int64_t>(ep.counters["dropped"]),
        std::to_string(ledger.acks_rejected) + " REJECTED vs " +
            std::to_string(static_cast<int64_t>(ep.counters["dropped"])) +
            " dropped"));
    ep.checks.push_back(MakeCheck(
        "partial_equals_engine_partial",
        ledger.acks_partial == static_cast<int64_t>(ep.counters["partial"]),
        std::to_string(ledger.acks_partial) + " PARTIAL vs " +
            std::to_string(static_cast<int64_t>(ep.counters["partial"])) +
            " partial"));
    ep.checks.push_back(MakeCheck(
        "no_wire_errors",
        ledger.protocol_errors == 0 && ledger.decode_errors == 0 &&
            ledger.malformed_frames == 0,
        "protocol " + std::to_string(ledger.protocol_errors) + ", decode " +
            std::to_string(ledger.decode_errors) + ", malformed " +
            std::to_string(ledger.malformed_frames)));
    ep.checks.push_back(MakeCheck(
        "loadgen_acks_match_ledger",
        stats.acks_accepted == ledger.acks_accepted &&
            stats.acks_partial == ledger.acks_partial &&
            stats.acks_rejected == ledger.acks_rejected,
        "session-side and server-side ack tallies"));

    ep.layer_values["serve.throttled"] = static_cast<double>(ledger.throttled);
    ep.layer_values["serve.throttle_retries"] =
        static_cast<double>(stats.throttle_retries);
    ep.layer_values["serve.acks_accepted"] =
        static_cast<double>(ledger.acks_accepted);
    ep.layer_values["serve.acks_partial"] =
        static_cast<double>(ledger.acks_partial);
    ep.layer_values["serve.acks_rejected"] =
        static_cast<double>(ledger.acks_rejected);
    ep.layer_values["serve.hellos"] = static_cast<double>(ledger.hello_count);
    ep.layer_values["serve.protocol_errors"] =
        static_cast<double>(ledger.protocol_errors);
    ep.layer_values["serve.decode_errors"] =
        static_cast<double>(ledger.decode_errors);
    ep.layer_values["state.resident_bytes"] = ep.counters["resident_bytes"];
    ep.layer_values["state.touched_clients"] = ep.counters["touched_clients"];
    if (traced) {
      ep.layer_values["serve.frames_in"] =
          static_cast<double>(tracing.sink->frames_in());
      ep.layer_values["serve.bytes_in"] =
          static_cast<double>(tracing.sink->bytes_in());
      const double polls = static_cast<double>(tracing.polls.polls.load());
      ep.layer_values["serve.polls"] = polls;
      ep.layer_values["serve.poll_hit_ratio"] =
          polls > 0 ? static_cast<double>(tracing.polls.hits.load()) / polls
                    : 0.0;
      ep.layer_values["comm.wire_bytes"] =
          static_cast<double>(tracing.codec_bytes.wire_bytes.load());
      ep.layer_values["comm.raw_bytes"] =
          static_cast<double>(tracing.codec_bytes.raw_bytes.load());
    }
    return ep;
  }

 private:
  /// The program-side objects of one serving run, in teardown-safe order:
  /// the transport (declared last) stops before the frontend, its sink,
  /// dies.
  struct Stack {
    std::unique_ptr<fedadmm::SystemModel> model;
    std::unique_ptr<FedAdmm> algo;
    std::unique_ptr<fedadmm::UpdateCodec> codecs[4];
    fedadmm::UpdateCodec* uplink = nullptr;
    fedadmm::UpdateCodec* downlink = nullptr;
    fedadmm::UpdateCodec* uplink_twin = nullptr;
    fedadmm::UpdateCodec* downlink_twin = nullptr;
    std::unique_ptr<fedadmm::serve::Frontend> frontend;
    std::unique_ptr<fedadmm::serve::LoopbackTransport> transport;
  };

  /// The decorators of a traced serving run.
  struct Tracing {
    CodecCounters codec_bytes;
    PollCounters polls;
    std::vector<std::unique_ptr<TracedCodec>> codecs;
    std::unique_ptr<TracedSink> sink;
    std::unique_ptr<TracedTransport> transport;
  };

  /// Builds the serving stack; with `tracing`, every codec, the frontend's
  /// sink and the transport are wrapped.
  void Build(Stack* stack, double* fleet_build_seconds,
             Tracing* tracing) const {
    std::unique_ptr<fedadmm::FleetModel> fleet;
    *fleet_build_seconds = Timed([&] {
      fleet = std::make_unique<fedadmm::FleetModel>(
          fedadmm::FleetModel::FromPreset("cellular", kSessions,
                                          Derive(seed_, kFleetTag))
              .ValueOrDie());
    });
    stack->model = std::make_unique<fedadmm::SystemModel>(
        std::move(*fleet),
        fedadmm::MakeStragglerPolicy("deadline-admit-partial",
                                     kDeadlineSeconds)
            .ValueOrDie());
    FedAdmmOptions options;
    options.local.learning_rate = 0.3f;
    options.local.batch_size = 0;
    options.local.max_epochs = 1;
    options.rho = fedadmm::StepSchedule(1.0);
    options.eta = fedadmm::StepSchedule(1.0);
    options.state_store = "lazy";
    stack->algo = std::make_unique<FedAdmm>(options);
    // Server-side uplink/downlink codecs plus the sessions' client twins.
    fedadmm::UpdateCodec* codecs[4];
    for (int i = 0; i < 4; ++i) {
      stack->codecs[i] = fedadmm::MakeUpdateCodec("q8").ValueOrDie();
      codecs[i] = stack->codecs[i].get();
      if (tracing != nullptr) {
        tracing->codecs.push_back(
            std::make_unique<TracedCodec>(codecs[i], &tracing->codec_bytes));
        codecs[i] = tracing->codecs.back().get();
      }
    }
    stack->uplink = codecs[0];
    stack->downlink = codecs[1];
    stack->uplink_twin = codecs[2];
    stack->downlink_twin = codecs[3];

    fedadmm::serve::FrontendOptions fo;
    fo.num_shards = 1;
    fo.queue_capacity = kQueueCapacity;
    fo.collect_timeout_seconds = 120.0;
    fo.uplink_codec = stack->uplink;
    fo.system_model = stack->model.get();
    stack->frontend = std::make_unique<fedadmm::serve::Frontend>(fo);
    stack->transport = std::make_unique<fedadmm::serve::LoopbackTransport>();
    fedadmm::serve::FrameSink* sink = stack->frontend.get();
    if (tracing != nullptr) {
      tracing->sink = std::make_unique<TracedSink>(stack->frontend.get());
      sink = tracing->sink.get();
      tracing->transport = std::make_unique<TracedTransport>(
          stack->transport.get(), &tracing->polls);
    }
    FEDADMM_CHECK(stack->transport->Start(sink).ok());
  }

  uint64_t seed_ = 0;
  std::unique_ptr<MeanFieldProblem> problem_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scratch_dir) {
  if (name == "cnn1-sync") return std::make_unique<Cnn1Sync>();
  if (name == "fleet-buffered") {
    return std::make_unique<FleetBuffered>(scratch_dir);
  }
  if (name == "serve-ingest") return std::make_unique<ServeIngest>();
  return nullptr;
}

uint64_t EpisodeSeed(uint64_t seed, int index) {
  return index == 0 ? seed
                    : Derive(seed, 0xE915 + static_cast<uint64_t>(index));
}

uint64_t HashTheta(const std::vector<float>& theta) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : theta) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::vector<std::string> Cnn1LayerNames() {
  auto model = fedadmm::BuildModel(fedadmm::PaperCnn1Config());
  fedadmm::Sequential* net = model->net();
  std::map<std::string, int> seen;
  std::vector<std::string> names;
  for (int i = 0; i < net->size(); ++i) {
    const std::string full = net->layer(i)->name();
    const std::string type = full.substr(0, full.find('('));
    std::string base = type == "Conv2d"      ? "conv"
                       : type == "Linear"    ? "fc"
                       : type == "MaxPool2d" ? "pool"
                       : type == "ReLU"      ? "relu"
                       : type == "Flatten"   ? "flatten"
                                             : "layer";
    names.push_back(base + std::to_string(++seen[base]));
  }
  return names;
}

std::vector<LayerTiming> ProbeCnn1Layers(uint64_t seed, int repetitions) {
  auto model = fedadmm::BuildModel(fedadmm::PaperCnn1Config());
  fedadmm::Rng rng(Derive(seed, kInitTag));
  model->Initialize(&rng);
  fedadmm::SyntheticSpec spec = fedadmm::SyntheticMnistSpec(1, 1);
  spec.seed = Derive(seed, kDataTag);
  const fedadmm::DataSplit split = fedadmm::GenerateSynthetic(spec);
  std::vector<int> batch(10);
  for (int i = 0; i < 10; ++i) batch[static_cast<size_t>(i)] = i;
  const fedadmm::Tensor inputs = split.train.MakeBatch(batch);
  const std::vector<int> labels = split.train.MakeLabelBatch(batch);

  fedadmm::Sequential* net = model->net();
  const int n = net->size();
  std::vector<std::vector<double>> fwd(static_cast<size_t>(n));
  std::vector<std::vector<double>> bwd(static_cast<size_t>(n));
  fedadmm::SoftmaxCrossEntropyLoss loss;
  for (int rep = 0; rep <= repetitions; ++rep) {
    model->ZeroGrad();
    std::vector<fedadmm::Tensor> acts;
    acts.push_back(inputs);
    std::vector<double> f(static_cast<size_t>(n));
    std::vector<double> b(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int64_t start = NowNs();
      acts.push_back(net->layer(i)->Forward(acts.back()));
      f[static_cast<size_t>(i)] = SecondsBetween(start, NowNs());
    }
    loss.Forward(acts.back(), labels);
    fedadmm::Tensor grad = loss.Backward();
    for (int i = n - 1; i >= 0; --i) {
      const int64_t start = NowNs();
      grad = net->layer(i)->Backward(grad);
      b[static_cast<size_t>(i)] = SecondsBetween(start, NowNs());
    }
    if (rep == 0) continue;  // warm-up: first-touch allocations
    for (int i = 0; i < n; ++i) {
      fwd[static_cast<size_t>(i)].push_back(f[static_cast<size_t>(i)]);
      bwd[static_cast<size_t>(i)].push_back(b[static_cast<size_t>(i)]);
    }
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
  };
  const std::vector<std::string> names = Cnn1LayerNames();
  std::vector<LayerTiming> out;
  for (int i = 0; i < n; ++i) {
    LayerTiming t;
    t.name = names[static_cast<size_t>(i)];
    t.forward_s = median(fwd[static_cast<size_t>(i)]);
    t.backward_s = median(bwd[static_cast<size_t>(i)]);
    out.push_back(t);
  }
  return out;
}

}  // namespace perfbench
