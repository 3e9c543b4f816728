/// \file simulation.h
/// \brief Public entry point of the federated training engine.
///
/// `Simulation` validates its inputs and delegates to the federation engine
/// (fl/server_loop.h): one event loop over selection, `CommPipeline`
/// (codec billing), `ClientExecutor` (thread-pool fan-out) and aggregation,
/// whose aggregation trigger and refill follow one of three modes:
///
///   * `kSync`     — the paper's synchronous loop (Fig. 1 / Fig. 2): every
///                   selected client reports before the server aggregates
///                   (a wave barrier), with or without a system model.
///   * `kBuffered` — FedBuff-style semi-synchronous: the server aggregates
///                   as soon as `buffer_size` uploads arrive; late updates
///                   carry a staleness counter and are discounted by the
///                   pluggable staleness weight. Requires a system model.
///   * `kAsync`    — buffered with K = 1: every completion event triggers an
///                   immediate one-message `ServerUpdate`. Requires a
///                   system model.
///
/// All three modes are deterministic for a fixed seed across thread counts.

#ifndef FEDADMM_FL_SIMULATION_H_
#define FEDADMM_FL_SIMULATION_H_

#include <functional>
#include <memory>
#include <string>

#include "comm/codec.h"
#include "fl/algorithm.h"
#include "fl/ingest.h"
#include "fl/problem.h"
#include "fl/selection.h"
#include "fl/staleness.h"
#include "fl/types.h"
#include "sys/system_model.h"
#include "util/thread_pool.h"

namespace fedadmm {

/// \brief How the server schedules client work and aggregation.
enum class ExecutionMode {
  /// Wait for the whole round (the historical behaviour; the default).
  kSync = 0,
  /// Aggregate once `buffer_size` uploads arrived (semi-synchronous).
  kBuffered = 1,
  /// Aggregate every upload the instant it arrives (fully asynchronous).
  kAsync = 2,
};

/// Canonical mode name: "sync", "buffered" or "async".
const std::string& ExecutionModeName(ExecutionMode mode);

/// Parses a mode name; InvalidArgument for anything unknown.
Result<ExecutionMode> ParseExecutionMode(const std::string& name);

/// \brief Run-level knobs of the simulator.
struct SimulationConfig {
  /// Maximum number of rounds T. In the event-driven modes a "round" is one
  /// aggregation (buffer flush / async arrival), so budgets should scale by
  /// the per-round client count for a fair cross-mode comparison.
  int max_rounds = 100;
  /// Stop early once test accuracy reaches this value (disabled if <= 0).
  double target_accuracy = -1.0;
  /// Evaluate every k-th round (1 = every round). The final round is always
  /// evaluated.
  int eval_every = 1;
  /// Master seed: drives selection and all per-(round, client) streams.
  uint64_t seed = 1;
  /// Worker threads for the client phase; <= 0 picks
  /// min(hardware_concurrency, clients per round).
  int num_threads = 0;
  /// Execution semantics (see ExecutionMode). `kBuffered` and `kAsync`
  /// require a system model: event times come from the virtual clock.
  ExecutionMode mode = ExecutionMode::kSync;
  /// Buffered mode: aggregate once this many uploads arrived. <= 0 picks
  /// half the initial wave (FedBuff's K = |S|/2 heuristic); clamped to the
  /// wave size.
  int buffer_size = 0;
  /// Staleness discount applied to late updates in buffered/async modes
  /// (fl/staleness.h); null means constant 1 (no discount).
  StalenessWeightFn staleness_weight;
  /// Client-state backend for stateful algorithms (src/state):
  /// "lazy" | "tiered:<c>:<p>". Empty keeps each algorithm's own default
  /// (lazy). `lazy` keeps resident state proportional to the *touched*
  /// client population — the lever that makes 100k-client fleets
  /// affordable under 1% participation — and `tiered` caps it at a pool
  /// size; see `RoundRecord::state_bytes_resident` and bench_state_scale.
  std::string state_store;
  /// Must be 1: a stub for perfbench, the only code that still sets it.
  int num_shards = 1;
  /// When non-empty, append crash-safe checkpoints of the whole simulation
  /// (θ, RNG streams, history, per-client state, and — in event modes —
  /// the in-flight event queue) to this slab-log file (state/checkpoint.h).
  /// Each checkpoint is a meta..commit record group; a SIGKILL anywhere
  /// replays from the last *committed* group, bit-identically to the
  /// uninterrupted run, and a finished run restored with a larger
  /// `max_rounds` continues as the longer run would have, in every mode.
  /// Stateless codecs replay too (stochastic ones draw from per-(wave,
  /// client) forks of the seed's stream); stateful ones (`ef:`) are
  /// refused before round 0, since their error-feedback residuals are not
  /// serialized.
  std::string checkpoint_path;
  /// Checkpoint cadence: append a group every k-th record (>= 1). The
  /// final record is always checkpointed so a finished run restores as
  /// finished.
  int checkpoint_every = 1;
  /// Resume from the newest committed group in `checkpoint_path`. A
  /// missing file or a file without one committed group starts fresh
  /// (round 0) — the crash-before-first-checkpoint semantic.
  bool restore_from_checkpoint = false;
  /// When non-empty, stream one row per RoundRecord to this file as it is
  /// recorded, in the `History::WriteCsv` schema (fl/history_csv.h;
  /// `ReadHistoryCsv` parses it back). An unwritable path fails `Run`
  /// with IoError before round 0. Purely additive — the training
  /// trajectory is bitwise identical with or without it — and, like every
  /// record column, a function of the seed: two runs of one seed write
  /// byte-identical traces.
  std::string round_trace_path;
};

/// \brief Optional per-round observer (round index, record) — benches use it
/// to stream convergence paths.
using RoundObserver = std::function<void(const RoundRecord&)>;

/// \brief Runs one federated training session.
class Simulation {
 public:
  /// All pointers are borrowed and must outlive the simulation.
  Simulation(FederatedProblem* problem, FederatedAlgorithm* algorithm,
             ClientSelector* selector, SimulationConfig config);

  /// Executes up to `max_rounds` rounds; returns the history.
  Result<History> Run();

  /// Installs a per-round observer.
  void set_observer(RoundObserver observer) {
    observer_ = std::move(observer);
  }

  /// Attaches a system-heterogeneity model (borrowed, may be nullptr).
  /// When set, every round is timed on the virtual clock
  /// (`RoundRecord::sim_seconds`) and the model's straggler policy may drop
  /// or partially admit updates before aggregation; in the event-driven
  /// modes the policy doubles as the per-event admission predicate. When
  /// unset the sync training trajectory is bitwise identical to a build
  /// without src/sys.
  void set_system_model(const SystemModel* model) { system_model_ = model; }

  /// Attaches an uplink codec (borrowed, may be nullptr): every client
  /// update is encoded to a wire payload, its exact byte size is billed
  /// (`RoundRecord::upload_bytes`, and the virtual clock when a system
  /// model is attached), and the server aggregates the decoded — lossy —
  /// reconstruction. Only updates the straggler policy admits are encoded
  /// (a dropped upload never feeds error-feedback residuals; partial
  /// admissions encode their scaled delta), in deterministic order.
  /// With the identity codec (or none) the trajectory and accounting are
  /// bitwise unchanged.
  void set_uplink_codec(UpdateCodec* codec) { uplink_codec_ = codec; }

  /// Attaches a downlink codec (borrowed, may be nullptr): the server
  /// encodes the θ broadcast once per dispatch wave, clients train on the
  /// decoded broadcast, and per-client download bytes bill the compressed
  /// size (algorithm extras beyond θ — e.g. SCAFFOLD's control variate —
  /// stay uncompressed).
  void set_downlink_codec(UpdateCodec* codec) { downlink_codec_ = codec; }

  /// Attaches a serving frontend (borrowed, may be nullptr): client waves
  /// are collected from the ingest source — wire-protocol sessions — in
  /// place of the in-process executor (fl/ingest.h). Sync mode only;
  /// incompatible with checkpointing and with stochastic or stateful
  /// uplink codecs (the run fails fast otherwise).
  void set_ingest(IngestSource* ingest) { ingest_ = ingest; }

  /// Final global model (valid after Run).
  const std::vector<float>& theta() const { return theta_; }

 private:
  FederatedProblem* problem_;
  FederatedAlgorithm* algorithm_;
  ClientSelector* selector_;
  SimulationConfig config_;
  RoundObserver observer_;
  const SystemModel* system_model_ = nullptr;
  UpdateCodec* uplink_codec_ = nullptr;
  UpdateCodec* downlink_codec_ = nullptr;
  IngestSource* ingest_ = nullptr;
  std::vector<float> theta_;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_SIMULATION_H_
