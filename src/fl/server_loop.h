/// \file server_loop.h
/// \brief The federation engine: one event loop under three execution
/// modes.
///
/// Every dispatch wave runs the same stages —
///
///   selection → CommPipeline (downlink) → ClientExecutor (fan-out)
///             → admission (straggler policy) → CommPipeline (uplink)
///             → aggregation → metrics
///
/// — and every dispatched client becomes a `ClientCompletionEvent`: its
/// `ComputeClientTiming` finish, as judged by the per-client
/// `StragglerPolicy::Judge`, fixes the simulated second at which the
/// server stops tracking it (without a system model every client is
/// admitted at its dispatch instant). The loop consumes one arrival per
/// iteration: a dropped arrival is counted, an admitted one is scaled by
/// its work fraction, encoded, and buffered. The mode chooses only two
/// things:
///
///   * the **aggregation trigger** — the whole wave (sync: a barrier),
///     `buffer_size` arrivals (buffered), or one arrival (async: buffered
///     with K = 1). Every trigger runs one `ServerUpdate` over the
///     buffered, staleness-discounted payloads;
///   * the **refill** — the next cohort after the barrier (sync), or one
///     replacement client per freed slot (buffered / async).
///
/// Sync keeps its wave in dispatch order, so the barrier aggregates in
/// selection order (the order `AxpyMany` sums in) and its `sim_seconds`
/// is the latest arrival. Event modes route arrivals through one
/// `sys/EventQueue` heap ordered by (time, sequence). Every aggregation
/// emits one `RoundRecord`; in event modes a full wave of consecutive
/// drops with nothing to aggregate emits an all-dropped record (NaN
/// train_loss), so a starved deadline still terminates after
/// `max_rounds` records.
///
/// Determinism: parallel client execution only happens within a dispatch
/// wave (all members share one θ snapshot and per-(wave, client) RNG
/// forks); everything else runs serially in arrival order. Hence all
/// three modes replay bitwise for a fixed seed, independent of thread
/// count.

#ifndef FEDADMM_FL_SERVER_LOOP_H_
#define FEDADMM_FL_SERVER_LOOP_H_

#include <deque>
#include <vector>

#include "fl/client_executor.h"
#include "fl/comm_pipeline.h"
#include "fl/simulation.h"
#include "obs/trace.h"
#include "sys/event_queue.h"
#include "util/stopwatch.h"

namespace fedadmm {

class SlabLog;

/// \brief Executes one federated training session for `Simulation`.
///
/// Borrow-only: problem/algorithm/selector/system model/codecs/observer —
/// and the θ output buffer, which the loop mutates in place so observers
/// can read the live model mid-run — must outlive the loop.
class ServerLoop {
 public:
  ServerLoop(FederatedProblem* problem, FederatedAlgorithm* algorithm,
             ClientSelector* selector, const SimulationConfig& config,
             const SystemModel* system_model, UpdateCodec* uplink_codec,
             UpdateCodec* downlink_codec, IngestSource* ingest,
             const RoundObserver* observer, std::vector<float>* theta);

  /// Detaches the reduction pool lent to the algorithm: the pool dies with
  /// this loop, but the algorithm object outlives it and may serve direct
  /// calls (diagnostics, invariant probes) afterwards.
  ~ServerLoop();

  /// Runs the configured execution mode to completion.
  Result<History> Run();

 private:
  /// Draws θ⁰, sets up the algorithm, restores or dispatches the first
  /// wave, and runs the event loop shared by all three modes (see the
  /// file comment) to completion.
  Result<History> RunLoop();

  /// The selector's draw for `wave`, timed as the select phase.
  std::vector<int> Select(int wave);

  /// Dispatches `clients` as `wave` at the current simulated time against
  /// the current θ: downlink encode + billing, the client phase (in
  /// process, or collected from the ingest source), uplink size
  /// prediction, and one judged completion event per client — appended
  /// to the open sync wave in dispatch order, or pushed onto the event
  /// heap in event modes. Sync also draws the next cohort here and hints
  /// the store to prefetch it.
  Status DispatchWave(const std::vector<int>& clients, int wave);

  /// Picks a replacement client for a freed slot: the selector's draw for
  /// `wave` filtered by in-flight status, falling back to the first idle
  /// client id. Returns -1 when every client is busy.
  int PickReplacement(int wave);

  /// Counts a dropped arrival, or scales (partial admission), encodes and
  /// buffers an admitted one.
  void Admit(ClientCompletionEvent event);

  /// Turns the aggregation buffer into record `round` — loss, byte and
  /// staleness accounting, the fates counted since the last aggregation —
  /// and applies it to θ. Clears the buffer and the pending counters.
  RoundRecord Aggregate(int round);

  /// Evaluates on the eval_every cadence (NaN sentinels otherwise),
  /// stamps wall seconds, appends to `history`, notifies the observer and
  /// logs. Returns true when the record's evaluated accuracy reached the
  /// configured target (caller stops). `watch` is restarted.
  bool FinalizeRecord(RoundRecord record, Stopwatch* watch,
                      History* history);

  /// Appends one JSONL object for `record` to the opt-in round trace
  /// (no-op when `SimulationConfig::round_trace_path` is empty). Wall
  /// fields are zeroed in deterministic-only mode.
  void WriteRoundTrace(const RoundRecord& record);

  /// Appends one committed checkpoint group: a mode tag, θ, the selection
  /// RNG, algorithm extras, `history`, the loop state below (event queue
  /// and aggregation buffer included), and every touched store slab.
  Status WriteCheckpoint(SlabLog* log, const History& history);

  /// Restores from the newest committed group. Returns false (nothing
  /// touched) when no committed group exists — the fresh start; errors
  /// on a malformed group or one written by the other kind of mode.
  Result<bool> TryRestore(History* history);

  bool sync() const { return config_.mode == ExecutionMode::kSync; }

  FederatedProblem* problem_;
  FederatedAlgorithm* algorithm_;
  ClientSelector* selector_;
  const SimulationConfig& config_;
  const SystemModel* system_model_;
  const RoundObserver* observer_;
  /// Kept only for the checkpoint pre-flight: codec state (error-feedback
  /// residuals) is not serialized, so checkpointing rejects codec runs.
  UpdateCodec* uplink_codec_;
  UpdateCodec* downlink_codec_;
  /// Serve-mode wave source (fl/ingest.h); null for in-process execution.
  IngestSource* ingest_;

  Rng master_;
  Rng selection_rng_;
  Rng init_rng_;
  CommPipeline pipeline_;
  ClientExecutor executor_;

  /// Borrowed live model buffer (owned by Simulation).
  std::vector<float>& theta_;

  /// Opt-in per-round JSONL trace (closed/no-op unless configured).
  obs::RoundTraceWriter round_trace_;

  /// Staleness discount; constant 1 in sync, where every update is fresh.
  StalenessWeightFn staleness_weight_;

  // Loop state. A checkpoint carries all of it except `wave_` (sync
  // checkpoints land between waves, when it is empty) and `in_flight_`
  // (exactly the queued clients).
  /// Simulated time: the latest arrival consumed so far.
  double now_ = 0.0;
  /// Monotone dispatch counter; the (time, sequence) tie-break.
  int64_t sequence_ = 0;
  /// Next dispatch wave id (in sync, the next round).
  int wave_counter_ = 0;
  /// Aggregations applied to θ; staleness is measured against it.
  int server_version_ = 0;
  /// Event modes: in-flight slots, fixed by the initial wave.
  int concurrency_ = 0;
  /// Download bytes billed at dispatch, flushed into the next record.
  int64_t pending_download_bytes_ = 0;
  int64_t pending_download_bytes_raw_ = 0;
  /// Fates counted since the last aggregation.
  int pending_dropped_ = 0;
  int pending_partial_ = 0;
  int drops_since_aggregate_ = 0;
  /// Admitted arrivals awaiting the trigger, in arrival order.
  std::vector<ClientCompletionEvent> buffer_;
  /// Event modes: dispatched, not yet arrived.
  EventQueue queue_;
  /// Sync: the open wave's remaining arrivals, in dispatch order.
  std::deque<ClientCompletionEvent> wave_;
  /// Sync: the next round's cohort, drawn one round ahead so the store
  /// can prefetch it; empty when not drawn yet.
  std::vector<int> next_cohort_;
  /// Clients dispatched and not yet arrived.
  std::vector<char> in_flight_;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_SERVER_LOOP_H_
