/// \file frontend.h
/// \brief The sessioned ingestion frontend: wire sessions in, engine waves
/// out.
///
/// `Frontend` sits between a `Transport` (serve/transport.h) and the sync
/// server loop (attached via `Simulation::set_ingest`). Per round it:
///
///   1. `BeginRound` — builds ONE shared MODEL frame (the loop's own
///      encoded broadcast when a downlink codec ran, raw θ otherwise) and
///      opens a collection slot per cohort member. "Raw" is the identity
///      codec's format (comm/identity.h) throughout: with no codec
///      attached, the frontend and the load generator encode and decode
///      with `IdentityCodec`;
///   2. admits UPDATE frames on transport threads: parse with
///      Status-returning `wire::ReaderView` (a hostile byte sequence can
///      never abort the server), validate session/round/dims/payload
///      sizes, mirror the straggler policy as a connection-level predicate
///      (the per-client `StragglerPolicy::Judge` the loop will apply
///      again), then hand the frame to its ingest worker (client mod
///      `num_shards`) through a bounded lock-free ingest queue. A full
///      queue is backpressure: the client gets ACK(THROTTLED,
///      retry_after) and resends — uploads are never silently dropped;
///   3. ingest workers decode each payload exactly once (zero-copy views
///      into the owned frame buffer, riding the SIMD unpack kernels via
///      `UpdateCodec::TryDecode`), fill the wave slot, and ACK with the
///      mirrored verdict;
///   4. `CollectWave` blocks the loop until every cohort slot resolved
///      and returns the messages in selection order — including clients
///      the policy will reject, so the engine's per-client judgment stays
///      the single source of truth and serve-mode θ is bitwise the
///      in-process trajectory.
///
/// A decode failure resolves the wave with a sticky error: `CollectWave`
/// returns Status (never aborts, never deadlocks) and the offending
/// session gets an ERROR frame.
///
/// Lifetime: start the transport with this frontend as sink before
/// `Simulation::Run`, call `FinishServing()` after the run returns (wakes
/// `WaitRoundOpen` waiters with open=false), and stop the transport
/// before destroying the frontend.

#ifndef FEDADMM_SERVE_FRONTEND_H_
#define FEDADMM_SERVE_FRONTEND_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "comm/codec.h"
#include "comm/identity.h"
#include "fl/ingest.h"
#include "obs/metrics.h"
#include "serve/frame.h"
#include "serve/ingest_queue.h"
#include "serve/transport.h"
#include "sys/system_model.h"

namespace fedadmm::serve {

/// \brief Frontend knobs.
struct FrontendOptions {
  /// Ingest workers, each with its own queue; client c's uploads go to
  /// worker c mod `num_shards`. The engine itself is unsharded.
  int num_shards = 1;
  /// Per-shard ingest queue capacity (rounded up to a power of two). The
  /// backpressure knob: smaller queues throttle earlier.
  int queue_capacity = 512;
  /// `retry_after_seconds` stamped into THROTTLED acks.
  double throttle_retry_seconds = 0.001;
  /// `CollectWave` gives up (IoError) after this long without the wave
  /// resolving — turns a wedged client fleet into a clean run failure.
  double collect_timeout_seconds = 120.0;
  /// Uplink codec twin (borrowed, may be null = raw fp32, the identity
  /// codec's bytes): decodes session payloads. Must be the same spec the
  /// clients encode with — and, for bitwise equivalence, the spec attached
  /// to the Simulation.
  UpdateCodec* uplink_codec = nullptr;
  /// Admission predicate source (borrowed, may be null = admit all). Use
  /// the same model attached to the Simulation so connection-level ACKs
  /// mirror the loop's judgment.
  const SystemModel* system_model = nullptr;
};

/// \brief Deterministic + informational byte/count ledger of one serving
/// run. The deterministic fields are pinned by the double-run test and
/// the bench rail; timing-dependent fields (throttle retries, raw
/// transport bytes) are informational only.
struct FrontendLedger {
  // Deterministic for a fixed trace (independent of thread interleaving).
  int64_t hello_count = 0;
  int64_t model_frames = 0;
  int64_t model_payload_bytes = 0;
  int64_t acks_accepted = 0;
  int64_t acks_partial = 0;
  int64_t acks_rejected = 0;
  int64_t ingested_payload_bytes = 0;
  int64_t malformed_frames = 0;
  int64_t protocol_errors = 0;
  int64_t decode_errors = 0;
  // Informational (depend on real-time interleaving).
  int64_t throttled = 0;
  int64_t bytes_in = 0;
  int64_t peak_sessions = 0;
};

/// \brief What `WaitRoundOpen` hands a client driver.
struct RoundInfo {
  /// False once `FinishServing` was called — drivers stop.
  bool open = false;
  int round = -1;
  std::vector<int> cohort;
};

/// \brief The serving frontend (see file comment).
class Frontend : public FrameSink, public IngestSource {
 public:
  explicit Frontend(FrontendOptions options);
  ~Frontend() override;

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  // IngestSource (called by the server loop).
  Status StartServing(int num_clients, int64_t dim) override;
  Status BeginRound(int round, const std::vector<int>& cohort,
                    const DownlinkPlan& downlink,
                    const std::vector<float>& theta) override;
  Result<std::vector<UpdateMessage>> CollectWave(int round) override;

  // FrameSink (called by transport threads).
  void OnBytes(Connection* conn, const uint8_t* data, size_t len) override;
  void OnDisconnect(Connection* conn) override;

  /// Blocks until a round >= `min_round` is open (returns its cohort) or
  /// serving finished (open=false). Client-driver side.
  RoundInfo WaitRoundOpen(int min_round);

  /// Ends serving: wakes `WaitRoundOpen` waiters with open=false, drains
  /// and joins the shard workers. Idempotent; the destructor calls it.
  void FinishServing();

  /// Snapshot of the ledger.
  FrontendLedger ledger() const;

  /// Wall seconds from admission to wave-slot resolution of every decoded
  /// upload, merged over the ingest workers (each records its own). A
  /// collected wave's uploads are all in it by the time `CollectWave`
  /// returns. Informational: it depends on real-time interleaving.
  obs::HistogramStats ingest_latency() const;

 private:
  /// One wave's collection state. Shard items pin it via shared_ptr, so a
  /// straggling worker resolves into the right (possibly superseded) wave.
  struct RoundState {
    int round = -1;
    std::vector<int> cohort;
    std::unordered_map<int, uint32_t> slot_of_client;
    std::shared_ptr<const std::vector<uint8_t>> model_frame;
    int64_t download_bytes_per_client = 0;
    int64_t dim = 0;

    std::mutex mutex;
    std::condition_variable cv;
    /// Wave slots, parallel to `cohort` (selection order).
    std::vector<UpdateMessage> slots;
    /// Per-slot claim state: 0 free, 1 in flight, 2 resolved. Claimed by
    /// CAS on the admission path — the duplicate-upload guard.
    std::unique_ptr<std::atomic<uint8_t>[]> claimed;
    /// Resolved slot count (guarded by `mutex`).
    size_t resolved = 0;
    /// Sticky first decode failure (guarded by `mutex`).
    Status error = Status::OK();
  };

  /// Per-connection session state, hung off `Connection::context()`.
  struct SessionState {
    FrameAssembler assembler;
    int client = -1;
    uint64_t token = 0;
    /// Poisoned stream: all further bytes are ignored.
    bool dead = false;
  };

  /// One admitted upload in flight to its shard worker.
  struct ShardItem {
    int client = -1;
    uint32_t slot = 0;
    /// Pre-computed mirrored verdict for the eventual ACK.
    AckBody ack;
    /// Owns the whole UPDATE frame; `body` views into it (zero-copy).
    std::shared_ptr<std::vector<uint8_t>> frame;
    UpdateBody body;
    Connection* conn = nullptr;
    std::shared_ptr<RoundState> state;
    /// Steady-clock seconds at admission (`ingest_latency`).
    double enqueue_seconds = 0.0;
  };

  SessionState* SessionFor(Connection* conn);
  /// Marks the stream dead, counts it, and sends one ERROR frame.
  void Poison(Connection* conn, SessionState* session, const Status& status);
  void SendError(Connection* conn, ErrorCode code, const Status& status);
  void SendError(Connection* conn, ErrorCode code, const char* message);

  void HandleFrame(Connection* conn, SessionState* session,
                   std::vector<uint8_t> frame);
  void HandleHello(Connection* conn, SessionState* session,
                   const uint8_t* body, size_t len);
  void HandlePull(Connection* conn, SessionState* session,
                  const uint8_t* body, size_t len);
  void HandleUpdate(Connection* conn, SessionState* session,
                    std::vector<uint8_t> frame);

  /// Shard worker: pops, decodes once, resolves the slot, ACKs.
  void WorkerLoop(int shard);
  /// Decodes both payloads of `item` into `msg`; Status on bad bytes.
  Status DecodeItem(const ShardItem& item, UpdateMessage* msg) const;

  /// Seconds on the steady clock (monotonic, informational only).
  static double NowSeconds();

  const FrontendOptions options_;

  // Run shape (set by StartServing).
  std::atomic<bool> serving_{false};
  int num_clients_ = 0;
  int64_t dim_ = 0;

  // Round state (guarded by round_mutex_).
  mutable std::mutex round_mutex_;
  std::condition_variable round_cv_;
  std::shared_ptr<RoundState> current_;
  bool finished_ = false;

  // Session registry (guarded by session_mutex_).
  mutable std::mutex session_mutex_;
  std::unordered_set<SessionState*> sessions_;
  int64_t active_sessions_ = 0;

  // Shard workers.
  std::vector<std::unique_ptr<IngestQueue<ShardItem>>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_workers_{false};

  // Ledger cells (atomics; snapshot via ledger()).
  struct Cells {
    std::atomic<int64_t> hello_count{0};
    std::atomic<int64_t> model_frames{0};
    std::atomic<int64_t> model_payload_bytes{0};
    std::atomic<int64_t> acks_accepted{0};
    std::atomic<int64_t> acks_partial{0};
    std::atomic<int64_t> acks_rejected{0};
    std::atomic<int64_t> ingested_payload_bytes{0};
    std::atomic<int64_t> malformed_frames{0};
    std::atomic<int64_t> protocol_errors{0};
    std::atomic<int64_t> decode_errors{0};
    std::atomic<int64_t> throttled{0};
    std::atomic<int64_t> bytes_in{0};
    std::atomic<int64_t> peak_sessions{0};
  };
  mutable Cells cells_;

  // Per-worker ingest latency (see ingest_latency()).
  std::vector<obs::Histogram> ingest_latency_;

  /// Raw fp32 is the identity codec's wire format: it encodes the
  /// uncompressed MODEL frame and decodes uploads when no codec is set.
  /// Declared last here and in LoadGenerator so they do not shift the
  /// members above: placed after `options_` in both classes, they
  /// measured ~2% fewer updates/s on the loopback ingest benchmark.
  IdentityCodec raw_codec_;
  /// `options_.uplink_codec`, or `raw_codec_` when that is null.
  const UpdateCodec* const uplink_ =
      options_.uplink_codec != nullptr ? options_.uplink_codec : &raw_codec_;
};

}  // namespace fedadmm::serve

#endif  // FEDADMM_SERVE_FRONTEND_H_
