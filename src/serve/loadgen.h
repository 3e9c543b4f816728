/// \file loadgen.h
/// \brief Fleet load generator: drives tens of thousands of client
/// sessions against a serving frontend.
///
/// `LoadGenerator::Run()` (call it from its own thread, concurrently with
/// `Simulation::Run`) loops `Frontend::WaitRoundOpen` and, per round,
/// replays the cohort as real sessions: connect + HELLO once per client,
/// PULL the broadcast (decoded exactly once per round), run the true
/// local computation through its own `ClientExecutor` — the same
/// per-(round, client) RNG forks as the in-process engine, so the wave is
/// bitwise identical — then encode + UPLOAD every update before polling
/// ACKs, retrying on THROTTLED. The fire-hose upload phase (send all,
/// then poll) is what actually exercises the frontend's bounded-queue
/// backpressure at 10k+ sessions.
///
/// Requires a deterministic, stateless uplink codec (or none): drivers
/// encode concurrently, which is only sound when Encode is a pure
/// function of its input.

#ifndef FEDADMM_SERVE_LOADGEN_H_
#define FEDADMM_SERVE_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/codec.h"
#include "comm/identity.h"
#include "fl/client_executor.h"
#include "serve/frontend.h"
#include "serve/transport.h"
#include "util/thread_pool.h"

namespace fedadmm::serve {

/// \brief Load-generator knobs.
struct LoadGenOptions {
  /// Driver threads for session I/O (connect/pull/upload/ack phases).
  int driver_threads = 4;
  /// Client-side encoder twin of the run's uplink codec (borrowed, may be
  /// null = raw fp32 payloads, the identity codec's bytes). Must be
  /// deterministic and stateless.
  UpdateCodec* uplink_codec = nullptr;
  /// Client-side decoder twin of the run's downlink codec (borrowed, may
  /// be null = raw fp32 broadcast). Raw MODEL frames always decode with
  /// the identity codec.
  UpdateCodec* downlink_codec = nullptr;
  /// Per-frame receive deadline; a silent server fails the run (IoError)
  /// instead of hanging it.
  double poll_timeout_seconds = 60.0;
};

/// \brief Informational session-side tallies (timing-dependent where
/// noted; the deterministic ledger lives in `Frontend`).
struct LoadGenStats {
  int64_t rounds = 0;
  int64_t model_frames = 0;
  int64_t acks_accepted = 0;
  int64_t acks_partial = 0;
  int64_t acks_rejected = 0;
  /// THROTTLED acks absorbed (each one is a resend) — timing-dependent.
  int64_t throttle_retries = 0;
};

/// \brief Drives client sessions against a Frontend over a Transport.
class LoadGenerator {
 public:
  /// `problem`/`algorithm` are borrowed and must be the SAME objects the
  /// serve-mode Simulation aggregates with: the loop skips in-process
  /// client execution, so per-client algorithm state must mutate exactly
  /// once — here. `seed` and `num_threads` must match the
  /// SimulationConfig for bitwise-equal waves. `num_shards` is ignored, a
  /// stub kept only because perfbench passes it.
  LoadGenerator(FederatedProblem* problem, FederatedAlgorithm* algorithm,
                uint64_t seed, int num_threads, int num_shards,
                Frontend* frontend, Transport* transport,
                LoadGenOptions options);

  /// Serves rounds until `Frontend::FinishServing`; first session error
  /// aborts the run with its Status.
  Status Run();

  LoadGenStats stats() const;

 private:
  struct Session {
    std::unique_ptr<ClientChannel> channel;
    uint64_t token = 0;
    /// The encoded UPDATE frame, kept for THROTTLED resends.
    std::vector<uint8_t> update_frame;
  };

  Status RunRound(const RoundInfo& info);
  /// Connects + HELLOs `client`'s session if it does not exist yet.
  Status EnsureSession(int client);
  /// PULLs `round` on `client`'s session; returns the MODEL frame.
  Status Pull(int client, int round, std::vector<uint8_t>* model_frame);
  /// Decodes a MODEL frame into θ (downlink codec, or raw fp32).
  Status DecodeModel(const std::vector<uint8_t>& model_frame, int round,
                     std::vector<float>* theta);
  /// Builds + sends `client`'s UPDATE for `msg`.
  Status SendUpdate(int client, int round, const UpdateMessage& msg);
  /// Polls `client`'s terminal ACK, resending on THROTTLED.
  Status AwaitAck(int client, int round);
  /// Blocks until one frame arrives on `session` (poll + backoff).
  Status PollFrame(Session* session, std::vector<uint8_t>* frame);

  /// Runs `body(i)` over [0, n) on the driver pool, capturing the first
  /// error; bodies observing a prior error return immediately.
  Status ParallelSessions(int n, const std::function<Status(int)>& body);

  FederatedProblem* problem_;
  Frontend* frontend_;
  Transport* transport_;
  const LoadGenOptions options_;
  ClientExecutor executor_;
  ThreadPool drivers_;

  std::vector<Session> sessions_;

  std::mutex error_mutex_;
  Status first_error_ = Status::OK();
  std::atomic<bool> failed_{false};

  struct Cells {
    std::atomic<int64_t> rounds{0};
    std::atomic<int64_t> model_frames{0};
    std::atomic<int64_t> acks_accepted{0};
    std::atomic<int64_t> acks_partial{0};
    std::atomic<int64_t> acks_rejected{0};
    std::atomic<int64_t> throttle_retries{0};
  };
  mutable Cells cells_;

  /// Raw fp32 is the identity codec's wire format: it encodes uploads when
  /// no uplink codec is set and decodes every unencoded MODEL frame.
  /// Declared last, for the layout reason given in `Frontend`.
  IdentityCodec raw_codec_;
  /// `options_.uplink_codec`, or `raw_codec_` when that is null.
  UpdateCodec* const uplink_ =
      options_.uplink_codec != nullptr ? options_.uplink_codec : &raw_codec_;
};

}  // namespace fedadmm::serve

#endif  // FEDADMM_SERVE_LOADGEN_H_
