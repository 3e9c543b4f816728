/// \file round_context.h
/// \brief The per-wave downlink plan shared by the engine's stages.
///
/// Every dispatch wave (fl/server_loop.h) — a sync round's cohort or an
/// event-mode replacement — starts with one `DownlinkPlan` from
/// `CommPipeline::PrepareDownlink`: the broadcast the wave's clients train
/// on and what it costs each of them. A serving frontend receives the same
/// plan through `IngestSource::BeginRound` (fl/ingest.h).

#ifndef FEDADMM_FL_ROUND_CONTEXT_H_
#define FEDADMM_FL_ROUND_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace fedadmm {

/// \brief What the server broadcast this wave and what it cost per client.
struct DownlinkPlan {
  /// Decoded broadcast the clients actually train on; empty when no
  /// downlink codec is attached (clients read θ directly).
  std::vector<float> broadcast;
  /// True when `broadcast` holds the decoded (lossy) θ.
  bool use_broadcast = false;
  /// The encoded broadcast wire bytes when a downlink codec ran; null
  /// otherwise. Shared so a serving frontend (src/serve) can fan the exact
  /// in-loop-encoded payload out to every session's MODEL frame without
  /// copying it per client.
  std::shared_ptr<const std::vector<uint8_t>> encoded;
  /// Wire bytes each selected client downloads (codec-compressed θ plus any
  /// uncompressed algorithm extras).
  int64_t per_client_bytes = 0;
  /// The same download at uncompressed fp32 size.
  int64_t per_client_bytes_raw = 0;

  /// The parameter vector clients train on: the decoded broadcast when a
  /// downlink codec ran, `theta` itself otherwise.
  const std::vector<float>& ThetaForClients(
      const std::vector<float>& theta) const {
    return use_broadcast ? broadcast : theta;
  }
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_ROUND_CONTEXT_H_
