/// \file comm_pipeline.h
/// \brief The engine's communication stage: codec billing + RNG forking.
///
/// Owns everything the old `Simulation::Run()` inlined about the wire:
/// encoding the θ broadcast (downlink), predicting and encoding client
/// uploads (uplink), and the stream-keyed RNG forks that keep stochastic
/// codecs bitwise reproducible. The fork tags are distinct from the
/// selection (0x5E1EC7), init (0x1417) and client (0xC11E47) tags, so
/// attaching a codec never perturbs the training streams; per-(wave,
/// client) forks keep results independent of thread scheduling, and the
/// per-client wire streams (2·client_id for the primary payload,
/// 2·client_id + 1 for the secondary) give stateful codecs — error
/// feedback — a stable residual slot per logical sender.

#ifndef FEDADMM_FL_COMM_PIPELINE_H_
#define FEDADMM_FL_COMM_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "comm/codec.h"
#include "fl/round_context.h"
#include "fl/types.h"
#include "util/rng.h"

namespace fedadmm {

/// \brief Downlink/uplink codec application with exact byte billing.
class CommPipeline {
 public:
  /// Codecs are borrowed and may be nullptr (that direction is then raw
  /// fp32 and billed at raw size). `master` seeds the codec fork streams.
  CommPipeline(UpdateCodec* uplink, UpdateCodec* downlink, const Rng& master)
      : uplink_(uplink), downlink_(downlink), master_(master) {}

  /// Encodes θ once for `wave` and returns the plan: clients train on the
  /// decoded broadcast and are billed the compressed size; algorithm extras
  /// beyond θ (`extra_bytes_raw` = DownloadBytesPerClient − raw θ bytes,
  /// e.g. SCAFFOLD's control variate) stay uncompressed.
  DownlinkPlan PrepareDownlink(int wave, const std::vector<float>& theta,
                               int64_t download_per_client_raw);

  /// Stamps `wire_bytes` on every message from `WireBytes()` — the exact
  /// upload size without materializing payloads, so admission and the
  /// virtual clock can bill bytes before any encoding happens. An empty
  /// payload vector (e.g. FedPD's non-communication rounds) is no transfer
  /// at all: no header bytes are billed. No-op without an uplink codec
  /// (`wire_bytes` stays -1 = raw fp32).
  void PredictUplinkBytes(std::vector<UpdateMessage>* updates) const;

  /// Encodes one admitted upload and replaces its payload with the decoded
  /// — lossy — reconstruction. Called serially in a deterministic order so
  /// stateful codecs see a stable schedule; the RNG is forked per
  /// (wave, client), so thread count cannot matter. CHECK-fails if the
  /// encoded size disagrees with the `PredictUplinkBytes` stamp. No-op
  /// without an uplink codec.
  void EncodeUplink(int wave, UpdateMessage* msg);

 private:
  UpdateCodec* uplink_;
  UpdateCodec* downlink_;
  Rng master_;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_COMM_PIPELINE_H_
