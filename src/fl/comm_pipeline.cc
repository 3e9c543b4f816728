#include "fl/comm_pipeline.h"

#include "obs/trace.h"
#include "util/status.h"

namespace fedadmm {
namespace {

// Fork tags for the codec RNG streams (see the header on tag disjointness).
constexpr uint64_t kUplinkCodecTag = 0x7C0DEC01;
constexpr uint64_t kDownlinkCodecTag = 0x7C0DEC02;

}  // namespace

DownlinkPlan CommPipeline::PrepareDownlink(int wave,
                                           const std::vector<float>& theta,
                                           int64_t download_per_client_raw) {
  DownlinkPlan plan;
  plan.per_client_bytes_raw = download_per_client_raw;
  plan.per_client_bytes = download_per_client_raw;
  if (downlink_ == nullptr) return plan;

  obs::TraceScope scope("encode_downlink", "comm");
  scope.set_arg("wave", wave);
  const int64_t raw_theta_bytes =
      static_cast<int64_t>(theta.size()) * static_cast<int64_t>(sizeof(float));
  Rng down_rng = master_.Fork(kDownlinkCodecTag, static_cast<uint64_t>(wave));
  Payload payload = downlink_->Encode(kBroadcastStream, theta, &down_rng);
  plan.per_client_bytes =
      payload.WireBytes() + (download_per_client_raw - raw_theta_bytes);
  plan.broadcast = downlink_->Decode(payload);
  plan.use_broadcast = true;
  // Keep the wire form: the serving frontend broadcasts these exact bytes,
  // so a remote client decodes precisely what the in-process loop decoded.
  plan.encoded = std::make_shared<const std::vector<uint8_t>>(
      std::move(payload.bytes));
  return plan;
}

void CommPipeline::PredictUplinkBytes(
    std::vector<UpdateMessage>* updates) const {
  if (uplink_ == nullptr) return;
  for (UpdateMessage& msg : *updates) {
    int64_t wire = 0;
    if (!msg.delta.empty()) {
      wire += uplink_->WireBytes(static_cast<int64_t>(msg.delta.size()));
    }
    if (!msg.delta2.empty()) {
      wire += uplink_->WireBytes(static_cast<int64_t>(msg.delta2.size()));
    }
    msg.wire_bytes = wire;
  }
}

void CommPipeline::EncodeUplink(int wave, UpdateMessage* msg) {
  if (uplink_ == nullptr) return;
  obs::TraceScope scope("encode_uplink", "comm");
  scope.set_arg("client", msg->client_id);
  Rng up_rng = master_.Fork(kUplinkCodecTag, static_cast<uint64_t>(wave),
                            static_cast<uint64_t>(msg->client_id));
  const int64_t primary_stream = 2 * static_cast<int64_t>(msg->client_id);
  int64_t wire = 0;
  if (!msg->delta.empty()) {
    const Payload payload =
        uplink_->Encode(primary_stream, msg->delta, &up_rng);
    wire += payload.WireBytes();
    msg->delta = uplink_->Decode(payload);
  }
  if (!msg->delta2.empty()) {
    const Payload payload =
        uplink_->Encode(primary_stream + 1, msg->delta2, &up_rng);
    wire += payload.WireBytes();
    msg->delta2 = uplink_->Decode(payload);
  }
  FEDADMM_CHECK_MSG(wire == msg->wire_bytes,
                    "uplink codec: WireBytes() disagrees with Encode()");
}

}  // namespace fedadmm
