#include "comm/error_feedback.h"

#include <utility>

namespace fedadmm {

ErrorFeedbackCodec::ErrorFeedbackCodec(std::unique_ptr<UpdateCodec> inner)
    : inner_(std::move(inner)) {
  FEDADMM_CHECK_MSG(inner_ != nullptr, "ErrorFeedbackCodec: inner required");
}

std::string ErrorFeedbackCodec::name() const {
  return "ef:" + inner_->name();
}

Payload ErrorFeedbackCodec::Encode(int64_t stream,
                                   const std::vector<float>& v, Rng* rng) {
  std::vector<float>& residual = residuals_[stream];
  if (residual.size() != v.size()) {
    residual.assign(v.size(), 0.0f);
  }
  // e = v + r: what the sender *wants* the server to have learned by now.
  std::vector<float> compensated(v.size());
  for (size_t i = 0; i < v.size(); ++i) compensated[i] = v[i] + residual[i];
  Payload payload = inner_->Encode(stream, compensated, rng);
  const std::vector<float> decoded = inner_->Decode(payload);
  FEDADMM_CHECK_MSG(decoded.size() == v.size(),
                    "ErrorFeedbackCodec: inner changed dimension");
  for (size_t i = 0; i < v.size(); ++i) {
    residual[i] = compensated[i] - decoded[i];
  }
  return payload;
}

int64_t ErrorFeedbackCodec::WireBytes(int64_t dim) const {
  return inner_->WireBytes(dim);
}

const std::vector<float>& ErrorFeedbackCodec::residual(int64_t stream) const {
  static const std::vector<float> kEmpty;
  auto it = residuals_.find(stream);
  return it == residuals_.end() ? kEmpty : it->second;
}

}  // namespace fedadmm
