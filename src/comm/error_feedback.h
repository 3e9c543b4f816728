/// \file error_feedback.h
/// \brief Error-feedback (EF / memory) wrapper around any lossy codec.
///
/// Plain lossy compression discards information every round; error feedback
/// (Seide et al. 1-bit SGD; EF-SGD) instead *remembers* what compression
/// destroyed and adds it back before the next encode:
///
///   e_t = v_t + r_{t-1}          (input plus carried residual)
///   p_t = inner.Encode(e_t)
///   r_t = e_t - inner.Decode(p_t)
///
/// The residuals telescope: sum_t Decode(p_t) = sum_t v_t - r_T, so the
/// aggregate the server accumulates trails the uncompressed aggregate by a
/// single round's compression error no matter how many rounds ran — the
/// property tests/comm/error_feedback_test.cc pins. Residuals are kept per
/// `stream` (the simulator keys streams by client and payload slot), so
/// concurrent senders never mix memories. A stream whose dimension changes
/// resets its residual.
///
/// Wire format and byte accounting are the inner codec's; the wrapper adds
/// nothing to the payload.

#ifndef FEDADMM_COMM_ERROR_FEEDBACK_H_
#define FEDADMM_COMM_ERROR_FEEDBACK_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/codec.h"

namespace fedadmm {

/// \brief Accumulates per-stream compression residuals across rounds.
class ErrorFeedbackCodec : public UpdateCodec {
 public:
  explicit ErrorFeedbackCodec(std::unique_ptr<UpdateCodec> inner);

  std::string name() const override;
  Payload Encode(int64_t stream, const std::vector<float>& v,
                 Rng* rng) override;
  /// Wire format is the inner codec's; decoding delegates.
  Result<std::vector<float>> TryDecode(const uint8_t* data, size_t len,
                                       int64_t expected_dim) const override {
    return inner_->TryDecode(data, len, expected_dim);
  }
  int64_t WireBytes(int64_t dim) const override;

  bool deterministic() const override { return inner_->deterministic(); }
  /// Residuals accumulate across rounds: a remote encoder's memory would
  /// diverge from the server's — the serving frontend must reject this.
  bool stateful() const override { return true; }

  /// The residual currently carried for `stream` (empty if none yet).
  const std::vector<float>& residual(int64_t stream) const;

  /// Drops all carried residuals (e.g. between independent runs).
  void Reset() { residuals_.clear(); }

  const UpdateCodec& inner() const { return *inner_; }

 private:
  std::unique_ptr<UpdateCodec> inner_;
  std::unordered_map<int64_t, std::vector<float>> residuals_;
};

}  // namespace fedadmm

#endif  // FEDADMM_COMM_ERROR_FEEDBACK_H_
