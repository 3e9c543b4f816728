/// \file topk.h
/// \brief Top-k magnitude sparsification with explicit index encoding.
///
/// Keeps the k = ceil(fraction · d) largest-|v| coordinates at full fp32
/// precision and drops the rest to zero; the wire carries (index, value)
/// pairs instead of the dense vector, so the payload shrinks from 4d to
/// 16 + 8k bytes. Kept coordinates reconstruct exactly; every dropped
/// magnitude is <= the smallest kept magnitude (ties broken by lower index
/// first, deterministically). Usually paired with the error-feedback
/// wrapper (comm/error_feedback.h) so dropped mass is retransmitted later
/// instead of lost.
///
/// Wire format (little-endian): u64 dim, u64 k, k × u32 index (strictly
/// ascending), k × f32 value.

#ifndef FEDADMM_COMM_TOPK_H_
#define FEDADMM_COMM_TOPK_H_

#include <string>
#include <vector>

#include "comm/codec.h"

namespace fedadmm {

/// \brief Keep-the-largest sparsifier. Deterministic; ignores the Rng.
class TopKCodec : public UpdateCodec {
 public:
  /// `fraction` in (0, 1]: the kept share of coordinates. A non-empty
  /// vector always keeps at least one coordinate.
  explicit TopKCodec(double fraction);

  std::string name() const override;
  Payload Encode(int64_t stream, const std::vector<float>& v,
                 Rng* rng) override;
  Result<std::vector<float>> TryDecode(const uint8_t* data, size_t len,
                                       int64_t expected_dim) const override;
  int64_t WireBytes(int64_t dim) const override;

  /// k for a d-vector: min(d, max(1, ceil(fraction·d))); 0 when d == 0.
  int64_t KForDim(int64_t dim) const;

  double fraction() const { return fraction_; }

 private:
  double fraction_;
};

}  // namespace fedadmm

#endif  // FEDADMM_COMM_TOPK_H_
