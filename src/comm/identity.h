/// \file identity.h
/// \brief The no-op codec: raw fp32 on the wire.
///
/// Exists so "compressed" and "uncompressed" runs share one code path: the
/// simulator always talks to an UpdateCodec, and attaching the identity
/// codec is bitwise indistinguishable — in trajectory and in byte
/// accounting — from attaching none (tests/fl/deterministic_replay_test.cc
/// pins this). Its bytes are also the serving protocol's raw-fp32 format:
/// src/serve encodes and decodes with it wherever no codec is attached.

#ifndef FEDADMM_COMM_IDENTITY_H_
#define FEDADMM_COMM_IDENTITY_H_

#include <string>
#include <vector>

#include "comm/codec.h"

namespace fedadmm {

/// \brief Lossless pass-through; wire format is the raw little-endian fp32
/// array (no header: dim is the byte count / 4).
class IdentityCodec : public UpdateCodec {
 public:
  std::string name() const override { return "identity"; }

  Payload Encode(int64_t stream, const std::vector<float>& v,
                 Rng* rng) override;
  Result<std::vector<float>> TryDecode(const uint8_t* data, size_t len,
                                       int64_t expected_dim) const override;
  int64_t WireBytes(int64_t dim) const override;
};

}  // namespace fedadmm

#endif  // FEDADMM_COMM_IDENTITY_H_
