#include "comm/identity.h"

#include <cstring>

#include "comm/wire.h"

namespace fedadmm {

Payload IdentityCodec::Encode(int64_t stream, const std::vector<float>& v,
                              Rng* rng) {
  (void)stream;
  (void)rng;
  Payload payload;
  payload.dim = static_cast<int64_t>(v.size());
  if constexpr (wire::kHostIsLittleEndian) {
    // The host's float array already is the wire form: one copy.
    payload.bytes.resize(v.size() * sizeof(float));
    if (!v.empty()) {
      std::memcpy(payload.bytes.data(), v.data(), payload.bytes.size());
    }
  } else {
    payload.bytes.reserve(v.size() * sizeof(float));
    wire::Writer writer(&payload.bytes);
    for (float x : v) writer.PutF32(x);
  }
  return payload;
}

Result<std::vector<float>> IdentityCodec::TryDecode(
    const uint8_t* data, size_t len, int64_t expected_dim) const {
  if (expected_dim < 0 ||
      len != static_cast<size_t>(expected_dim) * sizeof(float)) {
    return Status::InvalidArgument(
        "IdentityCodec: payload is " + std::to_string(len) +
        " bytes, want " + std::to_string(expected_dim) + " * 4");
  }
  std::vector<float> v(static_cast<size_t>(expected_dim));
  if constexpr (wire::kHostIsLittleEndian) {
    if (len != 0) std::memcpy(v.data(), data, len);
  } else {
    wire::ReaderView reader(data, len);
    for (float& x : v) FEDADMM_RETURN_IF_ERROR(reader.TryF32(&x));
  }
  return {std::move(v)};
}

int64_t IdentityCodec::WireBytes(int64_t dim) const {
  FEDADMM_CHECK_MSG(dim >= 0, "IdentityCodec: negative dim");
  return dim * static_cast<int64_t>(sizeof(float));
}

}  // namespace fedadmm
