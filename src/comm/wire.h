/// \file wire.h
/// \brief The one little-endian byte codec, for disk and network alike.
///
/// Every codec payload, serve frame and checkpoint blob (the engine state,
/// its completion events and the algorithm extras) is written with
/// `Writer` and parsed with `ReaderView`, so `WireBytes()` accounting is
/// exact by construction. `ReaderView` returns Status on truncation
/// instead of aborting, so the same decoder serves in-process payloads,
/// bytes that crossed a process/network boundary (src/serve) and bytes read
/// back from disk, where a malformed input is an input, not a bug.
///
/// The host must be little-endian (asserted below), so host order is wire
/// order: fixed-width values and float arrays are copied as they sit in
/// memory. tests/comm/wire_view_test.cc pins the bytes against hardcoded
/// little-endian sequences.

#ifndef FEDADMM_COMM_WIRE_H_
#define FEDADMM_COMM_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fedadmm::wire {

static_assert(std::endian::native == std::endian::little,
              "codec payloads, serve frames, slab logs and checkpoints are "
              "little-endian and written in host byte order: a big-endian "
              "host is unsupported");

/// \brief Appends fixed-width little-endian values to a byte buffer.
class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {
    FEDADMM_CHECK(out != nullptr);
  }

  void PutU8(uint8_t v) { out_->push_back(v); }

  void PutU16(uint16_t v) {
    out_->push_back(static_cast<uint8_t>(v));
    out_->push_back(static_cast<uint8_t>(v >> 8));
  }

  void PutU32(uint32_t v) {
    const size_t pos = out_->size();
    out_->resize(pos + sizeof(v));
    std::memcpy(out_->data() + pos, &v, sizeof(v));
  }

  void PutU64(uint64_t v) {
    const size_t pos = out_->size();
    out_->resize(pos + sizeof(v));
    std::memcpy(out_->data() + pos, &v, sizeof(v));
  }

  void PutF32(float v) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU32(bits);
  }

  void PutF64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  /// A u64 byte count, then the bytes.
  void PutString(std::string_view s) {
    PutU64(s.size());
    out_->insert(out_->end(), s.begin(), s.end());
  }

  /// A u64 float count, then the fp32 bit patterns.
  void PutFloats(std::span<const float> v) {
    PutU64(v.size());
    if (!v.empty()) {
      std::memcpy(Extend(v.size_bytes()), v.data(), v.size_bytes());
    }
  }

  /// Appends `n` uninitialized-content (zeroed) bytes and returns a pointer
  /// to them, for block writers (e.g. SIMD bit packing) that produce whole
  /// regions at once. The pointer is invalidated by any further append.
  uint8_t* Extend(size_t n) {
    const size_t pos = out_->size();
    out_->resize(pos + n);
    return out_->data() + pos;
  }

 private:
  std::vector<uint8_t>* out_;
};

/// \brief Status-returning little-endian parser over a borrowed byte span.
///
/// Every accessor reports truncation as `Status::InvalidArgument` instead
/// of aborting, so network-supplied bytes can be parsed without trusting
/// them. Out-parameters (rather than `Result<T>`) keep the hot ingest path
/// allocation-free.
class ReaderView {
 public:
  ReaderView(const uint8_t* data, size_t len) : data_(data), len_(len) {
    FEDADMM_CHECK(data != nullptr || len == 0);
  }
  /// Parses the bytes of a string (checkpoint blobs travel as strings).
  explicit ReaderView(std::string_view bytes)
      : ReaderView(reinterpret_cast<const uint8_t*>(bytes.data()),
                   bytes.size()) {}

  Status TryU8(uint8_t* out) {
    if (pos_ + 1 > len_) return Truncated();
    *out = data_[pos_++];
    return Status::OK();
  }

  Status TryU16(uint16_t* out) { return TryHost(out); }
  Status TryU32(uint32_t* out) { return TryHost(out); }
  Status TryU64(uint64_t* out) { return TryHost(out); }
  Status TryF32(float* out) { return TryHost(out); }
  Status TryF64(double* out) { return TryHost(out); }

  /// `Writer::PutString`'s layout.
  Status TryString(std::string* out) {
    uint64_t len = 0;
    FEDADMM_RETURN_IF_ERROR(TryU64(&len));
    if (len > remaining()) return Truncated();
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }

  /// `Writer::PutFloats`' layout.
  Status TryFloats(std::vector<float>* out) {
    uint64_t count = 0;
    FEDADMM_RETURN_IF_ERROR(TryU64(&count));
    // Divide, not multiply: a crafted count must not wrap the bound.
    if (count > remaining() / sizeof(float)) return Truncated();
    out->resize(count);
    const size_t bytes = count * sizeof(float);
    if (bytes != 0) std::memcpy(out->data(), data_ + pos_, bytes);
    pos_ += bytes;
    return Status::OK();
  }

  /// Consumes `n` bytes at once, pointing `*out` at them (valid while the
  /// underlying span lives), for block parsers (SIMD bit unpacking,
  /// payload views).
  Status TrySkip(size_t n, const uint8_t** out) {
    if (n > len_ - pos_) return Truncated();
    *out = data_ + pos_;
    pos_ += n;
    return Status::OK();
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return len_ - pos_; }
  /// Bytes consumed so far.
  size_t consumed() const { return pos_; }

 private:
  static Status Truncated() {
    return Status::InvalidArgument("wire: truncated payload");
  }

  template <typename T>
  Status TryHost(T* out) {
    if (sizeof(T) > remaining()) return Truncated();
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// \brief Packs fixed-width codes (1..16 bits each) into a byte stream,
/// little-endian within and across bytes. `Flush` pads the final partial
/// byte with zero bits. The SIMD `unpack_codes` kernels (tensor/simd) read
/// the codes back.
class BitPacker {
 public:
  BitPacker(Writer* out, int bits) : out_(out), bits_(bits) {
    FEDADMM_CHECK_MSG(bits >= 1 && bits <= 16, "BitPacker: bits in [1,16]");
  }

  void Put(uint32_t code) {
    acc_ |= static_cast<uint64_t>(code) << filled_;
    filled_ += bits_;
    while (filled_ >= 8) {
      out_->PutU8(static_cast<uint8_t>(acc_ & 0xFF));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  void Flush() {
    if (filled_ > 0) {
      out_->PutU8(static_cast<uint8_t>(acc_ & 0xFF));
      acc_ = 0;
      filled_ = 0;
    }
  }

  /// Exact bytes `count` codes of `bits` bits occupy after Flush.
  static int64_t PackedBytes(int64_t count, int bits) {
    return (count * static_cast<int64_t>(bits) + 7) / 8;
  }

 private:
  Writer* out_;
  int bits_;
  uint64_t acc_ = 0;
  int filled_ = 0;
};

}  // namespace fedadmm::wire

#endif  // FEDADMM_COMM_WIRE_H_
