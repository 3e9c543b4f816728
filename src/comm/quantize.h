/// \file quantize.h
/// \brief Uniform b-bit quantization with per-chunk scale.
///
/// The vector is cut into fixed-size chunks; each chunk stores one fp32
/// scale s = max|v| and every value as a b-bit code on the uniform grid of
/// L = 2^b − 1 levels over [−s, +s]. Two rounding rules:
///
///   * `UniformQuantCodec`    — round-to-nearest. Reconstruction error is
///     at most s/L per coordinate (half a grid step). b = 16 is the
///     "fp16-style" configuration: ~2 bytes/value at error ≤ s/65535.
///   * `StochasticQuantCodec` — QSGD-style stochastic rounding to one of
///     the two adjacent levels, unbiased conditional on the scale
///     (E[decode] = v); error is strictly below one full grid step 2s/L.
///     All randomness comes from the caller's `Rng`, so encoding is
///     bitwise reproducible given the stream — the simulator forks a
///     per-(round, client) stream and thread count cannot change results.
///
/// Per-chunk scales localize the damage of outlier coordinates: a single
/// huge entry only coarsens its own chunk's grid. An all-zero chunk stores
/// scale 0 and decodes exactly.
///
/// Wire format (little-endian): u64 dim, then per chunk an f32 scale
/// followed by the chunk's codes bit-packed and padded to a byte boundary.

#ifndef FEDADMM_COMM_QUANTIZE_H_
#define FEDADMM_COMM_QUANTIZE_H_

#include <string>
#include <vector>

#include "comm/codec.h"

namespace fedadmm {

/// Chunk length every factory-built quantizer uses.
inline constexpr int kDefaultQuantChunk = 256;

/// \brief Shared chunked-grid machinery of the two quantizers.
class ChunkedQuantCodec : public UpdateCodec {
 public:
  /// `bits` in [1, 16]; `chunk` >= 1 values per scale.
  ChunkedQuantCodec(int bits, int chunk);

  Result<std::vector<float>> TryDecode(const uint8_t* data, size_t len,
                                       int64_t expected_dim) const override;
  int64_t WireBytes(int64_t dim) const override;

  int bits() const { return bits_; }
  int chunk() const { return chunk_; }
  /// Grid levels L = 2^bits − 1.
  int levels() const { return levels_; }

 protected:
  /// Encodes with the subclass's rounding rule via `Quantize`.
  Payload EncodeImpl(const std::vector<float>& v, Rng* rng);

  /// Maps x in [0, L] to an integer code in [0, L].
  virtual uint32_t Quantize(double x, Rng* rng) const = 0;

  /// True when `Quantize` is exactly round-to-nearest on the grid with no
  /// Rng consumption — the contract that lets `EncodeImpl` run the batch
  /// SIMD quantizer kernel instead of the per-element virtual call.
  /// Stochastic subclasses must return false: their per-coordinate Rng
  /// draws are part of the replay contract and must stay sequential.
  virtual bool UsesDeterministicGrid() const { return false; }

 private:
  /// CHECKs `bits` in [1, 16] *before* computing L = 2^bits − 1, so an
  /// out-of-range width aborts cleanly instead of hitting undefined
  /// behavior in the shift (member initializers run before the ctor body).
  static int ValidatedLevels(int bits);

  int bits_;
  int chunk_;
  int levels_;
};

/// \brief Deterministic round-to-nearest; error <= scale/L per coordinate.
class UniformQuantCodec : public ChunkedQuantCodec {
 public:
  explicit UniformQuantCodec(int bits, int chunk = kDefaultQuantChunk)
      : ChunkedQuantCodec(bits, chunk) {}

  std::string name() const override;
  Payload Encode(int64_t stream, const std::vector<float>& v,
                 Rng* rng) override;

 protected:
  uint32_t Quantize(double x, Rng* rng) const override;
  bool UsesDeterministicGrid() const override { return true; }
};

/// \brief Stochastic rounding; unbiased, error < 2*scale/L per coordinate.
/// Encode requires a non-null Rng.
class StochasticQuantCodec : public ChunkedQuantCodec {
 public:
  explicit StochasticQuantCodec(int bits, int chunk = kDefaultQuantChunk)
      : ChunkedQuantCodec(bits, chunk) {}

  std::string name() const override;
  Payload Encode(int64_t stream, const std::vector<float>& v,
                 Rng* rng) override;
  /// Stochastic rounding draws from the caller's Rng: a remote encoder
  /// cannot reproduce the server's stream (decode stays deterministic).
  bool deterministic() const override { return false; }

 protected:
  uint32_t Quantize(double x, Rng* rng) const override;
};

}  // namespace fedadmm

#endif  // FEDADMM_COMM_QUANTIZE_H_
