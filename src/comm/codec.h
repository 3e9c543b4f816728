/// \file codec.h
/// \brief Update compression: the codec interface and payload type.
///
/// In cross-device FL the uplink dominates deployment cost, so the simulator
/// models what real systems do: each client update is *encoded* to a wire
/// payload, the payload's exact byte size is billed to the virtual clock
/// (sys/virtual_clock.h), and the server aggregates the *decoded* — lossy —
/// reconstruction. An `UpdateCodec` bundles the three operations:
///
///   * `Encode`    — vector in R^d to a self-describing byte payload;
///   * `TryDecode` — bytes back to R^d, validated against the expected
///                   dimension; a Status, never an abort, on bad bytes;
///   * `WireBytes(dim)` — the exact serialized size for a d-vector, used by
///                   the accounting paths without materializing a payload.
///
/// `TryDecode` is each codec's one decoder. `Decode(payload)` is derived
/// from it for payloads produced in-process: it decodes at the payload's
/// own dimension and CHECK-fails if its own encoder's bytes do not parse.
///
/// Codecs are deterministic given their inputs: stochastic codecs draw every
/// random bit from the caller-provided `Rng` (the simulator forks a
/// per-(round, client) stream), so replay is bitwise reproducible across
/// thread counts. `Encode` may mutate codec state (the error-feedback
/// wrapper accumulates residuals) and is therefore called serially by the
/// simulator; the decoders and `WireBytes` are const and thread-safe.

#ifndef FEDADMM_COMM_CODEC_H_
#define FEDADMM_COMM_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace fedadmm {

/// \brief An encoded update as it would travel the network.
struct Payload {
  /// The serialized wire form; `bytes.size()` IS the transfer size.
  std::vector<uint8_t> bytes;
  /// Length of the encoded vector, set by `Encode` so `Decode` knows the
  /// dimension to validate against. Not part of the wire form.
  int64_t dim = 0;

  /// Exact bytes this payload occupies on the wire.
  int64_t WireBytes() const { return static_cast<int64_t>(bytes.size()); }
};

/// \brief A lossy (or lossless) vector compressor with exact accounting.
class UpdateCodec {
 public:
  virtual ~UpdateCodec() = default;

  /// Canonical spec string, e.g. "q8", "topk10", "ef:sq4" — round-trips
  /// through `MakeUpdateCodec`.
  virtual std::string name() const = 0;

  /// Encodes `v` into a self-describing payload. `stream` identifies the
  /// logical sender slot for stateful codecs (the simulator passes
  /// 2*client_id for the primary payload, 2*client_id+1 for the secondary,
  /// and kBroadcastStream for the server broadcast); stateless codecs
  /// ignore it. `rng` drives stochastic codecs and may be nullptr for
  /// deterministic ones. Called serially — may mutate codec state.
  virtual Payload Encode(int64_t stream, const std::vector<float>& v,
                         Rng* rng) = 0;

  /// Reconstructs a vector from `len` bytes at `data`: validates the
  /// structure against `expected_dim` before allocating and returns
  /// InvalidArgument on anything `Encode` could not have produced, so bytes
  /// that crossed a process/network boundary (src/serve) can never abort.
  /// A pure function of the bytes; thread-safe (const).
  virtual Result<std::vector<float>> TryDecode(const uint8_t* data,
                                               size_t len,
                                               int64_t expected_dim) const = 0;

  /// `TryDecode` of an in-process payload at its own `dim`; CHECK-fails on
  /// error, which only a codec bug can cause. Virtual only so the
  /// benchmark's tracing decorator can time it.
  virtual std::vector<float> Decode(const Payload& payload) const;

  /// Exact `Encode(...).WireBytes()` for any vector of length `dim`.
  virtual int64_t WireBytes(int64_t dim) const = 0;

  /// True when `Encode` is a pure function of its input vector (no Rng
  /// draws). A serving frontend can only reproduce the in-process
  /// trajectory bitwise for deterministic uplink codecs — the client-side
  /// encoder has no access to the server's per-(round, client) streams.
  virtual bool deterministic() const { return true; }

  /// True when `Encode` mutates cross-round codec state (error feedback).
  /// Stateful uplink codecs are rejected by the serving frontend: the
  /// client-side and server-side residual histories could diverge.
  virtual bool stateful() const { return false; }
};

/// Stream id the simulator uses when the server encodes the θ broadcast.
inline constexpr int64_t kBroadcastStream = -1;

/// \brief Builds a codec from a spec string:
///   * "identity"        — raw fp32, lossless;
///   * "q<b>", b in 1..16 — uniform b-bit quantization, per-chunk scale,
///                          deterministic rounding ("fp16" = alias of "q16");
///   * "sq<b>", b in 1..16 — stochastic (unbiased) b-bit quantization; needs
///                          an Rng at Encode time;
///   * "topk<p>", p in 1..100 — keep the ceil(p% · d) largest-magnitude
///                          coordinates (indices + values on the wire);
///   * "ef:<inner>"      — error-feedback wrapper around any of the above,
///                          accumulating residuals per stream across rounds.
/// Returns InvalidArgument for anything else.
Result<std::unique_ptr<UpdateCodec>> MakeUpdateCodec(const std::string& spec);

/// Example specs for help strings and sweeps.
const std::vector<std::string>& UpdateCodecExampleSpecs();

}  // namespace fedadmm

#endif  // FEDADMM_COMM_CODEC_H_
