/// \file quantize_simd_test.cc
/// \brief Wire-format equivalence of the SIMD quantizer paths.
///
/// Three contracts, fuzzed across bit widths 1..16 and both dispatch
/// modes:
///  * the batch `pack_codes` kernels are byte-identical to
///    `wire::BitPacker`, and `unpack_codes` restores the codes;
///  * `UniformQuantCodec::Encode` emits identical payload bytes under
///    forced-scalar and AVX2 dispatch (and decodes bitwise identically);
///  * `StochasticQuantCodec` (sequential Rng path) still round-trips and
///    is unaffected by the dispatch mode.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "comm/quantize.h"
#include "comm/wire.h"
#include "gtest/gtest.h"
#include "tensor/simd/simd.h"
#include "util/rng.h"

namespace fedadmm {
namespace {

std::vector<float> RandomUpdate(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Normal(0.0, 1.0));
  return v;
}

/// Runs `fn` once per dispatch mode available on this host, restoring
/// environment-based resolution afterwards.
template <typename Fn>
void ForEachIsa(const Fn& fn) {
  fn(simd::Isa::kScalar);
  if (simd::Avx2Kernels() != nullptr) fn(simd::Isa::kAvx2);
  simd::ForceIsaForTesting(std::nullopt);
}

TEST(QuantizeSimdTest, PackRoundTripMatchesBitPackerAllWidths) {
  Rng rng(0xB1);
  for (int bits = 1; bits <= 16; ++bits) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{16}, size_t{31},
                     size_t{256}, size_t{300}}) {
      std::vector<uint16_t> codes(n);
      const uint32_t maxc = (1u << bits) - 1u;
      for (auto& c : codes) {
        c = static_cast<uint16_t>(rng.UniformInt(0, maxc));
      }
      // Reference bytes through the wire-layer packer.
      std::vector<uint8_t> ref;
      wire::Writer writer(&ref);
      wire::BitPacker packer(&writer, bits);
      for (uint16_t c : codes) packer.Put(c);
      packer.Flush();
      ASSERT_EQ(ref.size(),
                static_cast<size_t>(wire::BitPacker::PackedBytes(
                    static_cast<int64_t>(n), bits)));

      ForEachIsa([&](simd::Isa isa) {
        simd::ForceIsaForTesting(isa);
        const simd::KernelTable& k = simd::ActiveKernels();
        std::vector<uint8_t> packed(ref.size(), 0xAB);
        k.pack_codes(codes.data(), n, bits, packed.data());
        ASSERT_EQ(packed, ref)
            << "pack " << simd::IsaName(isa) << " bits=" << bits
            << " n=" << n;
        std::vector<uint16_t> unpacked(n);
        k.unpack_codes(packed.data(), n, bits, unpacked.data());
        ASSERT_EQ(unpacked, codes)
            << "unpack " << simd::IsaName(isa) << " bits=" << bits
            << " n=" << n;
      });
    }
  }
}

TEST(QuantizeSimdTest, UniformEncodeBytesIdenticalAcrossDispatch) {
  Rng rng(0xB2);
  for (int bits : {1, 4, 8, 12, 16}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{255}, size_t{256},
                     size_t{1000}}) {
      const std::vector<float> v = RandomUpdate(&rng, n);
      std::vector<Payload> payloads;
      std::vector<std::vector<float>> decodes;
      ForEachIsa([&](simd::Isa isa) {
        simd::ForceIsaForTesting(isa);
        UniformQuantCodec codec(bits);
        payloads.push_back(codec.Encode(/*stream=*/0, v, /*rng=*/nullptr));
        decodes.push_back(codec.Decode(payloads.back()));
        ASSERT_EQ(static_cast<int64_t>(payloads.back().bytes.size()),
                  codec.WireBytes(static_cast<int64_t>(n)));
      });
      for (size_t i = 1; i < payloads.size(); ++i) {
        ASSERT_EQ(payloads[i].bytes, payloads[0].bytes)
            << "bits=" << bits << " n=" << n;
        ASSERT_EQ(decodes[i], decodes[0]) << "bits=" << bits << " n=" << n;
      }
    }
  }
}

TEST(QuantizeSimdTest, StochasticUnaffectedByDispatch) {
  Rng data_rng(0xB3);
  const std::vector<float> v = RandomUpdate(&data_rng, 700);
  std::vector<Payload> payloads;
  ForEachIsa([&](simd::Isa isa) {
    simd::ForceIsaForTesting(isa);
    StochasticQuantCodec codec(8);
    Rng enc_rng(42);  // same stream per mode: payload must be identical
    payloads.push_back(codec.Encode(/*stream=*/0, v, &enc_rng));
  });
  for (size_t i = 1; i < payloads.size(); ++i) {
    ASSERT_EQ(payloads[i].bytes, payloads[0].bytes);
  }
  StochasticQuantCodec codec(8);
  const std::vector<float> decoded = codec.Decode(payloads[0]);
  ASSERT_EQ(decoded.size(), v.size());
  // Reconstruction error bounded by one grid step per chunk.
  for (size_t i = 0; i < v.size(); ++i) {
    ASSERT_LT(std::fabs(decoded[i] - v[i]), 1.0f);
  }
}

TEST(QuantizeSimdTest, AllZeroChunksDecodeExactly) {
  ForEachIsa([&](simd::Isa isa) {
    simd::ForceIsaForTesting(isa);
    UniformQuantCodec codec(8);
    const std::vector<float> zeros(600, 0.0f);
    const Payload p = codec.Encode(0, zeros, nullptr);
    const std::vector<float> d = codec.Decode(p);
    for (float x : d) ASSERT_EQ(x, 0.0f);
  });
}

}  // namespace
}  // namespace fedadmm
