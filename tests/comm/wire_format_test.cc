// Wire-format accounting: WireBytes(dim) must equal the serialized payload
// size *exactly* for every codec and every dimension — the virtual clock
// bills these numbers, so an off-by-one here silently skews every
// time-to-accuracy result. Chunk-boundary dims are the classic failure.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "comm/identity.h"
#include "comm/quantize.h"
#include "comm/topk.h"
#include "comm/codec_test_util.h"

namespace fedadmm {
namespace {

using testing::RandomVector;

const std::vector<int64_t>& TestDims() {
  // Chunk boundaries (255/256/257), bit-packing remainders, and extremes.
  static const std::vector<int64_t> kDims = {0,  1,   2,   3,   7,    8,
                                             63, 255, 256, 257, 1000, 4096};
  return kDims;
}

class WireFormatTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WireFormatTest, WireBytesMatchesSerializedSizeExactly) {
  Rng rng(41);
  for (int64_t dim : TestDims()) {
    auto codec = MakeUpdateCodec(GetParam());
    ASSERT_TRUE(codec.ok()) << GetParam();
    const std::vector<float> v =
        RandomVector(static_cast<size_t>(dim), &rng);
    Rng encode_rng = rng.Fork(7, static_cast<uint64_t>(dim));
    const Payload payload =
        (*codec)->Encode(/*stream=*/0, v, &encode_rng);
    EXPECT_EQ(payload.WireBytes(),
              static_cast<int64_t>(payload.bytes.size()));
    EXPECT_EQ((*codec)->WireBytes(dim), payload.WireBytes())
        << GetParam() << " dim=" << dim;
  }
}

TEST_P(WireFormatTest, PayloadIsSelfDescribing) {
  Rng rng(43);
  for (int64_t dim : TestDims()) {
    auto codec = MakeUpdateCodec(GetParam());
    ASSERT_TRUE(codec.ok()) << GetParam();
    const std::vector<float> v =
        RandomVector(static_cast<size_t>(dim), &rng);
    Rng encode_rng = rng.Fork(9, static_cast<uint64_t>(dim));
    const Payload payload = (*codec)->Encode(0, v, &encode_rng);
    // Decode sees only bytes — the dimension must travel in them.
    EXPECT_EQ((*codec)->Decode(payload).size(), v.size())
        << GetParam() << " dim=" << dim;
  }
}

TEST_P(WireFormatTest, NameRoundTripsThroughFactory) {
  auto codec = MakeUpdateCodec(GetParam());
  ASSERT_TRUE(codec.ok());
  auto again = MakeUpdateCodec((*codec)->name());
  ASSERT_TRUE(again.ok()) << (*codec)->name();
  EXPECT_EQ((*again)->name(), (*codec)->name());
  EXPECT_EQ((*again)->WireBytes(1000), (*codec)->WireBytes(1000));
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, WireFormatTest,
                         ::testing::ValuesIn(UpdateCodecExampleSpecs()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == ':') c = '_';
                           }
                           return n;
                         });

TEST(WireFormatSizesTest, IdentityIsExactlyRawFp32) {
  IdentityCodec codec;
  for (int64_t dim : TestDims()) {
    EXPECT_EQ(codec.WireBytes(dim), 4 * dim);
  }
}

TEST(WireFormatSizesTest, TopKIsHeaderPlusIndexValuePairs) {
  TopKCodec codec(0.1);
  EXPECT_EQ(codec.WireBytes(0), 16);        // bare header
  EXPECT_EQ(codec.WireBytes(1), 16 + 8);    // k clamps up to 1
  EXPECT_EQ(codec.WireBytes(100), 16 + 8 * 10);
  EXPECT_EQ(codec.WireBytes(101), 16 + 8 * 11);  // ceil, not floor
}

TEST(WireFormatSizesTest, QuantIsHeaderPlusPerChunkScaleAndPackedCodes) {
  // 8-bit, chunk 256: dim 257 = header + (4 + 256) + (4 + 1).
  UniformQuantCodec q8(8);
  EXPECT_EQ(q8.WireBytes(257), 8 + (4 + 256) + (4 + 1));
  // 4-bit: packing rounds odd chunk tails up to whole bytes.
  UniformQuantCodec q4(4);
  EXPECT_EQ(q4.WireBytes(3), 8 + 4 + 2);
  // 1-bit: 256-value chunk = 32 code bytes.
  UniformQuantCodec q1(1);
  EXPECT_EQ(q1.WireBytes(256), 8 + 4 + 32);
  // 16-bit ("fp16"): ~2 bytes per value.
  UniformQuantCodec q16(16);
  EXPECT_EQ(q16.WireBytes(256), 8 + 4 + 512);
}

TEST(WireFormatSizesTest, CompressionActuallyCompresses) {
  // The point of the subsystem: everything except identity beats 4d on a
  // realistically sized update.
  const int64_t dim = 100000;
  const int64_t raw = 4 * dim;
  for (const std::string& spec : UpdateCodecExampleSpecs()) {
    if (spec == "identity") continue;
    auto codec = MakeUpdateCodec(spec);
    ASSERT_TRUE(codec.ok());
    EXPECT_LT((*codec)->WireBytes(dim), raw) << spec;
  }
}

TEST(CodecFactoryTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "q", "q0", "q17", "sq99", "topk0", "topk101", "topk", "ef:",
        "ef:ef:q8", "gzip", "q8x", "identity2",
        // Suffixes past INT_MAX must not wrap into a valid width (these
        // were q8, sq1 and topk10 once narrowed to int), and the suffix is
        // a bare decimal: no sign, no space.
        "q4294967304", "sq4294967297", "topk4294967306", "ef:q4294967304",
        "q 8", "q+8"}) {
    EXPECT_FALSE(MakeUpdateCodec(bad).ok()) << "'" << bad << "'";
  }
}

TEST(CodecFactoryTest, Fp16IsAnAliasOfQ16) {
  auto fp16 = MakeUpdateCodec("fp16");
  auto q16 = MakeUpdateCodec("q16");
  ASSERT_TRUE(fp16.ok() && q16.ok());
  EXPECT_EQ((*fp16)->name(), "q16");
  EXPECT_EQ((*fp16)->WireBytes(12345), (*q16)->WireBytes(12345));
}

}  // namespace
}  // namespace fedadmm
