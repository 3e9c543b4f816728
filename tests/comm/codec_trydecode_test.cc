// The boundary-decode surface: every encoder must emit exactly
// `WireBytes(dim)` bytes (the accounting paths and the serving frontend's
// structural validation both assume the equality), which `TryDecode` —
// each codec's only decoder — reads back to `dim` floats, and `TryDecode`
// must reject malformed bytes with a Status (never a CHECK abort — these
// bytes come off the network).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "comm/codec_test_util.h"
#include "util/rng.h"

namespace fedadmm {
namespace {

std::vector<int64_t> TestDims() {
  return {0, 1, 2, 3, 7, 8, 63, 255, 256, 257, 1000, 4096};
}

class TryDecodeSpecTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TryDecodeSpecTest, EncodeEmitsExactlyWireBytes) {
  // The exact-reserve pin: Encode reserves WireBytes(dim) up front and must
  // fill it exactly — a drifting WireBytes silently corrupts the virtual
  // clock's transfer accounting and the frontend's frame validation. The
  // codec's own payload must then pass its boundary decoder.
  for (int64_t dim : TestDims()) {
    auto codec = MakeUpdateCodec(GetParam()).ValueOrDie();
    Rng rng(0x5EED + static_cast<uint64_t>(dim));
    const std::vector<float> v =
        testing::RandomVector(static_cast<size_t>(dim), &rng);
    const Payload payload = codec->Encode(/*stream=*/0, v, &rng);
    EXPECT_EQ(static_cast<int64_t>(payload.bytes.size()),
              codec->WireBytes(dim))
        << GetParam() << " dim=" << dim;
    auto decoded =
        codec->TryDecode(payload.bytes.data(), payload.bytes.size(), dim);
    ASSERT_TRUE(decoded.ok())
        << GetParam() << " dim=" << dim << ": " << decoded.status().message();
    EXPECT_EQ(static_cast<int64_t>(decoded->size()), dim)
        << GetParam() << " dim=" << dim;
  }
}

TEST_P(TryDecodeSpecTest, MalformedBytesReturnStatusNotAbort) {
  const int64_t dim = 257;
  auto codec = MakeUpdateCodec(GetParam()).ValueOrDie();
  Rng rng(0xBAD5EEDull);
  const std::vector<float> v =
      testing::RandomVector(static_cast<size_t>(dim), &rng);
  const Payload payload = codec->Encode(/*stream=*/0, v, &rng);
  const std::vector<uint8_t>& good = payload.bytes;

  // Empty span.
  EXPECT_FALSE(codec->TryDecode(nullptr, 0, dim).ok());
  // Truncations at every byte boundary of the front of the payload, plus
  // one-short.
  for (size_t cut : {size_t{1}, size_t{7}, size_t{8}, good.size() / 2,
                     good.size() - 1}) {
    if (cut >= good.size()) continue;
    EXPECT_FALSE(codec->TryDecode(good.data(), cut, dim).ok())
        << GetParam() << " cut=" << cut;
  }
  // Trailing garbage.
  std::vector<uint8_t> padded = good;
  padded.push_back(0xEE);
  EXPECT_FALSE(codec->TryDecode(padded.data(), padded.size(), dim).ok());
  // Dim mismatch: the bytes are valid for 257, the caller expected 256.
  EXPECT_FALSE(codec->TryDecode(good.data(), good.size(), dim - 1).ok());
  EXPECT_FALSE(codec->TryDecode(good.data(), good.size(), -1).ok());
}

std::string SpecName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), ':', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllExampleSpecs, TryDecodeSpecTest,
                         ::testing::ValuesIn(UpdateCodecExampleSpecs()),
                         SpecName);

TEST(TryDecodeAdversarialTest, TopKRejectsHostileIndexStructures) {
  auto codec = MakeUpdateCodec("topk10").ValueOrDie();
  Rng rng(0x70FFull);
  const int64_t dim = 100;
  const std::vector<float> v =
      testing::RandomVector(static_cast<size_t>(dim), &rng);
  const Payload payload = codec->Encode(/*stream=*/0, v, &rng);
  // Layout: u64 dim | u64 k | k*u32 indices | k*f32 values.
  const size_t k = (payload.bytes.size() - 16) / 8;
  ASSERT_GE(k, 2u);

  // Out-of-range index.
  std::vector<uint8_t> oob = payload.bytes;
  const uint32_t big = 0xFFFFFFFFu;
  std::memcpy(oob.data() + 16, &big, sizeof(big));
  EXPECT_FALSE(codec->TryDecode(oob.data(), oob.size(), dim).ok());

  // Duplicate index (write index[1] = index[0]) — a duplicate would let one
  // wire coordinate overwrite another.
  std::vector<uint8_t> dup = payload.bytes;
  std::memcpy(dup.data() + 16 + 4, dup.data() + 16, 4);
  EXPECT_FALSE(codec->TryDecode(dup.data(), dup.size(), dim).ok());

  // Unsorted indices (swap the first two).
  std::vector<uint8_t> unsorted = payload.bytes;
  uint32_t i0 = 0;
  uint32_t i1 = 0;
  std::memcpy(&i0, unsorted.data() + 16, 4);
  std::memcpy(&i1, unsorted.data() + 16 + 4, 4);
  std::memcpy(unsorted.data() + 16, &i1, 4);
  std::memcpy(unsorted.data() + 16 + 4, &i0, 4);
  EXPECT_FALSE(codec->TryDecode(unsorted.data(), unsorted.size(), dim).ok());

  // A lying k that keeps the length equation satisfied cannot smuggle
  // bytes: k > dim is rejected outright.
  std::vector<uint8_t> bigk = payload.bytes;
  const uint64_t huge = static_cast<uint64_t>(dim) + 1;
  std::memcpy(bigk.data() + 8, &huge, sizeof(huge));
  EXPECT_FALSE(codec->TryDecode(bigk.data(), bigk.size(), dim).ok());
}

TEST(TryDecodeAdversarialTest, QuantRejectsHostileScales) {
  auto codec = MakeUpdateCodec("q8").ValueOrDie();
  Rng rng(0x5CA1Eull);
  const int64_t dim = 64;
  const std::vector<float> v =
      testing::RandomVector(static_cast<size_t>(dim), &rng);
  const Payload payload = codec->Encode(/*stream=*/0, v, &rng);
  // Layout: u64 dim | per chunk: f32 scale + packed codes. Corrupt the
  // first chunk scale to NaN / inf / negative — all must bounce at the
  // door instead of smuggling non-finite values into the reduce.
  for (float evil : {std::numeric_limits<float>::quiet_NaN(),
                     std::numeric_limits<float>::infinity(), -1.0f}) {
    std::vector<uint8_t> bad = payload.bytes;
    std::memcpy(bad.data() + 8, &evil, sizeof(evil));
    EXPECT_FALSE(codec->TryDecode(bad.data(), bad.size(), dim).ok());
  }
  // A corrupted dim header is caught before any allocation sized from it.
  std::vector<uint8_t> liar = payload.bytes;
  const uint64_t huge = ~0ull;
  std::memcpy(liar.data(), &huge, sizeof(huge));
  EXPECT_FALSE(codec->TryDecode(liar.data(), liar.size(), dim).ok());
}

TEST(TryDecodeAdversarialTest, IdentityRejectsLengthMismatch) {
  auto codec = MakeUpdateCodec("identity").ValueOrDie();
  const std::vector<uint8_t> bytes(12, 0);  // 3 floats
  EXPECT_TRUE(codec->TryDecode(bytes.data(), bytes.size(), 3).ok());
  EXPECT_FALSE(codec->TryDecode(bytes.data(), bytes.size(), 4).ok());
  EXPECT_FALSE(codec->TryDecode(bytes.data(), 11, 3).ok());
}

TEST(TryDecodeCapabilityTest, DeterminismAndStatefulnessFlags) {
  // The serving frontend keys its codec validation off these flags; pin
  // them so a refactor cannot silently flip a codec's serving eligibility.
  EXPECT_TRUE(MakeUpdateCodec("identity").ValueOrDie()->deterministic());
  EXPECT_TRUE(MakeUpdateCodec("q8").ValueOrDie()->deterministic());
  EXPECT_TRUE(MakeUpdateCodec("topk10").ValueOrDie()->deterministic());
  EXPECT_FALSE(MakeUpdateCodec("sq4").ValueOrDie()->deterministic());
  EXPECT_FALSE(MakeUpdateCodec("identity").ValueOrDie()->stateful());
  EXPECT_FALSE(MakeUpdateCodec("q8").ValueOrDie()->stateful());
  EXPECT_TRUE(MakeUpdateCodec("ef:q8").ValueOrDie()->stateful());
}

}  // namespace
}  // namespace fedadmm
