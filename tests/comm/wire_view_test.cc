// The wire layer's writer and its one parser. Pins (a) the little-endian
// byte layout of Writer against hardcoded bytes — the memcpy fast paths
// must be byte-identical to the historical per-byte shift loops, or every
// payload on disk and on the wire silently changes — and (b) the
// Status-returning ReaderView: it reads back every value Writer wrote, and
// reports truncation as a clean InvalidArgument (never an abort).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "comm/wire.h"

namespace fedadmm::wire {
namespace {

TEST(WireWriterTest, LayoutMatchesHardcodedLittleEndianBytes) {
  std::vector<uint8_t> out;
  Writer w(&out);
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0x89ABCDEFu);
  w.PutU64(0x0123456789ABCDEFull);
  const std::vector<uint8_t> expected = {
      0xAB,                                            // u8
      0x34, 0x12,                                      // u16 LE
      0xEF, 0xCD, 0xAB, 0x89,                          // u32 LE
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64 LE
  };
  EXPECT_EQ(out, expected);
}

TEST(WireWriterTest, FloatsSerializeAsTheirIeeeBits) {
  std::vector<uint8_t> out;
  Writer w(&out);
  w.PutF32(1.0f);   // 0x3F800000
  w.PutF64(-2.0);   // 0xC000000000000000
  const std::vector<uint8_t> expected = {
      0x00, 0x00, 0x80, 0x3F,                          // f32 1.0 LE
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0,  // f64 -2.0 LE
  };
  EXPECT_EQ(out, expected);
}

TEST(WireWriterTest, MemcpyFastPathMatchesShiftLoopSemantics) {
  // The same values written via the generic shift formulation, byte by
  // byte — the regression pin for the memcpy specialization.
  const uint32_t v32 = 0xDEADBEEFu;
  const uint64_t v64 = 0xFEEDFACECAFEBEEFull;
  std::vector<uint8_t> fast;
  Writer w(&fast);
  w.PutU32(v32);
  w.PutU64(v64);
  std::vector<uint8_t> shifted;
  for (int i = 0; i < 4; ++i) {
    shifted.push_back(static_cast<uint8_t>(v32 >> (8 * i)));
  }
  for (int i = 0; i < 8; ++i) {
    shifted.push_back(static_cast<uint8_t>(v64 >> (8 * i)));
  }
  EXPECT_EQ(fast, shifted);
}

TEST(ReaderViewTest, RoundTripsWriterOutput) {
  std::vector<uint8_t> out;
  Writer w(&out);
  w.PutU8(0x42);
  w.PutU16(0xBEEF);
  w.PutU32(0xCAFEBABEu);
  w.PutU64(0x123456789ABCDEF0ull);
  w.PutF32(-0.5f);
  w.PutF64(1e300);

  ReaderView view(out.data(), out.size());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  float f32 = 0;
  double f64 = 0;
  ASSERT_TRUE(view.TryU8(&u8).ok());
  ASSERT_TRUE(view.TryU16(&u16).ok());
  ASSERT_TRUE(view.TryU32(&u32).ok());
  ASSERT_TRUE(view.TryU64(&u64).ok());
  ASSERT_TRUE(view.TryF32(&f32).ok());
  ASSERT_TRUE(view.TryF64(&f64).ok());
  EXPECT_EQ(u8, 0x42);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xCAFEBABEu);
  EXPECT_EQ(u64, 0x123456789ABCDEF0ull);
  EXPECT_EQ(f32, -0.5f);
  EXPECT_EQ(f64, 1e300);
  EXPECT_EQ(view.remaining(), 0u);
  EXPECT_EQ(view.consumed(), out.size());
}

TEST(ReaderViewTest, TruncationIsStatusNotAbort) {
  const std::vector<uint8_t> three = {1, 2, 3};
  ReaderView view(three.data(), three.size());
  uint32_t u32 = 0;
  EXPECT_FALSE(view.TryU32(&u32).ok());
  // A failed read consumes nothing; narrower reads still succeed.
  uint16_t u16 = 0;
  EXPECT_TRUE(view.TryU16(&u16).ok());
  uint8_t u8 = 0;
  EXPECT_TRUE(view.TryU8(&u8).ok());
  EXPECT_FALSE(view.TryU8(&u8).ok());
}

TEST(ReaderViewTest, TrySkipBoundsCheckAndViewStability) {
  const std::vector<uint8_t> bytes = {9, 8, 7, 6, 5};
  ReaderView view(bytes.data(), bytes.size());
  const uint8_t* span = nullptr;
  ASSERT_TRUE(view.TrySkip(3, &span).ok());
  EXPECT_EQ(span, bytes.data());
  EXPECT_EQ(view.remaining(), 2u);
  EXPECT_FALSE(view.TrySkip(3, &span).ok());  // only 2 left
  ASSERT_TRUE(view.TrySkip(2, &span).ok());
  EXPECT_EQ(span, bytes.data() + 3);
  EXPECT_EQ(view.remaining(), 0u);
  // Zero-length skip at the end is legal (empty trailing payloads).
  ASSERT_TRUE(view.TrySkip(0, &span).ok());
}

TEST(ReaderViewTest, EmptySpanIsLegalAndEmpty) {
  ReaderView view(nullptr, 0);
  uint8_t u8 = 0;
  EXPECT_FALSE(view.TryU8(&u8).ok());
  EXPECT_EQ(view.remaining(), 0u);
}

}  // namespace
}  // namespace fedadmm::wire
