// The serving frame grammar: builder/parser round-trips for every frame
// type, header validation (magic/version/type/body-length bound), exact
// frame sizes (builders reserve up front and must fill exactly), the
// FrameAssembler's fragmentation/poisoning semantics, and the session-token
// bijection.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "serve/frame.h"

namespace fedadmm::serve {
namespace {

FrameHeader MustParseHeader(const std::vector<uint8_t>& frame) {
  FrameHeader header;
  Status s = ParseFrameHeader(frame.data(), frame.size(), &header);
  EXPECT_TRUE(s.ok()) << s.message();
  return header;
}

TEST(FrameBuildTest, HelloRoundTrip) {
  const std::vector<uint8_t> frame = BuildHelloFrame(12345);
  const FrameHeader header = MustParseHeader(frame);
  EXPECT_EQ(header.type, FrameType::kHello);
  EXPECT_EQ(header.session, 0u);
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + header.body_len);
  uint32_t client = 0;
  ASSERT_TRUE(ParseHelloBody(frame.data() + kFrameHeaderBytes,
                             header.body_len, &client)
                  .ok());
  EXPECT_EQ(client, 12345u);
}

TEST(FrameBuildTest, WelcomeRoundTrip) {
  const std::vector<uint8_t> frame =
      BuildWelcomeFrame(0xFEEDFACE12345678ull, 77);
  const FrameHeader header = MustParseHeader(frame);
  EXPECT_EQ(header.type, FrameType::kWelcome);
  // Server→client frames carry session 0 in the header (the connection is
  // the addressee); the token travels in the body.
  EXPECT_EQ(header.session, 0u);
  uint64_t session = 0;
  uint32_t client = 0;
  ASSERT_TRUE(ParseWelcomeBody(frame.data() + kFrameHeaderBytes,
                               header.body_len, &session, &client)
                  .ok());
  EXPECT_EQ(session, 0xFEEDFACE12345678ull);
  EXPECT_EQ(client, 77u);
}

TEST(FrameBuildTest, PullAndStandbyRoundTrip) {
  const std::vector<uint8_t> pull = BuildPullFrame(0xABCDull, 41);
  const FrameHeader ph = MustParseHeader(pull);
  EXPECT_EQ(ph.type, FrameType::kPull);
  EXPECT_EQ(ph.session, 0xABCDull);
  uint32_t round = 0;
  ASSERT_TRUE(
      ParsePullBody(pull.data() + kFrameHeaderBytes, ph.body_len, &round)
          .ok());
  EXPECT_EQ(round, 41u);

  const std::vector<uint8_t> standby = BuildStandbyFrame(kNoOpenRound);
  const FrameHeader sh = MustParseHeader(standby);
  EXPECT_EQ(sh.type, FrameType::kStandby);
  ASSERT_TRUE(ParseStandbyBody(standby.data() + kFrameHeaderBytes,
                               sh.body_len, &round)
                  .ok());
  EXPECT_EQ(round, kNoOpenRound);
}

TEST(FrameBuildTest, ModelRoundTripEncodedAndRaw) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};
  for (bool encoded : {false, true}) {
    const std::vector<uint8_t> frame = BuildModelFrame(
        9, encoded, 2, payload.data(), static_cast<uint32_t>(payload.size()));
    const FrameHeader header = MustParseHeader(frame);
    EXPECT_EQ(header.type, FrameType::kModel);
    EXPECT_EQ(frame.size(), kFrameHeaderBytes + header.body_len);
    ModelBody body;
    ASSERT_TRUE(ParseModelBody(frame.data() + kFrameHeaderBytes,
                               header.body_len, &body)
                    .ok());
    EXPECT_EQ(body.round, 9u);
    EXPECT_EQ(body.encoded, encoded);
    EXPECT_EQ(body.dim, 2u);
    ASSERT_EQ(body.payload_len, payload.size());
    EXPECT_EQ(std::memcmp(body.payload, payload.data(), payload.size()), 0);
  }
}

TEST(FrameBuildTest, UpdateRoundTripViewsPointIntoFrame) {
  UpdateFrameHeader meta;
  meta.round = 3;
  meta.epochs_run = 5;
  meta.steps_run = 250;
  meta.train_loss = 0.125;
  const std::vector<uint8_t> p1 = {10, 11, 12, 13};
  const std::vector<uint8_t> p2 = {20, 21};
  meta.dim1 = 1;
  meta.payload1_len = static_cast<uint32_t>(p1.size());
  meta.dim2 = 1;
  meta.payload2_len = static_cast<uint32_t>(p2.size());

  const std::vector<uint8_t> frame =
      BuildUpdateFrame(0x5E55ull, meta, p1.data(), p2.data());
  const FrameHeader header = MustParseHeader(frame);
  EXPECT_EQ(header.type, FrameType::kUpdate);
  EXPECT_EQ(header.session, 0x5E55ull);
  EXPECT_EQ(header.body_len, kUpdateFixedBytes + p1.size() + p2.size());

  UpdateBody body;
  ASSERT_TRUE(ParseUpdateBody(frame.data() + kFrameHeaderBytes,
                              header.body_len, &body)
                  .ok());
  EXPECT_EQ(body.header.round, 3u);
  EXPECT_EQ(body.header.epochs_run, 5u);
  EXPECT_EQ(body.header.steps_run, 250u);
  EXPECT_EQ(body.header.train_loss, 0.125);
  ASSERT_EQ(body.header.payload1_len, p1.size());
  ASSERT_EQ(body.header.payload2_len, p2.size());
  // Zero-copy: the parsed payload views must point into the frame itself.
  EXPECT_GE(body.payload1, frame.data());
  EXPECT_LT(body.payload1, frame.data() + frame.size());
  EXPECT_EQ(std::memcmp(body.payload1, p1.data(), p1.size()), 0);
  EXPECT_EQ(std::memcmp(body.payload2, p2.data(), p2.size()), 0);
}

TEST(FrameBuildTest, UpdateWithEmptySecondPayload) {
  UpdateFrameHeader meta;
  meta.round = 1;
  meta.dim1 = 2;
  const std::vector<uint8_t> p1 = {1, 2, 3, 4, 5, 6, 7, 8};
  meta.payload1_len = static_cast<uint32_t>(p1.size());
  meta.dim2 = 0;
  meta.payload2_len = 0;
  const std::vector<uint8_t> frame =
      BuildUpdateFrame(7, meta, p1.data(), nullptr);
  const FrameHeader header = MustParseHeader(frame);
  UpdateBody body;
  ASSERT_TRUE(ParseUpdateBody(frame.data() + kFrameHeaderBytes,
                              header.body_len, &body)
                  .ok());
  EXPECT_EQ(body.header.payload2_len, 0u);
}

TEST(FrameBuildTest, AckRoundTripAllStatuses) {
  for (AckStatus status : {AckStatus::kAccepted, AckStatus::kPartial,
                           AckStatus::kRejected, AckStatus::kThrottled}) {
    AckBody ack;
    ack.status = status;
    ack.round = 11;
    ack.work_fraction = 0.375;
    ack.retry_after_seconds = 0.25;
    const std::vector<uint8_t> frame = BuildAckFrame(ack);
    const FrameHeader header = MustParseHeader(frame);
    EXPECT_EQ(header.type, FrameType::kAck);
    AckBody parsed;
    ASSERT_TRUE(ParseAckBody(frame.data() + kFrameHeaderBytes,
                             header.body_len, &parsed)
                    .ok());
    EXPECT_EQ(parsed.status, status);
    EXPECT_EQ(parsed.round, 11u);
    EXPECT_EQ(parsed.work_fraction, 0.375);
    EXPECT_EQ(parsed.retry_after_seconds, 0.25);
  }
}

TEST(FrameBuildTest, ErrorRoundTripAndMessageTruncation) {
  const std::vector<uint8_t> frame =
      BuildErrorFrame(ErrorCode::kDecode, "bad payload");
  const FrameHeader header = MustParseHeader(frame);
  EXPECT_EQ(header.type, FrameType::kError);
  ErrorBody body;
  ASSERT_TRUE(ParseErrorBody(frame.data() + kFrameHeaderBytes,
                             header.body_len, &body)
                  .ok());
  EXPECT_EQ(body.code, ErrorCode::kDecode);
  EXPECT_EQ(body.message, "bad payload");

  // Messages longer than the u16 length field truncate, never overflow.
  const std::string huge(100000, 'x');
  const std::vector<uint8_t> big = BuildErrorFrame(ErrorCode::kProtocol, huge);
  const FrameHeader bh = MustParseHeader(big);
  ErrorBody truncated;
  ASSERT_TRUE(ParseErrorBody(big.data() + kFrameHeaderBytes, bh.body_len,
                             &truncated)
                  .ok());
  EXPECT_EQ(truncated.message.size(), 0xFFFFu);
}

TEST(FrameBuildTest, ByeCarriesSession) {
  const std::vector<uint8_t> frame = BuildByeFrame(0xB4Eull);
  const FrameHeader header = MustParseHeader(frame);
  EXPECT_EQ(header.type, FrameType::kBye);
  EXPECT_EQ(header.session, 0xB4Eull);
  EXPECT_EQ(header.body_len, 0u);
}

TEST(FrameHeaderTest, RejectsBadMagicVersionTypeAndOversizedBody) {
  std::vector<uint8_t> frame = BuildPullFrame(1, 2);
  FrameHeader header;

  std::vector<uint8_t> bad = frame;
  bad[0] ^= 0xFF;  // magic
  EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size(), &header).ok());

  bad = frame;
  bad[4] = 99;  // version
  EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size(), &header).ok());

  bad = frame;
  bad[5] = 0;  // type below range
  EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size(), &header).ok());
  bad[5] = 250;  // type above range
  EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size(), &header).ok());

  bad = frame;
  const uint32_t huge = kMaxBodyBytes + 1;
  std::memcpy(bad.data() + 16, &huge, sizeof(huge));  // body_len
  EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size(), &header).ok());

  // Truncated header.
  EXPECT_FALSE(
      ParseFrameHeader(frame.data(), kFrameHeaderBytes - 1, &header).ok());
}

TEST(FrameHeaderTest, RejectsVersionOneFrames) {
  // Version 1 carried an extra f64 in every UPDATE body; a version-1 peer
  // must get a version error, never a misparsed update.
  UpdateFrameHeader meta;
  meta.dim1 = 1;
  const std::vector<uint8_t> p1 = {1, 2, 3, 4};
  meta.payload1_len = 4;
  std::vector<uint8_t> frame = BuildUpdateFrame(1, meta, p1.data(), nullptr);
  EXPECT_EQ(frame[4], kProtocolVersion);
  frame[4] = 1;  // version
  FrameHeader header;
  const Status status = ParseFrameHeader(frame.data(), frame.size(), &header);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.message();

  FrameAssembler assembler;
  EXPECT_FALSE(assembler.Push(frame.data(), frame.size()).ok());
}

TEST(FrameBodyParserTest, RejectTruncationAndTrailingBytes) {
  const std::vector<uint8_t> frame = BuildAckFrame(AckBody{});
  const FrameHeader header = MustParseHeader(frame);
  AckBody ack;
  // One byte short.
  EXPECT_FALSE(ParseAckBody(frame.data() + kFrameHeaderBytes,
                            header.body_len - 1, &ack)
                   .ok());
  // Trailing byte: body parsers must consume exactly their grammar.
  std::vector<uint8_t> padded(frame.begin() + kFrameHeaderBytes, frame.end());
  padded.push_back(0);
  EXPECT_FALSE(ParseAckBody(padded.data(), padded.size(), &ack).ok());

  // UPDATE whose payload lengths overrun the body.
  UpdateFrameHeader meta;
  meta.dim1 = 1;
  const std::vector<uint8_t> p1 = {1, 2, 3, 4};
  meta.payload1_len = 4;
  const std::vector<uint8_t> update =
      BuildUpdateFrame(1, meta, p1.data(), nullptr);
  std::vector<uint8_t> body(update.begin() + kFrameHeaderBytes, update.end());
  // Lie: payload1_len = 5 with only 4 payload bytes present.
  const uint32_t five = 5;
  std::memcpy(body.data() + 28, &five, sizeof(five));
  UpdateBody parsed;
  EXPECT_FALSE(ParseUpdateBody(body.data(), body.size(), &parsed).ok());
}

TEST(FrameAssemblerTest, ByteAtATimeFragmentationDeliversWholeFrames) {
  std::vector<uint8_t> stream;
  const std::vector<uint8_t> f1 = BuildPullFrame(0xAA, 1);
  const std::vector<uint8_t> f2 = BuildHelloFrame(7);
  const std::vector<uint8_t> f3 = BuildByeFrame(0xBB);
  stream.insert(stream.end(), f1.begin(), f1.end());
  stream.insert(stream.end(), f2.begin(), f2.end());
  stream.insert(stream.end(), f3.begin(), f3.end());

  FrameAssembler assembler;
  std::vector<std::vector<uint8_t>> got;
  for (uint8_t byte : stream) {
    ASSERT_TRUE(assembler.Push(&byte, 1).ok());
    std::vector<uint8_t> frame;
    auto more = assembler.Next(&frame);
    ASSERT_TRUE(more.ok());
    if (*more) got.push_back(std::move(frame));
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], f1);
  EXPECT_EQ(got[1], f2);
  EXPECT_EQ(got[2], f3);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssemblerTest, MultiFrameBufferDrainsInOrder) {
  const std::vector<uint8_t> f1 = BuildStandbyFrame(4);
  const std::vector<uint8_t> f2 = BuildPullFrame(3, 4);
  std::vector<uint8_t> both = f1;
  both.insert(both.end(), f2.begin(), f2.end());

  FrameAssembler assembler;
  ASSERT_TRUE(assembler.Push(both.data(), both.size()).ok());
  std::vector<uint8_t> frame;
  ASSERT_TRUE(*assembler.Next(&frame));
  EXPECT_EQ(frame, f1);
  ASSERT_TRUE(*assembler.Next(&frame));
  EXPECT_EQ(frame, f2);
  EXPECT_FALSE(*assembler.Next(&frame));
}

TEST(FrameAssemblerTest, GarbagePoisonsTheStreamForever) {
  FrameAssembler assembler;
  const std::vector<uint8_t> garbage(kFrameHeaderBytes, 0x5A);
  EXPECT_FALSE(assembler.Push(garbage.data(), garbage.size()).ok());
  // Sticky: even a valid frame afterwards cannot resynchronize.
  const std::vector<uint8_t> good = BuildByeFrame(1);
  EXPECT_FALSE(assembler.Push(good.data(), good.size()).ok());
  std::vector<uint8_t> frame;
  EXPECT_FALSE(assembler.Next(&frame).ok());
}

TEST(FrameAssemblerTest, GoodFrameDeliversBeforePoisonReports) {
  // A complete valid frame followed by a corrupt header: the valid frame
  // must still come out; the poison surfaces on the next call.
  const std::vector<uint8_t> good = BuildPullFrame(9, 9);
  std::vector<uint8_t> stream = good;
  stream.insert(stream.end(), kFrameHeaderBytes, 0xFF);

  FrameAssembler assembler;
  // Push may report the poison already (the bad header is visible), but
  // the buffered good frame must still be retrievable.
  (void)assembler.Push(stream.data(), stream.size());
  std::vector<uint8_t> frame;
  auto first = assembler.Next(&frame);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(*first);
  EXPECT_EQ(frame, good);
  EXPECT_FALSE(assembler.Next(&frame).ok());
}

TEST(FrameAssemblerTest, OversizedBodyLenRejectedBeforeBuffering) {
  std::vector<uint8_t> frame = BuildPullFrame(1, 1);
  const uint32_t huge = kMaxBodyBytes + 1;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  FrameAssembler assembler;
  EXPECT_FALSE(assembler.Push(frame.data(), frame.size()).ok());
}

TEST(SessionTokenTest, NonzeroAndDistinct) {
  std::set<uint64_t> seen;
  for (uint32_t client = 0; client < 10000; ++client) {
    const uint64_t token = SessionTokenForClient(client);
    EXPECT_NE(token, 0u);
    EXPECT_TRUE(seen.insert(token).second) << "client " << client;
  }
  // Deterministic across calls — double runs must produce identical byte
  // streams.
  EXPECT_EQ(SessionTokenForClient(42), SessionTokenForClient(42));
}

}  // namespace
}  // namespace fedadmm::serve
