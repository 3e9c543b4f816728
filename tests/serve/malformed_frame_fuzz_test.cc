// Hostile-byte fuzzing of the serving frontend over the loopback
// transport: no byte sequence a client can send may abort (or deadlock)
// the server. Every malformed input must turn into an ERROR frame plus a
// ledger count, the offending stream must be poisoned, and a healthy
// session must still be able to complete the round afterwards. The ledger
// counts double as the determinism pin: the same hostile script twice
// yields identical deterministic ledger fields.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/codec.h"
#include "fl/algorithms/fedavg.h"
#include "fl/round_context.h"
#include "serve/frame.h"
#include "serve/frontend.h"
#include "serve/loopback.h"
#include "util/rng.h"

namespace fedadmm::serve {
namespace {

constexpr int kNumClients = 8;
constexpr int64_t kDim = 4;

/// A frontend + loopback transport serving round 0 to the full cohort
/// with raw-fp32 payloads (no codec) unless one is injected.
struct Server {
  explicit Server(UpdateCodec* codec = nullptr) {
    FrontendOptions options;
    options.num_shards = 2;
    options.queue_capacity = 16;
    options.collect_timeout_seconds = 20.0;
    options.uplink_codec = codec;
    frontend = std::make_unique<Frontend>(options);
    EXPECT_TRUE(transport.Start(frontend.get()).ok());
    EXPECT_TRUE(frontend->StartServing(kNumClients, kDim).ok());
    std::vector<int> cohort(kNumClients);
    for (int i = 0; i < kNumClients; ++i) cohort[i] = i;
    theta.assign(static_cast<size_t>(kDim), 0.5f);
    EXPECT_TRUE(
        frontend->BeginRound(0, cohort, DownlinkPlan{}, theta).ok());
  }

  ~Server() {
    frontend->FinishServing();
    transport.Stop();
  }

  std::vector<float> theta;
  std::unique_ptr<Frontend> frontend;
  LoopbackTransport transport;
};

/// Polls until a frame arrives (worker replies are asynchronous) or 10s.
Result<std::vector<uint8_t>> AwaitFrame(ClientChannel* channel) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<uint8_t> frame;
  for (;;) {
    FEDADMM_ASSIGN_OR_RETURN(const bool got,
                             channel->TryReceiveFrame(&frame));
    if (got) return {std::move(frame)};
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::IoError("fuzz test: no frame within 10s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Expects the next frame to have `type`; returns its body bytes.
std::vector<uint8_t> ExpectFrame(ClientChannel* channel, FrameType type) {
  auto frame = AwaitFrame(channel);
  EXPECT_TRUE(frame.ok()) << frame.status().message();
  if (!frame.ok()) return {};
  FrameHeader header;
  Status parsed = ParseFrameHeader(frame->data(), frame->size(), &header);
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(static_cast<int>(header.type), static_cast<int>(type));
  return std::vector<uint8_t>(frame->begin() + kFrameHeaderBytes,
                              frame->end());
}

ErrorCode ExpectError(ClientChannel* channel) {
  const std::vector<uint8_t> body = ExpectFrame(channel, FrameType::kError);
  ErrorBody error;
  EXPECT_TRUE(ParseErrorBody(body.data(), body.size(), &error).ok());
  return error.code;
}

/// HELLO + WELCOME; returns the session token.
uint64_t Hello(ClientChannel* channel, uint32_t client) {
  EXPECT_TRUE(channel->Send(BuildHelloFrame(client)).ok());
  const std::vector<uint8_t> body =
      ExpectFrame(channel, FrameType::kWelcome);
  uint64_t session = 0;
  uint32_t echoed = 0;
  EXPECT_TRUE(
      ParseWelcomeBody(body.data(), body.size(), &session, &echoed).ok());
  EXPECT_EQ(echoed, client);
  EXPECT_EQ(session, SessionTokenForClient(client));
  return session;
}

std::vector<uint8_t> RawUpdateFrame(uint64_t session, uint32_t round,
                                    const std::vector<float>& delta) {
  UpdateFrameHeader meta;
  meta.round = round;
  meta.epochs_run = 1;
  meta.steps_run = 10;
  meta.train_loss = 0.25;
  meta.dim1 = delta.size();
  meta.payload1_len = static_cast<uint32_t>(delta.size() * sizeof(float));
  std::vector<uint8_t> payload(delta.size() * sizeof(float));
  std::memcpy(payload.data(), delta.data(), payload.size());
  return BuildUpdateFrame(session, meta, payload.data(), nullptr);
}

TEST(MalformedFrameFuzzTest, GarbageBytesPoisonTheStreamOnly) {
  Server server;
  auto channel = server.transport.Connect().ValueOrDie();

  Rng rng(0xFA22ull);
  std::vector<uint8_t> garbage(256);
  for (uint8_t& b : garbage) {
    b = static_cast<uint8_t>(rng.Uniform() * 255.0);
  }
  // Make sure it cannot accidentally be a valid header.
  garbage[0] = 0x00;
  ASSERT_TRUE(channel->Send(garbage).ok());
  EXPECT_EQ(ExpectError(channel.get()), ErrorCode::kMalformed);

  // The stream is dead: even a valid HELLO gets no reply now.
  ASSERT_TRUE(channel->Send(BuildHelloFrame(0)).ok());
  std::vector<uint8_t> frame;
  EXPECT_FALSE(*channel->TryReceiveFrame(&frame));

  // A fresh connection is unaffected.
  auto healthy = server.transport.Connect().ValueOrDie();
  Hello(healthy.get(), 0);

  const FrontendLedger ledger = server.frontend->ledger();
  EXPECT_EQ(ledger.malformed_frames, 1);
  EXPECT_EQ(ledger.hello_count, 1);
}

TEST(MalformedFrameFuzzTest, EveryCorruptHeaderVariantIsRejected) {
  Server server;
  const std::vector<uint8_t> valid = BuildPullFrame(1, 0);

  int poisoned = 0;
  for (size_t flip = 0; flip < kFrameHeaderBytes; ++flip) {
    for (uint8_t delta : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      auto channel = server.transport.Connect().ValueOrDie();
      std::vector<uint8_t> frame = valid;
      frame[flip] ^= delta;
      ASSERT_TRUE(channel->Send(frame).ok());
      // Whatever comes back (ERROR for corrupt headers, STANDBY/ERROR for
      // frames that stayed structurally valid), the server survived; count
      // the poisons via the ledger below.
      std::vector<uint8_t> reply;
      (void)channel->TryReceiveFrame(&reply);
      ++poisoned;
    }
  }
  ASSERT_GT(poisoned, 0);

  // The server is still fully functional.
  auto channel = server.transport.Connect().ValueOrDie();
  Hello(channel.get(), 3);
  EXPECT_GE(server.frontend->ledger().malformed_frames, 1);
}

TEST(MalformedFrameFuzzTest, OversizedBodyLenCannotForceAllocation) {
  Server server;
  auto channel = server.transport.Connect().ValueOrDie();
  std::vector<uint8_t> frame = BuildPullFrame(1, 0);
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  ASSERT_TRUE(channel->Send(frame).ok());
  EXPECT_EQ(ExpectError(channel.get()), ErrorCode::kMalformed);
}

TEST(MalformedFrameFuzzTest, TruncatedFrameNeverDelivers) {
  Server server;
  auto channel = server.transport.Connect().ValueOrDie();
  const std::vector<uint8_t> hello = BuildHelloFrame(2);
  // All but the last byte: no frame completes, nothing happens — then the
  // final byte arrives and the exchange finishes normally.
  ASSERT_TRUE(
      channel->Send({hello.begin(), hello.end() - 1}).ok());
  std::vector<uint8_t> reply;
  EXPECT_FALSE(*channel->TryReceiveFrame(&reply));
  ASSERT_TRUE(channel->Send({hello.end() - 1, hello.end()}).ok());
  ExpectFrame(channel.get(), FrameType::kWelcome);
}

TEST(MalformedFrameFuzzTest, SessionAndStateMachineViolations) {
  Server server;

  // UPDATE before HELLO: no session binding.
  {
    auto channel = server.transport.Connect().ValueOrDie();
    ASSERT_TRUE(
        channel->Send(RawUpdateFrame(0xDEAD, 0, {1, 2, 3, 4})).ok());
    EXPECT_EQ(ExpectError(channel.get()), ErrorCode::kUnknownSession);
  }
  // Forged session token.
  {
    auto channel = server.transport.Connect().ValueOrDie();
    Hello(channel.get(), 1);
    ASSERT_TRUE(
        channel->Send(RawUpdateFrame(0xF0F0F0F0ull, 0, {1, 2, 3, 4})).ok());
    EXPECT_EQ(ExpectError(channel.get()), ErrorCode::kUnknownSession);
  }
  // Out-of-range HELLO.
  {
    auto channel = server.transport.Connect().ValueOrDie();
    ASSERT_TRUE(channel->Send(BuildHelloFrame(kNumClients + 5)).ok());
    EXPECT_EQ(ExpectError(channel.get()), ErrorCode::kProtocol);
  }
  // Client-bound frame type sent to the server.
  {
    auto channel = server.transport.Connect().ValueOrDie();
    const uint64_t session = Hello(channel.get(), 2);
    AckBody ack;
    std::vector<uint8_t> frame = BuildAckFrame(ack);
    std::memcpy(frame.data() + 8, &session, sizeof(session));
    ASSERT_TRUE(channel->Send(frame).ok());
    EXPECT_EQ(ExpectError(channel.get()), ErrorCode::kProtocol);
  }
  // UPDATE for a round that is not open.
  {
    auto channel = server.transport.Connect().ValueOrDie();
    const uint64_t session = Hello(channel.get(), 3);
    ASSERT_TRUE(
        channel->Send(RawUpdateFrame(session, 7, {1, 2, 3, 4})).ok());
    EXPECT_EQ(ExpectError(channel.get()), ErrorCode::kProtocol);
  }
  // Wrong payload size for the run shape.
  {
    auto channel = server.transport.Connect().ValueOrDie();
    const uint64_t session = Hello(channel.get(), 4);
    ASSERT_TRUE(channel->Send(RawUpdateFrame(session, 0, {1, 2})).ok());
    EXPECT_EQ(ExpectError(channel.get()), ErrorCode::kMalformed);
  }

  const FrontendLedger ledger = server.frontend->ledger();
  EXPECT_EQ(ledger.protocol_errors, 5);
  EXPECT_EQ(ledger.malformed_frames, 1);
  EXPECT_EQ(ledger.hello_count, 4);
}

TEST(MalformedFrameFuzzTest, DuplicateUpdateIsAProtocolError) {
  Server server;
  auto channel = server.transport.Connect().ValueOrDie();
  const uint64_t session = Hello(channel.get(), 0);
  const std::vector<uint8_t> update =
      RawUpdateFrame(session, 0, {1, 2, 3, 4});
  ASSERT_TRUE(channel->Send(update).ok());
  ExpectFrame(channel.get(), FrameType::kAck);
  ASSERT_TRUE(channel->Send(update).ok());
  EXPECT_EQ(ExpectError(channel.get()), ErrorCode::kProtocol);
  EXPECT_EQ(server.frontend->ledger().protocol_errors, 1);
}

TEST(MalformedFrameFuzzTest, CorruptCodecPayloadResolvesWaveWithError) {
  // Structurally valid UPDATE whose q8 payload hides a NaN chunk scale:
  // admission passes (sizes match), the shard worker's TryDecode rejects,
  // the client gets ERROR(kDecode), and CollectWave returns the sticky
  // Status instead of deadlocking or aborting.
  auto codec = MakeUpdateCodec("q8").ValueOrDie();
  Server server(codec.get());
  auto channel = server.transport.Connect().ValueOrDie();
  const uint64_t session = Hello(channel.get(), 5);

  Payload good = codec->Encode(0, {1.0f, -2.0f, 3.0f, -4.0f}, nullptr);
  ASSERT_EQ(static_cast<int64_t>(good.bytes.size()), codec->WireBytes(kDim));
  const float evil = std::numeric_limits<float>::quiet_NaN();
  std::memcpy(good.bytes.data() + 8, &evil, sizeof(evil));

  UpdateFrameHeader meta;
  meta.round = 0;
  meta.steps_run = 10;
  meta.dim1 = static_cast<uint64_t>(kDim);
  meta.payload1_len = static_cast<uint32_t>(good.bytes.size());
  ASSERT_TRUE(channel
                  ->Send(BuildUpdateFrame(session, meta, good.bytes.data(),
                                          nullptr))
                  .ok());
  EXPECT_EQ(ExpectError(channel.get()), ErrorCode::kDecode);

  auto wave = server.frontend->CollectWave(0);
  EXPECT_FALSE(wave.ok());
  EXPECT_EQ(server.frontend->ledger().decode_errors, 1);
}

TEST(MalformedFrameFuzzTest, HealthyRoundCompletesAfterFuzzing) {
  Server server;

  // Fuzz a few connections first.
  for (int i = 0; i < 4; ++i) {
    auto channel = server.transport.Connect().ValueOrDie();
    std::vector<uint8_t> junk(64, static_cast<uint8_t>(0x10 + i));
    ASSERT_TRUE(channel->Send(junk).ok());
    ExpectError(channel.get());
  }

  // Then serve the full cohort cleanly.
  std::vector<std::unique_ptr<ClientChannel>> channels;
  for (int client = 0; client < kNumClients; ++client) {
    auto channel = server.transport.Connect().ValueOrDie();
    const uint64_t session =
        Hello(channel.get(), static_cast<uint32_t>(client));
    // PULL the broadcast and check the raw θ round-trips.
    ASSERT_TRUE(channel->Send(BuildPullFrame(session, 0)).ok());
    const std::vector<uint8_t> body =
        ExpectFrame(channel.get(), FrameType::kModel);
    ModelBody model;
    ASSERT_TRUE(ParseModelBody(body.data(), body.size(), &model).ok());
    EXPECT_FALSE(model.encoded);
    ASSERT_EQ(model.dim, static_cast<uint64_t>(kDim));
    std::vector<float> theta(static_cast<size_t>(kDim));
    std::memcpy(theta.data(), model.payload, theta.size() * sizeof(float));
    EXPECT_EQ(theta, server.theta);

    const std::vector<float> delta = {float(client), 1.0f, -1.0f, 0.5f};
    ASSERT_TRUE(channel->Send(RawUpdateFrame(session, 0, delta)).ok());
    const std::vector<uint8_t> ack_body =
        ExpectFrame(channel.get(), FrameType::kAck);
    AckBody ack;
    ASSERT_TRUE(ParseAckBody(ack_body.data(), ack_body.size(), &ack).ok());
    EXPECT_EQ(ack.status, AckStatus::kAccepted);  // no system model
    channels.push_back(std::move(channel));
  }

  auto wave = server.frontend->CollectWave(0);
  ASSERT_TRUE(wave.ok()) << wave.status().message();
  ASSERT_EQ(wave->size(), static_cast<size_t>(kNumClients));
  for (int client = 0; client < kNumClients; ++client) {
    const UpdateMessage& msg = (*wave)[static_cast<size_t>(client)];
    EXPECT_EQ(msg.client_id, client);
    ASSERT_EQ(msg.delta.size(), static_cast<size_t>(kDim));
    EXPECT_EQ(msg.delta[0], float(client));
    EXPECT_EQ(msg.wire_bytes, -1);  // raw fp32 path
    EXPECT_EQ(msg.steps_run, 10);
  }

  const FrontendLedger ledger = server.frontend->ledger();
  EXPECT_EQ(ledger.hello_count, kNumClients);
  EXPECT_EQ(ledger.model_frames, kNumClients);
  EXPECT_EQ(ledger.acks_accepted, kNumClients);
  EXPECT_EQ(ledger.malformed_frames, 4);
  EXPECT_EQ(ledger.peak_sessions, kNumClients);
}

TEST(MalformedFrameFuzzTest, EmptyUploadIsAZeroUpdate) {
  // An UPDATE may carry an empty payload (dim 0, no bytes), as FedPD's do
  // between aggregations. The averaging step every method but SCAFFOLD's
  // control update goes through must count it as a zero update, not reach
  // the reduce's size CHECK: here client 3 sends no delta.
  Server server;
  std::vector<std::unique_ptr<ClientChannel>> channels;
  for (int client = 0; client < kNumClients; ++client) {
    auto channel = server.transport.Connect().ValueOrDie();
    const uint64_t session =
        Hello(channel.get(), static_cast<uint32_t>(client));
    UpdateFrameHeader empty;  // dim 0, no payload bytes
    empty.steps_run = 10;
    const std::vector<float> delta = {float(client), 1.0f, -1.0f, 0.5f};
    const std::vector<uint8_t> frame =
        client == 3 ? BuildUpdateFrame(session, empty, nullptr, nullptr)
                    : RawUpdateFrame(session, 0, delta);
    ASSERT_TRUE(channel->Send(frame).ok());
    ExpectFrame(channel.get(), FrameType::kAck);
    channels.push_back(std::move(channel));
  }
  auto wave = server.frontend->CollectWave(0);
  ASSERT_TRUE(wave.ok()) << wave.status().message();
  ASSERT_TRUE((*wave)[3].delta.empty());
  std::vector<UpdateMessage> zeroed = *wave;
  zeroed[3].delta.assign(static_cast<size_t>(kDim), 0.0f);

  AlgorithmContext ctx;
  ctx.num_clients = kNumClients;
  ctx.dim = kDim;
  const std::vector<float> theta0(static_cast<size_t>(kDim), 0.25f);
  FedAvg algo{LocalTrainSpec()};
  algo.Setup(ctx, theta0);
  std::vector<float> served = theta0;
  algo.ServerUpdate(*wave, 0, &served);
  std::vector<float> zero_update = theta0;
  algo.ServerUpdate(zeroed, 0, &zero_update);
  EXPECT_EQ(served, zero_update);
}

TEST(MalformedFrameFuzzTest, HostileScriptLedgerIsDeterministic) {
  // The same hostile + healthy script twice: every deterministic ledger
  // field must match bit for bit.
  auto run = [] {
    Server server;
    {
      auto channel = server.transport.Connect().ValueOrDie();
      std::vector<uint8_t> junk(100, 0x77);
      EXPECT_TRUE(channel->Send(junk).ok());
      ExpectError(channel.get());
    }
    for (int client = 0; client < kNumClients; ++client) {
      auto channel = server.transport.Connect().ValueOrDie();
      const uint64_t session =
          Hello(channel.get(), static_cast<uint32_t>(client));
      EXPECT_TRUE(channel->Send(BuildPullFrame(session, 0)).ok());
      ExpectFrame(channel.get(), FrameType::kModel);
      EXPECT_TRUE(
          channel->Send(RawUpdateFrame(session, 0, {1, 2, 3, 4})).ok());
      ExpectFrame(channel.get(), FrameType::kAck);
    }
    EXPECT_TRUE(server.frontend->CollectWave(0).ok());
    return server.frontend->ledger();
  };

  const FrontendLedger a = run();
  const FrontendLedger b = run();
  EXPECT_EQ(a.hello_count, b.hello_count);
  EXPECT_EQ(a.model_frames, b.model_frames);
  EXPECT_EQ(a.model_payload_bytes, b.model_payload_bytes);
  EXPECT_EQ(a.acks_accepted, b.acks_accepted);
  EXPECT_EQ(a.acks_partial, b.acks_partial);
  EXPECT_EQ(a.acks_rejected, b.acks_rejected);
  EXPECT_EQ(a.ingested_payload_bytes, b.ingested_payload_bytes);
  EXPECT_EQ(a.malformed_frames, b.malformed_frames);
  EXPECT_EQ(a.protocol_errors, b.protocol_errors);
  EXPECT_EQ(a.decode_errors, b.decode_errors);
}

}  // namespace
}  // namespace fedadmm::serve
