#include "serve/loadgen.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "serve/frame.h"

namespace fedadmm::serve {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LoadGenerator::LoadGenerator(FederatedProblem* problem,
                             FederatedAlgorithm* algorithm, uint64_t seed,
                             int num_threads, int /*num_shards*/,
                             Frontend* frontend, Transport* transport,
                             LoadGenOptions options)
    : problem_(problem),
      frontend_(frontend),
      transport_(transport),
      options_(std::move(options)),
      executor_(problem, algorithm, Rng(seed), num_threads),
      drivers_(options_.driver_threads),
      sessions_(static_cast<size_t>(problem->num_clients())) {}

LoadGenStats LoadGenerator::stats() const {
  LoadGenStats stats;
  stats.rounds = cells_.rounds.load();
  stats.model_frames = cells_.model_frames.load();
  stats.acks_accepted = cells_.acks_accepted.load();
  stats.acks_partial = cells_.acks_partial.load();
  stats.acks_rejected = cells_.acks_rejected.load();
  stats.throttle_retries = cells_.throttle_retries.load();
  return stats;
}

Status LoadGenerator::Run() {
  int next_round = 0;
  for (;;) {
    const RoundInfo info = frontend_->WaitRoundOpen(next_round);
    if (!info.open) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      return first_error_;
    }
    FEDADMM_RETURN_IF_ERROR(RunRound(info));
    next_round = info.round + 1;
  }
}

Status LoadGenerator::ParallelSessions(
    int n, const std::function<Status(int)>& body) {
  drivers_.ParallelFor(n, [&](int index, int /*worker*/) {
    if (failed_.load(std::memory_order_acquire)) return;
    Status status = body(index);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (first_error_.ok()) first_error_ = std::move(status);
      failed_.store(true, std::memory_order_release);
    }
  });
  std::lock_guard<std::mutex> lock(error_mutex_);
  return first_error_;
}

Status LoadGenerator::RunRound(const RoundInfo& info) {
  const std::vector<int>& cohort = info.cohort;
  const int n = static_cast<int>(cohort.size());

  // Phase 1: every cohort member has a live session (connect + HELLO
  // happens once per client, on its first selected round).
  FEDADMM_RETURN_IF_ERROR(ParallelSessions(
      n, [&](int i) { return EnsureSession(cohort[i]); }));

  // Phase 2: every session pulls the broadcast. One MODEL frame is kept
  // (slot 0) to decode θ exactly once for the whole wave — the sessions
  // all received byte-identical frames (the frontend shares one buffer).
  std::vector<uint8_t> model_frame;
  FEDADMM_RETURN_IF_ERROR(ParallelSessions(n, [&](int i) {
    std::vector<uint8_t> frame;
    FEDADMM_RETURN_IF_ERROR(Pull(cohort[i], info.round, &frame));
    cells_.model_frames.fetch_add(1);
    if (i == 0) model_frame = std::move(frame);
    return Status::OK();
  }));

  // Phase 3: decode θ once, then run the true local computation — the
  // same ClientExecutor fan-out and per-(round, client) RNG forks as the
  // in-process engine, so the wave is bitwise identical.
  std::vector<float> theta;
  FEDADMM_RETURN_IF_ERROR(DecodeModel(model_frame, info.round, &theta));
  std::vector<UpdateMessage> updates;
  executor_.RunWave(info.round, cohort, theta, &updates);

  // Phase 4 (fire hose): send EVERY update before draining any ACK — the
  // whole cohort lands on the ingest queues at once, which is what
  // exercises bounded-queue backpressure at 10k+ sessions.
  FEDADMM_RETURN_IF_ERROR(ParallelSessions(n, [&](int i) {
    return SendUpdate(cohort[i], info.round, updates[static_cast<size_t>(i)]);
  }));

  // Phase 5: drain terminal ACKs, resending on THROTTLED.
  FEDADMM_RETURN_IF_ERROR(ParallelSessions(
      n, [&](int i) { return AwaitAck(cohort[i], info.round); }));

  cells_.rounds.fetch_add(1);
  return Status::OK();
}

Status LoadGenerator::EnsureSession(int client) {
  Session& session = sessions_[static_cast<size_t>(client)];
  if (session.channel != nullptr) return Status::OK();
  FEDADMM_ASSIGN_OR_RETURN(session.channel, transport_->Connect());
  FEDADMM_RETURN_IF_ERROR(session.channel->Send(
      BuildHelloFrame(static_cast<uint32_t>(client))));
  std::vector<uint8_t> frame;
  FEDADMM_RETURN_IF_ERROR(PollFrame(&session, &frame));
  FrameHeader header;
  FEDADMM_RETURN_IF_ERROR(
      ParseFrameHeader(frame.data(), kFrameHeaderBytes, &header));
  if (header.type != FrameType::kWelcome) {
    return Status::IoError("loadgen: expected WELCOME, got frame type " +
                           std::to_string(static_cast<int>(header.type)));
  }
  uint64_t token = 0;
  uint32_t echoed_client = 0;
  FEDADMM_RETURN_IF_ERROR(ParseWelcomeBody(frame.data() + kFrameHeaderBytes,
                                           header.body_len, &token,
                                           &echoed_client));
  if (echoed_client != static_cast<uint32_t>(client)) {
    return Status::IoError("loadgen: WELCOME for the wrong client");
  }
  session.token = token;
  return Status::OK();
}

Status LoadGenerator::Pull(int client, int round,
                           std::vector<uint8_t>* model_frame) {
  Session& session = sessions_[static_cast<size_t>(client)];
  FEDADMM_RETURN_IF_ERROR(session.channel->Send(
      BuildPullFrame(session.token, static_cast<uint32_t>(round))));
  std::vector<uint8_t> frame;
  FEDADMM_RETURN_IF_ERROR(PollFrame(&session, &frame));
  FrameHeader header;
  FEDADMM_RETURN_IF_ERROR(
      ParseFrameHeader(frame.data(), kFrameHeaderBytes, &header));
  if (header.type == FrameType::kError) {
    ErrorBody error;
    FEDADMM_RETURN_IF_ERROR(ParseErrorBody(frame.data() + kFrameHeaderBytes,
                                           header.body_len, &error));
    return Status::IoError("loadgen: server error on PULL: " + error.message);
  }
  if (header.type != FrameType::kModel) {
    return Status::IoError("loadgen: expected MODEL, got frame type " +
                           std::to_string(static_cast<int>(header.type)));
  }
  *model_frame = std::move(frame);
  return Status::OK();
}

Status LoadGenerator::DecodeModel(const std::vector<uint8_t>& model_frame,
                                  int round, std::vector<float>* theta) {
  FrameHeader header;
  FEDADMM_RETURN_IF_ERROR(
      ParseFrameHeader(model_frame.data(), kFrameHeaderBytes, &header));
  ModelBody body;
  FEDADMM_RETURN_IF_ERROR(ParseModelBody(
      model_frame.data() + kFrameHeaderBytes, header.body_len, &body));
  if (body.round != static_cast<uint32_t>(round)) {
    return Status::IoError("loadgen: MODEL frame for the wrong round");
  }
  if (body.dim != static_cast<uint64_t>(problem_->dim())) {
    return Status::IoError("loadgen: MODEL dim does not match the problem");
  }
  // The client trusts the server's bytes no more than the server trusts
  // the client's: both decode through Status-returning TryDecode.
  const UpdateCodec* codec =
      body.encoded ? options_.downlink_codec : &raw_codec_;
  if (codec == nullptr) {
    return Status::InvalidArgument(
        "loadgen: encoded broadcast but no downlink codec configured");
  }
  FEDADMM_ASSIGN_OR_RETURN(
      *theta, codec->TryDecode(body.payload, body.payload_len,
                               static_cast<int64_t>(body.dim)));
  return Status::OK();
}

Status LoadGenerator::SendUpdate(int client, int round,
                                 const UpdateMessage& msg) {
  Session& session = sessions_[static_cast<size_t>(client)];
  UpdateFrameHeader header;
  header.round = static_cast<uint32_t>(round);
  header.epochs_run = static_cast<uint32_t>(msg.epochs_run);
  header.steps_run = static_cast<uint32_t>(msg.steps_run);
  header.train_loss = msg.train_loss;
  header.final_grad_norm_sq = msg.final_grad_norm_sq;
  header.dim1 = msg.delta.size();
  header.dim2 = msg.delta2.size();

  // Encode with the client-side codec twin. Stream ids mirror the
  // engine's convention (2·client, 2·client+1); stateless codecs ignore
  // them, and only stateless codecs are allowed here (parallel encode).
  const Payload payload1 = uplink_->Encode(2 * client, msg.delta, nullptr);
  Payload payload2;
  if (!msg.delta2.empty()) {
    payload2 = uplink_->Encode(2 * client + 1, msg.delta2, nullptr);
  }
  header.payload1_len = static_cast<uint32_t>(payload1.bytes.size());
  header.payload2_len = static_cast<uint32_t>(payload2.bytes.size());

  session.update_frame = BuildUpdateFrame(
      session.token, header, payload1.bytes.data(),
      payload2.bytes.empty() ? nullptr : payload2.bytes.data());
  return session.channel->Send(session.update_frame);
}

Status LoadGenerator::AwaitAck(int client, int round) {
  Session& session = sessions_[static_cast<size_t>(client)];
  for (;;) {
    std::vector<uint8_t> frame;
    FEDADMM_RETURN_IF_ERROR(PollFrame(&session, &frame));
    FrameHeader header;
    FEDADMM_RETURN_IF_ERROR(
        ParseFrameHeader(frame.data(), kFrameHeaderBytes, &header));
    if (header.type == FrameType::kError) {
      ErrorBody error;
      FEDADMM_RETURN_IF_ERROR(ParseErrorBody(
          frame.data() + kFrameHeaderBytes, header.body_len, &error));
      return Status::IoError("loadgen: server error on UPDATE: " +
                             error.message);
    }
    if (header.type != FrameType::kAck) {
      return Status::IoError("loadgen: expected ACK, got frame type " +
                             std::to_string(static_cast<int>(header.type)));
    }
    AckBody ack;
    FEDADMM_RETURN_IF_ERROR(ParseAckBody(frame.data() + kFrameHeaderBytes,
                                         header.body_len, &ack));
    if (ack.round != static_cast<uint32_t>(round)) {
      return Status::IoError("loadgen: ACK for the wrong round");
    }
    switch (ack.status) {
      case AckStatus::kAccepted:
        cells_.acks_accepted.fetch_add(1);
        return Status::OK();
      case AckStatus::kPartial:
        cells_.acks_partial.fetch_add(1);
        return Status::OK();
      case AckStatus::kRejected:
        cells_.acks_rejected.fetch_add(1);
        return Status::OK();
      case AckStatus::kThrottled: {
        // Backpressure: honor retry_after, then resend the same frame.
        cells_.throttle_retries.fetch_add(1);
        const double wait = ack.retry_after_seconds;
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        } else {
          std::this_thread::yield();
        }
        FEDADMM_RETURN_IF_ERROR(session.channel->Send(session.update_frame));
        continue;
      }
    }
    return Status::IoError("loadgen: unknown ACK status");
  }
}

Status LoadGenerator::PollFrame(Session* session,
                                std::vector<uint8_t>* frame) {
  const double deadline = NowSeconds() + options_.poll_timeout_seconds;
  int spins = 0;
  for (;;) {
    FEDADMM_ASSIGN_OR_RETURN(const bool got,
                             session->channel->TryReceiveFrame(frame));
    if (got) return Status::OK();
    if (NowSeconds() > deadline) {
      return Status::IoError(
          "loadgen: timed out waiting for a server frame");
    }
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

}  // namespace fedadmm::serve
