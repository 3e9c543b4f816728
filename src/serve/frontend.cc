#include "serve/frontend.h"

#include <chrono>
#include <string>
#include <utility>

namespace fedadmm::serve {

Frontend::Frontend(FrontendOptions options) : options_(std::move(options)) {}

Frontend::~Frontend() {
  FinishServing();
  // Free sessions whose connections were never formally disconnected
  // (transports Stop()ed after the frontend would double-free — the
  // lifetime contract in the file comment forbids that order).
  std::lock_guard<std::mutex> lock(session_mutex_);
  for (SessionState* session : sessions_) delete session;
  sessions_.clear();
}

double Frontend::NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Frontend::StartServing(int num_clients, int64_t dim) {
  if (serving_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "serve: Frontend::StartServing called twice — use a fresh Frontend "
        "per run (the ledger is per-run)");
  }
  if (num_clients <= 0 || dim <= 0) {
    return Status::InvalidArgument("serve: bad run shape");
  }
  if (options_.num_shards < 1) {
    return Status::InvalidArgument("serve: num_shards must be >= 1");
  }
  if (options_.queue_capacity < 1) {
    return Status::InvalidArgument("serve: queue_capacity must be >= 1");
  }
  if (options_.uplink_codec != nullptr &&
      (!options_.uplink_codec->deterministic() ||
       options_.uplink_codec->stateful())) {
    return Status::InvalidArgument(
        "serve: uplink codec '" + options_.uplink_codec->name() +
        "' is stochastic or stateful — sessions cannot reproduce it");
  }
  if (options_.system_model != nullptr &&
      options_.system_model->fleet().num_clients() < num_clients) {
    return Status::InvalidArgument(
        "serve: fleet covers " +
        std::to_string(options_.system_model->fleet().num_clients()) +
        " clients, run has " + std::to_string(num_clients));
  }
  num_clients_ = num_clients;
  dim_ = dim;

  ingest_latency_ =
      std::vector<obs::Histogram>(static_cast<size_t>(options_.num_shards));

  stop_workers_.store(false, std::memory_order_release);
  queues_.clear();
  for (int s = 0; s < options_.num_shards; ++s) {
    queues_.push_back(std::make_unique<IngestQueue<ShardItem>>(
        static_cast<size_t>(options_.queue_capacity)));
  }
  for (int s = 0; s < options_.num_shards; ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
  serving_.store(true, std::memory_order_release);
  return Status::OK();
}

Status Frontend::BeginRound(int round, const std::vector<int>& cohort,
                            const DownlinkPlan& downlink,
                            const std::vector<float>& theta) {
  if (!serving_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("serve: BeginRound before StartServing");
  }
  auto state = std::make_shared<RoundState>();
  state->round = round;
  state->cohort = cohort;
  state->slot_of_client.reserve(cohort.size());
  for (size_t i = 0; i < cohort.size(); ++i) {
    if (!state->slot_of_client
             .emplace(cohort[i], static_cast<uint32_t>(i))
             .second) {
      return Status::InvalidArgument(
          "serve: duplicate client in cohort (client " +
          std::to_string(cohort[i]) + ")");
    }
  }
  state->download_bytes_per_client = downlink.per_client_bytes;
  state->dim = dim_;
  state->slots.resize(cohort.size());
  state->claimed =
      std::make_unique<std::atomic<uint8_t>[]>(cohort.size());
  for (size_t i = 0; i < cohort.size(); ++i) {
    state->claimed[i].store(0, std::memory_order_relaxed);
  }

  // ONE model frame for the whole cohort: the loop's own encoded
  // broadcast when a downlink codec ran, raw θ otherwise.
  const bool encoded = downlink.encoded != nullptr;
  const std::vector<uint8_t> raw =
      encoded ? std::vector<uint8_t>()
              : raw_codec_.Encode(kBroadcastStream, theta, nullptr).bytes;
  const std::vector<uint8_t>& payload = encoded ? *downlink.encoded : raw;
  state->model_frame = std::make_shared<const std::vector<uint8_t>>(
      BuildModelFrame(static_cast<uint32_t>(round), encoded,
                      static_cast<uint64_t>(dim_), payload.data(),
                      static_cast<uint32_t>(payload.size())));

  {
    std::lock_guard<std::mutex> lock(round_mutex_);
    current_ = std::move(state);
  }
  round_cv_.notify_all();
  return Status::OK();
}

Result<std::vector<UpdateMessage>> Frontend::CollectWave(int round) {
  std::shared_ptr<RoundState> state;
  {
    std::lock_guard<std::mutex> lock(round_mutex_);
    state = current_;
  }
  if (state == nullptr || state->round != round) {
    return Status::FailedPrecondition(
        "serve: CollectWave(" + std::to_string(round) +
        ") does not match the open round");
  }
  std::unique_lock<std::mutex> lock(state->mutex);
  const bool resolved = state->cv.wait_for(
      lock, std::chrono::duration<double>(options_.collect_timeout_seconds),
      [&] {
        return state->resolved == state->cohort.size() || !state->error.ok();
      });
  if (!state->error.ok()) return state->error;
  if (!resolved) {
    return Status::IoError(
        "serve: CollectWave timed out after " +
        std::to_string(options_.collect_timeout_seconds) + "s with " +
        std::to_string(state->resolved) + "/" +
        std::to_string(state->cohort.size()) + " uploads resolved");
  }
  return std::move(state->slots);
}

RoundInfo Frontend::WaitRoundOpen(int min_round) {
  std::unique_lock<std::mutex> lock(round_mutex_);
  round_cv_.wait(lock, [&] {
    return finished_ || (current_ != nullptr && current_->round >= min_round);
  });
  RoundInfo info;
  if (finished_) return info;
  info.open = true;
  info.round = current_->round;
  info.cohort = current_->cohort;
  return info;
}

void Frontend::FinishServing() {
  {
    std::lock_guard<std::mutex> lock(round_mutex_);
    if (finished_) return;
    finished_ = true;
  }
  round_cv_.notify_all();
  stop_workers_.store(true, std::memory_order_release);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

FrontendLedger Frontend::ledger() const {
  FrontendLedger ledger;
  ledger.hello_count = cells_.hello_count.load();
  ledger.model_frames = cells_.model_frames.load();
  ledger.model_payload_bytes = cells_.model_payload_bytes.load();
  ledger.acks_accepted = cells_.acks_accepted.load();
  ledger.acks_partial = cells_.acks_partial.load();
  ledger.acks_rejected = cells_.acks_rejected.load();
  ledger.ingested_payload_bytes = cells_.ingested_payload_bytes.load();
  ledger.malformed_frames = cells_.malformed_frames.load();
  ledger.protocol_errors = cells_.protocol_errors.load();
  ledger.decode_errors = cells_.decode_errors.load();
  ledger.throttled = cells_.throttled.load();
  ledger.bytes_in = cells_.bytes_in.load();
  ledger.peak_sessions = cells_.peak_sessions.load();
  return ledger;
}

obs::HistogramStats Frontend::ingest_latency() const {
  obs::HistogramStats merged;
  for (const obs::Histogram& worker : ingest_latency_) {
    merged.MergeFrom(worker.Stats());
  }
  return merged;
}

Frontend::SessionState* Frontend::SessionFor(Connection* conn) {
  auto* session = static_cast<SessionState*>(conn->context());
  if (session != nullptr) return session;
  session = new SessionState();
  conn->set_context(session);
  std::lock_guard<std::mutex> lock(session_mutex_);
  sessions_.insert(session);
  return session;
}

void Frontend::SendError(Connection* conn, ErrorCode code,
                         const Status& status) {
  SendError(conn, code, status.message().c_str());
}

void Frontend::SendError(Connection* conn, ErrorCode code,
                         const char* message) {
  (void)conn->SendFrame(std::make_shared<const std::vector<uint8_t>>(
      BuildErrorFrame(code, message)));
}

void Frontend::Poison(Connection* conn, SessionState* session,
                      const Status& status) {
  session->dead = true;
  cells_.malformed_frames.fetch_add(1);
  SendError(conn, ErrorCode::kMalformed, status);
}

void Frontend::OnBytes(Connection* conn, const uint8_t* data, size_t len) {
  cells_.bytes_in.fetch_add(static_cast<int64_t>(len));
  SessionState* session = SessionFor(conn);
  if (session->dead) return;
  Status pushed = session->assembler.Push(data, len);
  if (!pushed.ok()) {
    Poison(conn, session, pushed);
    return;
  }
  std::vector<uint8_t> frame;
  for (;;) {
    Result<bool> next = session->assembler.Next(&frame);
    if (!next.ok()) {
      Poison(conn, session, next.status());
      return;
    }
    if (!*next) return;
    HandleFrame(conn, session, std::move(frame));
    if (session->dead) return;
  }
}

void Frontend::OnDisconnect(Connection* conn) {
  auto* session = static_cast<SessionState*>(conn->context());
  if (session == nullptr) return;
  conn->set_context(nullptr);
  std::lock_guard<std::mutex> lock(session_mutex_);
  if (session->client >= 0) --active_sessions_;
  sessions_.erase(session);
  delete session;
}

void Frontend::HandleFrame(Connection* conn, SessionState* session,
                           std::vector<uint8_t> frame) {
  FrameHeader header;
  Status parsed =
      ParseFrameHeader(frame.data(), kFrameHeaderBytes, &header);
  if (!parsed.ok()) {  // unreachable: the assembler validated
    Poison(conn, session, parsed);
    return;
  }
  const uint8_t* body = frame.data() + kFrameHeaderBytes;
  const size_t body_len = header.body_len;

  if (header.type == FrameType::kHello) {
    HandleHello(conn, session, body, body_len);
    return;
  }

  // Every other client frame runs under its session binding.
  if (session->client < 0 || header.session != session->token) {
    cells_.protocol_errors.fetch_add(1);
    SendError(conn, ErrorCode::kUnknownSession,
              "frame session token is not bound to this connection");
    return;
  }
  switch (header.type) {
    case FrameType::kPull:
      HandlePull(conn, session, body, body_len);
      return;
    case FrameType::kUpdate:
      // The shard worker takes ownership of the frame buffer and decodes
      // straight out of it — no further copies.
      HandleUpdate(conn, session, std::move(frame));
      return;
    case FrameType::kBye: {
      std::lock_guard<std::mutex> lock(session_mutex_);
      --active_sessions_;
      session->client = -1;
      session->token = 0;
      return;
    }
    default:
      cells_.protocol_errors.fetch_add(1);
      SendError(conn, ErrorCode::kProtocol,
                "server-bound frame of a server→client type");
      return;
  }
}

void Frontend::HandleHello(Connection* conn, SessionState* session,
                           const uint8_t* body, size_t len) {
  uint32_t client_id = 0;
  Status parsed = ParseHelloBody(body, len, &client_id);
  if (!parsed.ok()) {
    Poison(conn, session, parsed);
    return;
  }
  if (!serving_.load(std::memory_order_acquire)) {
    SendError(conn, ErrorCode::kNotServing, "frontend is not serving");
    return;
  }
  if (client_id >= static_cast<uint32_t>(num_clients_)) {
    cells_.protocol_errors.fetch_add(1);
    SendError(conn, ErrorCode::kProtocol, "HELLO client_id out of range");
    return;
  }
  if (session->client >= 0) {
    if (session->client == static_cast<int>(client_id)) {
      // Idempotent re-HELLO: resend the WELCOME.
      (void)conn->SendFrame(std::make_shared<const std::vector<uint8_t>>(
          BuildWelcomeFrame(session->token, client_id)));
      return;
    }
    cells_.protocol_errors.fetch_add(1);
    SendError(conn, ErrorCode::kProtocol,
              "connection is already bound to another client");
    return;
  }
  session->client = static_cast<int>(client_id);
  session->token = SessionTokenForClient(client_id);
  {
    std::lock_guard<std::mutex> lock(session_mutex_);
    ++active_sessions_;
    int64_t peak = cells_.peak_sessions.load(std::memory_order_relaxed);
    while (active_sessions_ > peak &&
           !cells_.peak_sessions.compare_exchange_weak(peak,
                                                       active_sessions_)) {
    }
  }
  cells_.hello_count.fetch_add(1);
  (void)conn->SendFrame(std::make_shared<const std::vector<uint8_t>>(
      BuildWelcomeFrame(session->token, client_id)));
}

void Frontend::HandlePull(Connection* conn, SessionState* session,
                          const uint8_t* body, size_t len) {
  uint32_t round = 0;
  Status parsed = ParsePullBody(body, len, &round);
  if (!parsed.ok()) {
    Poison(conn, session, parsed);
    return;
  }
  std::shared_ptr<RoundState> state;
  {
    std::lock_guard<std::mutex> lock(round_mutex_);
    state = current_;
  }
  if (state == nullptr) {
    (void)conn->SendFrame(std::make_shared<const std::vector<uint8_t>>(
        BuildStandbyFrame(kNoOpenRound)));
    return;
  }
  if (round != static_cast<uint32_t>(state->round) ||
      state->slot_of_client.find(session->client) ==
          state->slot_of_client.end()) {
    // Wrong round or not selected this round: tell the client what IS
    // current so it can re-sync.
    (void)conn->SendFrame(std::make_shared<const std::vector<uint8_t>>(
        BuildStandbyFrame(static_cast<uint32_t>(state->round))));
    return;
  }
  cells_.model_frames.fetch_add(1);
  cells_.model_payload_bytes.fetch_add(
      static_cast<int64_t>(state->model_frame->size()) -
      static_cast<int64_t>(kFrameHeaderBytes));
  (void)conn->SendFrame(state->model_frame);
}

void Frontend::HandleUpdate(Connection* conn, SessionState* session,
                            std::vector<uint8_t> frame) {
  // Pin the buffer first so the parsed body views stay valid for the
  // worker.
  auto owned = std::make_shared<std::vector<uint8_t>>(std::move(frame));
  UpdateBody body;
  Status parsed = ParseUpdateBody(owned->data() + kFrameHeaderBytes,
                                  owned->size() - kFrameHeaderBytes, &body);
  if (!parsed.ok()) {
    Poison(conn, session, parsed);
    return;
  }
  const UpdateFrameHeader& h = body.header;

  std::shared_ptr<RoundState> state;
  {
    std::lock_guard<std::mutex> lock(round_mutex_);
    state = current_;
  }
  if (state == nullptr ||
      h.round != static_cast<uint32_t>(state->round)) {
    cells_.protocol_errors.fetch_add(1);
    SendError(conn, ErrorCode::kProtocol, "UPDATE for a round that is not open");
    return;
  }
  const auto slot_it = state->slot_of_client.find(session->client);
  if (slot_it == state->slot_of_client.end()) {
    cells_.protocol_errors.fetch_add(1);
    SendError(conn, ErrorCode::kProtocol,
              "UPDATE from a client outside this round's cohort");
    return;
  }

  // Structural validation before any queueing: each payload is empty
  // (dim 0, as CommPipeline bills an empty delta in process) or has the
  // run's dim and exactly the codec's wire size — byte billing is only
  // honest if the frame is exactly the codec payload.
  const uint64_t dim = static_cast<uint64_t>(dim_);
  const bool dims_ok =
      (h.dim1 == 0 || h.dim1 == dim) && (h.dim2 == 0 || h.dim2 == dim) &&
      h.epochs_run <= 0x7FFFFFFFu && h.steps_run <= 0x7FFFFFFFu;
  const int64_t wire = uplink_->WireBytes(dim_);
  const int64_t expect1 = h.dim1 == 0 ? 0 : wire;
  const int64_t expect2 = h.dim2 == 0 ? 0 : wire;
  if (!dims_ok || static_cast<int64_t>(h.payload1_len) != expect1 ||
      static_cast<int64_t>(h.payload2_len) != expect2) {
    Poison(conn, session, Status::InvalidArgument(
                              "serve: UPDATE dims/payload sizes do not "
                              "match the run shape"));
    return;
  }

  // Connection-level admission: the straggler policy as a per-client
  // predicate — the same pure Judge(ComputeClientTiming(...)) the engine
  // applies to each client's completion event, so this ACK mirrors the
  // final verdict instead of inventing a second policy.
  AckBody ack;
  ack.round = h.round;
  if (options_.system_model != nullptr) {
    const ClientTiming timing = ComputeClientTiming(
        options_.system_model->fleet().profile(session->client),
        static_cast<int>(h.steps_run),
        static_cast<int64_t>(h.payload1_len) +
            static_cast<int64_t>(h.payload2_len),
        state->download_bytes_per_client);
    const StragglerDecision decision =
        options_.system_model->policy().Judge(timing);
    ack.work_fraction = decision.work_fraction;
    switch (decision.fate) {
      case ClientFate::kAdmitted:
        ack.status = AckStatus::kAccepted;
        break;
      case ClientFate::kAdmittedPartial:
        ack.status = AckStatus::kPartial;
        break;
      case ClientFate::kDropped:
        ack.status = AckStatus::kRejected;
        break;
    }
  }

  // Claim the slot (duplicate-upload guard), then queue to the owning
  // shard. Rejected clients are queued too: the loop judges the full
  // cohort, so the wave needs their decoded updates as well.
  const uint32_t slot = slot_it->second;
  uint8_t expected = 0;
  if (!state->claimed[slot].compare_exchange_strong(expected, 1)) {
    cells_.protocol_errors.fetch_add(1);
    SendError(conn, ErrorCode::kProtocol, "duplicate UPDATE for this round");
    return;
  }

  ShardItem item;
  item.client = session->client;
  item.slot = slot;
  item.ack = ack;
  item.body = body;
  item.conn = conn;
  item.state = state;
  item.enqueue_seconds = NowSeconds();
  const int64_t payload_bytes = static_cast<int64_t>(h.payload1_len) +
                                static_cast<int64_t>(h.payload2_len);
  item.frame = std::move(owned);

  // StartServing refuses num_shards < 1; client ids are dense [0, m), so
  // modulo is balanced and keeps a client on one worker for the run.
  const int shard = item.client % options_.num_shards;
  if (!queues_[static_cast<size_t>(shard)]->TryPush(std::move(item))) {
    // Backpressure: un-claim and tell the client to retry. Nothing is
    // silently dropped — the client owns the retry loop.
    state->claimed[slot].store(0, std::memory_order_release);
    cells_.throttled.fetch_add(1);
    AckBody throttle;
    throttle.status = AckStatus::kThrottled;
    throttle.round = h.round;
    throttle.retry_after_seconds = options_.throttle_retry_seconds;
    (void)conn->SendFrame(std::make_shared<const std::vector<uint8_t>>(
        BuildAckFrame(throttle)));
    return;
  }
  cells_.ingested_payload_bytes.fetch_add(payload_bytes);
}

Status Frontend::DecodeItem(const ShardItem& item, UpdateMessage* msg) const {
  const UpdateFrameHeader& h = item.body.header;
  if (h.dim1 != 0) {
    FEDADMM_ASSIGN_OR_RETURN(
        msg->delta, uplink_->TryDecode(item.body.payload1, h.payload1_len,
                                       static_cast<int64_t>(h.dim1)));
  }
  if (h.dim2 != 0) {
    FEDADMM_ASSIGN_OR_RETURN(
        msg->delta2, uplink_->TryDecode(item.body.payload2, h.payload2_len,
                                        static_cast<int64_t>(h.dim2)));
  }
  // Without a codec the bytes are raw fp32 and UploadBytes falls back to
  // RawBytes, exactly as in-process.
  msg->wire_bytes = options_.uplink_codec != nullptr
                        ? static_cast<int64_t>(h.payload1_len) +
                              static_cast<int64_t>(h.payload2_len)
                        : -1;
  msg->client_id = item.client;
  msg->train_loss = h.train_loss;
  msg->epochs_run = static_cast<int>(h.epochs_run);
  msg->steps_run = static_cast<int>(h.steps_run);
  return Status::OK();
}

void Frontend::WorkerLoop(int shard) {
  IngestQueue<ShardItem>& queue = *queues_[static_cast<size_t>(shard)];
  obs::Histogram& latency = ingest_latency_[static_cast<size_t>(shard)];
  ShardItem item;
  while (queue.PopWait(&item, stop_workers_)) {
    UpdateMessage msg;
    Status decoded = DecodeItem(item, &msg);
    RoundState& state = *item.state;
    if (!decoded.ok()) {
      cells_.decode_errors.fetch_add(1);
      SendError(item.conn, ErrorCode::kDecode, decoded);
      std::lock_guard<std::mutex> lock(state.mutex);
      state.claimed[item.slot].store(2, std::memory_order_release);
      if (state.error.ok()) {
        state.error = Status::InvalidArgument(
            "serve: client " + std::to_string(item.client) +
            " upload failed to decode: " + decoded.message());
      }
      state.cv.notify_all();
      // Drop the item; CollectWave surfaces the sticky error.
      item = ShardItem();
      continue;
    }
    switch (item.ack.status) {
      case AckStatus::kAccepted:
        cells_.acks_accepted.fetch_add(1);
        break;
      case AckStatus::kPartial:
        cells_.acks_partial.fetch_add(1);
        break;
      case AckStatus::kRejected:
        cells_.acks_rejected.fetch_add(1);
        break;
      case AckStatus::kThrottled:
        break;  // never queued with this status
    }
    (void)item.conn->SendFrame(std::make_shared<const std::vector<uint8_t>>(
        BuildAckFrame(item.ack)));
    // Recorded before the slot resolves, so a collected wave is complete
    // in ingest_latency().
    latency.Record(NowSeconds() - item.enqueue_seconds);
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.slots[item.slot] = std::move(msg);
      state.claimed[item.slot].store(2, std::memory_order_release);
      ++state.resolved;
      if (state.resolved == state.cohort.size()) state.cv.notify_all();
    }
    item = ShardItem();  // release the frame + round state promptly
  }
}

}  // namespace fedadmm::serve
