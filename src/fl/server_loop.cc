#include "fl/server_loop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "comm/wire.h"
#include "fl/history_csv.h"
#include "fl/local_solver.h"
#include "obs/trace.h"
#include "state/checkpoint.h"
#include "state/client_state_store.h"
#include "state/slab_log.h"
#include "util/logging.h"

namespace fedadmm {
namespace {

// Selection and init stream tags, distinct from the codec and client tags
// (fl/comm_pipeline.cc, fl/client_executor.cc): no stage perturbs another.
constexpr uint64_t kSelectionTag = 0x5E1EC7;
constexpr uint64_t kInitTag = 0x1417;

// Checkpoint mode tags: sync and event blobs never restore each other.
// Retired tags stay retired, so an older blob is refused, not misread:
// 1 (sync) and 3 (event) carried a wall-clock column in every history
// record, and 2 (event) also a gradient norm in every completion event.
constexpr uint8_t kCheckpointSyncTag = 4;
constexpr uint8_t kCheckpointEventTag = 5;

// The refusal of a run that cannot give a full-participation method (FedPD)
// all m clients in every server step.
Status FullParticipationRequired(const FederatedAlgorithm& algorithm,
                                 const std::string& reason) {
  return Status::InvalidArgument(
      "Simulation: " + algorithm.name() +
      " averages the full population of m clients in every server step, so "
      "it runs only in sync mode with FullParticipationSelector and the "
      "wait-for-all straggler policy; " +
      reason);
}

// Mean training loss; NaN (the skipped-metric sentinel) when empty.
double MeanTrainLoss(double loss_sum, size_t count) {
  return count == 0 ? std::numeric_limits<double>::quiet_NaN()
                    : loss_sum / static_cast<double>(count);
}

// Scales both payload vectors (partial admissions, staleness discounts).
void ScalePayload(float scale, UpdateMessage* msg) {
  for (float& v : msg->delta) v *= scale;
  for (float& v : msg->delta2) v *= scale;
}

// Bills the fraction of a download that arrived before the cut-off.
int64_t BilledBytes(double fraction, int64_t per_client) {
  if (fraction >= 1.0) return per_client;
  return static_cast<int64_t>(
      std::llround(fraction * static_cast<double>(per_client)));
}

// Checkpoint ints (counts, ids, counters; all non-negative) travel as u32.
void WriteInt(int v, wire::Writer* w) { w->PutU32(static_cast<uint32_t>(v)); }

Status ReadInt(wire::ReaderView* reader, int* out) {
  uint32_t v = 0;
  FEDADMM_RETURN_IF_ERROR(reader->TryU32(&v));
  *out = static_cast<int>(v);
  return Status::OK();
}

// Records ride as canonical history-CSV fields, which round-trip bitwise.
void WriteHistoryBlob(const History& history, wire::Writer* w) {
  WriteInt(history.size(), w);
  for (const RoundRecord& record : history.records()) {
    for (const std::string& field : RoundCsvRow(record)) w->PutString(field);
  }
}

Result<History> ReadHistoryBlob(wire::ReaderView* reader) {
  History history;
  int count = 0;
  FEDADMM_RETURN_IF_ERROR(ReadInt(reader, &count));
  std::vector<std::string> fields(RoundCsvColumns().size());
  for (int i = 0; i < count; ++i) {
    for (std::string& field : fields) {
      FEDADMM_RETURN_IF_ERROR(reader->TryString(&field));
    }
    FEDADMM_ASSIGN_OR_RETURN(RoundRecord record, RoundFromCsvRow(fields));
    history.Add(record);
  }
  return {std::move(history)};
}

}  // namespace

ServerLoop::ServerLoop(FederatedProblem* problem,
                       FederatedAlgorithm* algorithm,
                       ClientSelector* selector,
                       const SimulationConfig& config,
                       const SystemModel* system_model,
                       UpdateCodec* uplink_codec, UpdateCodec* downlink_codec,
                       IngestSource* ingest, const RoundObserver* observer,
                       std::vector<float>* theta)
    : problem_(problem),
      algorithm_(algorithm),
      selector_(selector),
      config_(config),
      system_model_(system_model),
      observer_(observer),
      uplink_codec_(uplink_codec),
      downlink_codec_(downlink_codec),
      ingest_(ingest),
      master_(config.seed),
      selection_rng_(master_.Fork(kSelectionTag)),
      init_rng_(master_.Fork(kInitTag)),
      pipeline_(uplink_codec, downlink_codec, master_),
      executor_(problem, algorithm, master_, config.num_threads),
      theta_(*theta) {}

ServerLoop::~ServerLoop() { algorithm_->DetachReducePool(); }

Result<History> ServerLoop::Run() {
  if (config_.max_rounds <= 0) {
    return Status::InvalidArgument("Simulation: max_rounds must be > 0");
  }
  if (selector_->num_clients() != problem_->num_clients()) {
    return Status::InvalidArgument(
        "Simulation: selector and problem disagree on client count");
  }
  if (config_.eval_every < 1) {
    return Status::InvalidArgument("Simulation: eval_every must be >= 1");
  }
  if (const LocalTrainSpec* local = algorithm_->local_spec()) {
    FEDADMM_RETURN_IF_ERROR(ValidateLocalTrainSpec(*local));
  }
  if (config_.num_shards != 1) {
    return Status::InvalidArgument(
        "Simulation: num_shards must be 1 (in-process sharding was "
        "removed); set serve::FrontendOptions::num_shards for serve-mode "
        "ingest workers");
  }
  // Fail fast on a bad store spec or an unopenable slab log: Setup can
  // only CHECK.
  const std::string effective_store = config_.state_store.empty()
                                          ? algorithm_->DefaultStateStoreSpec()
                                          : config_.state_store;
  if (!effective_store.empty()) {
    FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<ClientStateStore> probe,
                             MakeClientStateStore(effective_store));
    FEDADMM_RETURN_IF_ERROR(probe->Preflight());
  }
  if (!config_.checkpoint_path.empty()) {
    if (config_.checkpoint_every < 1) {
      return Status::InvalidArgument(
          "Simulation: checkpoint_every must be >= 1");
    }
    // Stateful codecs hold residuals the checkpoint lacks; stochastic ones
    // draw from per-(wave, client) forks of the seed's master stream.
    for (const UpdateCodec* codec : {uplink_codec_, downlink_codec_}) {
      if (codec != nullptr && codec->stateful()) {
        return Status::InvalidArgument(
            "Simulation: checkpoint_path does not cover the error-feedback "
            "residuals of stateful codec '" +
            codec->name() +
            "'; checkpointed runs take stateless codecs only (no ef: "
            "wrapper), or disable checkpointing");
      }
    }
  }
  if (ingest_ != nullptr) {
    if (!sync()) {
      return Status::InvalidArgument(
          "Simulation: an ingest source requires sync mode (event modes "
          "schedule the client phase in-process)");
    }
    if (!config_.checkpoint_path.empty()) {
      return Status::InvalidArgument(
          "Simulation: checkpoint_path does not cover frontend session "
          "state; detach the ingest source or disable checkpointing");
    }
    if (uplink_codec_ != nullptr &&
        (!uplink_codec_->deterministic() || uplink_codec_->stateful())) {
      return Status::InvalidArgument(
          "Simulation: serve mode needs a deterministic, stateless uplink "
          "codec ('" + uplink_codec_->name() +
          "' is not): remote encoders cannot share the server's Rng forks "
          "or residual history");
    }
  }
  if (!sync()) {
    if (system_model_ == nullptr) {
      return Status::InvalidArgument(
          "Simulation: mode '" + ExecutionModeName(config_.mode) +
          "' needs a system model (event times come from the virtual "
          "clock)");
    }
    // Methods whose aggregation breaks under small batches refuse here
    // (fixed-η FedADMM overshoots m-fold).
    FEDADMM_RETURN_IF_ERROR(algorithm_->ValidateForEventMode());
  }
  if (algorithm_->RequiresFullParticipation()) {
    if (!sync()) {
      return FullParticipationRequired(
          *algorithm_, "mode '" + ExecutionModeName(config_.mode) +
                           "' aggregates partial batches");
    }
    if (system_model_ != nullptr &&
        system_model_->policy().name() != "wait-for-all") {
      return FullParticipationRequired(
          *algorithm_, "the straggler policy is '" +
                           system_model_->policy().name() + "'");
    }
  }
  if (!config_.round_trace_path.empty()) {
    // No context columns: the trace is the plain History::WriteCsv schema.
    FEDADMM_RETURN_IF_ERROR(round_trace_.Open(config_.round_trace_path));
  }
  Result<History> history = RunLoop();
  FEDADMM_RETURN_IF_ERROR(round_trace_.Close());
  return history;
}

Result<History> ServerLoop::RunLoop() {
  // θ⁰ and Setup. The client pool, idle whenever the server step runs,
  // is lent for blocked server-side reductions.
  theta_ = problem_->InitialParameters(&init_rng_);
  AlgorithmContext ctx;
  ctx.num_clients = problem_->num_clients();
  ctx.dim = problem_->dim();
  ctx.state_store = config_.state_store;
  ctx.reduce_pool = executor_.pool();
  algorithm_->Setup(ctx, theta_);
  if (ingest_) {
    FEDADMM_RETURN_IF_ERROR(
        ingest_->StartServing(problem_->num_clients(), problem_->dim()));
  }
  in_flight_.assign(static_cast<size_t>(problem_->num_clients()), 0);
  staleness_weight_ = sync() || !config_.staleness_weight
                          ? ConstantStalenessWeight()
                          : config_.staleness_weight;

  History history;
  std::unique_ptr<SlabLog> checkpoint_log;
  bool restored = false;
  if (!config_.checkpoint_path.empty()) {
    // Never truncate: groups stack and recovery picks the newest committed
    // one; Open cuts a torn tail so appends resume after it.
    FEDADMM_ASSIGN_OR_RETURN(
        checkpoint_log,
        SlabLog::Open(config_.checkpoint_path, /*truncate=*/false));
    if (config_.restore_from_checkpoint) {
      FEDADMM_ASSIGN_OR_RETURN(restored,
                               TryRestore(*checkpoint_log, &history));
      // A run stopped at its target restores as finished.
      if (restored && !history.empty() &&
          ReachedTarget(history.records().back())) {
        return history;
      }
    }
  }
  if (!sync() && !restored) {
    // The initial wave fixes the event engine's concurrency: one
    // in-flight client per slot, each freed slot refilled on arrival.
    const int wave = wave_counter_++;
    const std::vector<int> initial = Select(wave);
    FEDADMM_CHECK_MSG(!initial.empty(), "selector returned empty set");
    concurrency_ = static_cast<int>(initial.size());
    FEDADMM_RETURN_IF_ERROR(DispatchWave(initial, wave));
  } else if (!sync() && history.size() < config_.max_rounds) {
    // A group written when a smaller budget ran out precedes the refill of
    // the slot its last arrival freed: a larger budget refills it as the
    // longer run did. Mid-run groups hold a full queue.
    while (queue_.size() < concurrency_) {
      const int wave = wave_counter_++;
      const int replacement = PickReplacement(wave);
      if (replacement < 0) break;
      FEDADMM_RETURN_IF_ERROR(DispatchWave({replacement}, wave));
    }
  }
  const int buffer_target =
      config_.mode == ExecutionMode::kAsync
          ? 1
          : (config_.buffer_size > 0
                 ? std::min(config_.buffer_size, concurrency_)
                 : std::max(1, concurrency_ / 2));

  int records_at_last_checkpoint = history.size();
  // One iteration per arrival, one RoundRecord per aggregation.
  while (history.size() < config_.max_rounds) {
    // The quiescent point (no arrival half-processed, no sync wave open).
    if (checkpoint_log && history.size() > records_at_last_checkpoint &&
        history.size() % config_.checkpoint_every == 0) {
      FEDADMM_RETURN_IF_ERROR(WriteCheckpoint(checkpoint_log.get(), history));
      records_at_last_checkpoint = history.size();
    }
    if (sync() && wave_.empty()) {
      // Sync refill: the next cohort, usually drawn one round ahead.
      const int wave = wave_counter_++;
      std::vector<int> cohort = std::exchange(next_cohort_, {});
      if (cohort.empty()) cohort = Select(wave);
      FEDADMM_CHECK_MSG(!cohort.empty(), "selector returned empty set");
      if (algorithm_->RequiresFullParticipation() &&
          static_cast<int>(cohort.size()) < problem_->num_clients()) {
        return FullParticipationRequired(
            *algorithm_, "the selector drew " + std::to_string(cohort.size()) +
                             " of " + std::to_string(problem_->num_clients()) +
                             " clients");
      }
      FEDADMM_RETURN_IF_ERROR(DispatchWave(cohort, wave));
      buffer_.reserve(wave_.size());  // no regrowth while the wave drains
    }
    if (!sync() && queue_.empty()) break;

    ClientCompletionEvent event =
        sync() ? std::move(wave_.front()) : queue_.Pop();
    if (sync()) wave_.pop_front();
    // Event arrivals pop in time order; a sync wave arrives in dispatch
    // order, so its barrier stands at the latest arrival.
    now_ = std::max(now_, event.time);
    in_flight_[static_cast<size_t>(event.client_id)] = 0;
    Admit(std::move(event));

    // The trigger. In event modes a full wave of consecutive drops also
    // flushes — the buffer, or an all-dropped record (NaN train_loss, θ
    // untouched) — so a deadline every arrival misses still terminates.
    const bool trigger =
        sync() ? wave_.empty()
               : (static_cast<int>(buffer_.size()) >= buffer_target ||
                  drops_since_aggregate_ >= concurrency_);
    if (trigger) {
      FEDADMM_ASSIGN_OR_RETURN(RoundRecord record, Aggregate(history.size()));
      if (FinalizeRecord(std::move(record), &history)) break;
      if (history.size() >= config_.max_rounds) break;
    }
    if (!sync()) {
      // Event refill: one replacement per freed slot, on the current θ.
      const int wave = wave_counter_++;
      const int replacement = PickReplacement(wave);
      if (replacement >= 0) {
        FEDADMM_RETURN_IF_ERROR(DispatchWave({replacement}, wave));
      }
    }
  }
  // Final group off the cadence: max_rounds, target accuracy, and a
  // starved queue all land here, so a finished run restores as finished.
  if (checkpoint_log && history.size() > records_at_last_checkpoint) {
    FEDADMM_RETURN_IF_ERROR(WriteCheckpoint(checkpoint_log.get(), history));
  }
  return history;
}

std::vector<int> ServerLoop::Select(int wave) {
  obs::TraceScope scope("select", "engine");
  scope.set_arg("wave", wave);
  return selector_->Select(wave, &selection_rng_);
}

Status ServerLoop::DispatchWave(const std::vector<int>& clients, int wave) {
  obs::TraceScope dispatch_scope("dispatch", "engine");
  dispatch_scope.set_arg("wave", wave);
  // θ is encoded once per wave; clients train on the decoded broadcast.
  const DownlinkPlan downlink = pipeline_.PrepareDownlink(
      wave, theta_, algorithm_->DownloadBytesPerClient());
  std::vector<UpdateMessage> updates;
  if (ingest_) {
    // Serve mode: sessions pull and push while the next cohort is drawn
    // below, keeping the selection stream's Select(0), Select(1), ... order.
    FEDADMM_RETURN_IF_ERROR(
        ingest_->BeginRound(wave, clients, downlink, theta_));
  } else {
    executor_.RunWave(wave, clients, downlink.ThetaForClients(theta_),
                      &updates);
    // Exact upload sizes for the judgment; encoding waits for admission.
    pipeline_.PredictUplinkBytes(&updates);
  }
  dispatch_scope.Stop();

  // Sync draws the next cohort now so the store can prefetch its slabs on
  // the idle executor pool while the serial work runs.
  if (sync() && wave + 1 < config_.max_rounds) {
    next_cohort_ = Select(wave + 1);
    if (ClientStateStore* store = algorithm_->mutable_state_store()) {
      store->PrefetchClients(next_cohort_, executor_.pool());
    }
  }
  if (ingest_) {
    // One decoded message per cohort member, in selection order.
    FEDADMM_ASSIGN_OR_RETURN(updates, ingest_->CollectWave(wave));
    if (updates.size() != clients.size()) {
      return Status::Internal("Simulation: CollectWave must return one "
                              "message per cohort member");
    }
  }

  for (UpdateMessage& msg : updates) {
    ClientCompletionEvent event;
    if (system_model_) {
      event = MakeClientCompletionEvent(
          system_model_->fleet().profile(msg.client_id),
          system_model_->policy(), now_, downlink.per_client_bytes,
          std::move(msg), wave, server_version_, sequence_++);
    } else {
      // No virtual clock: every client arrives, admitted, at dispatch.
      event.time = now_;
      event.sequence = sequence_++;
      event.client_id = msg.client_id;
      event.wave = wave;
      event.theta_version = server_version_;
      event.message = std::move(msg);
    }
    // A client dropped mid-download is billed the received fraction.
    pending_download_bytes_ += BilledBytes(event.decision.download_fraction,
                                           downlink.per_client_bytes);
    pending_download_bytes_raw_ += BilledBytes(event.decision.download_fraction,
                                               downlink.per_client_bytes_raw);
    in_flight_[static_cast<size_t>(event.client_id)] = 1;
    if (sync()) {
      wave_.push_back(std::move(event));
    } else {
      queue_.Push(std::move(event));
    }
  }
  return Status::OK();
}

int ServerLoop::PickReplacement(int wave) {
  for (const int client : Select(wave)) {
    if (!in_flight_[static_cast<size_t>(client)]) return client;
  }
  for (size_t client = 0; client < in_flight_.size(); ++client) {
    if (!in_flight_[client]) return static_cast<int>(client);
  }
  return -1;
}

void ServerLoop::Admit(ClientCompletionEvent event) {
  if (event.decision.fate == ClientFate::kDropped) {
    ++pending_dropped_;
    ++drops_since_aggregate_;
    return;
  }
  drops_since_aggregate_ = 0;
  if (event.decision.fate == ClientFate::kAdmittedPartial) {
    ++pending_partial_;
    // A proportionally smaller delta (DeadlineAdmitPartialPolicy note).
    ScalePayload(static_cast<float>(event.decision.work_fraction),
                 &event.message);
  }
  // Encode serially in arrival order: stateful codecs see a deterministic
  // schedule of admitted uploads. Serve-mode payloads arrive encoded.
  if (!ingest_) pipeline_.EncodeUplink(event.wave, &event.message);
  buffer_.push_back(std::move(event));
}

Result<RoundRecord> ServerLoop::Aggregate(int round) {
  obs::TraceScope scope("aggregate", "engine");
  scope.set_arg("round", round);
  RoundRecord record;
  record.round = round;
  // Sync counts the cohort, drops included; event modes the buffer.
  record.num_selected =
      static_cast<int>(buffer_.size()) + (sync() ? pending_dropped_ : 0);
  record.num_dropped = std::exchange(pending_dropped_, 0);
  record.num_admitted_partial = std::exchange(pending_partial_, 0);
  record.download_bytes = std::exchange(pending_download_bytes_, 0);
  record.download_bytes_raw = std::exchange(pending_download_bytes_raw_, 0);
  record.sim_seconds = now_;
  drops_since_aggregate_ = 0;

  double loss_sum = 0.0;
  double staleness_sum = 0.0;
  for (ClientCompletionEvent& e : buffer_) {
    const int staleness = server_version_ - e.theta_version;
    staleness_sum += staleness;
    record.staleness_max = std::max(record.staleness_max, staleness);
    loss_sum += e.message.train_loss;
    record.upload_bytes += e.message.UploadBytes();
    record.upload_bytes_raw += e.message.RawBytes();
    // Discount stale payloads (FedBuff/FedAsync).
    const double w = staleness_weight_(staleness);
    if (!(w >= 0.0 && std::isfinite(w))) {
      return Status::InvalidArgument(
          "Simulation: the staleness weight returned " + std::to_string(w) +
          " at staleness " + std::to_string(staleness) +
          "; weights must be finite and >= 0");
    }
    if (w != 1.0) ScalePayload(static_cast<float>(w), &e.message);
  }
  record.train_loss = MeanTrainLoss(loss_sum, buffer_.size());
  record.staleness_mean =
      buffer_.empty() ? std::numeric_limits<double>::quiet_NaN()
                      : staleness_sum / static_cast<double>(buffer_.size());
  // An all-dropped record leaves θ untouched. Async is a one-arrival
  // buffer, so every mode aggregates through the same ServerUpdate.
  if (!buffer_.empty()) {
    std::vector<UpdateMessage> batch;
    batch.reserve(buffer_.size());
    for (ClientCompletionEvent& e : buffer_) {
      batch.push_back(std::move(e.message));
    }
    algorithm_->ServerUpdate(batch, round, &theta_);
    ++server_version_;
  }
  buffer_.clear();
  return record;
}

bool ServerLoop::FinalizeRecord(RoundRecord record, History* history) {
  obs::TraceScope scope("finalize", "engine");
  scope.set_arg("round", record.round);
  const bool evaluate = record.round == config_.max_rounds - 1 ||
                        record.round % config_.eval_every == 0;
  record.test_accuracy = std::numeric_limits<double>::quiet_NaN();
  record.test_loss = std::numeric_limits<double>::quiet_NaN();
  if (evaluate) {
    const EvalResult eval = problem_->Evaluate(theta_, /*worker=*/0);
    record.test_accuracy = eval.accuracy;
    record.test_loss = eval.loss;
  }
  record.state_bytes_resident = algorithm_->StateBytesResident();
  history->Add(record);
  if (round_trace_.is_open()) {
    const Status status = round_trace_.Append({}, record);
    if (!status.ok()) {
      // A broken trace sink must not abort training; warn once, stop writing.
      FEDADMM_LOG(Warning) << "round trace disabled: " << status.message();
      (void)round_trace_.Close();
    }
  }
  if (observer_ && *observer_) (*observer_)(record);
  return ReachedTarget(record);
}

bool ServerLoop::ReachedTarget(const RoundRecord& record) const {
  // A record that skipped evaluation holds NaN, which compares false.
  return config_.target_accuracy > 0.0 &&
         record.test_accuracy >= config_.target_accuracy;
}

Status ServerLoop::WriteCheckpoint(SlabLog* log, const History& history) {
  std::vector<uint8_t> blob;
  wire::Writer w(&blob);
  w.PutU8(sync() ? kCheckpointSyncTag : kCheckpointEventTag);
  w.PutFloats(theta_);
  w.PutString(selection_rng_.SerializeState());
  w.PutString(algorithm_->SerializeExtraState());
  WriteHistoryBlob(history, &w);
  w.PutF64(now_);
  for (const int64_t v : {sequence_, pending_download_bytes_,
                          pending_download_bytes_raw_}) {
    w.PutU64(static_cast<uint64_t>(v));
  }
  for (const int v : {wave_counter_, server_version_, concurrency_,
                      pending_dropped_, pending_partial_,
                      drops_since_aggregate_}) {
    WriteInt(v, &w);
  }
  WriteInt(static_cast<int>(buffer_.size()), &w);
  for (const ClientCompletionEvent& e : buffer_) {
    SerializeClientCompletionEvent(e, &w);
  }
  WriteInt(queue_.size(), &w);
  for (const ClientCompletionEvent& e : queue_.events()) {
    SerializeClientCompletionEvent(e, &w);
  }
  // The RNG is already past sync's pre-drawn cohort: it rides along.
  WriteInt(static_cast<int>(next_cohort_.size()), &w);
  for (const int client : next_cohort_) WriteInt(client, &w);
  return AppendSimulationCheckpoint(
      log, history.size(), std::string(blob.begin(), blob.end()),
      algorithm_->mutable_state_store());
}

Result<bool> ServerLoop::TryRestore(const SlabLog& log, History* history) {
  auto loaded = LoadLatestSimulationCheckpoint(log);
  if (!loaded.ok()) {
    // No committed group, or an unreadable one: start fresh — the
    // crash-before-first-checkpoint semantic.
    if (loaded.status().IsNotFound() || loaded.status().IsIoError()) {
      return {false};
    }
    return loaded.status();
  }
  const SimulationCheckpoint& checkpoint = loaded.ValueOrDie();
  wire::ReaderView r(checkpoint.engine_blob);
  uint8_t tag = 0;
  FEDADMM_RETURN_IF_ERROR(r.TryU8(&tag));
  if (tag != (sync() ? kCheckpointSyncTag : kCheckpointEventTag)) {
    return Status::InvalidArgument(
        "Simulation: checkpoint in '" + config_.checkpoint_path +
        "' was written by a different execution mode or checkpoint format");
  }
  std::vector<float> theta;
  FEDADMM_RETURN_IF_ERROR(r.TryFloats(&theta));
  if (theta.size() != theta_.size()) {
    return Status::InvalidArgument(
        "Simulation: checkpoint θ dim " + std::to_string(theta.size()) +
        " != problem dim " + std::to_string(theta_.size()));
  }
  theta_ = std::move(theta);
  std::string rng_state, extra;
  FEDADMM_RETURN_IF_ERROR(r.TryString(&rng_state));
  FEDADMM_RETURN_IF_ERROR(selection_rng_.RestoreState(rng_state));
  FEDADMM_RETURN_IF_ERROR(r.TryString(&extra));
  FEDADMM_RETURN_IF_ERROR(algorithm_->RestoreExtraState(extra));
  FEDADMM_ASSIGN_OR_RETURN(*history, ReadHistoryBlob(&r));
  // Restored client ids index this run's per-client arrays, so a
  // checkpoint written by a larger fleet is refused before any is used.
  const int num_clients = problem_->num_clients();
  const auto check_client = [&](int client) {
    if (client >= 0 && client < num_clients) return Status::OK();
    return Status::InvalidArgument(
        "Simulation: checkpoint in '" + config_.checkpoint_path +
        "' holds client id " + std::to_string(client) +
        ", so it was written by a fleet of at least " +
        std::to_string(client + 1) + " clients; this run has " +
        std::to_string(num_clients) + " clients");
  };
  FEDADMM_RETURN_IF_ERROR(r.TryF64(&now_));
  for (int64_t* v : {&sequence_, &pending_download_bytes_,
                     &pending_download_bytes_raw_}) {
    uint64_t bits = 0;
    FEDADMM_RETURN_IF_ERROR(r.TryU64(&bits));
    *v = static_cast<int64_t>(bits);
  }
  for (int* v : {&wave_counter_, &server_version_, &concurrency_,
                 &pending_dropped_, &pending_partial_,
                 &drops_since_aggregate_}) {
    FEDADMM_RETURN_IF_ERROR(ReadInt(&r, v));
  }
  int count = 0;
  FEDADMM_RETURN_IF_ERROR(ReadInt(&r, &count));
  for (int i = 0; i < count; ++i) {
    FEDADMM_ASSIGN_OR_RETURN(ClientCompletionEvent e,
                             DeserializeClientCompletionEvent(&r));
    FEDADMM_RETURN_IF_ERROR(check_client(e.client_id));
    buffer_.push_back(std::move(e));
  }
  FEDADMM_RETURN_IF_ERROR(ReadInt(&r, &count));
  for (int i = 0; i < count; ++i) {
    FEDADMM_ASSIGN_OR_RETURN(ClientCompletionEvent e,
                             DeserializeClientCompletionEvent(&r));
    FEDADMM_RETURN_IF_ERROR(check_client(e.client_id));
    // Exactly the queued (not yet arrived) clients are in flight.
    in_flight_[static_cast<size_t>(e.client_id)] = 1;
    queue_.Push(std::move(e));
  }
  FEDADMM_RETURN_IF_ERROR(ReadInt(&r, &count));
  for (int i = 0, client = 0; i < count; ++i) {
    FEDADMM_RETURN_IF_ERROR(ReadInt(&r, &client));
    FEDADMM_RETURN_IF_ERROR(check_client(client));
    next_cohort_.push_back(client);
  }
  if (ClientStateStore* store = algorithm_->mutable_state_store()) {
    FEDADMM_RETURN_IF_ERROR(RestoreStoreContents(log, checkpoint, store));
  }
  return {true};
}

}  // namespace fedadmm
