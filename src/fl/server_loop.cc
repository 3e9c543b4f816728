#include "fl/server_loop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "fl/history_csv.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "state/checkpoint.h"
#include "state/client_state_store.h"
#include "state/slab_log.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace fedadmm {
namespace {

// Selection and init stream tags, distinct from the codec and client tags
// (fl/comm_pipeline.cc, fl/client_executor.cc): no stage perturbs another.
constexpr uint64_t kSelectionTag = 0x5E1EC7;
constexpr uint64_t kInitTag = 0x1417;

// Checkpoint mode tags: sync and event blobs never restore each other.
constexpr uint8_t kCheckpointSyncTag = 1;
constexpr uint8_t kCheckpointEventTag = 2;

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

// Cached registry handles. The phase histograms are the engine's time
// budget: select → dispatch (downlink + client wave) → aggregate (record +
// server step) → finalize (eval + bookkeeping).
struct EngineMetrics {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  obs::Counter* rounds = r.counter("server/rounds_count");
  obs::Counter* selected = r.counter("server/clients_selected_count");
  obs::Counter* dropped = r.counter("server/clients_dropped_count");
  obs::Counter* partial = r.counter("server/clients_admitted_partial_count");
  obs::Gauge* state_bytes_resident = r.gauge("server/state_bytes_resident");
  obs::Histogram* phase_select = r.histogram("server/phase/select_seconds");
  obs::Histogram* phase_dispatch =
      r.histogram("server/phase/dispatch_seconds");
  obs::Histogram* phase_aggregate =
      r.histogram("server/phase/aggregate_seconds");
  obs::Histogram* phase_finalize =
      r.histogram("server/phase/finalize_seconds");
};

EngineMetrics& Metrics() {
  static EngineMetrics* metrics = new EngineMetrics();
  return *metrics;
}

// Checkpoint ints (counts, ids, counters; all non-negative) travel as u32.
void WriteInt(int v, ByteWriter* w) { w->U32(static_cast<uint32_t>(v)); }

Status ReadInt(ByteReader* reader, int* out) {
  FEDADMM_ASSIGN_OR_RETURN(uint32_t v, reader->U32());
  *out = static_cast<int>(v);
  return Status::OK();
}

// Records ride as canonical history-CSV fields, which round-trip bitwise.
void WriteHistoryBlob(const History& history, ByteWriter* w) {
  WriteInt(history.size(), w);
  for (const RoundRecord& record : history.records()) {
    for (const std::string& field : RoundCsvRow(record)) w->String(field);
  }
}

Result<History> ReadHistoryBlob(ByteReader* reader) {
  History history;
  int count = 0;
  FEDADMM_RETURN_IF_ERROR(ReadInt(reader, &count));
  std::vector<std::string> fields(RoundCsvColumns().size());
  for (int i = 0; i < count; ++i) {
    for (std::string& field : fields) {
      FEDADMM_ASSIGN_OR_RETURN(field, reader->String());
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
  if (config_.num_shards != 1) {
    return Status::InvalidArgument(
        "Simulation: num_shards must be 1 (in-process sharding was "
        "removed); set serve::FrontendOptions::num_shards for serve-mode "
        "ingest workers");
  }
  // Fail fast on a bad store spec: Setup can only CHECK.
  const std::string effective_store = config_.state_store.empty()
                                          ? algorithm_->DefaultStateStoreSpec()
                                          : config_.state_store;
  if (!effective_store.empty()) {
    auto probe = MakeClientStateStore(effective_store);
    if (!probe.ok()) return probe.status();
  }
  if (!config_.checkpoint_path.empty()) {
    if (config_.checkpoint_every < 1) {
      return Status::InvalidArgument(
          "Simulation: checkpoint_every must be >= 1");
    }
    // Codec state (error-feedback residuals) is not in the checkpoint.
    if (uplink_codec_ != nullptr || downlink_codec_ != nullptr) {
      return Status::InvalidArgument(
          "Simulation: checkpoint_path does not cover codec state "
          "(error-feedback residuals); detach the uplink/downlink codecs "
          "or disable checkpointing");
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
    // (fixed-η FedADMM overshoots m-fold; FedPD needs the full mean).
    FEDADMM_RETURN_IF_ERROR(algorithm_->ValidateForEventMode());
  }
  if (!config_.round_trace_path.empty()) {
    FEDADMM_RETURN_IF_ERROR(round_trace_.Open(
        config_.round_trace_path, config_.round_trace_deterministic_only));
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
      FEDADMM_ASSIGN_OR_RETURN(restored, TryRestore(&history));
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
  }
  const int buffer_target =
      config_.mode == ExecutionMode::kAsync
          ? 1
          : (config_.buffer_size > 0
                 ? std::min(config_.buffer_size, concurrency_)
                 : std::max(1, concurrency_ / 2));

  int records_at_last_checkpoint = history.size();
  Stopwatch watch;
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
      if (FinalizeRecord(Aggregate(history.size()), &watch, &history)) break;
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
  obs::TraceScope scope("select", "engine", Metrics().phase_select);
  scope.set_arg("wave", wave);
  return selector_->Select(wave, &selection_rng_);
}

Status ServerLoop::DispatchWave(const std::vector<int>& clients, int wave) {
  obs::TraceScope dispatch_scope("dispatch", "engine",
                                 Metrics().phase_dispatch);
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

RoundRecord ServerLoop::Aggregate(int round) {
  obs::TraceScope scope("aggregate", "engine", Metrics().phase_aggregate);
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
    FEDADMM_CHECK_MSG(w >= 0.0 && std::isfinite(w),
                      "staleness weight must be finite and >= 0");
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

bool ServerLoop::FinalizeRecord(RoundRecord record, Stopwatch* watch,
                                History* history) {
  obs::TraceScope scope("finalize", "engine", Metrics().phase_finalize);
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
  record.wall_seconds = watch->ElapsedSeconds();
  record.state_bytes_resident = algorithm_->StateBytesResident();
  watch->Reset();
  history->Add(record);
  if (obs::MetricsEnabled()) {
    EngineMetrics& m = Metrics();
    m.rounds->Add(1);
    m.selected->Add(record.num_selected);
    m.dropped->Add(record.num_dropped);
    m.partial->Add(record.num_admitted_partial);
    m.state_bytes_resident->Set(record.state_bytes_resident);
  }
  if (round_trace_.is_open()) WriteRoundTrace(record);
  if (observer_ && *observer_) (*observer_)(record);
  if (config_.log_rounds && evaluate) {
    FEDADMM_LOG(Info) << algorithm_->name() << " ["
                      << ExecutionModeName(config_.mode) << "] round "
                      << record.round << " t=" << record.sim_seconds
                      << " acc=" << record.test_accuracy
                      << " loss=" << record.train_loss
                      << " stale=" << record.staleness_mean;
  }
  return evaluate && config_.target_accuracy > 0.0 &&
         record.test_accuracy >= config_.target_accuracy;
}

void ServerLoop::WriteRoundTrace(const RoundRecord& record) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("round").Int(record.round);
  w.Key("num_selected").Int(record.num_selected);
  w.Key("num_dropped").Int(record.num_dropped);
  w.Key("num_admitted_partial").Int(record.num_admitted_partial);
  w.Key("train_loss").Double(record.train_loss);
  w.Key("test_accuracy").Double(record.test_accuracy);
  w.Key("test_loss").Double(record.test_loss);
  w.Key("sim_seconds").Double(record.sim_seconds);
  w.Key("upload_bytes").Int(record.upload_bytes);
  w.Key("download_bytes").Int(record.download_bytes);
  w.Key("upload_bytes_raw").Int(record.upload_bytes_raw);
  w.Key("download_bytes_raw").Int(record.download_bytes_raw);
  w.Key("staleness_mean").Double(record.staleness_mean);
  w.Key("staleness_max").Int(record.staleness_max);
  w.Key("state_bytes_resident").Int(record.state_bytes_resident);
  // The only host-dependent field; zeroed in deterministic-only mode so
  // same-seed traces diff byte-identical (mirrors the history CSV).
  w.Key("wall_seconds")
      .Double(round_trace_.deterministic_only() ? 0.0 : record.wall_seconds);
  w.EndObject();
  const Status status = round_trace_.Append(w.str());
  if (!status.ok()) {
    // A broken trace sink must not abort training; warn once, stop writing.
    FEDADMM_LOG(Warning) << "round trace disabled: " << status.message();
    (void)round_trace_.Close();
  }
}

Status ServerLoop::WriteCheckpoint(SlabLog* log, const History& history) {
  ByteWriter w;
  w.U8(sync() ? kCheckpointSyncTag : kCheckpointEventTag);
  w.Floats(theta_);
  w.String(selection_rng_.SerializeState());
  w.String(algorithm_->SerializeExtraState());
  WriteHistoryBlob(history, &w);
  w.F64(now_);
  w.I64(sequence_);
  w.I64(pending_download_bytes_);
  w.I64(pending_download_bytes_raw_);
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
  return AppendSimulationCheckpoint(log, history.size(), w.Take(),
                                    algorithm_->mutable_state_store());
}

Result<bool> ServerLoop::TryRestore(History* history) {
  auto loaded = LoadLatestSimulationCheckpoint(config_.checkpoint_path);
  if (!loaded.ok()) {
    // Missing file, no committed group, or an unreadable one: start fresh
    // — the crash-before-first-checkpoint semantic.
    if (loaded.status().IsNotFound() || loaded.status().IsIoError()) {
      return {false};
    }
    return loaded.status();
  }
  const SimulationCheckpoint& checkpoint = loaded.ValueOrDie();
  ByteReader r(checkpoint.engine_blob);
  FEDADMM_ASSIGN_OR_RETURN(uint8_t tag, r.U8());
  if (tag != (sync() ? kCheckpointSyncTag : kCheckpointEventTag)) {
    return Status::InvalidArgument(
        "Simulation: checkpoint in '" + config_.checkpoint_path +
        "' was written by a different execution mode");
  }
  FEDADMM_ASSIGN_OR_RETURN(std::vector<float> theta, r.Floats());
  if (theta.size() != theta_.size()) {
    return Status::InvalidArgument(
        "Simulation: checkpoint θ dim " + std::to_string(theta.size()) +
        " != problem dim " + std::to_string(theta_.size()));
  }
  theta_ = std::move(theta);
  FEDADMM_ASSIGN_OR_RETURN(std::string rng_state, r.String());
  FEDADMM_RETURN_IF_ERROR(selection_rng_.RestoreState(rng_state));
  FEDADMM_ASSIGN_OR_RETURN(std::string extra, r.String());
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
  FEDADMM_ASSIGN_OR_RETURN(now_, r.F64());
  FEDADMM_ASSIGN_OR_RETURN(sequence_, r.I64());
  FEDADMM_ASSIGN_OR_RETURN(pending_download_bytes_, r.I64());
  FEDADMM_ASSIGN_OR_RETURN(pending_download_bytes_raw_, r.I64());
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
    FEDADMM_RETURN_IF_ERROR(RestoreStoreContents(checkpoint, store));
  }
  return {true};
}

}  // namespace fedadmm
