/// \file decorators.h
/// \brief Forwarding decorators that time each layer from outside.
///
/// Every decorator wraps one public interface the engine already calls
/// through and forwards every virtual unchanged — the traced run must
/// print the same θ hash as the untraced one, which the benchmark checks.
/// Each wrapped call opens one `ScopedSpan`; counts that are too frequent
/// for a span (transport polls) or are not time (bytes) go into relaxed
/// atomics at the same boundary.

#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "fl/algorithm.h"
#include "fl/ingest.h"
#include "fl/problem.h"
#include "fl/selection.h"
#include "serve/transport.h"
#include "span_log.h"
#include "state/client_state_store.h"

namespace perfbench {

using fedadmm::AlgorithmContext;
using fedadmm::ClientStateStore;
using fedadmm::EvalResult;
using fedadmm::FederatedAlgorithm;
using fedadmm::FederatedProblem;
using fedadmm::LocalProblem;
using fedadmm::Rng;
using fedadmm::Status;
using fedadmm::UpdateMessage;

/// LocalProblem decorator: the nn layer's batch and full gradients.
class TracedLocalProblem : public LocalProblem {
 public:
  explicit TracedLocalProblem(std::unique_ptr<LocalProblem> inner)
      : inner_(std::move(inner)) {}

  int64_t dim() const override { return inner_->dim(); }
  int num_samples() const override { return inner_->num_samples(); }

  double BatchLossGradient(std::span<const float> w,
                           const std::vector<int>& batch,
                           std::span<float> grad) override {
    ScopedSpan span(SpanKind::kBatchGrad, -1,
                    static_cast<int64_t>(batch.size()));
    return inner_->BatchLossGradient(w, batch, grad);
  }

  std::vector<std::vector<int>> EpochBatches(int batch_size,
                                             Rng* rng) override {
    return inner_->EpochBatches(batch_size, rng);
  }

  double FullLossGradient(std::span<const float> w,
                          std::span<float> grad) override {
    ScopedSpan span(SpanKind::kFullGrad, -1, inner_->num_samples());
    return inner_->FullLossGradient(w, grad);
  }

 private:
  std::unique_ptr<LocalProblem> inner_;
};

/// FederatedProblem decorator: wraps every local view and times Evaluate.
class TracedProblem : public FederatedProblem {
 public:
  explicit TracedProblem(FederatedProblem* inner) : inner_(inner) {}

  int num_clients() const override { return inner_->num_clients(); }
  int64_t dim() const override { return inner_->dim(); }
  int num_workers() const override { return inner_->num_workers(); }

  std::unique_ptr<LocalProblem> MakeLocalProblem(int client,
                                                 int worker) override {
    return std::make_unique<TracedLocalProblem>(
        inner_->MakeLocalProblem(client, worker));
  }

  EvalResult Evaluate(std::span<const float> theta, int worker) override {
    ScopedSpan span(SpanKind::kEval);
    return inner_->Evaluate(theta, worker);
  }

  std::vector<float> InitialParameters(Rng* rng) override {
    return inner_->InitialParameters(rng);
  }

 private:
  FederatedProblem* inner_;
};

/// ClientStateStore decorator: times checkpoint passes (ForEachTouched).
class TracedStore : public ClientStateStore {
 public:
  explicit TracedStore(ClientStateStore* inner) : inner_(inner) {}

  ClientStateStore* inner() const { return inner_; }

  std::string name() const override { return inner_->name(); }
  void Configure(int num_clients,
                 std::vector<fedadmm::StateSlotSpec> slots) override {
    inner_->Configure(num_clients, std::move(slots));
  }
  std::span<const float> View(int client_id, int slot) const override {
    return inner_->View(client_id, slot);
  }
  std::span<float> MutableView(int client_id, int slot) override {
    return inner_->MutableView(client_id, slot);
  }
  void Release(int client_id) const override { inner_->Release(client_id); }
  void ForEachTouched(
      const fedadmm::TouchedStateVisitor& visitor) const override {
    ScopedSpan span(SpanKind::kForEachTouched);
    inner_->ForEachTouched(visitor);
  }
  int64_t bytes_resident() const override { return inner_->bytes_resident(); }
  int num_touched_clients() const override {
    return inner_->num_touched_clients();
  }
  int num_clients() const override { return inner_->num_clients(); }
  int num_slots() const override { return inner_->num_slots(); }
  int64_t slot_dim(int slot) const override { return inner_->slot_dim(slot); }
  void SetShardContext(int shard, int num_shards) override {
    inner_->SetShardContext(shard, num_shards);
  }
  void PrefetchClients(const std::vector<int>& clients,
                       fedadmm::ThreadPool* pool) override {
    inner_->PrefetchClients(clients, pool);
  }

 private:
  ClientStateStore* inner_;
};

/// FederatedAlgorithm decorator: the core layer (client and server steps,
/// Setup) and the store handle the engine checkpoints through.
class TracedAlgorithm : public FederatedAlgorithm {
 public:
  explicit TracedAlgorithm(FederatedAlgorithm* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }

  void Setup(const AlgorithmContext& ctx,
             std::span<const float> theta0) override {
    ScopedSpan span(SpanKind::kAlgoSetup);
    inner_->Setup(ctx, theta0);
  }

  UpdateMessage ClientUpdate(int client_id, int round,
                             std::span<const float> theta,
                             LocalProblem* problem, Rng rng) override {
    ScopedSpan span(SpanKind::kClientUpdate, client_id);
    return inner_->ClientUpdate(client_id, round, theta, problem, rng);
  }

  void ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                    std::vector<float>* theta) override {
    ScopedSpan span(SpanKind::kServerUpdate, -1,
                    static_cast<int64_t>(updates.size()));
    inner_->ServerUpdate(updates, round, theta);
  }

  void AggregateOne(UpdateMessage msg, int round, int staleness,
                    std::vector<float>* theta) override {
    ScopedSpan span(SpanKind::kAggregateOne, msg.client_id);
    inner_->AggregateOne(std::move(msg), round, staleness, theta);
  }

  int64_t DownloadBytesPerClient() const override {
    return inner_->DownloadBytesPerClient();
  }
  int64_t StateBytesResident() const override {
    return inner_->StateBytesResident();
  }
  std::string DefaultStateStoreSpec() const override {
    return inner_->DefaultStateStoreSpec();
  }
  Status ValidateForEventMode() const override {
    return inner_->ValidateForEventMode();
  }
  ClientStateStore* mutable_state_store() override {
    ClientStateStore* store = inner_->mutable_state_store();
    if (store == nullptr) return nullptr;
    if (store_ == nullptr || store_->inner() != store) {
      store_ = std::make_unique<TracedStore>(store);
    }
    return store_.get();
  }
  std::string SerializeExtraState() const override {
    return inner_->SerializeExtraState();
  }
  Status RestoreExtraState(const std::string& blob) override {
    return inner_->RestoreExtraState(blob);
  }

 private:
  FederatedAlgorithm* inner_;
  std::unique_ptr<TracedStore> store_;
};

/// ClientSelector decorator. Always present (also untraced): it stamps
/// the first `Select`, which is where the engine's setup ends and round 0
/// begins, and opens the round spans when tracing.
class SelectorProbe : public fedadmm::ClientSelector {
 public:
  explicit SelectorProbe(fedadmm::ClientSelector* inner) : inner_(inner) {}

  std::vector<int> Select(int round, Rng* rng) override {
    if (first_select_ns_ == 0) {
      first_select_ns_ = NowNs();
      SpanLog::Get().BeginRounds(first_select_ns_);
    }
    ScopedSpan span(SpanKind::kSelect);
    return inner_->Select(round, rng);
  }
  int num_clients() const override { return inner_->num_clients(); }
  std::string name() const override { return inner_->name(); }

  /// Steady-clock ns of the first Select (0 before it).
  int64_t first_select_ns() const { return first_select_ns_; }

 private:
  fedadmm::ClientSelector* inner_;
  int64_t first_select_ns_ = 0;
};

/// Byte and call counters shared by every codec decorator of a run.
struct CodecCounters {
  std::atomic<int64_t> wire_bytes{0};
  std::atomic<int64_t> raw_bytes{0};
};

/// UpdateCodec decorator: the comm layer's encode/decode.
class TracedCodec : public fedadmm::UpdateCodec {
 public:
  TracedCodec(fedadmm::UpdateCodec* inner, CodecCounters* counters)
      : inner_(inner), counters_(counters) {}

  std::string name() const override { return inner_->name(); }

  fedadmm::Payload Encode(int64_t stream, const std::vector<float>& v,
                          Rng* rng) override {
    ScopedSpan span(SpanKind::kEncode);
    fedadmm::Payload payload = inner_->Encode(stream, v, rng);
    span.set_detail(payload.WireBytes());
    counters_->wire_bytes.fetch_add(payload.WireBytes(),
                                    std::memory_order_relaxed);
    counters_->raw_bytes.fetch_add(
        static_cast<int64_t>(v.size() * sizeof(float)),
        std::memory_order_relaxed);
    return payload;
  }

  std::vector<float> Decode(const fedadmm::Payload& payload) const override {
    ScopedSpan span(SpanKind::kDecode, -1, payload.WireBytes());
    return inner_->Decode(payload);
  }

  fedadmm::Result<std::vector<float>> TryDecode(
      const uint8_t* data, size_t len, int64_t expected_dim) const override {
    ScopedSpan span(SpanKind::kDecode, -1, static_cast<int64_t>(len));
    return inner_->TryDecode(data, len, expected_dim);
  }

  int64_t WireBytes(int64_t dim) const override {
    return inner_->WireBytes(dim);
  }
  bool deterministic() const override { return inner_->deterministic(); }
  bool stateful() const override { return inner_->stateful(); }

 private:
  fedadmm::UpdateCodec* inner_;
  CodecCounters* counters_;
};

/// FrameSink decorator around the frontend: frame parsing and admission.
class TracedSink : public fedadmm::serve::FrameSink {
 public:
  explicit TracedSink(fedadmm::serve::FrameSink* inner) : inner_(inner) {}

  void OnBytes(fedadmm::serve::Connection* conn, const uint8_t* data,
               size_t len) override {
    ScopedSpan span(SpanKind::kOnBytes, -1, static_cast<int64_t>(len));
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    bytes_in_.fetch_add(static_cast<int64_t>(len), std::memory_order_relaxed);
    inner_->OnBytes(conn, data, len);
  }
  void OnDisconnect(fedadmm::serve::Connection* conn) override {
    inner_->OnDisconnect(conn);
  }

  int64_t frames_in() const { return frames_in_.load(); }
  int64_t bytes_in() const { return bytes_in_.load(); }

 private:
  fedadmm::serve::FrameSink* inner_;
  std::atomic<int64_t> frames_in_{0};
  std::atomic<int64_t> bytes_in_{0};
};

/// IngestSource decorator: round open and wave collection on the loop.
class TracedIngest : public fedadmm::IngestSource {
 public:
  explicit TracedIngest(fedadmm::IngestSource* inner) : inner_(inner) {}

  Status StartServing(int num_clients, int64_t dim) override {
    ScopedSpan span(SpanKind::kStartServing);
    return inner_->StartServing(num_clients, dim);
  }
  Status BeginRound(int round, const std::vector<int>& cohort,
                    const fedadmm::DownlinkPlan& downlink,
                    const std::vector<float>& theta) override {
    ScopedSpan span(SpanKind::kBeginRound, -1,
                    static_cast<int64_t>(cohort.size()));
    return inner_->BeginRound(round, cohort, downlink, theta);
  }
  fedadmm::Result<std::vector<UpdateMessage>> CollectWave(int round) override {
    ScopedSpan span(SpanKind::kCollectWave);
    return inner_->CollectWave(round);
  }

 private:
  fedadmm::IngestSource* inner_;
};

/// Poll counters shared by every channel of a traced transport.
struct PollCounters {
  std::atomic<int64_t> polls{0};
  std::atomic<int64_t> hits{0};
};

/// ClientChannel decorator: counts receive polls and the ones that found a
/// frame (a span per poll would cost more than the poll).
class TracedChannel : public fedadmm::serve::ClientChannel {
 public:
  TracedChannel(std::unique_ptr<fedadmm::serve::ClientChannel> inner,
                PollCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  Status Send(const std::vector<uint8_t>& frame) override {
    return inner_->Send(frame);
  }
  fedadmm::Result<bool> TryReceiveFrame(std::vector<uint8_t>* frame) override {
    fedadmm::Result<bool> got = inner_->TryReceiveFrame(frame);
    counters_->polls.fetch_add(1, std::memory_order_relaxed);
    if (got.ok() && got.ValueOrDie()) {
      counters_->hits.fetch_add(1, std::memory_order_relaxed);
    }
    return got;
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<fedadmm::serve::ClientChannel> inner_;
  PollCounters* counters_;
};

/// Transport decorator: hands out counting channels.
class TracedTransport : public fedadmm::serve::Transport {
 public:
  TracedTransport(fedadmm::serve::Transport* inner, PollCounters* counters)
      : inner_(inner), counters_(counters) {}

  Status Start(fedadmm::serve::FrameSink* sink) override {
    return inner_->Start(sink);
  }
  fedadmm::Result<std::unique_ptr<fedadmm::serve::ClientChannel>> Connect()
      override {
    auto channel = inner_->Connect();
    if (!channel.ok()) return channel.status();
    return {std::unique_ptr<fedadmm::serve::ClientChannel>(
        std::make_unique<TracedChannel>(std::move(channel).ValueOrDie(),
                                        counters_))};
  }
  void Stop() override { inner_->Stop(); }
  const std::string& name() const override { return inner_->name(); }

 private:
  fedadmm::serve::Transport* inner_;
  PollCounters* counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
