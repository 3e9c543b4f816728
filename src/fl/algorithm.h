/// \file algorithm.h
/// \brief Interface every federated optimization method implements.

#ifndef FEDADMM_FL_ALGORITHM_H_
#define FEDADMM_FL_ALGORITHM_H_

#include <span>
#include <string>
#include <vector>

#include "fl/problem.h"
#include "fl/types.h"
#include "util/rng.h"

namespace fedadmm {

class ClientStateStore;
class ThreadPool;

/// \brief Static facts an algorithm needs before the first round.
struct AlgorithmContext {
  int num_clients = 0;
  int64_t dim = 0;
  /// Client-state backend spec for stateful algorithms (src/state —
  /// "lazy" | "tiered:<c>:<p>"). Empty keeps the algorithm's own default.
  /// Stateless algorithms ignore it.
  std::string state_store;
  /// Optional worker pool for blocked server-side reductions
  /// (tensor/vec AxpyMany / BlockedMean). Borrowed; may be nullptr
  /// (serial). The engine lends its client-phase pool, which is idle
  /// whenever ServerUpdate runs.
  ThreadPool* reduce_pool = nullptr;
};

/// \brief A federated optimization method (server + client logic).
///
/// Thread-safety contract: `ClientUpdate` is called concurrently for
/// *distinct* client ids within a round. Implementations may freely read
/// server-side state (it is only mutated in `ServerUpdate`) and may write
/// per-client state slots for their own client id.
class FederatedAlgorithm {
 public:
  virtual ~FederatedAlgorithm() = default;

  /// Display name, e.g. "FedADMM".
  virtual std::string name() const = 0;

  /// Called once before round 0 with the initial global model θ⁰.
  virtual void Setup(const AlgorithmContext& ctx,
                     std::span<const float> theta0) = 0;

  /// Executes the local work of `client_id` for round `round` given the
  /// downloaded global model `theta`, producing the upload message.
  /// `rng` is a per-(round, client) forked stream.
  virtual UpdateMessage ClientUpdate(int client_id, int round,
                                     std::span<const float> theta,
                                     LocalProblem* problem, Rng rng) = 0;

  /// Aggregates the round's messages into the global model, in place.
  /// Every execution mode calls it (fl/server_loop.h): sync with the wave,
  /// buffered with K arrivals, async with a one-message batch — for the
  /// batch-averaging methods (FedAvg / FedProx / SCAFFOLD / FedADMM) the
  /// plain per-update step. Payloads arrive already scaled by the
  /// staleness weight.
  virtual void ServerUpdate(const std::vector<UpdateMessage>& updates,
                            int round, std::vector<float>* theta) = 0;

  /// `ServerUpdate` on a one-message batch. The engine never calls it; it
  /// stays virtual only because perfbench's `TracedAlgorithm` overrides
  /// it, and goes with the next change to perfbench.
  virtual void AggregateOne(UpdateMessage msg, int round, int staleness,
                            std::vector<float>* theta) {
    (void)staleness;
    std::vector<UpdateMessage> batch(1);
    batch[0] = std::move(msg);
    ServerUpdate(batch, round, theta);
  }

  /// Bytes each selected client downloads per round (θ, plus any extra
  /// server state the method broadcasts — SCAFFOLD's control variate).
  virtual int64_t DownloadBytesPerClient() const {
    return dim_ * static_cast<int64_t>(sizeof(float));
  }

  /// Bytes of server-visible per-client state currently resident
  /// (src/state ClientStateStore accounting). 0 for stateless methods.
  /// Surfaced per round as `RoundRecord::state_bytes_resident`.
  virtual int64_t StateBytesResident() const { return 0; }

  /// The state-store spec this method falls back to when
  /// `AlgorithmContext::state_store` is empty ("" for stateless methods).
  /// The engine probes the effective spec before Setup so a bad one fails
  /// fast with a Status instead of a CHECK mid-initialization.
  virtual std::string DefaultStateStoreSpec() const { return ""; }

  /// Called by the engine when the pool lent via AlgorithmContext is about
  /// to be destroyed. Post-run entry points (e.g. FedAdmm's
  /// MeanAugmentedModel in tests/examples) then take the serial reduction
  /// path, which is bitwise identical — the blocked kernels' boundaries do
  /// not depend on the pool.
  void DetachReducePool() { reduce_pool_ = nullptr; }

  /// Pre-flight check the engine runs before buffered / async execution.
  /// Methods whose aggregation semantics break under per-arrival or
  /// small-batch updates return InvalidArgument here so the run fails
  /// fast instead of silently diverging (or crashing mid-run).
  virtual Status ValidateForEventMode() const { return Status::OK(); }

  /// The method's client-state store, when it has one — the engine's
  /// handle for prefetch hints (`PrefetchClients` on the next cohort) and
  /// checkpoint passes (`ForEachTouched` / restore). nullptr for stateless
  /// methods.
  virtual ClientStateStore* mutable_state_store() { return nullptr; }

  /// Server-side scalars/vectors beyond θ and the state store that a
  /// checkpoint must carry (FedPD's communication coin + counters,
  /// SCAFFOLD's server control variate). Empty = nothing extra.
  virtual std::string SerializeExtraState() const { return {}; }

  /// Inverse of `SerializeExtraState`, called after Setup during restore.
  virtual Status RestoreExtraState(const std::string& blob) {
    if (!blob.empty()) {
      return Status::InvalidArgument(
          name() + ": unexpected extra checkpoint state (" +
          std::to_string(blob.size()) + " bytes)");
    }
    return Status::OK();
  }

 protected:
  /// Cached from Setup for the default byte accounting.
  int num_clients_ = 0;
  int64_t dim_ = 0;
  /// Cached from Setup: pool for blocked reductions (may be nullptr).
  ThreadPool* reduce_pool_ = nullptr;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_ALGORITHM_H_
