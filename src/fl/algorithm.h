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
#include "util/shard.h"

namespace fedadmm {

class ClientStateStore;
class ThreadPool;

/// \brief Static facts an algorithm needs before the first round.
struct AlgorithmContext {
  int num_clients = 0;
  int64_t dim = 0;
  /// Client-state backend spec for stateful algorithms (src/state —
  /// "lazy" | "tiered:<c>:<p>" | "sharded:<W>:<inner>"). Empty keeps the
  /// algorithm's own default. Stateless algorithms ignore it.
  std::string state_store;
  /// Optional worker pool for blocked server-side reductions
  /// (tensor/vec AxpyMany / BlockedMean). Borrowed; may be nullptr
  /// (serial). The engine lends its client-phase pool, which is idle
  /// whenever ServerUpdate / AggregateOne runs.
  ThreadPool* reduce_pool = nullptr;
  /// Aggregation-server worker count W (SimulationConfig::num_shards).
  /// Stateful algorithms partition their client-state store by the
  /// canonical client shard (util/shard.h) and form ServerUpdate as a
  /// hierarchical per-shard reduce (vec::AxpyManySharded). 1 = the
  /// unsharded server, bitwise identical to the pre-shard engine.
  int num_shards = 1;
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
  virtual void ServerUpdate(const std::vector<UpdateMessage>& updates,
                            int round, std::vector<float>* theta) = 0;

  /// Applies a single update as it arrives — the asynchronous execution
  /// mode's aggregation hook (fl/server_loop.h). `staleness` is the number
  /// of server aggregations that happened between the update's dispatch and
  /// its arrival (0 = fresh); the engine has already scaled the payload by
  /// the configured staleness weight, so implementations only consult
  /// `staleness` when they want to adapt beyond that. The default wraps the
  /// message into a one-element batch and calls `ServerUpdate`, which
  /// preserves every batch method's semantics at |S_t| = 1 (FedAvg /
  /// FedProx / SCAFFOLD average over the batch, so a singleton batch is the
  /// plain per-update step).
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
  /// Shard ids parallel to `updates`, for vec::AxpyManySharded — the one
  /// helper every sharded ServerUpdate shares, so the partition function
  /// cannot drift between methods. Cheap at W = 1 (all zeros, and the
  /// sharded kernel short-circuits anyway).
  std::vector<int> UpdateShards(
      const std::vector<UpdateMessage>& updates) const {
    std::vector<int> shards(updates.size());
    for (size_t i = 0; i < updates.size(); ++i) {
      shards[i] = ShardOfClient(updates[i].client_id, num_shards_);
    }
    return shards;
  }

  /// Cached from Setup for the default byte accounting.
  int num_clients_ = 0;
  int64_t dim_ = 0;
  /// Cached from Setup: pool for blocked reductions (may be nullptr).
  ThreadPool* reduce_pool_ = nullptr;
  /// Cached from Setup: aggregation worker count (1 = unsharded).
  int num_shards_ = 1;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_ALGORITHM_H_
