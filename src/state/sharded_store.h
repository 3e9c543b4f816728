/// \file sharded_store.h
/// \brief Client-id-partitioned wrapper over any ClientStateStore backend.

#ifndef FEDADMM_STATE_SHARDED_STORE_H_
#define FEDADMM_STATE_SHARDED_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "state/client_state_store.h"

namespace fedadmm {

/// \brief W inner stores, one per aggregation worker, addressed by the
/// canonical client partition (util/shard.h).
///
/// Spec: `"sharded:<W>:<inner>"` with W >= 2 and `<inner>` any unsharded
/// backend spec (`lazy` | `tiered:<c>:<p>`); `sharded:1:<inner>` is
/// normalized to `<inner>` by the factory. Client `c` lives in shard
/// `c % W` at local index `c / W`, so each worker owns an (almost) equal,
/// churn-stable slice of the fleet and per-client calls for distinct
/// clients on the same shard stay as parallel as the inner backend allows
/// — with the bonus that clients on *different* shards never contend on an
/// inner lock at all. `Configure` clamps W to the client count so tiny
/// fleets still give every shard at least one client.
///
/// The wrapper is storage-transparent: views return exactly what the inner
/// backend returns, so a sharded run's floats are bitwise identical to the
/// same backend unsharded. `bytes_resident` sums the shards;
/// `bytes_resident_shard` exposes the per-worker accounting the sharded
/// server reports.
///
/// `ForEachTouched` must visit in increasing global (client, slot) order,
/// but each inner store only iterates its own slice; the wrapper buffers
/// every touched value (copying it) and replays the merged order. That
/// costs O(touched · d) transient memory — fine for the checkpoint-style
/// passes the hook exists for, wrong for a hot loop.
class ShardedStateStore final : public ClientStateStore {
 public:
  /// `num_shards >= 2`; `inner_spec` must be a valid unsharded spec
  /// (CHECK-validated eagerly).
  ShardedStateStore(int num_shards, const std::string& inner_spec);

  std::string name() const override;

  void Configure(int num_clients, std::vector<StateSlotSpec> slots) override;
  std::span<const float> View(int client_id, int slot) const override;
  std::span<float> MutableView(int client_id, int slot) override;
  void Release(int client_id) const override;
  void ForEachTouched(const TouchedStateVisitor& visitor) const override;
  int64_t bytes_resident() const override;
  int num_touched_clients() const override;

  /// Groups `clients` by owning shard and forwards each group (as local
  /// indices) to that shard's inner store, sharing the one executor pool.
  void PrefetchClients(const std::vector<int>& clients,
                       ThreadPool* pool) override;

  int num_clients() const override { return num_clients_; }
  int num_slots() const override { return num_slots_; }
  int64_t slot_dim(int slot) const override;

  /// Declared worker count (the spec's W, before any Configure clamp).
  int num_shards() const { return num_shards_; }
  /// Shards actually instantiated by the last Configure: min(W, clients).
  int num_active_shards() const { return static_cast<int>(shards_.size()); }
  /// Resident bytes of one shard's slice — the per-worker accounting
  /// surface. `shard` in [0, num_active_shards()).
  int64_t bytes_resident_shard(int shard) const;

 private:
  /// Shard owning `client_id` (respecting the Configure clamp).
  int ShardFor(int client_id) const;
  /// `client_id`'s index within its shard's inner store.
  int LocalIndex(int client_id) const;

  int num_shards_;
  std::string inner_spec_;
  int num_clients_ = 0;
  int num_slots_ = 0;
  std::vector<std::unique_ptr<ClientStateStore>> shards_;
};

}  // namespace fedadmm

#endif  // FEDADMM_STATE_SHARDED_STORE_H_
