/// \file client_state_store.h
/// \brief Server-visible per-client algorithm state at fleet scale.
///
/// FedADMM's defining cost is per-client state: every client i carries a
/// primal/dual pair (w_i, y_i) that must persist across rounds for the
/// method's robustness under partial participation (likewise FedPD's local
/// pair and SCAFFOLD's control variate c_i). Stored eagerly, that state is
/// O(m·d) from round 0 — which caps fleet size long before the event
/// engine or the system model do. A `ClientStateStore` abstracts the
/// layout so algorithms address state by (client, slot) while the backend
/// decides what is actually resident:
///
///   * `lazy`           — chunked slabs materialized on first *mutable*
///                        touch; untouched clients cost 0 bytes and read
///                        the slot's shared initial value. Resident bytes
///                        track the touched population, not m.
///   * `tiered:<c>:<p>` — out-of-core: cold slabs spill to a slab log
///                        behind a fixed-capacity buffer pool, so resident
///                        bytes are a knob (state/tiered_store.h).
///
/// Both hold raw fp32, so they read and write the same values bitwise.
///
/// A *slot* is one R^dim state vector per client (FedADMM registers two:
/// model and dual). Slots are registered once via `Configure` with a shared
/// initial value; every client logically starts there, and backends only
/// pay for clients that diverge.
///
/// Thread-safety contract (matches `FederatedAlgorithm::ClientUpdate`):
/// `View` / `MutableView` / `Release` may run concurrently for *distinct*
/// client ids; calls for the same client are serial. `Configure`,
/// `ForEachTouched` and the metrics are server-side and must not overlap
/// client calls. Spans stay valid until the next `Configure`, except that
/// `tiered` spans die at that client's `Release` (its views pin pool
/// frames until then).

#ifndef FEDADMM_STATE_CLIENT_STATE_STORE_H_
#define FEDADMM_STATE_CLIENT_STATE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace fedadmm {

class ThreadPool;

/// \brief Geometry + shared initial value of one per-client state vector.
struct StateSlotSpec {
  /// Vector length of this slot (the model dimension d for FL state).
  int64_t dim = 0;
  /// Initial value every client starts from; empty means all zeros. When
  /// non-empty its size must equal `dim`.
  std::vector<float> init;
};

/// \brief Visitor for `ForEachTouched`: (client_id, slot, current value).
using TouchedStateVisitor =
    std::function<void(int client_id, int slot, std::span<const float>)>;

/// \brief Abstract per-(client, slot) float-vector storage.
class ClientStateStore {
 public:
  virtual ~ClientStateStore() = default;

  /// Canonical spec string ("lazy", "tiered:64:<path>", ...) —
  /// round-trips through `MakeClientStateStore`.
  virtual std::string name() const = 0;

  /// (Re)configures geometry and wipes all contents. Must be called before
  /// any view. `slots[s].init` is the shared initial value of slot s.
  virtual void Configure(int num_clients, std::vector<StateSlotSpec> slots) = 0;

  /// Read-only view of `(client_id, slot)`. Untouched clients see the
  /// slot's initial value; no backend materializes on read. (Logically
  /// const: the tiered backend may fault the slab into its pool.)
  virtual std::span<const float> View(int client_id, int slot) const = 0;

  /// Mutable view; materializes the client's slot on first touch (seeded
  /// from the slot's initial value).
  virtual std::span<float> MutableView(int client_id, int slot) = 0;

  /// Declares all spans previously handed out for `client_id` dead. The
  /// tiered backend unpins the client's frames (dirty ones stay resident
  /// until evicted); lazy is a no-op. Safe on untouched clients.
  virtual void Release(int client_id) const = 0;

  /// Visits every materialized `(client, slot)` pair in increasing
  /// (client, slot) order — the basis for checkpointing passes. Untouched
  /// clients are skipped. The visited span is only guaranteed valid for
  /// the duration of the callback (the tiered backend reads cold slabs
  /// into a temporary).
  virtual void ForEachTouched(const TouchedStateVisitor& visitor) const = 0;

  /// Bytes of client state currently resident in memory: touched-block
  /// bytes for `lazy`, resident pool frames × frame bytes for `tiered`.
  /// Excludes the O(m) index every backend needs (8–16 bytes/client,
  /// independent of d).
  virtual int64_t bytes_resident() const = 0;

  /// Number of distinct clients with at least one materialized slot.
  virtual int num_touched_clients() const = 0;

  /// Registered geometry (valid after Configure).
  virtual int num_clients() const = 0;
  virtual int num_slots() const = 0;
  virtual int64_t slot_dim(int slot) const = 0;

  /// No-op with no caller, kept only because perfbench overrides it.
  virtual void SetShardContext(int shard, int num_shards) {
    (void)shard;
    (void)num_shards;
  }

  /// Hints that `clients` will be touched by the next wave. Out-of-core
  /// backends fault their cold slabs into memory — on `pool` when given
  /// (overlapping the caller's work), synchronously otherwise — so the
  /// wave's views hit. In-memory backends ignore it. Safe concurrently
  /// with per-client calls; copies `clients` before returning.
  virtual void PrefetchClients(const std::vector<int>& clients,
                               ThreadPool* pool) {
    (void)clients;
    (void)pool;
  }
};

/// \brief Builds a store from a spec string:
///   * "lazy"             — slab-chunked, materialize on first mutable
///                          touch;
///   * "tiered:<c>:<p>"   — out-of-core: a `<c>` MiB buffer pool (or
///                          `<n>f` = exactly n frames, the test hook)
///                          over an append-only slab log at path `<p>`
///                          (state/tiered_store.h).
/// Returns InvalidArgument for anything else, including counts that
/// overflow their type; every error quotes the offending spec and this
/// grammar.
Result<std::unique_ptr<ClientStateStore>> MakeClientStateStore(
    const std::string& spec);

/// \brief Resolves the effective spec (`override_spec` when non-empty, the
/// algorithm's `fallback_spec` otherwise), builds the store and runs
/// `Configure` — the one code path every stateful algorithm's Setup uses,
/// so spec resolution and error handling cannot drift between them.
Result<std::unique_ptr<ClientStateStore>> MakeConfiguredClientStateStore(
    const std::string& override_spec, const std::string& fallback_spec,
    int num_clients, std::vector<StateSlotSpec> slots);

}  // namespace fedadmm

#endif  // FEDADMM_STATE_CLIENT_STATE_STORE_H_
