/// \file tiered_store.h
/// \brief Out-of-core ClientStateStore: buffer pool over an append-only
/// slab log.
///
/// The out-of-core backend (`tiered:<capacity>:<path>`): cold client
/// slabs live in a per-store slab-log file (state/slab_log.h), hot ones in
/// a fixed-capacity `BufferPool` (state/buffer_pool.h), and an in-memory
/// directory maps (client, slot) → log offset. Resident bytes become a
/// knob — `capacity` MiB (or an exact `<n>f` frame count, the test hook) —
/// instead of a function of the touched population, which is what lets a
/// fleet whose touched state dwarfs RAM keep training.
///
///   * `View`/`MutableView` pin the slab's frame until `Release` (spans
///     die at Release — the one exception to the store's span contract).
///     Untouched slots read the shared init value without touching the
///     pool.
///   * A miss on a logged slab faults it back with one positional read; a
///     dirty eviction appends the slab and repoints the directory — the
///     log is append-only scratch, reclaimed when the store dies.
///   * `PrefetchClients` faults a cohort's cold slabs on the executor pool
///     *unpinned*, so the engine overlaps next round's log reads with this
///     round's aggregate/finalize phases and hot-path misses stay the
///     measured exception.
///   * Pins beyond capacity overflow (never deadlock) and trim back on
///     release; `bytes_resident` is always `resident frames × frame
///     bytes`.
///
/// Values are bitwise: slabs are raw fp32, so `tiered:` replays `lazy`
/// exactly at any pool size and thread count (log *layout* varies with
/// eviction order; contents do not).
///
/// Thread-safety: the distinct-client contract is served by one store
/// mutex — every public call serializes, and prefetch tasks take the same
/// lock, so a concurrent wave-fault simply turns the prefetch into a hit.

#ifndef FEDADMM_STATE_TIERED_STORE_H_
#define FEDADMM_STATE_TIERED_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "state/buffer_pool.h"
#include "state/client_state_store.h"
#include "state/slab_log.h"

namespace fedadmm {

/// \brief Parsed `tiered:` spec (factory-validated).
struct TieredStoreOptions {
  /// The spec's capacity token, verbatim, for `name()` round-trips
  /// ("64" = MiB, "8f" = exact frames).
  std::string capacity_token;
  /// Exactly one of the two is positive.
  int64_t capacity_bytes = 0;
  int64_t capacity_frames = 0;
  /// Slab-log path.
  std::string path;
};

/// \brief The out-of-core backend. See the file comment.
class TieredStateStore final : public ClientStateStore {
 public:
  explicit TieredStateStore(TieredStoreOptions options);
  ~TieredStateStore() override;

  std::string name() const override;

  void Configure(int num_clients, std::vector<StateSlotSpec> slots) override;
  Status Preflight() override;
  std::span<const float> View(int client_id, int slot) const override;
  std::span<float> MutableView(int client_id, int slot) override;
  void Release(int client_id) const override;
  void ForEachTouched(const TouchedStateVisitor& visitor) const override;
  int64_t bytes_resident() const override;
  int num_touched_clients() const override;

  void PrefetchClients(const std::vector<int>& clients,
                       ThreadPool* pool) override;

  int num_clients() const override { return num_clients_; }
  int num_slots() const override { return num_slots_; }
  int64_t slot_dim(int slot) const override;

  // Pool introspection (tests, bench reporting).
  int64_t pool_capacity_frames() const;
  int64_t pool_frame_bytes() const;
  int64_t pool_hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t pool_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  int64_t pool_creates() const {
    return creates_.load(std::memory_order_relaxed);
  }
  int64_t pool_evictions() const;
  int64_t pool_write_backs() const;
  int64_t prefetch_issued() const {
    return prefetch_issued_.load(std::memory_order_relaxed);
  }
  int64_t prefetch_late() const {
    return prefetch_late_.load(std::memory_order_relaxed);
  }

 private:
  /// (client, slot) → pool key.
  uint64_t KeyOf(int client_id, int slot) const {
    return static_cast<uint64_t>(client_id) *
               static_cast<uint64_t>(num_slots_) +
           static_cast<uint64_t>(slot);
  }

  /// Pins (client, slot)'s frame, faulting from the log or seeding from
  /// the init value; `create` says whether an untouched slot may
  /// materialize. Caller holds `mu_`.
  BufferPool::Frame* PinSlab(int client_id, int slot, bool create) const;

  /// Admits one client's cold on-disk slabs unpinned (prefetch body).
  void FaultClientLocked(int client_id) const;

  /// Marks `client_id` touched (first materialization).
  void NoteClientTouched(int client_id) const;

  TieredStoreOptions options_;

  int num_clients_ = 0;
  int num_slots_ = 0;
  int64_t frame_floats_ = 0;
  std::vector<StateSlotSpec> slots_;

  mutable std::mutex mu_;
  mutable std::unique_ptr<SlabLog> log_;
  mutable std::unique_ptr<BufferPool> pool_;
  /// dir_[slot][client] = log offset of the latest slab, -1 if never
  /// written back.
  mutable std::vector<std::vector<int64_t>> dir_;
  mutable std::vector<uint8_t> client_touched_;
  /// prefetch_epoch_[client] == epoch_ marks membership in the latest
  /// prefetched cohort: a hot-path miss on such a client is a *late*
  /// prefetch, counted separately.
  mutable std::vector<int64_t> prefetch_epoch_;
  int64_t epoch_ = 0;

  mutable std::atomic<int> touched_clients_{0};
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> creates_{0};
  mutable std::atomic<int64_t> prefetch_issued_{0};
  mutable std::atomic<int64_t> prefetch_late_{0};
};

}  // namespace fedadmm

#endif  // FEDADMM_STATE_TIERED_STORE_H_
