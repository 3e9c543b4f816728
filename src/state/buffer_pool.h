/// \file buffer_pool.h
/// \brief Fixed-capacity frame pool with pinning and second-chance
/// eviction.
///
/// The memory half of the tiered store: every (client, slot) slab lives in
/// at most one *frame* of `frame_floats` floats, keyed by a caller-chosen
/// u64. `Pin` returns the frame resident — faulting is the caller's job on
/// a miss (the pool hands out the frame, the tiered store fills it from
/// the slab log) — and pins it against eviction until `Unpin`.
///
/// Eviction is second-chance (clock): a hit sets the frame's reference
/// bit; the hand clears set bits and evicts the first unpinned,
/// unreferenced frame it meets. Dirty victims are handed to the write-back
/// callback (the tiered store appends them to its log and updates the
/// directory) before the frame is recycled.
///
/// Pins may temporarily exceed capacity: when every frame is pinned the
/// pool allocates *overflow* frames rather than deadlocking the wave that
/// needs them (a cohort larger than the pool, or a diagnostics pass
/// viewing the whole fleet). `Unpin` trims back — overflow frames release
/// their buffers once evictable — so `resident_bytes` returns to
/// `capacity_frames × frame_bytes` as soon as the pressure passes.
///
/// Not thread-safe: the tiered store serializes all calls under its own
/// mutex (the write-back callback runs under that same lock).

#ifndef FEDADMM_STATE_BUFFER_POOL_H_
#define FEDADMM_STATE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/aligned.h"

namespace fedadmm {

/// \brief The frame pool. See the file comment for semantics.
class BufferPool {
 public:
  /// One resident slab. `data` holds `frame_floats` capacity; the caller
  /// tracks how many are meaningful (slot dims vary).
  struct Frame {
    AlignedVector<float> data;
    uint64_t key = 0;
    bool pinned = false;
    bool dirty = false;
    bool referenced = false;
  };

  /// Receives an evicted dirty slab before its frame is recycled.
  using WriteBack =
      std::function<void(uint64_t key, std::span<const float> data)>;

  /// `capacity_frames >= 1`; `frame_floats >= 1`. `write_back` may be null
  /// (dirty evictions are then dropped — only sound for caches of
  /// reconstructible data).
  BufferPool(int64_t capacity_frames, int64_t frame_floats,
             WriteBack write_back);

  /// Returns `key`'s frame, pinned. `*hit` reports whether it was already
  /// resident; on a miss the returned frame's contents are undefined and
  /// the caller must fill them. Idempotent on an already-pinned key.
  Frame* Pin(uint64_t key, bool* hit);

  /// Returns `key`'s frame *unpinned* (prefetch admission): resident on
  /// return but evictable at any time. Same miss semantics as `Pin`.
  Frame* Admit(uint64_t key, bool* hit);

  /// The resident frame for `key`, or nullptr. Sets the reference bit.
  Frame* Find(uint64_t key);

  /// Unpins `key`'s frame (no-op when absent or unpinned); `dirty` ORs
  /// into the frame's dirty bit. Trims overflow frames back to capacity.
  void Unpin(uint64_t key, bool dirty);

  /// Frames currently holding a slab (<= capacity once no overflow pins
  /// are outstanding).
  int64_t resident_frames() const { return resident_frames_; }
  int64_t capacity_frames() const { return capacity_frames_; }
  int64_t frame_floats() const { return frame_floats_; }
  int64_t frame_bytes() const {
    return frame_floats_ * static_cast<int64_t>(sizeof(float));
  }
  /// `resident_frames × frame_bytes` — the store's byte accounting.
  int64_t resident_bytes() const { return resident_frames_ * frame_bytes(); }

  // Lifetime counters. Hits and misses are the caller's to count from
  // `Pin`'s `hit` flag.
  int64_t evictions() const { return evictions_; }
  int64_t write_backs() const { return write_backs_; }

 private:
  /// Hands back a frame for a missing key: an eviction victim at
  /// capacity, otherwise a free or fresh frame (past capacity only when
  /// every frame is pinned).
  size_t AcquireFrame();
  /// Runs the clock hand; returns the victim index or SIZE_MAX when every
  /// frame is pinned.
  size_t FindVictim();
  /// Writes back (if dirty) and detaches `index` from the map.
  void EvictIndex(size_t index);
  /// Releases overflow buffers while more than `capacity_frames_` frames
  /// hold data and evictable frames exist.
  void TrimOverflow();
  /// Releases an evicted frame's buffer and parks it on the free list.
  void FreeFrame(size_t index);

  int64_t capacity_frames_;
  int64_t frame_floats_;
  WriteBack write_back_;

  // unique_ptr keeps Frame* stable across overflow growth of the vector.
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<size_t> free_;
  std::unordered_map<uint64_t, size_t> map_;
  size_t clock_hand_ = 0;
  int64_t resident_frames_ = 0;

  int64_t evictions_ = 0;
  int64_t write_backs_ = 0;
};

}  // namespace fedadmm

#endif  // FEDADMM_STATE_BUFFER_POOL_H_
