// BufferPool: pin/unpin residency, second-chance eviction order, dirty
// write-back hand-off, and the overflow-then-trim contract that keeps a
// cohort larger than the pool from deadlocking.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "state/buffer_pool.h"

namespace fedadmm {
namespace {

constexpr int64_t kFrameFloats = 4;

void Fill(BufferPool::Frame* frame, float value) {
  for (int64_t i = 0; i < kFrameFloats; ++i) {
    frame->data[static_cast<size_t>(i)] = value;
  }
}

TEST(BufferPoolTest, HitMissAndResidency) {
  BufferPool pool(/*capacity_frames=*/2, kFrameFloats, /*write_back=*/nullptr);
  bool hit = true;
  BufferPool::Frame* a = pool.Pin(1, &hit);
  EXPECT_FALSE(hit);
  Fill(a, 1.0f);
  pool.Unpin(1, /*dirty=*/false);

  BufferPool::Frame* again = pool.Pin(1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again, a);
  EXPECT_EQ(again->data[0], 1.0f);
  pool.Unpin(1, false);

  EXPECT_EQ(pool.resident_frames(), 1);
  EXPECT_EQ(pool.resident_bytes(),
            static_cast<int64_t>(kFrameFloats * sizeof(float)));
}

TEST(BufferPoolTest, PinIsIdempotentOnPinnedKey) {
  BufferPool pool(2, kFrameFloats, nullptr);
  bool hit = false;
  BufferPool::Frame* a = pool.Pin(7, &hit);
  BufferPool::Frame* b = pool.Pin(7, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a->pinned);
  pool.Unpin(7, false);
  EXPECT_FALSE(a->pinned);
}

TEST(BufferPoolTest, SecondChanceSavesReferencedFrame) {
  BufferPool pool(2, kFrameFloats, nullptr);
  bool hit = false;
  pool.Pin(1, &hit);
  pool.Unpin(1, false);
  pool.Pin(2, &hit);
  pool.Unpin(2, false);
  // Both reference bits are set (insertion references): the first victim
  // search clears them and recycles key 1's frame in hand order.
  pool.Pin(3, &hit);
  pool.Unpin(3, false);
  EXPECT_EQ(pool.Find(1), nullptr);
  EXPECT_EQ(pool.evictions(), 1);

  // Now key 3 (in key 1's old frame, the hand's next candidate) is
  // referenced and key 2 is cold: the clock must pass over key 3 —
  // clearing its bit, the second chance — and evict cold key 2.
  pool.Pin(4, &hit);
  pool.Unpin(4, false);
  EXPECT_NE(pool.Find(3), nullptr);
  EXPECT_EQ(pool.Find(2), nullptr);
  EXPECT_EQ(pool.evictions(), 2);
}

TEST(BufferPoolTest, DirtyEvictionHandsSlabToWriteBack) {
  std::vector<uint64_t> written_keys;
  std::vector<float> written_first;
  BufferPool pool(1, kFrameFloats,
                  [&](uint64_t key, std::span<const float> data) {
                    written_keys.push_back(key);
                    written_first.push_back(data[0]);
                  });
  bool hit = false;
  BufferPool::Frame* a = pool.Pin(10, &hit);
  Fill(a, 3.5f);
  pool.Unpin(10, /*dirty=*/true);

  // Clean frame for another key forces eviction of dirty key 10.
  pool.Pin(11, &hit);
  pool.Unpin(11, /*dirty=*/false);
  pool.Pin(12, &hit);
  pool.Unpin(12, false);

  ASSERT_EQ(written_keys.size(), 1u);
  EXPECT_EQ(written_keys[0], 10u);
  EXPECT_EQ(written_first[0], 3.5f);
  EXPECT_EQ(pool.write_backs(), 1);
  // Clean key 11's eviction produced no second write-back.
  EXPECT_EQ(pool.evictions(), 2);
}

TEST(BufferPoolTest, OverflowPinsNeverFailAndTrimBack) {
  BufferPool pool(2, kFrameFloats, nullptr);
  bool hit = false;
  // Pin 5 keys at once against a 2-frame pool: 3 overflow frames.
  for (uint64_t key = 0; key < 5; ++key) {
    ASSERT_NE(pool.Pin(key, &hit), nullptr);
  }
  EXPECT_EQ(pool.resident_frames(), 5);
  EXPECT_GT(pool.resident_bytes(), pool.capacity_frames() * pool.frame_bytes());

  // Releasing the pressure trims residency back to capacity.
  for (uint64_t key = 0; key < 5; ++key) {
    pool.Unpin(key, false);
  }
  EXPECT_EQ(pool.resident_frames(), pool.capacity_frames());
  EXPECT_EQ(pool.resident_bytes(),
            pool.capacity_frames() * pool.frame_bytes());
}

TEST(BufferPoolTest, AdmitIsUnpinnedAndEvictable) {
  BufferPool pool(1, kFrameFloats, nullptr);
  bool hit = false;
  BufferPool::Frame* a = pool.Admit(1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_FALSE(a->pinned);

  // Admitting a second key into a 1-frame pool evicts the first — an
  // admitted frame never holds a pin.
  pool.Admit(2, &hit);
  EXPECT_EQ(pool.Find(1), nullptr);
  EXPECT_EQ(pool.resident_frames(), 1);

  // Admit on a resident key is a hit (the prefetch-already-hot case).
  pool.Admit(2, &hit);
  EXPECT_TRUE(hit);
}

TEST(BufferPoolTest, AdmitAfterOverflowTrimStaysWithinCapacity) {
  // An overflow trim parks the released frame on the free list. A later
  // miss at capacity must recycle a victim, not take that free frame.
  BufferPool pool(1, kFrameFloats, nullptr);
  bool hit = false;
  pool.Pin(1, &hit);
  pool.Pin(2, &hit);  // every frame pinned: one overflow frame
  pool.Unpin(1, false);
  pool.Unpin(2, false);
  ASSERT_EQ(pool.resident_frames(), 1);
  pool.Admit(3, &hit);
  EXPECT_EQ(pool.resident_frames(), 1);
  EXPECT_EQ(pool.resident_bytes(), pool.frame_bytes());
  EXPECT_NE(pool.Find(3), nullptr);
  // A pin on a full pool recycles a victim too.
  pool.Pin(4, &hit);
  EXPECT_EQ(pool.resident_frames(), 1);
  pool.Unpin(4, false);
  EXPECT_EQ(pool.resident_frames(), 1);
}

}  // namespace
}  // namespace fedadmm
