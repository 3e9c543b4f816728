#include "state/buffer_pool.h"

#include <limits>
#include <utility>

#include "util/status.h"

namespace fedadmm {
namespace {

constexpr size_t kNoVictim = std::numeric_limits<size_t>::max();

}  // namespace

BufferPool::BufferPool(int64_t capacity_frames, int64_t frame_floats,
                       WriteBack write_back)
    : capacity_frames_(capacity_frames),
      frame_floats_(frame_floats),
      write_back_(std::move(write_back)) {
  FEDADMM_CHECK_MSG(capacity_frames >= 1, "BufferPool: capacity_frames >= 1");
  FEDADMM_CHECK_MSG(frame_floats >= 1, "BufferPool: frame_floats >= 1");
}

BufferPool::Frame* BufferPool::Pin(uint64_t key, bool* hit) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    Frame* frame = frames_[it->second].get();
    frame->pinned = true;
    frame->referenced = true;
    *hit = true;
    return frame;
  }
  *hit = false;
  const size_t index = AcquireFrame();
  Frame* frame = frames_[index].get();
  frame->key = key;
  frame->pinned = true;
  frame->dirty = false;
  frame->referenced = true;
  map_.emplace(key, index);
  return frame;
}

BufferPool::Frame* BufferPool::Admit(uint64_t key, bool* hit) {
  Frame* frame = Pin(key, hit);
  frame->pinned = false;
  return frame;
}

BufferPool::Frame* BufferPool::Find(uint64_t key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  Frame* frame = frames_[it->second].get();
  frame->referenced = true;
  return frame;
}

void BufferPool::Unpin(uint64_t key, bool dirty) {
  const auto it = map_.find(key);
  if (it == map_.end()) return;
  Frame* frame = frames_[it->second].get();
  frame->dirty = frame->dirty || dirty;
  if (!frame->pinned) return;
  frame->pinned = false;
  TrimOverflow();
}

size_t BufferPool::AcquireFrame() {
  // At capacity a miss swaps out a victim. The pool grows past capacity
  // only when every frame is pinned (an overflow frame; Unpin trims it).
  if (resident_frames_ >= capacity_frames_) {
    const size_t victim = FindVictim();
    if (victim != kNoVictim) {
      EvictIndex(victim);
      return victim;  // resident count unchanged: slab swapped, not freed
    }
  }
  size_t index = 0;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    frames_.push_back(std::make_unique<Frame>());
    index = frames_.size() - 1;
  }
  frames_[index]->data.resize(static_cast<size_t>(frame_floats_));
  ++resident_frames_;
  return index;
}

size_t BufferPool::FindVictim() {
  const size_t n = frames_.size();
  if (n == 0) return kNoVictim;
  // Two sweeps suffice: the first clears every set reference bit it
  // passes, so the second meets an unreferenced, unpinned frame unless all
  // frames are pinned.
  for (size_t step = 0; step < 2 * n; ++step) {
    Frame* frame = frames_[clock_hand_].get();
    const size_t index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    if (frame->pinned || frame->data.empty()) continue;
    if (frame->referenced) {
      frame->referenced = false;
      continue;
    }
    return index;
  }
  return kNoVictim;
}

void BufferPool::EvictIndex(size_t index) {
  Frame* frame = frames_[index].get();
  if (frame->dirty && write_back_) {
    write_back_(frame->key,
                {frame->data.data(), static_cast<size_t>(frame_floats_)});
    ++write_backs_;
  }
  frame->dirty = false;
  map_.erase(frame->key);
  ++evictions_;
}

void BufferPool::TrimOverflow() {
  while (resident_frames_ > capacity_frames_) {
    const size_t victim = FindVictim();
    if (victim == kNoVictim) return;
    EvictIndex(victim);
    FreeFrame(victim);
  }
}

void BufferPool::FreeFrame(size_t index) {
  // Really free the buffer: resident bytes shrink with the frame count,
  // and an empty frame is never a FindVictim candidate while it waits on
  // the free list.
  AlignedVector<float>().swap(frames_[index]->data);
  free_.push_back(index);
  --resident_frames_;
}

}  // namespace fedadmm
