/// \file ingest_queue.h
/// \brief Bounded lock-free multi-producer queue feeding one ingest worker.
///
/// The admission path runs on transport threads (many producers); each
/// frontend ingest worker owns one consumer. The ring is the Vyukov
/// bounded MPMC design: a power-of-two slot array whose per-slot sequence
/// numbers carry the full producer/consumer handshake, so `TryPush` is one
/// CAS on the tail and `TryPop` one CAS on the head — no mutex on the hot
/// path. A full ring makes `TryPush` return false immediately; that signal
/// IS the backpressure that turns into a THROTTLED ack upstream, which is
/// why the queue must never block producers.
///
/// The consumer side adds a tiny condvar layer (`PopWait`) so an idle
/// worker sleeps instead of spinning between waves; producers only touch
/// the mutex when a consumer advertised itself as waiting.

#ifndef FEDADMM_SERVE_INGEST_QUEUE_H_
#define FEDADMM_SERVE_INGEST_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "util/status.h"

namespace fedadmm::serve {

/// \brief Vyukov-style bounded MPMC ring (used MPSC here).
template <typename T>
class IngestQueue {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit IngestQueue(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap *= 2;
    mask_ = cap - 1;
    slots_ = std::vector<Slot>(cap);
    for (size_t i = 0; i < cap; ++i) {
      slots_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// Multi-producer push; returns false when the ring is full (the
  /// caller's backpressure signal). Never blocks.
  bool TryPush(T&& item) {
    Slot* slot;
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      const size_t seq = slot->sequence.load(std::memory_order_acquire);
      const intptr_t diff = static_cast<intptr_t>(seq) -
                            static_cast<intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    slot->value = std::move(item);
    slot->sequence.store(pos + 1, std::memory_order_release);
    if (waiting_.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> lock(wait_mutex_);
      wait_cv_.notify_one();
    }
    return true;
  }

  /// Consumer pop; returns false when empty.
  bool TryPop(T* out) {
    Slot* slot;
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      const size_t seq = slot->sequence.load(std::memory_order_acquire);
      const intptr_t diff = static_cast<intptr_t>(seq) -
                            static_cast<intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    *out = std::move(slot->value);
    slot->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Consumer pop that sleeps while the ring is empty. Returns false only
  /// when `stop` became true and the ring is drained.
  bool PopWait(T* out, const std::atomic<bool>& stop) {
    for (;;) {
      if (TryPop(out)) return true;
      if (stop.load(std::memory_order_acquire)) {
        // One final drain: a producer may have pushed between the failed
        // TryPop and the stop read.
        return TryPop(out);
      }
      waiting_.fetch_add(1, std::memory_order_release);
      {
        std::unique_lock<std::mutex> lock(wait_mutex_);
        wait_cv_.wait_for(lock, std::chrono::milliseconds(1));
      }
      waiting_.fetch_sub(1, std::memory_order_release);
    }
  }

 private:
  struct Slot {
    std::atomic<size_t> sequence{0};
    T value{};
  };

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> tail_{0};
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) std::atomic<int> waiting_{0};
  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
};

}  // namespace fedadmm::serve

#endif  // FEDADMM_SERVE_INGEST_QUEUE_H_
