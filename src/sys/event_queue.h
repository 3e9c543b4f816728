/// \file event_queue.h
/// \brief Schedulable client-completion events for the federation engine.
///
/// The federation engine (fl/server_loop.h) keeps every dispatched
/// client's finish time as its own *event*: its `ClientTiming` (from
/// `ComputeClientTiming`) plus the straggler policy's verdict fix the
/// absolute simulated second at which the server stops tracking it. In the
/// event-driven modes the resulting `ClientCompletionEvent` is pushed onto
/// an `EventQueue` and the loop pops events in time order — aggregating
/// immediately (async), buffering until K arrivals (buffered), or counting
/// a drop — so slow clients never stall fast ones. A sync wave's events
/// skip the queue: the barrier consumes them in dispatch order.
///
/// Determinism: events are ordered by (time, sequence). `sequence` is the
/// monotone dispatch counter, so ties between clients finishing at the same
/// simulated instant resolve by dispatch order — never by host scheduling.

#ifndef FEDADMM_SYS_EVENT_QUEUE_H_
#define FEDADMM_SYS_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "fl/types.h"
#include "sys/profiles.h"
#include "sys/straggler.h"
#include "sys/virtual_clock.h"
#include "util/status.h"

namespace fedadmm {

class ByteReader;
class ByteWriter;

/// \brief One client's upload arriving (or being cut off) at the server.
struct ClientCompletionEvent {
  /// Absolute simulated second at which the server stops tracking the
  /// client: dispatch time + the policy's finish_seconds.
  double time = 0.0;
  /// Monotone dispatch counter; deterministic tie-break for equal times.
  int64_t sequence = 0;
  int client_id = -1;
  /// Dispatch wave (RNG stream key: every dispatch batch gets a fresh wave
  /// id, so per-(wave, client) forks never collide).
  int wave = 0;
  /// Server aggregation count at dispatch time; staleness at aggregation is
  /// the server's current count minus this.
  int theta_version = 0;
  /// Simulated per-phase durations of the client's round.
  ClientTiming timing;
  /// The straggler policy's verdict, reused as the admission predicate.
  StragglerDecision decision;
  /// The computed update (against the θ snapshot downloaded at dispatch).
  UpdateMessage message;
};

/// \brief Serializes every field of `event` (timing, decision, and the
/// full update message) in the `util/file_io.h` encoding — the in-flight
/// half of an event-mode checkpoint.
void SerializeClientCompletionEvent(const ClientCompletionEvent& event,
                                    ByteWriter* writer);

/// \brief Inverse of `SerializeClientCompletionEvent`.
Result<ClientCompletionEvent> DeserializeClientCompletionEvent(
    ByteReader* reader);

/// \brief Builds a completion event: times the client's actual work via
/// `ComputeClientTiming`, applies `policy` as the admission predicate, and
/// stamps the absolute completion time `dispatch_seconds +
/// decision.finish_seconds`.
ClientCompletionEvent MakeClientCompletionEvent(
    const ClientSystemProfile& profile, const StragglerPolicy& policy,
    double dispatch_seconds, int64_t download_bytes, UpdateMessage message,
    int wave, int theta_version, int64_t sequence);

/// \brief Min-heap of completion events ordered by (time, sequence).
class EventQueue {
 public:
  /// Inserts an event.
  void Push(ClientCompletionEvent event);

  /// Removes and returns the earliest event. CHECK-fails when empty.
  ClientCompletionEvent Pop();

  /// The earliest event without removing it. CHECK-fails when empty.
  const ClientCompletionEvent& Peek() const;

  bool empty() const { return heap_.empty(); }
  int size() const { return static_cast<int>(heap_.size()); }

  /// All queued events in heap-internal (unspecified) order — the
  /// checkpoint writer's snapshot surface. Restore by re-Pushing each;
  /// (time, sequence) is a total order, so the rebuilt heap pops
  /// identically regardless of the snapshot order.
  const std::vector<ClientCompletionEvent>& events() const { return heap_; }

 private:
  // std::priority_queue hides the top element from moves; a plain vector
  // with push_heap/pop_heap keeps Pop() a move, not a copy.
  std::vector<ClientCompletionEvent> heap_;
};

}  // namespace fedadmm

#endif  // FEDADMM_SYS_EVENT_QUEUE_H_
