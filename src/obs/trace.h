/// \file trace.h
/// \brief Profiling spans: RAII `TraceScope` and a chrome://tracing
/// recorder.
///
/// A `TraceScope` placed around an engine phase appends a complete
/// ("ph":"X") event to the global `TraceRecorder` while a trace capture is
/// running, loadable in chrome://tracing or https://ui.perfetto.dev for
/// flame-style inspection of one simulation. Spans are the only timing
/// sink inside the engine; a latency with its own reader is kept by the
/// component that measures it (the serve frontend's ingest histograms,
/// obs/metrics.h).
///
/// With no capture running the scope never reads the clock, and spans
/// never touch RNG streams or float math on the training path, so tracing
/// leaves trajectories bitwise unchanged (tests/obs/obs_equivalence_test.cc).
/// The per-round trace is not a span sink: `SimulationConfig::round_trace_path`
/// streams `RoundRecord`s in the history-CSV schema (fl/history_csv.h).

#ifndef FEDADMM_OBS_TRACE_H_
#define FEDADMM_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace fedadmm::obs {

/// \brief One completed span in the chrome trace_event format.
///
/// Names/categories are `const char*` by contract: instruments pass string
/// literals, so events store pointers, not strings — recording stays cheap
/// enough for per-client-event spans.
struct TraceEvent {
  const char* name = "";
  const char* category = "";
  /// Microseconds since `TraceRecorder::Start`.
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  /// Small dense thread index (registration order, not OS tid).
  int tid = 0;
  /// Optional single integer argument (e.g. client id); skipped when < 0
  /// or `arg_name` is null.
  const char* arg_name = nullptr;
  int64_t arg = -1;
};

/// \brief Global bounded in-memory trace capture.
///
/// `Start` clears and enables, `Stop` freezes; `WriteChromeTrace` emits a
/// `{"traceEvents": [...]}` document chrome://tracing loads directly. The
/// buffer is bounded (`max_events`): past the cap new events are counted
/// as dropped instead of growing without bound — a 1M-client round can
/// emit tens of thousands of spans per wave.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  /// Clears the buffer and begins capturing. `max_events` bounds memory.
  void Start(size_t max_events = 1 << 20);
  void Stop() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one event (thread-safe; no-op unless enabled).
  void Record(TraceEvent event);

  /// Microseconds since `Start` on the steady clock (0 before any Start).
  int64_t NowMicros() const;

  /// Dense per-thread index for the calling thread.
  int CurrentThreadIndex();

  size_t size() const;
  size_t dropped() const;

  /// Writes the capture as a chrome trace_event JSON document.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  size_t max_events_ = 0;
  size_t dropped_ = 0;
  int next_thread_index_ = 0;
  std::chrono::steady_clock::time_point epoch_{};
  std::atomic<bool> enabled_{false};
};

/// \brief RAII wall-clock span feeding the trace recorder.
///
/// Inactive (never reads the clock) unless a trace capture is running.
class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* category = "engine");
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Attaches the optional integer argument emitted with the trace event.
  void set_arg(const char* arg_name, int64_t arg) {
    arg_name_ = arg_name;
    arg_ = arg;
  }

  /// Ends the span early and returns its seconds (0 when inactive). The
  /// destructor then does nothing.
  double Stop();

 private:
  const char* name_;
  const char* category_;
  const char* arg_name_ = nullptr;
  int64_t arg_ = -1;
  bool active_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace fedadmm::obs

#endif  // FEDADMM_OBS_TRACE_H_
