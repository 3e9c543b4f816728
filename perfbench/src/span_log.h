/// \file span_log.h
/// \brief In-memory span recorder for the traced benchmark run.
///
/// Decorators (decorators.h) open one `ScopedSpan` per call into a layer.
/// A span carries its kind, start/end on the steady clock, the enclosing
/// span on the same thread (or the current round span when the thread has
/// none open), the shared round id, and the client id where there is one.
/// Spans go into per-thread buffers — no lock on the recording path — and
/// are collected and written out only after the traced episode ends and
/// every engine thread has been joined.
///
/// When the log is disabled, `ScopedSpan` reads no clock and records
/// nothing, so the same decorator objects could run untraced; the
/// benchmark nevertheless leaves them out of untraced runs entirely.

#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Span kinds, one per wrapped interface method.
enum class SpanKind : int32_t {
  kRound = 0,
  kBatchGrad,
  kFullGrad,
  kEval,
  kClientUpdate,
  kServerUpdate,
  kAggregateOne,
  kAlgoSetup,
  kSelect,
  kForEachTouched,
  kEncode,
  kDecode,
  kOnBytes,
  kStartServing,
  kBeginRound,
  kCollectWave,
  kCount,
};

/// Stable lower-case name of a span kind (used in the span dump).
const char* SpanKindName(SpanKind kind);

/// One recorded call.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  int64_t round = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Call-specific quantity: batch size, payload bytes, ...
  int64_t detail = 0;
  int32_t client = -1;
  int32_t thread = 0;
  SpanKind kind = SpanKind::kRound;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-wide span log (see file comment).
class SpanLog {
 public:
  static SpanLog& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Clears every buffer and starts recording. Round ids restart at 0.
  void Start();
  /// Stops recording. Call only after every recording thread is joined or
  /// idle; `Collect` then sees a complete log.
  void Stop();

  /// Marks the boundary between rounds: closes the open round span (if
  /// any) at `now_ns` on the calling thread and opens round `next_round`.
  /// The engine's observer calls this once per RoundRecord, on the loop
  /// thread; `BeginRounds` opens round 0 at the end of setup.
  void BeginRounds(int64_t now_ns);
  void EndRound(int64_t now_ns);

  /// All spans recorded since `Start`, in thread-then-end order.
  std::vector<Span> Collect() const;
  /// Thread index of the thread that called `BeginRounds` (the engine
  /// loop thread).
  int32_t loop_thread() const { return loop_thread_; }

  // Recording-side helpers for ScopedSpan.
  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t current_round() const {
    return round_.load(std::memory_order_relaxed);
  }
  int64_t current_round_span() const {
    return round_span_.load(std::memory_order_relaxed);
  }

  struct ThreadBuffer {
    int32_t index = 0;
    std::vector<Span> spans;
    std::vector<int64_t> open;
  };
  /// The calling thread's buffer (registered on first use; buffers outlive
  /// their threads so spans of joined threads stay collectable).
  ThreadBuffer* Buffer();

 private:
  SpanLog() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{1};
  std::atomic<int64_t> round_{0};
  std::atomic<int64_t> round_span_{0};
  int64_t round_start_ns_ = 0;
  int32_t loop_thread_ = 0;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span around one call. No-op while the log is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, int32_t client = -1, int64_t detail = 0) {
    SpanLog& log = SpanLog::Get();
    if (!log.enabled()) return;
    buffer_ = log.Buffer();
    span_.kind = kind;
    span_.client = client;
    span_.detail = detail;
    span_.id = log.NextId();
    span_.parent =
        buffer_->open.empty() ? log.current_round_span() : buffer_->open.back();
    span_.round = log.current_round();
    span_.thread = buffer_->index;
    buffer_->open.push_back(span_.id);
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (buffer_ == nullptr) return;
    span_.end_ns = NowNs();
    buffer_->open.pop_back();
    buffer_->spans.push_back(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Sets the call-specific quantity after the fact (e.g. encoded bytes).
  void set_detail(int64_t detail) { span_.detail = detail; }

 private:
  SpanLog::ThreadBuffer* buffer_ = nullptr;
  Span span_;
};

/// Writes `spans` as CSV (one header row). Returns false on I/O failure.
bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
