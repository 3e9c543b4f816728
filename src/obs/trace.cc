#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/json.h"

namespace fedadmm::obs {

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Start(size_t max_events) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  events_.reserve(std::min<size_t>(max_events, 4096));
  max_events_ = max_events;
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Record(TraceEvent event) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

int64_t TraceRecorder::NowMicros() const {
  std::chrono::steady_clock::time_point epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = epoch_;
  }
  if (epoch == std::chrono::steady_clock::time_point{}) return 0;
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int TraceRecorder::CurrentThreadIndex() {
  // Dense per-recorder indices keep the chrome timeline to a handful of
  // rows instead of one per OS tid ever seen.
  thread_local int index = -1;
  if (index < 0) {
    std::lock_guard<std::mutex> lock(mu_);
    index = next_thread_index_++;
  }
  return index;
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

size_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::vector<TraceEvent> events;
  size_t dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
    dropped = dropped_;
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const TraceEvent& e : events) {
    w.BeginObject();
    w.Key("name").String(e.name);
    w.Key("cat").String(e.category);
    w.Key("ph").String("X");
    w.Key("ts").Int(e.ts_us);
    w.Key("dur").Int(e.dur_us);
    w.Key("pid").Int(1);
    w.Key("tid").Int(e.tid);
    if (e.arg_name != nullptr && e.arg >= 0) {
      w.Key("args").BeginObject().Key(e.arg_name).Int(e.arg).EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").String("ms");
  w.Key("droppedEvents").Int(static_cast<int64_t>(dropped));
  w.EndObject();

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("TraceRecorder: cannot open " + path);
  }
  const std::string& doc = w.str();
  const size_t written = std::fwrite(doc.data(), 1, doc.size(), file);
  const int close_err = std::fclose(file);
  if (written != doc.size() || close_err != 0) {
    return Status::IoError("TraceRecorder: short write to " + path);
  }
  return Status::OK();
}

TraceScope::TraceScope(const char* name, const char* category)
    : name_(name),
      category_(category),
      active_(TraceRecorder::Global().enabled()) {
  if (active_) start_ = std::chrono::steady_clock::now();
}

double TraceScope::Stop() {
  if (!active_) return 0.0;
  active_ = false;
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start_).count();
  TraceRecorder& recorder = TraceRecorder::Global();
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.dur_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
          .count();
  event.ts_us = recorder.NowMicros() - event.dur_us;
  event.tid = recorder.CurrentThreadIndex();
  event.arg_name = arg_name_;
  event.arg = arg_;
  recorder.Record(event);
  return seconds;
}

TraceScope::~TraceScope() {
  if (active_) Stop();
}

}  // namespace fedadmm::obs
