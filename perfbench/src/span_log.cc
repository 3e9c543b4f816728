#include "span_log.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRound: return "round";
    case SpanKind::kBatchGrad: return "nn.batch_grad";
    case SpanKind::kFullGrad: return "nn.full_grad";
    case SpanKind::kEval: return "nn.eval";
    case SpanKind::kClientUpdate: return "core.client_update";
    case SpanKind::kServerUpdate: return "core.server_update";
    case SpanKind::kAggregateOne: return "core.aggregate_one";
    case SpanKind::kAlgoSetup: return "core.setup";
    case SpanKind::kSelect: return "fl.select";
    case SpanKind::kForEachTouched: return "state.for_each_touched";
    case SpanKind::kEncode: return "comm.encode";
    case SpanKind::kDecode: return "comm.decode";
    case SpanKind::kOnBytes: return "serve.on_bytes";
    case SpanKind::kStartServing: return "serve.start_serving";
    case SpanKind::kBeginRound: return "serve.begin_round";
    case SpanKind::kCollectWave: return "serve.collect_wave";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

SpanLog::ThreadBuffer* SpanLog::Buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->index = static_cast<int32_t>(buffers_.size() - 1);
  }
  return buffer;
}

void SpanLog::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buffer : buffers_) {
      buffer->spans.clear();
      buffer->open.clear();
    }
  }
  round_.store(0, std::memory_order_relaxed);
  round_span_.store(0, std::memory_order_relaxed);
  round_start_ns_ = 0;
  enabled_.store(true, std::memory_order_release);
}

void SpanLog::Stop() { enabled_.store(false, std::memory_order_release); }

void SpanLog::BeginRounds(int64_t now_ns) {
  if (!enabled()) return;
  loop_thread_ = Buffer()->index;
  round_.store(0, std::memory_order_relaxed);
  round_span_.store(NextId(), std::memory_order_relaxed);
  round_start_ns_ = now_ns;
}

void SpanLog::EndRound(int64_t now_ns) {
  if (!enabled()) return;
  Span span;
  span.id = round_span_.load(std::memory_order_relaxed);
  span.round = round_.load(std::memory_order_relaxed);
  span.start_ns = round_start_ns_;
  span.end_ns = now_ns;
  span.kind = SpanKind::kRound;
  ThreadBuffer* buffer = Buffer();
  span.thread = buffer->index;
  buffer->spans.push_back(span);
  round_.store(span.round + 1, std::memory_order_relaxed);
  round_span_.store(NextId(), std::memory_order_relaxed);
  round_start_ns_ = now_ns;
}

std::vector<Span> SpanLog::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,round,thread,client,name,start_ns,end_ns,detail\n");
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%" PRId64 ",%" PRId64 ",%" PRId64 ",%d,%d,%s,%" PRId64
                 ",%" PRId64 ",%" PRId64 "\n",
                 s.id, s.parent, s.round, s.thread, s.client,
                 SpanKindName(s.kind), s.start_ns, s.end_ns, s.detail);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
