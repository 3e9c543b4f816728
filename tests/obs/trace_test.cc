// Tracing: TraceScope activation rules and the bounded chrome://tracing
// recorder.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace fedadmm::obs {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(TraceScopeTest, InactiveWithoutAnySink) {
  ASSERT_FALSE(TraceRecorder::Global().enabled());
  TraceScope scope("noop", "test");
  EXPECT_EQ(scope.Stop(), 0.0);
}

TEST(TraceRecorderTest, CapturesScopesAndWritesChromeTrace) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  {
    TraceScope scope("outer", "test");
    scope.set_arg("round", 3);
    TraceScope inner("inner", "test");
  }
  recorder.Stop();
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);

  const std::string path = TempPath("trace_test_chrome.json");
  ASSERT_TRUE(recorder.WriteChromeTrace(path).ok());
  auto doc = ParseJson(ReadAll(path));
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const JsonValue& value = doc.ValueOrDie();
  const JsonValue* events = value.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->elements.size(), 2u);
  // Completed-event format chrome://tracing/perfetto load directly.
  for (const JsonValue& event : events->elements) {
    EXPECT_EQ(event.Find("ph")->string, "X");
    EXPECT_TRUE(event.Find("ts")->is_number());
    EXPECT_TRUE(event.Find("dur")->is_number());
    EXPECT_TRUE(event.Find("tid")->is_number());
  }
  // Inner scope closed first, so it is recorded first.
  EXPECT_EQ(events->elements[0].Find("name")->string, "inner");
  EXPECT_EQ(events->elements[1].Find("name")->string, "outer");
  EXPECT_EQ(events->elements[1].Find("args")->Find("round")->number, 3.0);
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, BoundedBufferCountsDrops) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start(/*max_events=*/2);
  for (int i = 0; i < 5; ++i) {
    TraceScope scope("evt", "test");
  }
  recorder.Stop();
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 3u);

  const std::string path = TempPath("trace_test_dropped.json");
  ASSERT_TRUE(recorder.WriteChromeTrace(path).ok());
  auto doc = ParseJson(ReadAll(path));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.ValueOrDie().Find("droppedEvents")->number, 3.0);
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, StartClearsPreviousCapture) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  {
    TraceScope scope("first", "test");
  }
  recorder.Stop();
  ASSERT_GE(recorder.size(), 1u);
  recorder.Start();
  recorder.Stop();
  EXPECT_EQ(recorder.size(), 0u);
}

}  // namespace
}  // namespace fedadmm::obs
