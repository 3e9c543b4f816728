// EventQueue: deterministic (time, sequence) ordering, and the
// MakeClientCompletionEvent builder mapping ComputeClientTiming + the
// straggler admission predicate onto absolute event times.

#include "sys/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace fedadmm {
namespace {

ClientCompletionEvent Event(double time, int64_t sequence, int client) {
  ClientCompletionEvent e;
  e.time = time;
  e.sequence = sequence;
  e.client_id = client;
  return e;
}

TEST(EventQueueTest, PopsInTimeOrderRegardlessOfPushOrder) {
  EventQueue queue;
  queue.Push(Event(3.0, 0, 10));
  queue.Push(Event(1.0, 1, 11));
  queue.Push(Event(2.0, 2, 12));
  EXPECT_EQ(queue.size(), 3);
  EXPECT_EQ(queue.Pop().client_id, 11);
  EXPECT_EQ(queue.Pop().client_id, 12);
  EXPECT_EQ(queue.Pop().client_id, 10);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, EqualTimesBreakTiesByDispatchSequence) {
  EventQueue queue;
  queue.Push(Event(5.0, 7, 1));
  queue.Push(Event(5.0, 2, 2));
  queue.Push(Event(5.0, 4, 3));
  EXPECT_EQ(queue.Pop().sequence, 2);
  EXPECT_EQ(queue.Pop().sequence, 4);
  EXPECT_EQ(queue.Pop().sequence, 7);
}

ClientSystemProfile Profile(double steps_per_second, double up_bps,
                            double down_bps, double latency) {
  ClientSystemProfile p;
  p.device.steps_per_second = steps_per_second;
  p.network.upload_bytes_per_second = up_bps;
  p.network.download_bytes_per_second = down_bps;
  p.network.latency_seconds = latency;
  return p;
}

UpdateMessage Message(int client, int steps, int64_t payload_floats) {
  UpdateMessage msg;
  msg.client_id = client;
  msg.steps_run = steps;
  msg.delta.assign(static_cast<size_t>(payload_floats), 0.5f);
  return msg;
}

TEST(EventQueueTest, BuilderTimesEventOffComputeClientTiming) {
  // 100 floats = 400 bytes each way at 400 B/s, zero latency: 1 s down,
  // 1 s up; 50 steps at 100 steps/s: 0.5 s compute.
  const ClientSystemProfile profile = Profile(100.0, 400.0, 400.0, 0.0);
  WaitForAllPolicy policy;
  const ClientCompletionEvent event = MakeClientCompletionEvent(
      profile, policy, /*dispatch_seconds=*/10.0, /*download_bytes=*/400,
      Message(3, 50, 100), /*wave=*/4, /*theta_version=*/2, /*sequence=*/9);
  EXPECT_EQ(event.client_id, 3);
  EXPECT_EQ(event.wave, 4);
  EXPECT_EQ(event.theta_version, 2);
  EXPECT_EQ(event.sequence, 9);
  EXPECT_DOUBLE_EQ(event.timing.TotalSeconds(), 2.5);
  EXPECT_EQ(event.decision.fate, ClientFate::kAdmitted);
  EXPECT_DOUBLE_EQ(event.time, 12.5);
}

TEST(EventQueueTest, BuilderAppliesPolicyAsAdmissionPredicate) {
  const ClientSystemProfile profile = Profile(100.0, 400.0, 400.0, 0.0);
  DeadlineDropPolicy policy(/*deadline_seconds=*/1.0);
  const ClientCompletionEvent event = MakeClientCompletionEvent(
      profile, policy, /*dispatch_seconds=*/2.0, /*download_bytes=*/400,
      Message(0, 50, 100), 0, 0, 0);
  // Total 2.5 s > 1 s deadline: the server stops tracking at dispatch +
  // deadline, and the download (1 s needed, 1 s available) counts as full.
  EXPECT_EQ(event.decision.fate, ClientFate::kDropped);
  EXPECT_DOUBLE_EQ(event.time, 3.0);
  EXPECT_DOUBLE_EQ(event.decision.download_fraction, 1.0);
}

TEST(EventQueueTest, BuilderReportsPartialDownloadOfDroppedClient) {
  // Download alone takes 10 s; a 2 s deadline sees 20% of the broadcast.
  const ClientSystemProfile profile = Profile(100.0, 400.0, 40.0, 0.0);
  DeadlineDropPolicy policy(/*deadline_seconds=*/2.0);
  const ClientCompletionEvent event = MakeClientCompletionEvent(
      profile, policy, 0.0, /*download_bytes=*/400, Message(0, 50, 100), 0,
      0, 0);
  EXPECT_EQ(event.decision.fate, ClientFate::kDropped);
  EXPECT_DOUBLE_EQ(event.decision.download_fraction, 0.2);
}

}  // namespace
}  // namespace fedadmm
