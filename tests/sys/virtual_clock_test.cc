#include "sys/virtual_clock.h"

#include <gtest/gtest.h>

namespace fedadmm {
namespace {

ClientSystemProfile MidRangeProfile() {
  ClientSystemProfile p;
  p.device.steps_per_second = 100.0;
  p.network.upload_bytes_per_second = 1.0e6;
  p.network.download_bytes_per_second = 2.0e6;
  p.network.latency_seconds = 0.1;
  return p;
}

TEST(ClientTimingTest, PhasesAddUp) {
  // 200 steps at 100/s = 2s; 1MB up at 1MB/s + 0.1s latency = 1.1s;
  // 2MB down at 2MB/s + 0.1s latency = 1.1s.
  const ClientTiming t = ComputeClientTiming(
      MidRangeProfile(), /*steps_run=*/200, /*upload_bytes=*/1000000,
      /*download_bytes=*/2000000);
  EXPECT_DOUBLE_EQ(t.compute_seconds, 2.0);
  EXPECT_DOUBLE_EQ(t.upload_seconds, 1.1);
  EXPECT_DOUBLE_EQ(t.download_seconds, 1.1);
  EXPECT_DOUBLE_EQ(t.TotalSeconds(), 4.2);
}

TEST(ClientTimingTest, ZeroBytesSkipsLatency) {
  // FedPD non-communication round: nothing transferred, no latency paid.
  const ClientTiming t =
      ComputeClientTiming(MidRangeProfile(), 100, /*upload_bytes=*/0,
                          /*download_bytes=*/0);
  EXPECT_DOUBLE_EQ(t.upload_seconds, 0.0);
  EXPECT_DOUBLE_EQ(t.download_seconds, 0.0);
  EXPECT_DOUBLE_EQ(t.TotalSeconds(), 1.0);
}

TEST(ClientTimingTest, SlowerDeviceTakesLonger) {
  ClientSystemProfile slow = MidRangeProfile();
  slow.device.steps_per_second = 10.0;
  const ClientTiming fast =
      ComputeClientTiming(MidRangeProfile(), 100, 1000, 1000);
  const ClientTiming straggler = ComputeClientTiming(slow, 100, 1000, 1000);
  EXPECT_GT(straggler.TotalSeconds(), fast.TotalSeconds());
}

}  // namespace
}  // namespace fedadmm
