#include "sys/virtual_clock.h"

#include "util/status.h"

namespace fedadmm {

ClientTiming ComputeClientTiming(const ClientSystemProfile& profile,
                                 int steps_run, int64_t upload_bytes,
                                 int64_t download_bytes) {
  FEDADMM_CHECK_MSG(steps_run >= 0 && upload_bytes >= 0 && download_bytes >= 0,
                    "ComputeClientTiming: negative work");
  const NetworkProfile& net = profile.network;
  ClientTiming t;
  if (download_bytes > 0) {
    t.download_seconds =
        net.latency_seconds +
        static_cast<double>(download_bytes) / net.download_bytes_per_second;
  }
  t.compute_seconds =
      static_cast<double>(steps_run) / profile.device.steps_per_second;
  if (upload_bytes > 0) {
    t.upload_seconds =
        net.latency_seconds +
        static_cast<double>(upload_bytes) / net.upload_bytes_per_second;
  }
  return t;
}

}  // namespace fedadmm
