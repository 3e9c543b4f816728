/// \file virtual_clock.h
/// \brief Simulated-time accounting for federated rounds.
///
/// Host wall time says nothing about deployment time: a simulator crunches
/// a straggler's 10 epochs as fast as a flagship's. Simulated time instead
/// derives each client's round duration from its `ClientSystemProfile` —
/// download, compute at `steps_per_second`, upload; the engine
/// (fl/server_loop.h) schedules the client's arrival at its dispatch time
/// plus the straggler policy's finish time. Pure arithmetic: bitwise
/// deterministic and free of host-speed effects.

#ifndef FEDADMM_SYS_VIRTUAL_CLOCK_H_
#define FEDADMM_SYS_VIRTUAL_CLOCK_H_

#include <cstdint>

#include "sys/profiles.h"

namespace fedadmm {

/// \brief Per-phase simulated duration of one client's round.
struct ClientTiming {
  double download_seconds = 0.0;
  double compute_seconds = 0.0;
  double upload_seconds = 0.0;

  /// Sequential phases: the client downloads θ, trains, then uploads.
  double TotalSeconds() const {
    return download_seconds + compute_seconds + upload_seconds;
  }
};

/// \brief Converts a client's actual work and payload sizes into simulated
/// durations using its profile. Each transfer pays the link latency once.
ClientTiming ComputeClientTiming(const ClientSystemProfile& profile,
                                 int steps_run, int64_t upload_bytes,
                                 int64_t download_bytes);

}  // namespace fedadmm

#endif  // FEDADMM_SYS_VIRTUAL_CLOCK_H_
