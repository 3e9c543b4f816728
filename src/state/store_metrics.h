/// \file store_metrics.h
/// \brief Internal obs instruments of the concrete state-store backends.
///
/// One shared set of counters — `state/mutable_touches_count` and
/// `state/releases_count` — bumped by every concrete backend's
/// `MutableView` / `Release`. Resident bytes are a per-round gauge stamped
/// by the server loop (`server/state_bytes_resident`), not here: the
/// stores' own `bytes_resident()` is the source of truth and the loop
/// already reads it.
///
/// Counters, not clocks: a store touch is far too hot (and too cheap) for
/// per-call timing; counts per round are what the skew analysis needs.

#ifndef FEDADMM_STATE_STORE_METRICS_H_
#define FEDADMM_STATE_STORE_METRICS_H_

#include "obs/metrics.h"

namespace fedadmm::state_internal {

/// Bumps `state/mutable_touches_count` (no-op while metrics are disabled).
inline void NoteMutableTouch() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().counter("state/mutable_touches_count");
  counter->Add(1);
}

/// Bumps `state/releases_count` (no-op while metrics are disabled).
inline void NoteRelease() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().counter("state/releases_count");
  counter->Add(1);
}

}  // namespace fedadmm::state_internal

#endif  // FEDADMM_STATE_STORE_METRICS_H_
