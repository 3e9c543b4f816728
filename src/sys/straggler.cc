#include "sys/straggler.h"

#include <algorithm>

#include "util/status.h"

namespace fedadmm {
namespace {

// Fraction of the broadcast received by `cutoff` seconds into the round,
// approximated as time-proportional over the download leg.
double ReceivedDownloadFraction(const ClientTiming& timing, double cutoff) {
  if (timing.download_seconds <= cutoff) return 1.0;
  if (timing.download_seconds <= 0.0) return 1.0;
  return std::max(0.0, cutoff / timing.download_seconds);
}

}  // namespace

StragglerDecision WaitForAllPolicy::Judge(const ClientTiming& timing) const {
  StragglerDecision d;
  d.fate = ClientFate::kAdmitted;
  d.finish_seconds = timing.TotalSeconds();
  return d;
}

DeadlineDropPolicy::DeadlineDropPolicy(double deadline_seconds)
    : deadline_seconds_(deadline_seconds) {
  FEDADMM_CHECK_MSG(deadline_seconds > 0.0,
                    "DeadlineDropPolicy: deadline must be > 0");
}

StragglerDecision DeadlineDropPolicy::Judge(const ClientTiming& timing) const {
  StragglerDecision d;
  const double total = timing.TotalSeconds();
  if (total <= deadline_seconds_) {
    d.fate = ClientFate::kAdmitted;
    d.finish_seconds = total;
  } else {
    d.fate = ClientFate::kDropped;
    d.finish_seconds = deadline_seconds_;  // the server waits out the round
    d.download_fraction = ReceivedDownloadFraction(timing, deadline_seconds_);
  }
  return d;
}

DeadlineAdmitPartialPolicy::DeadlineAdmitPartialPolicy(double deadline_seconds)
    : deadline_seconds_(deadline_seconds) {
  FEDADMM_CHECK_MSG(deadline_seconds > 0.0,
                    "DeadlineAdmitPartialPolicy: deadline must be > 0");
}

StragglerDecision DeadlineAdmitPartialPolicy::Judge(
    const ClientTiming& timing) const {
  StragglerDecision d;
  const double total = timing.TotalSeconds();
  if (total <= deadline_seconds_) {
    d.fate = ClientFate::kAdmitted;
    d.finish_seconds = total;
    return d;
  }
  // The client must still fit its transfers before the cut-off; whatever
  // compute time remains bounds the admissible fraction of its local work.
  const double transfer = timing.download_seconds + timing.upload_seconds;
  const double compute_budget = deadline_seconds_ - transfer;
  if (compute_budget <= 0.0 || timing.compute_seconds <= 0.0) {
    d.fate = ClientFate::kDropped;
    d.download_fraction = ReceivedDownloadFraction(timing, deadline_seconds_);
  } else {
    d.fate = ClientFate::kAdmittedPartial;
    d.work_fraction = compute_budget / timing.compute_seconds;
  }
  d.finish_seconds = deadline_seconds_;
  return d;
}

}  // namespace fedadmm
