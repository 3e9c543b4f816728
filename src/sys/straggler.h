/// \file straggler.h
/// \brief What the server does about clients that miss the round deadline.
///
/// Three policies bracket the design space:
///   * `WaitForAllPolicy` — synchronous FL: the round lasts as long as the
///     slowest client; nothing is ever lost.
///   * `DeadlineDropPolicy` — the server closes the round at a deadline and
///     discards updates that did not arrive. This is how FedAvg/SCAFFOLD
///     deployments must treat stragglers: their update encodes a full E
///     epochs or nothing.
///   * `DeadlineAdmitPartialPolicy` — the server closes the round at the
///     deadline but admits whatever fraction of the local work a straggler
///     finished (the client uploads its current iterate). FedADMM's
///     variable-epoch tolerance (Section V-A) makes such partial updates
///     useful rather than harmful, which is where its advantage over the
///     fixed-work baselines shows up in time-to-accuracy.
///
/// Policies are pure functions of `ClientTiming`, so round outcomes are
/// bitwise deterministic given the simulation seed.

#ifndef FEDADMM_SYS_STRAGGLER_H_
#define FEDADMM_SYS_STRAGGLER_H_

#include <string>

#include "sys/virtual_clock.h"

namespace fedadmm {

/// \brief How the server treated one client's update.
enum class ClientFate {
  /// The update arrived in time and is aggregated as-is.
  kAdmitted = 0,
  /// The client missed the deadline; the fraction of its local work that
  /// fit before the cut-off is aggregated (delta scaled by work_fraction).
  kAdmittedPartial = 1,
  /// The update is discarded; the client's round was wasted.
  kDropped = 2,
};

/// \brief Verdict for one client.
struct StragglerDecision {
  ClientFate fate = ClientFate::kAdmitted;
  /// Fraction of the client's compute admitted (1 unless kAdmittedPartial).
  double work_fraction = 1.0;
  /// When the server stopped waiting for this client (seconds into the
  /// round): its finish time, or the deadline if it overran.
  double finish_seconds = 0.0;
  /// Fraction of the downlink broadcast the client had received when the
  /// server stopped tracking it. 1 unless the client was dropped while its
  /// download was still in flight (time-proportional approximation of the
  /// bytes on the wire by the cut-off); download accounting bills only this
  /// fraction — a client that never finished pulling θ is not billed a full
  /// broadcast.
  double download_fraction = 1.0;
};

/// \brief Server-side straggler handling strategy.
class StragglerPolicy {
 public:
  virtual ~StragglerPolicy() = default;

  /// Judges one client from its simulated timing.
  virtual StragglerDecision Judge(const ClientTiming& timing) const = 0;

  virtual std::string name() const = 0;
};

/// \brief Fully synchronous: admit everything, wait for the slowest client.
class WaitForAllPolicy : public StragglerPolicy {
 public:
  StragglerDecision Judge(const ClientTiming& timing) const override;
  std::string name() const override { return "wait-for-all"; }
};

/// \brief Close the round after `deadline_seconds`; discard late updates.
class DeadlineDropPolicy : public StragglerPolicy {
 public:
  explicit DeadlineDropPolicy(double deadline_seconds);

  StragglerDecision Judge(const ClientTiming& timing) const override;
  std::string name() const override { return "deadline-drop"; }

  double deadline_seconds() const { return deadline_seconds_; }

 private:
  double deadline_seconds_;
};

/// \brief Close the round after `deadline_seconds`; admit the fraction of a
/// late client's compute that fit before the cut-off (reserving its upload
/// time), dropping it only when even the bare transfers overrun.
///
/// Modeling note: the simulator applies the admitted fraction by scaling
/// the already-computed upload *after* local training (first-order stand-in
/// for the client shipping its deadline iterate, where the SGD path length
/// is roughly proportional to steps). Per-client persistent state (FedADMM
/// duals y_i, SCAFFOLD controls c_i) still reflects the full local pass, so
/// absolute trajectories under this policy are approximate; cross-algorithm
/// comparisons remain fair because every method is scaled identically.
class DeadlineAdmitPartialPolicy : public StragglerPolicy {
 public:
  explicit DeadlineAdmitPartialPolicy(double deadline_seconds);

  StragglerDecision Judge(const ClientTiming& timing) const override;
  std::string name() const override { return "deadline-admit-partial"; }

  double deadline_seconds() const { return deadline_seconds_; }

 private:
  double deadline_seconds_;
};

}  // namespace fedadmm

#endif  // FEDADMM_SYS_STRAGGLER_H_
