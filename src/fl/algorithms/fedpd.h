/// \file fedpd.h
/// \brief FedPD (Zhang et al., IEEE TSP 2021) — related-work extension.
///
/// FedPD is the other primal-dual FL method the paper discusses (Section
/// II). It requires *full* client participation: every round all clients
/// update (w_i, y_i) against their local copy of the global model, and with
/// probability p the round ends with a global aggregation
/// θ = (1/m) Σ (w_i + y_i/ρ); otherwise no communication happens and
/// clients continue locally. Use with FullParticipationSelector. It is
/// implemented here so the paper's qualitative claim — that the global
/// update frequency is throttled by p and all clients bear compute cost
/// every round — can be measured (see the FedPD integration test and the
/// Table I notes in EXPERIMENTS.md).
///
/// Communication accounting: on non-communication rounds clients upload
/// nothing (empty delta), so the simulator's byte counters reflect FedPD's
/// sporadic communication pattern.

#ifndef FEDADMM_FL_ALGORITHMS_FEDPD_H_
#define FEDADMM_FL_ALGORITHMS_FEDPD_H_

#include <memory>

#include "fl/algorithm.h"
#include "fl/local_solver.h"
#include "state/client_state_store.h"

namespace fedadmm {

/// \brief Primal-dual method with probabilistic global aggregation.
class FedPd : public FederatedAlgorithm {
 public:
  /// `rho` is the augmented-Lagrangian coefficient; `comm_probability` is
  /// the per-round probability p of a global aggregation.
  FedPd(const LocalTrainSpec& local, float rho, double comm_probability,
        uint64_t seed = 99)
      : local_(local),
        rho_(rho),
        comm_probability_(comm_probability),
        coin_rng_(seed) {}

  std::string name() const override { return "FedPD"; }
  void Setup(const AlgorithmContext& ctx,
             std::span<const float> theta0) override;
  UpdateMessage ClientUpdate(int client_id, int round,
                             std::span<const float> theta,
                             LocalProblem* problem, Rng rng) override;
  void ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                    std::vector<float>* theta) override;

  /// Event modes fail fast: partial batches cannot form the full-population
  /// mean FedPD's server step requires.
  Status ValidateForEventMode() const override;

  /// Resident bytes of the (w_i, y_i) store.
  int64_t StateBytesResident() const override;

  /// Fallback when `SimulationConfig::state_store` is empty.
  std::string DefaultStateStoreSpec() const override { return "lazy"; }

  /// Number of aggregation (communication) rounds so far.
  int communication_rounds() const { return comm_rounds_; }

  /// Engine handle for prefetch hints and checkpoint passes.
  ClientStateStore* mutable_state_store() override { return store_.get(); }

  /// Checkpoints the communication coin stream and round counters — the
  /// server-side state a restored run needs to keep the same aggregation
  /// schedule.
  std::string SerializeExtraState() const override;
  Status RestoreExtraState(const std::string& blob) override;

 private:
  /// Store slots: client primal iterate w_i and dual variable y_i.
  static constexpr int kSlotModel = 0;
  static constexpr int kSlotDual = 1;

  LocalTrainSpec local_;
  float rho_;
  double comm_probability_;
  Rng coin_rng_;
  int comm_rounds_ = 0;
  bool communicate_this_round_ = false;

  /// Per-client primal/dual state (persistent across rounds).
  std::unique_ptr<ClientStateStore> store_;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_ALGORITHMS_FEDPD_H_
