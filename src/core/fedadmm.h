/// \file fedadmm.h
/// \brief FedADMM — the paper's primary contribution (Algorithm 1).
///
/// Each client i holds a primal/dual pair (w_i, y_i), initialized to
/// (θ⁰, 0). When selected at round t, the client approximately minimizes
/// the local augmented Lagrangian
///
///   L_i(w; y_i, θᵗ) = f_i(w) + y_iᵀ(w − θᵗ) + (ρ/2)‖w − θᵗ‖²       (3)
///
/// by E_i epochs of minibatch SGD (lines 14-19), i.e. per-batch steps
/// w ← w − η_i (∇f_i(w, b) + y_i + ρ(w − θᵗ)), then performs the dual
/// ascent y_i ← y_i + ρ(w_i − θᵗ) (line 20), and uploads the difference of
/// successive *augmented models* u_i = w_i + y_i/ρ:
///
///   Δ_i = u_i⁺ − u_i                                                 (4)
///
/// The server tracks θᵗ⁺¹ = θᵗ + (η/|S_t|) Σ Δ_i (5). With η = |S_t|/m and
/// the canonical initialization, θᵗ equals the average of all m augmented
/// models at every round (Eq. 20 in the proof) — a property test of this
/// library.
///
/// Knobs map to the paper's ablations: server step-size mode/schedule
/// (Fig. 6), ρ schedule (Fig. 9), local initialization warm-start vs global
/// (Fig. 8), variable epochs = system heterogeneity (Table III), and ε
/// inexactness (Eq. 6).

#ifndef FEDADMM_CORE_FEDADMM_H_
#define FEDADMM_CORE_FEDADMM_H_

#include <string>
#include <vector>

#include "core/schedules.h"
#include "fl/algorithm.h"
#include "fl/local_solver.h"

namespace fedadmm {

/// \brief Configuration of FedADMM.
struct FedAdmmOptions {
  /// Local SGD hyperparameters. `variable_epochs` defaults to true: the
  /// paper evaluates FedADMM under system heterogeneity (E_i ~ U{1..E}).
  LocalTrainSpec local = [] {
    LocalTrainSpec spec;
    spec.variable_epochs = true;
    return spec;
  }();

  /// Proximal coefficient ρ (the paper fixes 0.01 everywhere), optionally
  /// time-varying (Fig. 9).
  StepSchedule rho = StepSchedule(0.01);

  /// Server gathering step size η (Eq. 5), optionally time-varying
  /// (Fig. 6). Ignored when `eta_active_fraction` is set.
  StepSchedule eta = StepSchedule(1.0);

  /// When true, η = |S_t|/m each round (the theoretically analyzed choice;
  /// empirically damps oscillations under heavy heterogeneity). Strongly
  /// recommended under the async/buffered execution modes: their
  /// aggregation batches are 1 or K ≪ m updates, and a fixed η = 1 then
  /// overshoots the tracking update by m/|S_t|.
  bool eta_active_fraction = false;

  /// Local training initialization (Fig. 8): warm start from the stored
  /// client model w_i (strategy I, the paper's recommendation) or restart
  /// from the downloaded global model θ (strategy II).
  enum class LocalInit { kClientModel, kGlobalModel };
  LocalInit init = LocalInit::kClientModel;

  /// Ablation: freeze y_i ≡ 0. The local subproblem then reduces to
  /// FedProx's (and to FedAvg's when additionally ρ = 0) — Section III-B.
  bool freeze_duals = false;

  /// Backend for the per-client (w_i, y_i) pairs (src/state):
  /// "lazy" | "tiered:<c>:<p>". Overridden by `SimulationConfig::state_store`
  /// when that is non-empty.
  std::string state_store = "lazy";
};

/// \brief The FedADMM algorithm.
class FedAdmm : public FederatedAlgorithm {
 public:
  explicit FedAdmm(FedAdmmOptions options) : options_(std::move(options)) {}

  std::string name() const override { return "FedADMM"; }
  void Setup(const AlgorithmContext& ctx,
             std::span<const float> theta0) override;
  UpdateMessage ClientUpdate(int client_id, int round,
                             std::span<const float> theta,
                             LocalProblem* problem, Rng rng) override;
  /// The tracking update (Eq. 5). An async arrival is the batch S_t = {i}:
  /// θ ← θ + η Δ_i, with η = 1/m under `eta_active_fraction`. The dual
  /// ascent already happened client-side in `ClientUpdate`, so applying
  /// Δ_i alone keeps θ tracking the mean augmented model per client —
  /// FedADMM needs no batch barrier.
  void ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                    std::vector<float>* theta) override;

  /// Fails event-mode runs unless η = |S_t|/m is on: a singleton async
  /// batch (or a K ≪ m buffer) at a fixed η overshoots the tracking
  /// update m/|S_t|-fold — the PR 4 footgun, now a fast, clear error.
  Status ValidateForEventMode() const override;

  const LocalTrainSpec* local_spec() const override {
    return &options_.local;
  }

  /// Fallback when `SimulationConfig::state_store` is empty.
  std::string DefaultStateStoreSpec() const override {
    return options_.state_store;
  }

  /// ρ in effect at `round`.
  float RhoAt(int round) const {
    return static_cast<float>(options_.rho.At(round));
  }

  /// Stored client model w_i (tests/diagnostics). A view into the state
  /// store: untouched clients read the canonical initialization θ⁰.
  std::span<const float> client_model(int i) const {
    return store_->View(i, kSlotModel);
  }
  /// Stored dual variable y_i (tests/diagnostics).
  std::span<const float> client_dual(int i) const {
    return store_->View(i, kSlotDual);
  }
  /// Mean of all m augmented models u_i = w_i + y_i/ρ at the given round's
  /// ρ — equals θ when η = |S|/m (Eq. 20), a tested invariant. Runs on the
  /// blocked reduction kernels; O(m·d), diagnostics only.
  std::vector<float> MeanAugmentedModel(int round) const;

  const FedAdmmOptions& options() const { return options_; }

  /// The underlying client-state store (tests/diagnostics).
  const ClientStateStore& state_store() const { return *store_; }

 private:
  /// Store slots: client primal iterate w_i and dual variable y_i.
  static constexpr int kSlotModel = 0;
  static constexpr int kSlotDual = 1;

  FedAdmmOptions options_;
};

}  // namespace fedadmm

#endif  // FEDADMM_CORE_FEDADMM_H_
