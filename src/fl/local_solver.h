/// \file local_solver.h
/// \brief The client side of Section III-B, stated once: the local SGD
/// loop, the augmented-Lagrangian term and the dual ascent.
///
/// Every local-training method runs the same minibatch SGD over the
/// client's data and differs only in the term added to the batch gradient,
/// injected through `GradientTransform`:
///   * FedAvg:   g                   (FedProx at ρ = 0: no transform)
///   * FedProx:  g + ρ(w − θ)        (FedADMM with y ≡ 0)
///   * FedADMM:  g + y + ρ(w − θ)    (Alg. 1, line 17; FedPD likewise)
///   * SCAFFOLD: g + c − c_i         (its own control-variate transform)
/// The first three come from one `AugmentedLagrangianTerm`, so the paper's
/// reduction claims hold by construction and stay testable: with the
/// terms aligned, the solvers produce identical iterates given identical
/// batch sequences.

#ifndef FEDADMM_FL_LOCAL_SOLVER_H_
#define FEDADMM_FL_LOCAL_SOLVER_H_

#include <functional>
#include <span>
#include <vector>

#include "fl/problem.h"
#include "fl/types.h"
#include "util/status.h"

namespace fedadmm {

/// \brief Hyperparameters of the local training loop.
struct LocalTrainSpec {
  /// Client learning rate η_i.
  float learning_rate = 0.1f;
  /// Minibatch size B; <= 0 means full batch (paper's B = ∞).
  int batch_size = 10;
  /// Maximum local epochs E.
  int max_epochs = 5;
  /// System heterogeneity (Section V-A): when true, each selected client
  /// runs U{1, ..., max_epochs} epochs instead of exactly max_epochs.
  bool variable_epochs = false;
  /// Optional inexactness target ε of Eq. (6): when > 0, local training
  /// stops after any epoch where the squared norm of the full transformed
  /// gradient is <= epsilon (checked at epoch granularity).
  double epsilon = -1.0;
};

/// Adds the algorithm-specific term to the batch gradient, in place.
/// Receives the current local iterate `w` and the batch gradient `grad`.
using GradientTransform =
    std::function<void(std::span<const float> w, std::span<float> grad)>;

/// \brief Outcome of a local solve.
struct LocalSolveResult {
  /// Mean batch loss over the final epoch (the paper reports train loss).
  double mean_loss = 0.0;
  int epochs_run = 0;
  int steps_run = 0;
  /// Squared norm of the transformed gradient at the final iterate,
  /// evaluated on the full local data — the attained ε_i of Eq. (6).
  /// Measured only when `spec.epsilon > 0` (0 otherwise).
  double final_grad_norm_sq = 0.0;
};

/// \brief Runs epochs of minibatch SGD on `problem`, updating `w` in place.
///
/// `epochs` is the resolved epoch count for this round (callers sample it
/// when `variable_epochs` is on). If `spec.epsilon > 0`, training may stop
/// earlier once the inexactness criterion is met; the full-data gradient
/// norm is measured only then, at the end of each epoch.
LocalSolveResult RunLocalSgd(LocalProblem* problem, const LocalTrainSpec& spec,
                             int epochs, std::span<float> w, Rng* rng,
                             const GradientTransform& transform);

/// \brief The engine's pre-flight check of a method's `LocalTrainSpec`:
/// InvalidArgument, naming the field, when `max_epochs < 1`, which
/// `SampleEpochs` would otherwise CHECK-fail on inside the first wave.
Status ValidateLocalTrainSpec(const LocalTrainSpec& spec);

/// \brief Resolves the epoch count for one (round, client) pair: either the
/// fixed `spec.max_epochs` or U{1..max_epochs} under system heterogeneity.
int SampleEpochs(const LocalTrainSpec& spec, Rng* rng);

/// \brief The gradient of the local augmented Lagrangian's coupling terms
/// (Eq. 3): g += y + ρ(w − θ). An empty `y` gives the proximal-only form
/// g += ρ(w − θ) (FedProx, and FedADMM with frozen duals), and with ρ = 0
/// as well the term vanishes: no transform (FedAvg). The spans are
/// captured, so they must outlive the solve.
GradientTransform AugmentedLagrangianTerm(std::span<const float> y, float rho,
                                          std::span<const float> theta);

/// \brief Dual ascent (Alg. 1, line 20): y += ρ(w − θ).
void DualAscent(float rho, std::span<const float> w,
                std::span<const float> theta, std::span<float> y);

/// \brief The upload message of `client_id` after a local solve: the id
/// and the solve's diagnostics (loss, epochs, steps). The payload is the
/// caller's to fill.
UpdateMessage SolvedMessage(int client_id, const LocalSolveResult& result);

}  // namespace fedadmm

#endif  // FEDADMM_FL_LOCAL_SOLVER_H_
