#include "core/fedadmm.h"

#include "tensor/vec.h"

namespace fedadmm {

void FedAdmm::Setup(const AlgorithmContext& ctx,
                    std::span<const float> theta0) {
  FederatedAlgorithm::Setup(ctx, theta0);
  // Canonical initialization (Section VII): w_i⁰ = θ⁰, y_i⁰ = 0, which makes
  // θᵗ the exact mean of augmented models under η = |S|/m. Registered as
  // slot initial values: sparse backends never pay for untouched clients.
  std::vector<StateSlotSpec> slots(2);
  slots[kSlotModel].dim = ctx.dim;
  slots[kSlotModel].init.assign(theta0.begin(), theta0.end());
  slots[kSlotDual].dim = ctx.dim;
  BuildStateStore(ctx, std::move(slots));
}

UpdateMessage FedAdmm::ClientUpdate(int client_id, int round,
                                    std::span<const float> theta,
                                    LocalProblem* problem, Rng rng) {
  std::span<float> w_stored = store_->MutableView(client_id, kSlotModel);
  std::span<float> y = store_->MutableView(client_id, kSlotDual);
  const float rho = RhoAt(round);
  FEDADMM_CHECK_MSG(rho > 0.0f, "FedADMM requires rho > 0");

  // Previous augmented model u_i = w_i + y_i/ρ (Eq. 4 uses the *stored*
  // state, not θ).
  std::vector<float> u_prev(w_stored.size());
  for (size_t i = 0; i < u_prev.size(); ++i) {
    u_prev[i] = w_stored[i] + y[i] / rho;
  }

  // Local initialization: warm start (I) vs download (II) — Fig. 8.
  std::vector<float> w =
      options_.init == FedAdmmOptions::LocalInit::kClientModel
          ? std::vector<float>(w_stored.begin(), w_stored.end())
          : std::vector<float>(theta.begin(), theta.end());

  // Minimize the augmented Lagrangian (3): g += y_i + ρ (w − θ). Frozen
  // duals drop y_i, leaving FedProx's proximal term.
  const bool frozen = options_.freeze_duals;
  const int epochs = SampleEpochs(options_.local, &rng);
  const LocalSolveResult result = RunLocalSgd(
      problem, options_.local, epochs, w, &rng,
      AugmentedLagrangianTerm(frozen ? std::span<const float>() : y, rho,
                              theta));

  // Dual ascent (line 20): y_i ← y_i + ρ (w_i⁺ − θ).
  if (!frozen) DualAscent(rho, w, theta, y);

  // Update message (Eq. 4): Δ_i = (w⁺ + y⁺/ρ) − (w + y/ρ).
  UpdateMessage msg = SolvedMessage(client_id, result);
  msg.delta.resize(w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    msg.delta[i] = (w[i] + y[i] / rho) - u_prev[i];
  }
  vec::Copy(w, w_stored);
  store_->Release(client_id);
  return msg;
}

void FedAdmm::ServerUpdate(const std::vector<UpdateMessage>& updates,
                           int round, std::vector<float>* theta) {
  const float eta =
      options_.eta_active_fraction
          ? static_cast<float>(updates.size()) /
                static_cast<float>(num_clients_)
          : static_cast<float>(options_.eta.At(round));
  // Tracking update (Eq. 5): θ ← θ + (η/|S_t|) Σ Δ_i.
  AddScaledDeltas(eta / static_cast<float>(updates.size()), updates, theta);
}

Status FedAdmm::ValidateForEventMode() const {
  if (options_.eta_active_fraction) return Status::OK();
  return Status::InvalidArgument(
      "FedADMM: buffered/async modes aggregate 1 or K ≪ m updates per step; "
      "a fixed η schedule (eta_active_fraction=false) overshoots the "
      "tracking update m/|S_t|-fold. Set "
      "FedAdmmOptions::eta_active_fraction=true (η = |S_t|/m) or run "
      "ExecutionMode::kSync");
}

std::vector<float> FedAdmm::MeanAugmentedModel(int round) const {
  FEDADMM_CHECK(store_ != nullptr && store_->num_clients() > 0);
  const float rho = RhoAt(round);
  // Hoisted reciprocal: one divide for the whole reduction instead of one
  // per (client, coordinate) — the historical scalar loop divided m·d
  // times.
  const float inv_rho = 1.0f / rho;
  const int m = store_->num_clients();
  std::vector<std::span<const float>> ws;
  std::vector<std::span<const float>> ys;
  ws.reserve(static_cast<size_t>(m));
  ys.reserve(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    ws.push_back(store_->View(i, kSlotModel));
    ys.push_back(store_->View(i, kSlotDual));
  }
  // mean(u) = mean(w) + (1/(mρ)) Σ y — two blocked pool-parallel passes.
  std::vector<float> mean(ws[0].size());
  vec::BlockedMean(ws, mean, reduce_pool_);
  vec::AxpyMany(inv_rho / static_cast<float>(m), ys, mean, reduce_pool_);
  // Unpin the views (tiered pins a frame per View).
  for (int i = 0; i < m; ++i) store_->Release(i);
  return mean;
}

}  // namespace fedadmm
