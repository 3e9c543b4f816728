/// \file fedavg.h
/// \brief FedAvg baseline (McMahan et al., AISTATS 2017).

#ifndef FEDADMM_FL_ALGORITHMS_FEDAVG_H_
#define FEDADMM_FL_ALGORITHMS_FEDAVG_H_

#include "fl/algorithm.h"
#include "fl/local_solver.h"

namespace fedadmm {

/// \brief Selected clients run E epochs of local SGD from θ and upload the
/// model delta w⁺ − θ; the server averages deltas into θ.
///
/// Per the paper's experimental setup, FedAvg runs a *fixed* number of
/// local epochs (no system-heterogeneity accommodation); callers wanting
/// variable work should use FedProx or FedADMM.
///
/// Async mode runs `ServerUpdate` on a one-message batch, i.e.
/// θ ← θ + η_g Δ_i per arrival. That is the textbook FedAsync step — and
/// it inherits FedAvg's drift sensitivity, since each arrival pulls θ a
/// full server step toward one client's non-IID optimum.
class FedAvg : public FederatedAlgorithm {
 public:
  explicit FedAvg(const LocalTrainSpec& local, float server_lr = 1.0f)
      : local_(local), server_lr_(server_lr) {}

  std::string name() const override { return "FedAvg"; }
  void Setup(const AlgorithmContext& ctx,
             std::span<const float> theta0) override;
  UpdateMessage ClientUpdate(int client_id, int round,
                             std::span<const float> theta,
                             LocalProblem* problem, Rng rng) override;
  void ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                    std::vector<float>* theta) override;

  const LocalTrainSpec& local_spec() const { return local_; }

 private:
  LocalTrainSpec local_;
  float server_lr_;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_ALGORITHMS_FEDAVG_H_
