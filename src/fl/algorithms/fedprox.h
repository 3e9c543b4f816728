/// \file fedprox.h
/// \brief FedProx baseline (Li et al., MLSys 2020).

#ifndef FEDADMM_FL_ALGORITHMS_FEDPROX_H_
#define FEDADMM_FL_ALGORITHMS_FEDPROX_H_

#include "fl/algorithm.h"
#include "fl/local_solver.h"

namespace fedadmm {

/// \brief FedAvg plus a proximal term: local steps follow
/// ∇f_i(w, b) + ρ(w − θ), anchoring clients to the global model.
///
/// Equivalent to FedADMM's local problem with y_i ≡ 0 (Section III-B). The
/// paper highlights that FedProx's performance is sensitive to ρ, which
/// Table V / bench_table5 reproduce. Variable local epochs are enabled by
/// default (FedProx tolerates variable work, like FedADMM).
///
/// Async mode runs `ServerUpdate` on a one-message batch; the proximal
/// anchor makes stale arrivals gentler than FedAvg's, since every local
/// step was pulled toward the θ the client downloaded.
class FedProx : public FederatedAlgorithm {
 public:
  FedProx(const LocalTrainSpec& local, float rho, float server_lr = 1.0f)
      : local_(local), rho_(rho), server_lr_(server_lr) {}

  std::string name() const override { return "FedProx"; }
  void Setup(const AlgorithmContext& ctx,
             std::span<const float> theta0) override;
  UpdateMessage ClientUpdate(int client_id, int round,
                             std::span<const float> theta,
                             LocalProblem* problem, Rng rng) override;
  void ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                    std::vector<float>* theta) override;

  float rho() const { return rho_; }

 private:
  LocalTrainSpec local_;
  float rho_;
  float server_lr_;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_ALGORITHMS_FEDPROX_H_
