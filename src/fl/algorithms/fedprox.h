/// \file fedprox.h
/// \brief FedProx baseline (Li et al., MLSys 2020).

#ifndef FEDADMM_FL_ALGORITHMS_FEDPROX_H_
#define FEDADMM_FL_ALGORITHMS_FEDPROX_H_

#include "fl/algorithm.h"
#include "fl/local_solver.h"

namespace fedadmm {

/// \brief FedAvg plus a proximal term: local steps follow
/// ∇f_i(w, b) + ρ(w − θ), anchoring clients to the global model; the
/// server averages the deltas w⁺ − θ into θ with step η_g/|S_t|.
///
/// Equivalent to FedADMM's local problem with y_i ≡ 0 (Section III-B), and
/// to FedAvg at ρ = 0, where no gradient term is added at all. The paper
/// highlights that FedProx's performance is sensitive to ρ, which Table V /
/// bench_table5 reproduce. Local epochs follow the caller's
/// `LocalTrainSpec`: fixed at E, or U{1..E} when `variable_epochs` is set.
///
/// Async mode runs `ServerUpdate` on a one-message batch; the proximal
/// anchor makes stale arrivals gentler than FedAvg's, since every local
/// step was pulled toward the θ the client downloaded.
class FedProx : public FederatedAlgorithm {
 public:
  FedProx(const LocalTrainSpec& local, float rho, float server_lr = 1.0f)
      : local_(local), rho_(rho), server_lr_(server_lr) {}

  std::string name() const override { return "FedProx"; }
  UpdateMessage ClientUpdate(int client_id, int round,
                             std::span<const float> theta,
                             LocalProblem* problem, Rng rng) override;
  void ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                    std::vector<float>* theta) override;

  const LocalTrainSpec* local_spec() const override { return &local_; }

  float rho() const { return rho_; }

 private:
  LocalTrainSpec local_;
  float rho_;
  float server_lr_;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_ALGORITHMS_FEDPROX_H_
