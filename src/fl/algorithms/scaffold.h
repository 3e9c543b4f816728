/// \file scaffold.h
/// \brief SCAFFOLD baseline (Karimireddy et al., ICML 2020).

#ifndef FEDADMM_FL_ALGORITHMS_SCAFFOLD_H_
#define FEDADMM_FL_ALGORITHMS_SCAFFOLD_H_

#include "fl/algorithm.h"
#include "fl/local_solver.h"

namespace fedadmm {

/// \brief Stochastic controlled averaging with client/server control
/// variates.
///
/// Client steps follow w ← w − η_l (∇f_i(w, b) − c_i + c); after K steps the
/// client control is refreshed with option II of the SCAFFOLD paper,
/// c_i⁺ = c_i − c + (θ − w⁺) / (K η_l), and the client uploads *two* vectors
/// (Δw, Δc) — doubling upload size relative to FedAvg/Prox/ADMM, which the
/// byte accounting and DownloadBytesPerClient reflect (clients also fetch
/// the server control c). Controls are zero-initialized as the paper
/// recommends; epochs are fixed at E (no system-heterogeneity variant, per
/// the paper's setup).
///
/// Async mode runs `ServerUpdate` on a one-message batch: at |S_t| = 1 it
/// applies θ ← θ + η_g Δw and c ← c + (1/m) Δc, exactly the paper's
/// running-mean control refresh applied one arrival at a time.
class Scaffold : public FederatedAlgorithm {
 public:
  Scaffold(const LocalTrainSpec& local, float server_lr = 1.0f)
      : local_(local), server_lr_(server_lr) {}

  std::string name() const override { return "SCAFFOLD"; }
  void Setup(const AlgorithmContext& ctx,
             std::span<const float> theta0) override;
  UpdateMessage ClientUpdate(int client_id, int round,
                             std::span<const float> theta,
                             LocalProblem* problem, Rng rng) override;
  void ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                    std::vector<float>* theta) override;

  /// θ and c are both broadcast: 2d floats.
  int64_t DownloadBytesPerClient() const override {
    return 2 * dim_ * static_cast<int64_t>(sizeof(float));
  }

  /// Fallback when `SimulationConfig::state_store` is empty.
  std::string DefaultStateStoreSpec() const override { return "lazy"; }

  const LocalTrainSpec* local_spec() const override { return &local_; }

  /// Server control variate (tests).
  const std::vector<float>& server_control() const { return server_c_; }
  /// Client control variate (tests). A state-store view: untouched clients
  /// read the zero initialization.
  std::span<const float> client_control(int i) const {
    return store_->View(i, kSlotControl);
  }

  /// Checkpoints the server control variate c.
  std::string SerializeExtraState() const override;
  Status RestoreExtraState(const std::string& blob) override;

 private:
  /// Store slot: the client control variate c_i.
  static constexpr int kSlotControl = 0;

  LocalTrainSpec local_;
  float server_lr_;
  std::vector<float> server_c_;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_ALGORITHMS_SCAFFOLD_H_
