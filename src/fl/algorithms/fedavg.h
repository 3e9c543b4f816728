/// \file fedavg.h
/// \brief FedAvg baseline (McMahan et al., AISTATS 2017).

#ifndef FEDADMM_FL_ALGORITHMS_FEDAVG_H_
#define FEDADMM_FL_ALGORITHMS_FEDAVG_H_

#include "fl/algorithms/fedprox.h"

namespace fedadmm {

/// \brief Selected clients run E epochs of local SGD from θ and upload the
/// model delta w⁺ − θ; the server averages deltas into θ. This is FedProx
/// at ρ = 0 (Section III-B); the class only gives it FedAvg's name.
///
/// Per the paper's experimental setup, FedAvg runs a *fixed* number of
/// local epochs (no system-heterogeneity accommodation): leave
/// `variable_epochs` off in its spec.
///
/// Async mode runs `ServerUpdate` on a one-message batch, i.e.
/// θ ← θ + η_g Δ_i per arrival. That is the textbook FedAsync step — and
/// it inherits FedAvg's drift sensitivity, since each arrival pulls θ a
/// full server step toward one client's non-IID optimum.
class FedAvg : public FedProx {
 public:
  explicit FedAvg(const LocalTrainSpec& local, float server_lr = 1.0f)
      : FedProx(local, /*rho=*/0.0f, server_lr) {}

  std::string name() const override { return "FedAvg"; }
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_ALGORITHMS_FEDAVG_H_
