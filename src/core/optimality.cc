#include "core/optimality.h"

#include "tensor/vec.h"

namespace fedadmm {

OptimalityGap ComputeOptimalityGap(FederatedProblem* problem,
                                   const FedAdmm& algorithm,
                                   std::span<const float> theta, int round) {
  OptimalityGap gap;
  const int m = problem->num_clients();
  const int64_t d = problem->dim();
  const float rho = algorithm.RhoAt(round);

  // ∇_θ L = Σ_i ( −y_i − ρ (w_i − θ) ).
  std::vector<double> grad_theta(static_cast<size_t>(d), 0.0);
  std::vector<float> grad(static_cast<size_t>(d));

  for (int i = 0; i < m; ++i) {
    const std::span<const float> w = algorithm.client_model(i);
    const std::span<const float> y = algorithm.client_dual(i);
    auto local = problem->MakeLocalProblem(i, /*worker=*/0);
    local->FullLossGradient(w, grad);

    double grad_w_sq = 0.0;
    double consensus_sq = 0.0;
    for (int64_t k = 0; k < d; ++k) {
      const size_t ks = static_cast<size_t>(k);
      const double diff = static_cast<double>(w[ks]) - theta[ks];
      const double gw = static_cast<double>(grad[ks]) + y[ks] + rho * diff;
      grad_w_sq += gw * gw;
      consensus_sq += diff * diff;
      grad_theta[ks] -= static_cast<double>(y[ks]) + rho * diff;
    }
    gap.grad_w_sq += grad_w_sq;
    gap.consensus_sq += consensus_sq;
    // Unpin the views (tiered pins a frame per View).
    algorithm.state_store().Release(i);
  }
  for (double v : grad_theta) gap.grad_theta_sq += v * v;
  return gap;
}

}  // namespace fedadmm
