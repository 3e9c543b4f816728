#include "fl/algorithms/fedprox.h"

#include "tensor/vec.h"

namespace fedadmm {

void FedProx::Setup(const AlgorithmContext& ctx,
                    std::span<const float> theta0) {
  (void)theta0;
  num_clients_ = ctx.num_clients;
  dim_ = ctx.dim;
  reduce_pool_ = ctx.reduce_pool;
}

UpdateMessage FedProx::ClientUpdate(int client_id, int round,
                                    std::span<const float> theta,
                                    LocalProblem* problem, Rng rng) {
  (void)round;
  std::vector<float> w(theta.begin(), theta.end());
  const int epochs = SampleEpochs(local_, &rng);
  const float rho = rho_;
  // grad += rho * (w - theta): FedADMM's transform with y ≡ 0.
  auto transform = [rho, theta](std::span<const float> w_now,
                                std::span<float> grad) {
    const size_t n = grad.size();
    for (size_t i = 0; i < n; ++i) {
      grad[i] += rho * (w_now[i] - theta[i]);
    }
  };
  const LocalSolveResult result =
      RunLocalSgd(problem, local_, epochs, w, &rng, transform);

  UpdateMessage msg;
  msg.client_id = client_id;
  msg.delta.resize(theta.size());
  vec::Sub(w, theta, msg.delta);
  msg.train_loss = result.mean_loss;
  msg.epochs_run = result.epochs_run;
  msg.steps_run = result.steps_run;
  return msg;
}

void FedProx::ServerUpdate(const std::vector<UpdateMessage>& updates,
                           int round, std::vector<float>* theta) {
  (void)round;
  FEDADMM_CHECK(!updates.empty());
  const float step = server_lr_ / static_cast<float>(updates.size());
  std::vector<std::span<const float>> deltas;
  deltas.reserve(updates.size());
  for (const UpdateMessage& msg : updates) deltas.push_back(msg.delta);
  vec::AxpyMany(step, deltas, *theta, reduce_pool_);
}

}  // namespace fedadmm
