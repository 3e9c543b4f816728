#include "fl/algorithms/fedavg.h"

#include "tensor/vec.h"

namespace fedadmm {

void FedAvg::Setup(const AlgorithmContext& ctx,
                   std::span<const float> theta0) {
  (void)theta0;
  num_clients_ = ctx.num_clients;
  dim_ = ctx.dim;
  reduce_pool_ = ctx.reduce_pool;
}

UpdateMessage FedAvg::ClientUpdate(int client_id, int round,
                                   std::span<const float> theta,
                                   LocalProblem* problem, Rng rng) {
  (void)round;
  std::vector<float> w(theta.begin(), theta.end());
  const int epochs = SampleEpochs(local_, &rng);
  const LocalSolveResult result = RunLocalSgd(
      problem, local_, epochs, w, &rng, /*transform=*/nullptr);

  UpdateMessage msg;
  msg.client_id = client_id;
  msg.delta.resize(theta.size());
  vec::Sub(w, theta, msg.delta);
  msg.train_loss = result.mean_loss;
  msg.epochs_run = result.epochs_run;
  msg.steps_run = result.steps_run;
  return msg;
}

void FedAvg::ServerUpdate(const std::vector<UpdateMessage>& updates,
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
