#include "fl/algorithms/fedsgd.h"

#include "tensor/vec.h"

namespace fedadmm {

void FedSgd::Setup(const AlgorithmContext& ctx,
                   std::span<const float> theta0) {
  (void)theta0;
  num_clients_ = ctx.num_clients;
  dim_ = ctx.dim;
  reduce_pool_ = ctx.reduce_pool;
}

UpdateMessage FedSgd::ClientUpdate(int client_id, int round,
                                   std::span<const float> theta,
                                   LocalProblem* problem, Rng rng) {
  (void)round;
  (void)rng;
  UpdateMessage msg;
  msg.client_id = client_id;
  msg.delta.resize(theta.size());
  msg.train_loss = problem->FullLossGradient(theta, msg.delta);
  msg.epochs_run = 0;
  msg.steps_run = 1;
  return msg;
}

void FedSgd::ServerUpdate(const std::vector<UpdateMessage>& updates,
                          int round, std::vector<float>* theta) {
  (void)round;
  FEDADMM_CHECK(!updates.empty());
  const float step =
      -learning_rate_ / static_cast<float>(updates.size());
  std::vector<std::span<const float>> deltas;
  deltas.reserve(updates.size());
  for (const UpdateMessage& msg : updates) deltas.push_back(msg.delta);
  vec::AxpyMany(step, deltas, *theta, reduce_pool_);
}

}  // namespace fedadmm
