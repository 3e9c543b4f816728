#include "fl/algorithms/fedsgd.h"

namespace fedadmm {

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
  AddScaledDeltas(-learning_rate_ / static_cast<float>(updates.size()),
                  updates, theta);
}

}  // namespace fedadmm
