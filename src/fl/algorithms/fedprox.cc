#include "fl/algorithms/fedprox.h"

#include "tensor/vec.h"

namespace fedadmm {

UpdateMessage FedProx::ClientUpdate(int client_id, int round,
                                    std::span<const float> theta,
                                    LocalProblem* problem, Rng rng) {
  (void)round;
  std::vector<float> w(theta.begin(), theta.end());
  const int epochs = SampleEpochs(local_, &rng);
  const LocalSolveResult result =
      RunLocalSgd(problem, local_, epochs, w, &rng,
                  AugmentedLagrangianTerm(/*y=*/{}, rho_, theta));

  UpdateMessage msg = SolvedMessage(client_id, result);
  msg.delta.resize(theta.size());
  vec::Sub(w, theta, msg.delta);
  return msg;
}

void FedProx::ServerUpdate(const std::vector<UpdateMessage>& updates,
                           int round, std::vector<float>* theta) {
  (void)round;
  AddScaledDeltas(server_lr_ / static_cast<float>(updates.size()), updates,
                  theta);
}

}  // namespace fedadmm
