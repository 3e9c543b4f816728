/// \file fedsgd.h
/// \brief FedSGD baseline: one full-batch gradient per selected client.

#ifndef FEDADMM_FL_ALGORITHMS_FEDSGD_H_
#define FEDADMM_FL_ALGORITHMS_FEDSGD_H_

#include "fl/algorithm.h"

namespace fedadmm {

/// \brief The communication-per-step extreme of federated optimization:
/// each selected client uploads its exact local gradient at θ and the
/// server takes a single SGD step with the averaged gradient. Equivalent to
/// FedAvg with E = 1 and B = ∞ plus a server learning rate. Under the
/// async execution mode the one-message `ServerUpdate` batch turns this
/// into plain incremental SGD: one gradient step per arriving client.
class FedSgd : public FederatedAlgorithm {
 public:
  /// `learning_rate` is the server step applied to the averaged gradient.
  explicit FedSgd(float learning_rate) : learning_rate_(learning_rate) {}

  std::string name() const override { return "FedSGD"; }
  void Setup(const AlgorithmContext& ctx,
             std::span<const float> theta0) override;
  UpdateMessage ClientUpdate(int client_id, int round,
                             std::span<const float> theta,
                             LocalProblem* problem, Rng rng) override;
  void ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                    std::vector<float>* theta) override;

 private:
  float learning_rate_;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_ALGORITHMS_FEDSGD_H_
