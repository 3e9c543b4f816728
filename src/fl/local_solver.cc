#include "fl/local_solver.h"

#include <string>

#include "tensor/vec.h"

namespace fedadmm {

Status ValidateLocalTrainSpec(const LocalTrainSpec& spec) {
  if (spec.max_epochs < 1) {
    return Status::InvalidArgument(
        "LocalTrainSpec: max_epochs must be >= 1 (got " +
        std::to_string(spec.max_epochs) +
        "); it is E, the number (or the cap of U{1..E}) of local epochs");
  }
  return Status::OK();
}

int SampleEpochs(const LocalTrainSpec& spec, Rng* rng) {
  FEDADMM_CHECK_MSG(spec.max_epochs >= 1, "max_epochs must be >= 1");
  if (!spec.variable_epochs) return spec.max_epochs;
  return static_cast<int>(rng->UniformInt(1, spec.max_epochs));
}

LocalSolveResult RunLocalSgd(LocalProblem* problem,
                             const LocalTrainSpec& spec, int epochs,
                             std::span<float> w, Rng* rng,
                             const GradientTransform& transform) {
  FEDADMM_CHECK(problem != nullptr);
  FEDADMM_CHECK(static_cast<int64_t>(w.size()) == problem->dim());
  FEDADMM_CHECK_MSG(epochs >= 1, "epochs must be >= 1");

  LocalSolveResult result;
  std::vector<float> grad(w.size());

  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto batches = problem->EpochBatches(spec.batch_size, rng);
    double loss_sum = 0.0;
    int steps = 0;
    for (const auto& batch : batches) {
      const double loss = problem->BatchLossGradient(w, batch, grad);
      if (transform) transform(w, grad);
      vec::Axpy(-spec.learning_rate, grad, w);
      loss_sum += loss;
      ++steps;
    }
    result.steps_run += steps;
    ++result.epochs_run;
    result.mean_loss = steps > 0 ? loss_sum / steps : 0.0;

    if (spec.epsilon > 0.0) {
      // Inexactness check of Eq. (6) on the full local gradient.
      problem->FullLossGradient(w, grad);
      if (transform) transform(w, grad);
      result.final_grad_norm_sq = vec::SquaredL2Norm(grad);
      if (result.final_grad_norm_sq <= spec.epsilon) return result;
    }
  }
  return result;
}

GradientTransform AugmentedLagrangianTerm(std::span<const float> y, float rho,
                                          std::span<const float> theta) {
  if (y.empty()) {
    if (rho == 0.0f) return nullptr;
    return [rho, theta](std::span<const float> w, std::span<float> grad) {
      for (size_t i = 0; i < grad.size(); ++i) {
        grad[i] += rho * (w[i] - theta[i]);
      }
    };
  }
  return [y, rho, theta](std::span<const float> w, std::span<float> grad) {
    for (size_t i = 0; i < grad.size(); ++i) {
      grad[i] += y[i] + rho * (w[i] - theta[i]);
    }
  };
}

void DualAscent(float rho, std::span<const float> w,
                std::span<const float> theta, std::span<float> y) {
  for (size_t i = 0; i < y.size(); ++i) y[i] += rho * (w[i] - theta[i]);
}

UpdateMessage SolvedMessage(int client_id, const LocalSolveResult& result) {
  UpdateMessage msg;
  msg.client_id = client_id;
  msg.train_loss = result.mean_loss;
  msg.epochs_run = result.epochs_run;
  msg.steps_run = result.steps_run;
  return msg;
}

}  // namespace fedadmm
