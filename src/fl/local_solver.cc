#include "fl/local_solver.h"

#include "tensor/vec.h"

namespace fedadmm {

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

}  // namespace fedadmm
