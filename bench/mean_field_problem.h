/// \file mean_field_problem.h
/// \brief ½‖w − t_i‖² fleet problem: O(d) memory at any population size.
///
/// Client i's target t_i ~ N(0, spread²)^d is forked from a master Rng and
/// recomputed on demand, so the problem stores only the streamed mean
/// target t̄ — the closed-form optimum of the global objective. The scale
/// benches (bench_state_scale, bench_ingest_load) share it so the
/// subsystem under test — state store, server reduce, serving frontend —
/// is the dominant cost, not client compute.

#ifndef FEDADMM_BENCH_MEAN_FIELD_PROBLEM_H_
#define FEDADMM_BENCH_MEAN_FIELD_PROBLEM_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fl/problem.h"
#include "util/rng.h"

namespace fedadmm::bench {

/// \brief The fleet-side problem (see file comment).
class MeanFieldProblem : public FederatedProblem {
 public:
  MeanFieldProblem(int num_clients, int64_t dim, uint64_t seed)
      : num_clients_(num_clients), dim_(dim), master_(seed) {
    // Closed-form optimum of the global objective: t̄ (streamed once).
    mean_target_.assign(static_cast<size_t>(dim), 0.0);
    std::vector<float> target(static_cast<size_t>(dim));
    for (int c = 0; c < num_clients; ++c) {
      FillTarget(c, target);
      for (size_t k = 0; k < target.size(); ++k) {
        mean_target_[k] += target[k];
      }
    }
    for (double& v : mean_target_) v /= num_clients;
  }

  int num_clients() const override { return num_clients_; }
  int64_t dim() const override { return dim_; }
  int num_workers() const override { return 1 << 16; }  // stateless workers

  std::unique_ptr<LocalProblem> MakeLocalProblem(int client,
                                                 int worker) override;

  EvalResult Evaluate(std::span<const float> theta, int worker) override {
    (void)worker;
    double dist_sq = 0.0;
    for (size_t k = 0; k < theta.size(); ++k) {
      const double d = static_cast<double>(theta[k]) - mean_target_[k];
      dist_sq += d * d;
    }
    const double dist = std::sqrt(dist_sq);
    EvalResult result;
    result.accuracy = 1.0 / (1.0 + dist);
    result.loss = 0.5 * dist_sq;
    return result;
  }

  std::vector<float> InitialParameters(Rng* rng) override {
    std::vector<float> theta(static_cast<size_t>(dim_));
    for (auto& v : theta) v = static_cast<float>(rng->Normal(0.0, 1.0));
    return theta;
  }

  /// Re-derives client `c`'s target into `out` (deterministic, O(d)).
  void FillTarget(int client, std::span<float> out) const {
    Rng rng = master_.Fork(0x7A46E7, static_cast<uint64_t>(client));
    for (auto& v : out) v = static_cast<float>(rng.Normal(0.0, kSpread));
  }

 private:
  static constexpr double kSpread = 1.5;

  int num_clients_;
  int64_t dim_;
  Rng master_;
  std::vector<double> mean_target_;
};

/// \brief One client's view: exact gradient, a few pseudo-samples.
class MeanFieldLocalProblem : public LocalProblem {
 public:
  MeanFieldLocalProblem(const MeanFieldProblem* problem, int client)
      : dim_(problem->dim()), target_(static_cast<size_t>(problem->dim())) {
    problem->FillTarget(client, target_);
  }

  int64_t dim() const override { return dim_; }
  int num_samples() const override { return kPseudoSamples; }

  double BatchLossGradient(std::span<const float> w,
                           const std::vector<int>& batch,
                           std::span<float> grad) override {
    (void)batch;
    return FullLossGradient(w, grad);
  }

  std::vector<std::vector<int>> EpochBatches(int batch_size,
                                             Rng* rng) override {
    (void)rng;
    int steps = 1;
    if (batch_size > 0 && batch_size < kPseudoSamples) {
      steps = (kPseudoSamples + batch_size - 1) / batch_size;
    }
    std::vector<std::vector<int>> batches(static_cast<size_t>(steps));
    for (auto& b : batches) b = {0};  // gradient is exact
    return batches;
  }

  double FullLossGradient(std::span<const float> w,
                          std::span<float> grad) override {
    double loss = 0.0;
    for (size_t k = 0; k < target_.size(); ++k) {
      const float diff = w[k] - target_[k];
      grad[k] = diff;
      loss += 0.5 * static_cast<double>(diff) * diff;
    }
    return loss;
  }

 private:
  static constexpr int kPseudoSamples = 4;

  int64_t dim_;
  std::vector<float> target_;
};

inline std::unique_ptr<LocalProblem> MeanFieldProblem::MakeLocalProblem(
    int client, int worker) {
  (void)worker;
  return std::make_unique<MeanFieldLocalProblem>(this, client);
}

}  // namespace fedadmm::bench

#endif  // FEDADMM_BENCH_MEAN_FIELD_PROBLEM_H_
