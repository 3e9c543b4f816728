/// \file mean_field_problem.h
/// \brief The benchmark's own copy of the ½‖w − t_i‖² fleet problem.
///
/// Kept here, not shared with bench/mean_field_problem.h, so that no change
/// elsewhere in the repository can alter a workload's inputs. Client i's
/// target t_i ~ N(0, spread²)^d is forked from the workload seed and
/// recomputed on demand, so the problem stores only O(d) state at any
/// population size.
///
/// Two deliberate differences from the rail benches' copy, both so that
/// `test_loss` is steady across seeds and can carry a tight bound:
///   * `Evaluate` reports the federated objective F(θ) = (1/m) Σ_i
///     ½‖θ − t_i‖² = ½‖θ − t̄‖² + F*, the loss a client drawn from the
///     fleet sees, rather than the excess ½‖θ − t̄‖² alone. Near
///     convergence the excess is a χ²_d-shaped noise floor whose size
///     swings by tens of percent between seeds.
///   * θ⁰ has a fixed norm (see `InitialParameters`).

#ifndef PERFBENCH_MEAN_FIELD_PROBLEM_H_
#define PERFBENCH_MEAN_FIELD_PROBLEM_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fl/problem.h"
#include "util/rng.h"

namespace perfbench {

/// \brief The fleet-side problem (see file comment).
class MeanFieldProblem : public fedadmm::FederatedProblem {
 public:
  MeanFieldProblem(int num_clients, int64_t dim, uint64_t seed)
      : num_clients_(num_clients), dim_(dim), master_(seed) {
    // Streamed once: t̄ (the optimum) and F* = mean_i ½‖t_i − t̄‖².
    mean_target_.assign(static_cast<size_t>(dim), 0.0);
    std::vector<float> target(static_cast<size_t>(dim));
    double sum_sq = 0.0;
    for (int c = 0; c < num_clients; ++c) {
      FillTarget(c, target);
      for (size_t k = 0; k < target.size(); ++k) {
        mean_target_[k] += target[k];
        sum_sq += static_cast<double>(target[k]) * target[k];
      }
    }
    double mean_sq = 0.0;
    for (double& v : mean_target_) {
      v /= num_clients;
      mean_sq += v * v;
    }
    optimum_loss_ = 0.5 * (sum_sq / num_clients - mean_sq);
  }

  int num_clients() const override { return num_clients_; }
  int64_t dim() const override { return dim_; }
  int num_workers() const override { return 1 << 16; }  // stateless workers

  std::unique_ptr<fedadmm::LocalProblem> MakeLocalProblem(
      int client, int worker) override;

  fedadmm::EvalResult Evaluate(std::span<const float> theta,
                               int worker) override {
    (void)worker;
    double dist_sq = 0.0;
    for (size_t k = 0; k < theta.size(); ++k) {
      const double d = static_cast<double>(theta[k]) - mean_target_[k];
      dist_sq += d * d;
    }
    fedadmm::EvalResult result;
    result.accuracy = 1.0 / (1.0 + std::sqrt(dist_sq));
    result.loss = 0.5 * dist_sq + optimum_loss_;
    return result;
  }

  /// θ⁰ is uniform on the sphere of radius √d: the direction is random, the
  /// initial distance to the optimum is not, so `test_loss` does not carry
  /// the χ²_d spread of ‖θ⁰‖² from seed to seed.
  std::vector<float> InitialParameters(fedadmm::Rng* rng) override {
    std::vector<double> g(static_cast<size_t>(dim_));
    double norm_sq = 0.0;
    for (double& v : g) {
      v = rng->Normal(0.0, 1.0);
      norm_sq += v * v;
    }
    const double scale = std::sqrt(static_cast<double>(dim_) / norm_sq);
    std::vector<float> theta(g.size());
    for (size_t k = 0; k < g.size(); ++k) {
      theta[k] = static_cast<float>(g[k] * scale);
    }
    return theta;
  }

  /// Re-derives client `c`'s target into `out` (deterministic, O(d)).
  void FillTarget(int client, std::span<float> out) const {
    fedadmm::Rng rng = master_.Fork(0x7A46E7, static_cast<uint64_t>(client));
    for (auto& v : out) v = static_cast<float>(rng.Normal(0.0, kSpread));
  }

 private:
  static constexpr double kSpread = 1.5;

  int num_clients_;
  int64_t dim_;
  fedadmm::Rng master_;
  std::vector<double> mean_target_;
  double optimum_loss_ = 0.0;
};

/// \brief One client's view: exact gradient, a few pseudo-samples.
class MeanFieldLocalProblem : public fedadmm::LocalProblem {
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
                                             fedadmm::Rng* rng) override {
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

inline std::unique_ptr<fedadmm::LocalProblem>
MeanFieldProblem::MakeLocalProblem(int client, int worker) {
  (void)worker;
  return std::make_unique<MeanFieldLocalProblem>(this, client);
}

}  // namespace perfbench

#endif  // PERFBENCH_MEAN_FIELD_PROBLEM_H_
