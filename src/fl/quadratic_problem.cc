#include "fl/quadratic_problem.h"

#include <cmath>

namespace fedadmm {
namespace {

/// LocalProblem over one quadratic client. Batches are pseudo-batches: the
/// gradient is always the exact client gradient, and each epoch takes
/// `pseudo_samples / batch` steps so epoch counts behave like SGD epochs.
class QuadraticLocalProblem : public LocalProblem {
 public:
  QuadraticLocalProblem(const QuadraticProblem* problem, int client,
                        int pseudo_samples)
      : problem_(problem), client_(client), pseudo_samples_(pseudo_samples) {}

  int64_t dim() const override { return problem_->dim(); }
  int num_samples() const override { return pseudo_samples_; }

  double BatchLossGradient(std::span<const float> w,
                           const std::vector<int>& batch,
                           std::span<float> grad) override {
    (void)batch;
    problem_->ClientGradient(client_, w, grad);
    return problem_->ClientObjective(client_, w);
  }

  std::vector<std::vector<int>> EpochBatches(int batch_size,
                                             Rng* rng) override {
    (void)rng;
    int steps = 1;
    if (batch_size > 0 && batch_size < pseudo_samples_) {
      steps = (pseudo_samples_ + batch_size - 1) / batch_size;
    }
    std::vector<std::vector<int>> batches(
        static_cast<size_t>(steps));
    for (auto& b : batches) b = {0};  // placeholder index; gradient is exact
    return batches;
  }

  double FullLossGradient(std::span<const float> w,
                          std::span<float> grad) override {
    problem_->ClientGradient(client_, w, grad);
    return problem_->ClientObjective(client_, w);
  }

 private:
  const QuadraticProblem* problem_;
  int client_;
  int pseudo_samples_;
};

}  // namespace

Result<std::vector<double>> SolveDense(std::vector<double> m, int n,
                                       std::vector<double> rhs) {
  FEDADMM_CHECK(static_cast<int>(m.size()) == n * n &&
                static_cast<int>(rhs.size()) == n);
  for (int col = 0; col < n; ++col) {
    // Partial pivoting.
    int pivot = col;
    for (int r = col + 1; r < n; ++r) {
      if (std::fabs(m[static_cast<size_t>(r * n + col)]) >
          std::fabs(m[static_cast<size_t>(pivot * n + col)])) {
        pivot = r;
      }
    }
    if (std::fabs(m[static_cast<size_t>(pivot * n + col)]) < 1e-12) {
      return Status::InvalidArgument("SolveDense: singular matrix");
    }
    if (pivot != col) {
      for (int c = 0; c < n; ++c) {
        std::swap(m[static_cast<size_t>(col * n + c)],
                  m[static_cast<size_t>(pivot * n + c)]);
      }
      std::swap(rhs[static_cast<size_t>(col)],
                rhs[static_cast<size_t>(pivot)]);
    }
    const double diag = m[static_cast<size_t>(col * n + col)];
    for (int r = col + 1; r < n; ++r) {
      const double factor = m[static_cast<size_t>(r * n + col)] / diag;
      if (factor == 0.0) continue;
      for (int c = col; c < n; ++c) {
        m[static_cast<size_t>(r * n + c)] -=
            factor * m[static_cast<size_t>(col * n + c)];
      }
      rhs[static_cast<size_t>(r)] -= factor * rhs[static_cast<size_t>(col)];
    }
  }
  // Back substitution.
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  for (int r = n - 1; r >= 0; --r) {
    double acc = rhs[static_cast<size_t>(r)];
    for (int c = r + 1; c < n; ++c) {
      acc -= m[static_cast<size_t>(r * n + c)] * x[static_cast<size_t>(c)];
    }
    x[static_cast<size_t>(r)] = acc / m[static_cast<size_t>(r * n + r)];
  }
  return x;
}

QuadraticProblem::QuadraticProblem(const QuadraticSpec& spec) : spec_(spec) {
  FEDADMM_CHECK_MSG(spec.num_clients > 0 && spec.dim > 0,
                    "QuadraticSpec: invalid sizes");
  const int n = spec.dim;
  Rng master(spec.seed);
  a_.resize(static_cast<size_t>(spec.num_clients));
  b_.resize(static_cast<size_t>(spec.num_clients));

  std::vector<double> a_sum(static_cast<size_t>(n * n), 0.0);
  std::vector<double> b_sum(static_cast<size_t>(n), 0.0);

  for (int i = 0; i < spec.num_clients; ++i) {
    Rng rng = master.Fork(0xABCD, static_cast<uint64_t>(i));
    // A_i = Q Qᵀ / dim + c_i I with Q random: SPD with controlled floor.
    std::vector<double> q(static_cast<size_t>(n * n));
    for (auto& v : q) v = rng.Normal(0.0, 1.0);
    auto& a = a_[static_cast<size_t>(i)];
    a.assign(static_cast<size_t>(n * n), 0.0);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c <= r; ++c) {
        double acc = 0.0;
        for (int k = 0; k < n; ++k) {
          acc += q[static_cast<size_t>(r * n + k)] *
                 q[static_cast<size_t>(c * n + k)];
        }
        acc *= spec.curvature_spread / n;
        a[static_cast<size_t>(r * n + c)] = acc;
        a[static_cast<size_t>(c * n + r)] = acc;
      }
    }
    for (int r = 0; r < n; ++r) {
      a[static_cast<size_t>(r * n + r)] += spec.min_curvature;
    }
    // b_i = A_i x_i* with x_i* dispersed by `heterogeneity`. At zero
    // heterogeneity x_i* stays +0.0, what N(0, 0) drew, without building
    // that invalid distribution; nothing draws from `rng` after this.
    std::vector<double> local_opt(static_cast<size_t>(n));
    if (spec.heterogeneity != 0.0) {
      for (auto& v : local_opt) v = rng.Normal(0.0, spec.heterogeneity);
    }
    auto& b = b_[static_cast<size_t>(i)];
    b.assign(static_cast<size_t>(n), 0.0);
    for (int r = 0; r < n; ++r) {
      double acc = 0.0;
      for (int c = 0; c < n; ++c) {
        acc += a[static_cast<size_t>(r * n + c)] *
               local_opt[static_cast<size_t>(c)];
      }
      b[static_cast<size_t>(r)] = acc;
    }
    for (int k = 0; k < n * n; ++k) a_sum[static_cast<size_t>(k)] += a[static_cast<size_t>(k)];
    for (int k = 0; k < n; ++k) b_sum[static_cast<size_t>(k)] += b[static_cast<size_t>(k)];

    // Gershgorin bound on the spectral radius of A_i.
    double bound = 0.0;
    for (int r = 0; r < n; ++r) {
      double row = 0.0;
      for (int c = 0; c < n; ++c) {
        row += std::fabs(a[static_cast<size_t>(r * n + c)]);
      }
      bound = std::max(bound, row);
    }
    lipschitz_bound_ = std::max(lipschitz_bound_, bound);
  }

  optimum_ = std::move(SolveDense(std::move(a_sum), n, std::move(b_sum)))
                 .ValueOrDie();
}

std::unique_ptr<LocalProblem> QuadraticProblem::MakeLocalProblem(int client,
                                                                 int worker) {
  (void)worker;
  FEDADMM_CHECK(client >= 0 && client < spec_.num_clients);
  return std::make_unique<QuadraticLocalProblem>(this, client,
                                                 spec_.pseudo_samples);
}

double QuadraticProblem::ClientObjective(int client,
                                         std::span<const float> w) const {
  const int n = spec_.dim;
  const auto& a = a_[static_cast<size_t>(client)];
  const auto& b = b_[static_cast<size_t>(client)];
  double quad = 0.0, lin = 0.0;
  for (int r = 0; r < n; ++r) {
    double aw = 0.0;
    for (int c = 0; c < n; ++c) {
      aw += a[static_cast<size_t>(r * n + c)] * w[static_cast<size_t>(c)];
    }
    quad += w[static_cast<size_t>(r)] * aw;
    lin += b[static_cast<size_t>(r)] * w[static_cast<size_t>(r)];
  }
  return 0.5 * quad - lin;
}

void QuadraticProblem::ClientGradient(int client, std::span<const float> w,
                                      std::span<float> grad) const {
  const int n = spec_.dim;
  FEDADMM_CHECK(static_cast<int>(grad.size()) == n);
  const auto& a = a_[static_cast<size_t>(client)];
  const auto& b = b_[static_cast<size_t>(client)];
  for (int r = 0; r < n; ++r) {
    double acc = 0.0;
    for (int c = 0; c < n; ++c) {
      acc += a[static_cast<size_t>(r * n + c)] * w[static_cast<size_t>(c)];
    }
    grad[static_cast<size_t>(r)] =
        static_cast<float>(acc - b[static_cast<size_t>(r)]);
  }
}

double QuadraticProblem::GlobalObjective(std::span<const float> w) const {
  double acc = 0.0;
  for (int i = 0; i < spec_.num_clients; ++i) acc += ClientObjective(i, w);
  return acc / spec_.num_clients;
}

double QuadraticProblem::DistanceToOptimum(std::span<const float> w) const {
  double acc = 0.0;
  for (int i = 0; i < spec_.dim; ++i) {
    const double d = static_cast<double>(w[static_cast<size_t>(i)]) -
                     optimum_[static_cast<size_t>(i)];
    acc += d * d;
  }
  return std::sqrt(acc);
}

EvalResult QuadraticProblem::Evaluate(std::span<const float> theta,
                                      int worker) {
  (void)worker;
  EvalResult result;
  result.loss = GlobalObjective(theta);
  result.accuracy = 1.0 / (1.0 + DistanceToOptimum(theta));
  return result;
}

std::vector<float> QuadraticProblem::InitialParameters(Rng* rng) {
  std::vector<float> theta(static_cast<size_t>(spec_.dim));
  for (auto& v : theta) v = static_cast<float>(rng->Normal(0.0, 1.0));
  return theta;
}

}  // namespace fedadmm
