#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace fedadmm {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  FEDADMM_CHECK_MSG(lo <= hi, "UniformInt requires lo <= hi");
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

Result<std::vector<int>> Rng::SampleWithoutReplacement(int n, int k) {
  if (n < 0 || k < 0) {
    return Status::InvalidArgument("SampleWithoutReplacement: negative size");
  }
  if (k > n) {
    return Status::InvalidArgument(
        "SampleWithoutReplacement: k exceeds population size");
  }
  // Partial Fisher–Yates on a per-thread identity array kept across calls,
  // so a draw costs O(k) rather than the O(n) of building the array. Every
  // call swaps its entries back, so the array is the identity again when it
  // returns.
  thread_local std::vector<int> pool;
  if (pool.size() < static_cast<size_t>(n)) {
    const int old_size = static_cast<int>(pool.size());
    pool.resize(n);
    std::iota(pool.begin() + old_size, pool.end(), old_size);
  }
  // out[i] holds swap target j_i until the undo pass replaces it with pick
  // i. Later swaps touch only positions > i, so pool[i] still holds pick i
  // when the undo pass reaches it. The targets do not depend on the array,
  // so all are drawn first and the swaps' cache misses overlap.
  std::vector<int> out(k);
  for (int i = 0; i < k; ++i) out[i] = static_cast<int>(UniformInt(i, n - 1));
  for (int i = 0; i < k; ++i) std::swap(pool[i], pool[out[i]]);
  for (int i = k - 1; i >= 0; --i) {
    const int j = out[i];
    out[i] = pool[i];
    std::swap(pool[i], pool[j]);
  }
  return out;
}

std::vector<double> Rng::Dirichlet(int k, double alpha) {
  FEDADMM_CHECK_MSG(k > 0 && alpha > 0.0, "Dirichlet requires k>0, alpha>0");
  std::gamma_distribution<double> gamma(alpha, 1.0);
  std::vector<double> out(k);
  double sum = 0.0;
  for (int i = 0; i < k; ++i) {
    out[i] = gamma(engine_);
    sum += out[i];
  }
  if (sum <= 0.0) {
    // Degenerate draw (possible for tiny alpha); fall back to uniform.
    std::fill(out.begin(), out.end(), 1.0 / k);
    return out;
  }
  for (double& v : out) v /= sum;
  return out;
}

std::string Rng::SerializeState() const {
  // mt19937_64's textual stream state is exact: reading it back restores
  // the engine to the identical draw position.
  std::ostringstream oss;
  oss << seed_material_ << ' ' << engine_;
  return oss.str();
}

Status Rng::RestoreState(const std::string& blob) {
  std::istringstream iss(blob);
  uint64_t seed_material = 0;
  std::mt19937_64 engine;
  iss >> seed_material >> engine;
  if (iss.fail()) {
    return Status::InvalidArgument("Rng::RestoreState: malformed state blob");
  }
  seed_material_ = seed_material;
  engine_ = engine;
  return Status::OK();
}

}  // namespace fedadmm
