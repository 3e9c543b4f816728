#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>
#include <random>
#include <sstream>

// libstdc++ checks its distributions' parameters only under
// _GLIBCXX_ASSERTIONS. The in-house samplers make the same checks in the
// same builds, so a Release draw aborts nowhere libstdc++'s would not.
#if defined(_GLIBCXX_ASSERTIONS)
#define FEDADMM_RNG_CHECK_PARAM(expr, msg) FEDADMM_CHECK_MSG(expr, msg)
#else
#define FEDADMM_RNG_CHECK_PARAM(expr, msg) static_cast<void>(0)
#endif

namespace fedadmm {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double CanonicalDouble(uint64_t word) {
  // libstdc++ computes double(word) / 2⁶⁴. The sum of the word's exact
  // 32-bit halves rounds once, to the value GCC's conversion gives, without
  // that conversion's branch on the top bit; the scaling is exact.
  const double high =
      static_cast<double>(static_cast<uint32_t>(word >> 32)) * 0x1p32;
  const double low = static_cast<double>(static_cast<uint32_t>(word));
  const double u = (high + low) * 0x1p-64;
  // Words from 2⁶⁴ − 1024 up round to 2⁶⁴.
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;  // nextafter(1, 0)
  return u < 1.0 ? u : kBelowOne;
}

Mt19937_64::Mt19937_64(result_type seed) {
  x_[0] = seed;
  for (size_t i = 1; i < kStateSize; ++i) {
    const result_type prev = x_[i - 1];
    x_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  constexpr size_t kShift = 156;                          // m
  constexpr result_type kUpper = ~result_type{0} << 31;   // upper w − r bits
  constexpr result_type kMatrix = 0xb5026f5aa96619e9ULL;  // a
  // y's low bit selects the matrix through a mask, never a branch. The same
  // expression twists one word or a vector of two.
  const auto twisted = [](auto upper, auto lower) {
    const auto y = (upper & kUpper) | (lower & ~kUpper);
    return (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  // x[k] and x[k+1] together, in a 16-byte vector: SSE2 on x86-64, NEON on
  // AArch64. Word k+1 reads x[k+2] before the next step overwrites it.
  typedef result_type Pair __attribute__((vector_size(16)));
  const auto load = [](const result_type* p) {
    Pair v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  };
  result_type* x = x_.data();
  size_t k = 0;
  for (; k < kStateSize - kShift; k += 2) {
    const Pair out =
        load(x + k + kShift) ^ twisted(load(x + k), load(x + k + 1));
    std::memcpy(x + k, &out, sizeof(out));
  }
  for (; k < kStateSize - 2; k += 2) {
    const Pair out =
        load(x + k - kShift) ^ twisted(load(x + k), load(x + k + 1));
    std::memcpy(x + k, &out, sizeof(out));
  }
  // The last two words: the second reads the new x[0].
  x[k] = x[k - kShift] ^ twisted(x[k], x[k + 1]);
  x[k + 1] = x[k + 1 - kShift] ^ twisted(x[k + 1], x[0]);
  pos_ = 0;
}

std::ostream& operator<<(std::ostream& os, const Mt19937_64& e) {
  const std::ios_base::fmtflags flags = os.flags();
  const char fill = os.fill();
  os.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
  os.fill(' ');
  for (const Mt19937_64::result_type word : e.x_) os << word << ' ';
  os << e.pos_;
  os.flags(flags);
  os.fill(fill);
  return os;
}

std::istream& operator>>(std::istream& is, Mt19937_64& e) {
  const std::ios_base::fmtflags flags = is.flags();
  is.flags(std::ios_base::dec | std::ios_base::skipws);
  for (Mt19937_64::result_type& word : e.x_) is >> word;
  is >> e.pos_;
  is.flags(flags);
  return is;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  FEDADMM_CHECK_MSG(lo <= hi, "UniformInt requires lo <= hi");
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

// The double samplers below are libstdc++'s, operation for operation, on
// CanonicalDouble.

double Rng::Uniform(double lo, double hi) {
  FEDADMM_RNG_CHECK_PARAM(lo <= hi, "Uniform requires lo <= hi");
  return CanonicalDouble(engine_()) * (hi - lo) + lo;
}

double Rng::Normal(double mean, double stddev) {
  FEDADMM_RNG_CHECK_PARAM(stddev > 0.0, "Normal requires stddev > 0");
  // Marsaglia's polar method. A fresh std::normal_distribution keeps x·mult
  // for a next call that never comes, so it is not computed.
  double x, y, r2;
  do {
    x = 2.0 * CanonicalDouble(engine_()) - 1.0;
    y = 2.0 * CanonicalDouble(engine_()) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
  return y * mult * stddev + mean;
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  FEDADMM_RNG_CHECK_PARAM(p >= 0.0 && p <= 1.0,
                          "Bernoulli requires p in [0, 1]");
  return CanonicalDouble(engine_()) < p;
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
  // so all are drawn first, in one loop, and the swaps' cache misses
  // overlap. Each is the draw UniformInt(i, n − 1) would make.
  std::vector<int> out(k);
  std::uniform_int_distribution<int64_t> target;
  using Range = std::uniform_int_distribution<int64_t>::param_type;
  for (int i = 0; i < k; ++i) {
    out[i] = static_cast<int>(target(engine_, Range(i, n - 1)));
  }
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
  // The engine's text (std::mt19937_64's) is exact: reading it back
  // restores the identical draw position.
  std::ostringstream oss;
  oss << seed_material_ << ' ' << engine_;
  return oss.str();
}

Status Rng::RestoreState(const std::string& blob) {
  std::istringstream iss(blob);
  uint64_t seed_material = 0;
  Mt19937_64 engine;
  iss >> seed_material >> engine;
  if (iss.fail()) {
    return Status::InvalidArgument("Rng::RestoreState: malformed state blob");
  }
  seed_material_ = seed_material;
  engine_ = engine;
  return Status::OK();
}

}  // namespace fedadmm
