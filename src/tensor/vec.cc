#include "tensor/vec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/simd.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fedadmm::vec {
namespace {

obs::Histogram* AxpyManyHist() {
  static obs::Histogram* hist =
      obs::MetricsRegistry::Global().histogram("vec/axpy_many_seconds");
  return hist;
}

/// Runs `body(begin, end)` over [0, n) in kReduceBlock-sized blocks,
/// serially or across `pool`. Boundaries depend only on n.
template <typename Body>
void ForEachBlock(size_t n, ThreadPool* pool, const Body& body) {
  if (n == 0) return;
  const size_t num_blocks = (n + kReduceBlock - 1) / kReduceBlock;
  if (pool == nullptr || pool->num_threads() <= 1 || num_blocks <= 1) {
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t begin = b * kReduceBlock;
      body(begin, std::min(begin + kReduceBlock, n));
    }
    return;
  }
  pool->ParallelFor(static_cast<int>(num_blocks), [&](int b, int worker) {
    (void)worker;
    const size_t begin = static_cast<size_t>(b) * kReduceBlock;
    body(begin, std::min(begin + kReduceBlock, n));
  });
}

}  // namespace

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  FEDADMM_CHECK(x.size() == y.size());
  simd::ActiveKernels().axpy(alpha, x.data(), y.data(), x.size());
}

void Scale(float alpha, std::span<float> x) {
  simd::ActiveKernels().scale(alpha, x.data(), x.size());
}

void Copy(std::span<const float> x, std::span<float> out) {
  FEDADMM_CHECK(x.size() == out.size());
  if (!x.empty()) std::memcpy(out.data(), x.data(), x.size() * sizeof(float));
}

void Zero(std::span<float> x) {
  if (!x.empty()) std::memset(x.data(), 0, x.size() * sizeof(float));
}

double Dot(std::span<const float> x, std::span<const float> y) {
  FEDADMM_CHECK(x.size() == y.size());
  return simd::ActiveKernels().dot(x.data(), y.data(), x.size());
}

double SquaredL2Norm(std::span<const float> x) {
  return simd::ActiveKernels().squared_l2(x.data(), x.size());
}

double L2Norm(std::span<const float> x) { return std::sqrt(SquaredL2Norm(x)); }

double SquaredDistance(std::span<const float> x, std::span<const float> y) {
  FEDADMM_CHECK(x.size() == y.size());
  return simd::ActiveKernels().squared_distance(x.data(), y.data(), x.size());
}

void AddScaled(std::span<const float> x, float alpha, std::span<const float> y,
               std::span<float> out) {
  FEDADMM_CHECK(x.size() == y.size() && x.size() == out.size());
  simd::ActiveKernels().add_scaled(x.data(), alpha, y.data(), out.data(),
                                   x.size());
}

void Sub(std::span<const float> x, std::span<const float> y,
         std::span<float> out) {
  FEDADMM_CHECK(x.size() == y.size() && x.size() == out.size());
  simd::ActiveKernels().sub(x.data(), y.data(), out.data(), x.size());
}

void Mean(const std::vector<std::span<const float>>& vectors,
          std::span<float> out) {
  // Per element this is zero → add in list order → scale, exactly the
  // blocked kernel's op sequence, so delegating is bitwise free.
  BlockedMean(vectors, out, /*pool=*/nullptr);
}

float MaxAbs(std::span<const float> x) {
  bool saw_nan = false;
  const float m = simd::ActiveKernels().max_abs(x.data(), x.size(), &saw_nan);
  // NaN propagates instead of being silently dropped by the max: a caller
  // sizing a quantizer grid (or any bound) from a poisoned vector must see
  // the poison, not a plausible finite magnitude.
  if (saw_nan) return std::numeric_limits<float>::quiet_NaN();
  return m;
}

void AxpyMany(float alpha, const std::vector<std::span<const float>>& xs,
              std::span<float> y, ThreadPool* pool) {
  for (const auto& x : xs) FEDADMM_CHECK(x.size() == y.size());
  if (xs.empty()) return;
  obs::TraceScope scope("axpy_many", "vec", AxpyManyHist());
  scope.set_arg("vectors", static_cast<int64_t>(xs.size()));
  const simd::KernelTable& k = simd::ActiveKernels();
  ForEachBlock(y.size(), pool, [&](size_t begin, size_t end) {
    float* yb = y.data() + begin;
    const size_t len = end - begin;
    for (const auto& x : xs) k.axpy(alpha, x.data() + begin, yb, len);
  });
}

void BlockedMean(const std::vector<std::span<const float>>& xs,
                 std::span<float> out, ThreadPool* pool) {
  FEDADMM_CHECK_MSG(!xs.empty(), "vec::BlockedMean of zero vectors");
  for (const auto& x : xs) FEDADMM_CHECK(x.size() == out.size());
  const float inv = 1.0f / static_cast<float>(xs.size());
  const simd::KernelTable& k = simd::ActiveKernels();
  ForEachBlock(out.size(), pool, [&](size_t begin, size_t end) {
    const size_t len = end - begin;
    float* ob = out.data() + begin;
    std::memset(ob, 0, len * sizeof(float));
    for (const auto& x : xs) k.add(x.data() + begin, ob, len);
    k.scale(inv, ob, len);
  });
}

}  // namespace fedadmm::vec
