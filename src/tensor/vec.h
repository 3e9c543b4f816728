/// \file vec.h
/// \brief Flat parameter-vector math.
///
/// Every federated algorithm in this library manipulates models as flattened
/// float vectors (the paper's w_i, y_i, θ, Δ_i all live in R^d). These
/// free functions are the hot path of the simulator's server and client
/// bookkeeping: axpy-style updates, norms, and distances.
///
/// All functions CHECK that operand sizes match.
///
/// Every function dispatches through `simd::ActiveKernels()` (see
/// tensor/simd/simd.h): an AVX2+FMA table when the host supports it, the
/// scalar reference otherwise, bitwise identical either way. Reductions
/// (`Dot`, `SquaredL2Norm`, `L2Norm`, `SquaredDistance`) use the canonical
/// lane-striped accumulation order (`simd::kReduceLanes` interleaved double
/// accumulators), not a single running sum.

#ifndef FEDADMM_TENSOR_VEC_H_
#define FEDADMM_TENSOR_VEC_H_

#include <cstddef>
#include <span>
#include <vector>

namespace fedadmm {
class ThreadPool;
}

namespace fedadmm::vec {

/// y += alpha * x
void Axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha
void Scale(float alpha, std::span<float> x);

/// out = x  (sizes must match)
void Copy(std::span<const float> x, std::span<float> out);

/// x = 0
void Zero(std::span<float> x);

/// Sum_i x[i] * y[i]
double Dot(std::span<const float> x, std::span<const float> y);

/// sqrt(Sum_i x[i]^2)
double L2Norm(std::span<const float> x);

/// Sum_i x[i]^2
double SquaredL2Norm(std::span<const float> x);

/// Sum_i (x[i]-y[i])^2
double SquaredDistance(std::span<const float> x, std::span<const float> y);

/// out = x + alpha * y (out may alias x)
void AddScaled(std::span<const float> x, float alpha, std::span<const float> y,
               std::span<float> out);

/// out = x - y (out may alias either)
void Sub(std::span<const float> x, std::span<const float> y,
         std::span<float> out);

/// Elementwise mean of `vectors` (all same length) into `out`.
void Mean(const std::vector<std::span<const float>>& vectors,
          std::span<float> out);

/// Largest |x[i]| over the vector, or quiet NaN if any element is NaN.
/// (A silent max would drop NaN — `max(m, NaN)` keeps `m` — and report a
/// plausible finite magnitude for a poisoned vector.)
float MaxAbs(std::span<const float> x);

/// Fixed reduction block length (floats). Blocked kernels always cut the
/// dimension at multiples of this constant — never at thread-dependent
/// boundaries — so their results are bitwise identical for any pool size.
inline constexpr size_t kReduceBlock = 8192;

/// y += alpha * x for every x in `xs`, fused and blocked: each block of y
/// accumulates all of `xs` in list order before the next block starts on
/// it. Per element the float-op sequence equals `for x: Axpy(alpha, x, y)`,
/// so the result is bitwise identical to that loop — and to itself across
/// thread counts (fixed block boundaries, disjoint writes). `pool` may be
/// nullptr (serial); blocks are distributed across the pool otherwise.
/// This is the server-aggregation hot path: one pass over y instead of
/// |xs| passes.
void AxpyMany(float alpha, const std::vector<std::span<const float>>& xs,
              std::span<float> y, ThreadPool* pool = nullptr);

/// Elementwise mean of `xs` (all same length) into `out`, blocked and
/// optionally pool-parallel. Bitwise identical to `Mean` (zero, add in
/// list order, scale) for any thread count.
void BlockedMean(const std::vector<std::span<const float>>& xs,
                 std::span<float> out, ThreadPool* pool = nullptr);

}  // namespace fedadmm::vec

#endif  // FEDADMM_TENSOR_VEC_H_
