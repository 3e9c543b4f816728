/// \file kernels_scalar.cc
/// \brief Portable scalar reference implementations of the kernel table.
///
/// This translation unit IS the semantics: the build compiles it with
/// `-ffp-contract=off -fno-tree-vectorize` so the emitted code performs
/// exactly the written sequence of correctly-rounded IEEE operations — no
/// FMA contraction, no compiler re-vectorization — and every other table
/// must match it bitwise (see simd.h for why the AVX2 table does).
///
/// The reductions emulate the canonical lane-striped accumulation order
/// (`kReduceLanes` interleaved double accumulators) rather than a single
/// sequential accumulator; that is the price of letting the AVX2 table
/// vectorize them at all.

#include <cmath>
#include <cstring>

#include "tensor/simd/pack_inline.h"
#include "tensor/simd/simd.h"

namespace fedadmm::simd {
namespace scalar {
namespace {

void Axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Add(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

void AddScaled(const float* x, float alpha, const float* y, float* out,
               size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] + alpha * y[i];
}

void Sub(const float* x, const float* y, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] - y[i];
}

void Scale(float alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

// Combines the canonical stripes in ascending lane order.
double CombineLanes(const double* lane) {
  double acc = 0.0;
  for (size_t j = 0; j < kReduceLanes; ++j) acc += lane[j];
  return acc;
}

double Dot(const float* x, const float* y, size_t n) {
  double lane[kReduceLanes] = {0.0};
  for (size_t i = 0; i < n; ++i) {
    lane[i % kReduceLanes] += static_cast<double>(x[i]) * y[i];
  }
  return CombineLanes(lane);
}

double SquaredL2(const float* x, size_t n) {
  double lane[kReduceLanes] = {0.0};
  for (size_t i = 0; i < n; ++i) {
    lane[i % kReduceLanes] += static_cast<double>(x[i]) * x[i];
  }
  return CombineLanes(lane);
}

double SquaredDistance(const float* x, const float* y, size_t n) {
  double lane[kReduceLanes] = {0.0};
  for (size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - y[i];
    lane[i % kReduceLanes] += d * d;
  }
  return CombineLanes(lane);
}

float MaxAbs(const float* x, size_t n, bool* saw_nan) {
  float m = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a != a) {
      *saw_nan = true;
      continue;
    }
    if (a > m) m = a;
  }
  return m;
}

void GemmAxpyRow(const float* a, const float* b, float* c, int64_t kb,
                 int64_t n, int64_t ldb) {
  for (int64_t p = 0; p < kb; ++p) {
    const float ap = a[p];
    if (ap == 0.0f) continue;
    const float* bp = b + p * ldb;
    for (int64_t j = 0; j < n; ++j) c[j] += ap * bp[j];
  }
}

void QuantizeUniform(const float* v, size_t n, float scale, int levels,
                     uint16_t* codes) {
  if (!(scale > 0.0f)) {
    // Every grid position is the origin: floor(0 + 0.5) == 0.
    // An empty input may come with a null pointer, which memset must not
    // receive even for zero bytes; the same holds below.
    if (n != 0) std::memset(codes, 0, n * sizeof(uint16_t));
    return;
  }
  const double s = static_cast<double>(scale);
  const double l = static_cast<double>(levels);
  for (size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(v[i]) / s;
    const double x = (dx + 1.0) / 2.0 * l;
    uint32_t code = static_cast<uint32_t>(std::floor(x + 0.5));
    if (code > static_cast<uint32_t>(levels)) {
      code = static_cast<uint32_t>(levels);
    }
    codes[i] = static_cast<uint16_t>(code);
  }
}

void DequantizeGrid(const uint16_t* codes, size_t n, float scale, int levels,
                    float* out) {
  if (scale == 0.0f) {
    if (n != 0) std::memset(out, 0, n * sizeof(float));
    return;
  }
  const double s = static_cast<double>(scale);
  const double l = static_cast<double>(levels);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>((2.0 * codes[i] / l - 1.0) * s);
  }
}

void PackCodes(const uint16_t* codes, size_t n, int bits, uint8_t* out) {
  internal::PackCodesGeneric(codes, n, bits, out);
}

void UnpackCodes(const uint8_t* bytes, size_t n, int bits, uint16_t* codes) {
  internal::UnpackCodesGeneric(bytes, n, bits, codes);
}

}  // namespace
}  // namespace scalar

const KernelTable& ScalarKernels() {
  static constexpr KernelTable kTable = {
      scalar::Axpy,          scalar::Add,
      scalar::AddScaled,     scalar::Sub,
      scalar::Scale,         scalar::Dot,
      scalar::SquaredL2,     scalar::SquaredDistance,
      scalar::MaxAbs,        scalar::GemmAxpyRow,
      scalar::QuantizeUniform, scalar::DequantizeGrid,
      scalar::PackCodes,     scalar::UnpackCodes,
  };
  return kTable;
}

}  // namespace fedadmm::simd
