/// \file kernels_avx2.cc
/// \brief AVX2 + FMA implementations of the kernel table.
///
/// Compiled with `-mavx2 -mfma -ffp-contract=off` (per-file, so the rest
/// of the tree keeps the baseline ISA) and selected by dispatch.cc only
/// when the host CPU reports both feature bits.
///
/// Every kernel is bitwise identical to the scalar reference
/// (kernels_scalar.cc) — the mechanisms, per kernel class:
///
///  * Elementwise float kernels use separate `_mm256_mul_ps` +
///    `_mm256_add_ps` (never `fmadd_ps`): each lane performs the same two
///    correctly-rounded operations as the scalar expression.
///  * `dot` / `squared_l2` accumulate with `_mm256_fmadd_pd`, which IS
///    bitwise equal to the scalar multiply-then-add here because the
///    product of two floats is exact in double (24+24 < 53 mantissa
///    bits) — the fused rounding has nothing to fuse. `squared_distance`
///    squares an already-rounded double, so it uses mul + add like the
///    scalar code.
///  * Reductions follow the canonical `kReduceLanes`-striped order; the
///    vector tail spills the accumulator registers and finishes in scalar
///    code over the same stripes.
///  * All loads/stores are unaligned (`loadu`/`storeu`); callers get the
///    64-byte-aligned fast case from the allocators, not from a contract.

#include <cmath>
#include <cstring>
#include <immintrin.h>

#include "tensor/simd/pack_inline.h"
#include "tensor/simd/simd.h"

namespace fedadmm::simd {
namespace avx2 {
namespace {

void Axpy(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Add(const float* x, float* y, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, vx));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void AddScaled(const float* x, float alpha, const float* y, float* out,
               size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(out + i, _mm256_add_ps(vx, _mm256_mul_ps(va, vy)));
  }
  for (; i < n; ++i) out[i] = x[i] + alpha * y[i];
}

void Sub(const float* x, const float* y, float* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(out + i, _mm256_sub_ps(vx, vy));
  }
  for (; i < n; ++i) out[i] = x[i] - y[i];
}

void Scale(float alpha, float* x, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

/// Spills the two 4-double accumulators into the canonical stripe array:
/// `lo` holds lanes 0..3, `hi` lanes 4..7.
void SpillLanes(__m256d lo, __m256d hi, double* lane) {
  _mm256_storeu_pd(lane, lo);
  _mm256_storeu_pd(lane + 4, hi);
}

double CombineLanes(const double* lane) {
  double acc = 0.0;
  for (size_t j = 0; j < kReduceLanes; ++j) acc += lane[j];
  return acc;
}

double Dot(const float* x, const float* y, size_t n) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128 xf0 = _mm_loadu_ps(x + i);
    const __m128 xf1 = _mm_loadu_ps(x + i + 4);
    const __m128 yf0 = _mm_loadu_ps(y + i);
    const __m128 yf1 = _mm_loadu_ps(y + i + 4);
    lo = _mm256_fmadd_pd(_mm256_cvtps_pd(xf0), _mm256_cvtps_pd(yf0), lo);
    hi = _mm256_fmadd_pd(_mm256_cvtps_pd(xf1), _mm256_cvtps_pd(yf1), hi);
  }
  double lane[kReduceLanes];
  SpillLanes(lo, hi, lane);
  for (; i < n; ++i) {
    lane[i % kReduceLanes] += static_cast<double>(x[i]) * y[i];
  }
  return CombineLanes(lane);
}

double SquaredL2(const float* x, size_t n) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d x0 = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d x1 = _mm256_cvtps_pd(_mm_loadu_ps(x + i + 4));
    lo = _mm256_fmadd_pd(x0, x0, lo);
    hi = _mm256_fmadd_pd(x1, x1, hi);
  }
  double lane[kReduceLanes];
  SpillLanes(lo, hi, lane);
  for (; i < n; ++i) {
    lane[i % kReduceLanes] += static_cast<double>(x[i]) * x[i];
  }
  return CombineLanes(lane);
}

double SquaredDistance(const float* x, const float* y, size_t n) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(x + i)),
                                     _mm256_cvtps_pd(_mm_loadu_ps(y + i)));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(x + i + 4)),
                      _mm256_cvtps_pd(_mm_loadu_ps(y + i + 4)));
    // mul + add, not fmadd: d is a rounded double, d*d is inexact, and the
    // scalar reference rounds the product before accumulating.
    lo = _mm256_add_pd(lo, _mm256_mul_pd(d0, d0));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(d1, d1));
  }
  double lane[kReduceLanes];
  SpillLanes(lo, hi, lane);
  for (; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - y[i];
    lane[i % kReduceLanes] += d * d;
  }
  return CombineLanes(lane);
}

float MaxAbs(const float* x, size_t n, bool* saw_nan) {
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 vmax = _mm256_setzero_ps();
  __m256 vnan = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 ord = _mm256_cmp_ps(v, v, _CMP_ORD_Q);
    vnan = _mm256_or_ps(vnan, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    // NaN lanes become +0.0 so they cannot poison the max (magnitudes are
    // all >= 0); max is order-independent over the remaining values.
    const __m256 a =
        _mm256_and_ps(_mm256_and_ps(v, abs_mask), ord);
    vmax = _mm256_max_ps(vmax, a);
  }
  if (_mm256_movemask_ps(vnan) != 0) *saw_nan = true;
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float m = 0.0f;
  for (float l : lanes) {
    if (l > m) m = l;
  }
  for (; i < n; ++i) {
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
  int64_t j = 0;
  // 32-wide tiles: the c tile lives in four ymm registers across the whole
  // k-block, so each c element is loaded and stored once per block instead
  // of once per p — same mul+add chain per element, far less traffic.
  for (; j + 32 <= n; j += 32) {
    float* cj = c + j;
    __m256 c0 = _mm256_loadu_ps(cj);
    __m256 c1 = _mm256_loadu_ps(cj + 8);
    __m256 c2 = _mm256_loadu_ps(cj + 16);
    __m256 c3 = _mm256_loadu_ps(cj + 24);
    for (int64_t p = 0; p < kb; ++p) {
      const float ap = a[p];
      if (ap == 0.0f) continue;
      const __m256 va = _mm256_set1_ps(ap);
      const float* bp = b + p * ldb + j;
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 8)));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 16)));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 24)));
    }
    _mm256_storeu_ps(cj, c0);
    _mm256_storeu_ps(cj + 8, c1);
    _mm256_storeu_ps(cj + 16, c2);
    _mm256_storeu_ps(cj + 24, c3);
  }
  for (; j + 8 <= n; j += 8) {
    float* cj = c + j;
    __m256 c0 = _mm256_loadu_ps(cj);
    for (int64_t p = 0; p < kb; ++p) {
      const float ap = a[p];
      if (ap == 0.0f) continue;
      const __m256 va = _mm256_set1_ps(ap);
      c0 = _mm256_add_ps(
          c0, _mm256_mul_ps(va, _mm256_loadu_ps(b + p * ldb + j)));
    }
    _mm256_storeu_ps(cj, c0);
  }
  for (; j < n; ++j) {
    float cj = c[j];
    for (int64_t p = 0; p < kb; ++p) {
      const float ap = a[p];
      if (ap == 0.0f) continue;
      cj += ap * b[p * ldb + j];
    }
    c[j] = cj;
  }
}

void QuantizeUniform(const float* v, size_t n, float scale, int levels,
                     uint16_t* codes) {
  if (!(scale > 0.0f)) {
    // Empty inputs may come with null pointers, which memset/memcpy must
    // not receive even for zero bytes; the same holds below.
    if (n != 0) std::memset(codes, 0, n * sizeof(uint16_t));
    return;
  }
  const double s = static_cast<double>(scale);
  const double l = static_cast<double>(levels);
  const __m256d vs = _mm256_set1_pd(s);
  const __m256d vl = _mm256_set1_pd(l);
  const __m256d vone = _mm256_set1_pd(1.0);
  // Division by the exact power of two 2.0 and multiplication by 0.5 are
  // the same correctly-rounded scaling; the scalar reference divides.
  const __m256d vhalf = _mm256_set1_pd(0.5);
  const __m128i vlev = _mm_set1_epi32(levels);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xd = _mm256_cvtps_pd(_mm_loadu_ps(v + i));
    const __m256d dx = _mm256_div_pd(xd, vs);
    const __m256d x = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_add_pd(dx, vone), vhalf), vl);
    const __m256d r = _mm256_floor_pd(_mm256_add_pd(x, vhalf));
    __m128i code = _mm256_cvttpd_epi32(r);
    code = _mm_min_epi32(code, vlev);
    const __m128i packed = _mm_packus_epi32(code, code);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(codes + i), packed);
  }
  for (; i < n; ++i) {
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
  const __m256d vs = _mm256_set1_pd(s);
  const __m256d vl = _mm256_set1_pd(l);
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m256d vtwo = _mm256_set1_pd(2.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i c16 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m256d cd = _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(c16));
    const __m256d t = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_div_pd(_mm256_mul_pd(vtwo, cd), vl), vone), vs);
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(t));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>((2.0 * codes[i] / l - 1.0) * s);
  }
}

void PackCodes(const uint16_t* codes, size_t n, int bits, uint8_t* out) {
  if (bits == 16) {
    if (n != 0) std::memcpy(out, codes, n * sizeof(uint16_t));
    return;
  }
  if (bits == 8) {
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      const __m256i lo = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(codes + i));
      const __m256i hi = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(codes + i + 16));
      // packus interleaves 128-bit lanes; the permute restores order.
      // 8-bit codes are < 256, so saturation never fires.
      const __m256i p = _mm256_permute4x64_epi64(
          _mm256_packus_epi16(lo, hi), _MM_SHUFFLE(3, 1, 2, 0));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), p);
    }
    for (; i < n; ++i) out[i] = static_cast<uint8_t>(codes[i]);
    return;
  }
  internal::PackCodesGeneric(codes, n, bits, out);
}

void UnpackCodes(const uint8_t* bytes, size_t n, int bits, uint16_t* codes) {
  if (bits == 16) {
    if (n != 0) std::memcpy(codes, bytes, n * sizeof(uint16_t));
    return;
  }
  if (bits == 8) {
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m128i b = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(bytes + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(codes + i),
                          _mm256_cvtepu8_epi16(b));
    }
    for (; i < n; ++i) codes[i] = bytes[i];
    return;
  }
  internal::UnpackCodesGeneric(bytes, n, bits, codes);
}

}  // namespace
}  // namespace avx2

namespace internal {

// Referenced by dispatch.cc only when this TU is compiled in.
const KernelTable& Avx2KernelTable() {
  static constexpr KernelTable kTable = {
      avx2::Axpy,          avx2::Add,
      avx2::AddScaled,     avx2::Sub,
      avx2::Scale,         avx2::Dot,
      avx2::SquaredL2,     avx2::SquaredDistance,
      avx2::MaxAbs,        avx2::GemmAxpyRow,
      avx2::QuantizeUniform, avx2::DequantizeGrid,
      avx2::PackCodes,     avx2::UnpackCodes,
  };
  return kTable;
}

}  // namespace internal
}  // namespace fedadmm::simd
