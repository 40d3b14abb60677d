// AVX-512F/DQ kernels. This translation unit is compiled with
// -mavx512f -mavx512dq -ffp-contract=off (see src/simd/CMakeLists.txt);
// the rest of the build stays at the baseline ISA and reaches these only
// through the runtime-dispatched kernel table.
//
// The porting rule from kernels_avx2.cpp: kernels whose contract is
// bit-identity (dot_counts, matmul, gram_aat — see kernels.hpp) keep the
// scalar reference's four-lane accumulator structure by folding the high
// 256-bit half of each 512-bit product into the same four lanes, low
// half first — lane l still sums elements 4j + l in ascending j with
// every product rounded before the add. Tolerance-bounded kernels
// (fill_bin_factors, normal_cdf_batch, matvec) run genuinely 8-wide with
// the identical per-element operation sequence as the AVX2 variant.
//
// -ffp-contract=off matters for the same reason as the AVX2 unit: the
// bit-identical kernels round every product before adding it (separate
// mul/add intrinsics); explicit _mm512_fmadd_pd is still used where
// fusion is wanted (the erfc polynomials).

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/kernels.hpp"

namespace obd::simd {
namespace {

// ---------------------------------------------------------------------
// fill_bin_factors: same exact-exp anchors as the scalar kernel every
// kReanchorInterval (64) bins; between anchors one 8-lane chain advances
// by ratio^8, so each value's dependency chain carries at most ~9
// roundings per block instead of up to 63 — drift from the scalar
// recurrence stays bounded near 1e-13 relative, the same contract the
// AVX2 variant pins in tests/simd_test.
void fill_bin_factors_avx512(double gb, double x_lo, double step,
                             std::size_t bins, double* out) {
  const double ratio = std::exp(gb * step);
  const double r2 = ratio * ratio;
  const double r3 = r2 * ratio;
  const double r4 = r2 * r2;
  const double r8 = r4 * r4;
  const __m512d vr8 = _mm512_set1_pd(r8);
  const __m512d ladder =
      _mm512_setr_pd(1.0, ratio, r2, r3, r4, r4 * ratio, r4 * r2, r4 * r3);
  static_assert(kReanchorInterval % 8 == 0);
  std::size_t k0 = 0;
  for (; k0 + kReanchorInterval <= bins; k0 += kReanchorInterval) {
    const double anchor =
        std::exp(gb * (x_lo + (static_cast<double>(k0) + 0.5) * step));
    __m512d p = _mm512_mul_pd(_mm512_set1_pd(anchor), ladder);
    for (std::size_t j = 0; j < kReanchorInterval; j += 8) {
      _mm512_storeu_pd(out + k0 + j, p);
      p = _mm512_mul_pd(p, vr8);
    }
  }
  if (k0 < bins) {
    // Partial final block: the scalar recurrence, anchored identically.
    double p = std::exp(gb * (x_lo + (static_cast<double>(k0) + 0.5) * step));
    for (std::size_t k = k0; k < bins; ++k) {
      out[k] = p;
      p *= ratio;
    }
  }
}

// ---------------------------------------------------------------------
// dot_counts: bit-identical to the scalar kernel. Each 512-bit product
// covers two consecutive 4-groups; folding its low 256-bit half into the
// four accumulator lanes before the high half preserves the scalar
// reference's ascending-j order per lane. The uint32 -> double conversion
// is the direct AVX-512 unsigned conversion (exact). Any remaining full
// 4-group and the final tail accumulate in scalar arithmetic on the lane
// array — identical operations to the scalar kernel's own epilogue.
double dot_counts_avx512(const std::uint32_t* c, const double* e,
                         std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512d cd = _mm512_cvtepu32_pd(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + k)));
    const __m512d prod = _mm512_mul_pd(cd, _mm512_loadu_pd(e + k));
    acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(prod, 0));
    acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(prod, 1));
  }
  alignas(32) double a[4];
  _mm256_store_pd(a, acc);
  for (; k + 4 <= n; k += 4)
    for (std::size_t l = 0; l < 4; ++l)
      a[l] += static_cast<double>(c[k + l]) * e[k + l];
  for (; k < n; ++k) a[0] += static_cast<double>(c[k]) * e[k];
  return (a[0] + a[2]) + (a[1] + a[3]);
}

// ---------------------------------------------------------------------
// Vectorized standard-normal CDF via polynomial erfc — the identical
// coefficient sets and per-element operation sequence as the AVX2
// variant (see kernels_avx2.cpp for the derivation and error analysis);
// only the lane width and the mask/blend encoding differ. Caller-facing
// bound: 1e-12 relative wherever |result| > 1e-300.

// Highest-degree coefficient first (Horner order).
constexpr double kErfPolySmall[] = {
    0x1.c60ae6747e9bcp-27,  -0x1.5d7686c510032p-23, 0x1.b9d19f664b4c1p-20,
    -0x1.f4d1cff2cac2fp-17, 0x1.f9a324a327ab3p-14,  -0x1.c02db3f9d6c71p-11,
    0x1.565bcd0e5f5a0p-8,   -0x1.b82ce312889f2p-6,  0x1.ce2f21a042be0p-4,
    -0x1.812746b0379e7p-2,  0x1.20dd750429b6dp+0,
};
constexpr double kErfcPolyMid[] = {
    0x1.cf581f9d26c9dp-29,  -0x1.b4554743d4dc7p-27, 0x1.44e1e2f2bf565p-25,
    -0x1.21d0889216364p-23, 0x1.01b52b69d7f28p-21,  -0x1.b6293e5f0fbebp-20,
    0x1.6a162bffa5122p-18,  -0x1.22f9bdb594505p-16, 0x1.c57047d56f26bp-15,
    -0x1.55c08eff1111cp-13, 0x1.f0fe6f69fb247p-12,  -0x1.5b8bc901e8916p-10,
    0x1.d1b695ab6763ep-9,   -0x1.299636d76d836p-7,  0x1.68a25a664142cp-6,
    -0x1.9b635ac623553p-5,  0x1.b56f45eef7e5ep-4,   -0x1.abaacdbfa8b13p-3,
    0x1.78a692138767ap-2,
};
constexpr double kErfcPolyTail[] = {
    0x1.0377f2b16baa9p+34,  -0x1.831d8926d0698p+35, 0x1.0f906acf4c062p+36,
    -0x1.dca6141b880e6p+35, 0x1.25b9ff9d8fe49p+35,  -0x1.0e9fef2f52cd2p+34,
    0x1.83c9bf300b0a6p+32,  -0x1.bc4196aef612ap+30, 0x1.9fe201b1f38a4p+28,
    -0x1.4482ea3be4d6cp+26, 0x1.af3e19f858958p+23,  -0x1.f53eabbd457c2p+20,
    0x1.0845561d3a5eep+18,  -0x1.0999cb36b7e60p+15, 0x1.0e350b4f39b8ep+12,
    -0x1.27bf00d349082p+9,  0x1.6e2e0f2047472p+6,   -0x1.0a8e3c819677cp+4,
    0x1.d9eac4331e9edp+1,   -0x1.0ecf9b8dadd24p+0,  0x1.b14c2f7c8e35cp-2,
    -0x1.20dd750424486p-2,  0x1.20dd750429b64p-1,
};
// 1/13!, 1/12!, ..., 1/1!, 1/0! — Taylor core of exp on |r| <= ln2/2.
constexpr double kExpPoly[] = {
    1.6059043836821613e-10, 2.08767569878681e-9, 2.505210838544172e-8,
    2.7557319223985893e-7,  2.755731922398589e-6, 2.48015873015873e-5,
    1.984126984126984e-4,   1.3888888888888889e-3, 8.333333333333333e-3,
    4.1666666666666664e-2,  1.6666666666666666e-1, 5e-1, 1.0, 1.0,
};

template <std::size_t N>
inline __m512d horner(const double (&cs)[N], __m512d x) {
  __m512d acc = _mm512_set1_pd(cs[0]);
  for (std::size_t i = 1; i < N; ++i)
    acc = _mm512_fmadd_pd(acc, x, _mm512_set1_pd(cs[i]));
  return acc;
}

// exp(t) for t <= 0, graceful underflow to 0 below ~-745 (the 2^n scaling
// is split into two factors so subnormal results stay exact to rounding).
inline __m512d exp_nonpos(__m512d t) {
  const __m512d kLog2e = _mm512_set1_pd(0x1.71547652b82fep+0);
  const __m512d kLn2Hi = _mm512_set1_pd(0x1.62e42fee00000p-1);
  const __m512d kLn2Lo = _mm512_set1_pd(0x1.a39ef35793c76p-33);
  // Clamp far below the underflow threshold: keeps the exponent arithmetic
  // in range for arbitrarily negative inputs without changing any result
  // that is representable (everything below -800 is exactly 0).
  t = _mm512_max_pd(t, _mm512_set1_pd(-800.0));
  const __m512d nf =
      _mm512_roundscale_pd(_mm512_mul_pd(t, kLog2e),
                           _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_fnmadd_pd(nf, kLn2Hi, t);
  r = _mm512_fnmadd_pd(nf, kLn2Lo, r);
  const __m512d p = horner(kExpPoly, r);
  const __m256i ni = _mm512_cvtpd_epi32(nf);
  const __m256i n1 = _mm256_srai_epi32(ni, 1);
  const __m256i n2 = _mm256_sub_epi32(ni, n1);
  const auto pow2 = [](__m256i m) {
    const __m512i wide = _mm512_add_epi64(_mm512_cvtepi32_epi64(m),
                                          _mm512_set1_epi64(1023));
    return _mm512_castsi512_pd(_mm512_slli_epi64(wide, 52));
  };
  return _mm512_mul_pd(_mm512_mul_pd(p, pow2(n1)), pow2(n2));
}

inline __m512d erfc8(__m512d x) {
  const __m512d kOne = _mm512_set1_pd(1.0);
  const __m512d kTwo = _mm512_set1_pd(2.0);
  const __m512d w = _mm512_abs_pd(x);
  const __m512d u = _mm512_mul_pd(w, w);
  // |x| < 0.5 (sign handled by the odd polynomial directly).
  const __m512d r_small =
      _mm512_fnmadd_pd(x, horner(kErfPolySmall, u), kOne);
  // w >= 0.5: erfc(w) = exp(-w^2) * (mid or tail polynomial).
  const __m512d e = exp_nonpos(_mm512_sub_pd(_mm512_setzero_pd(), u));
  const __m512d p_mid =
      horner(kErfcPolyMid, _mm512_sub_pd(w, _mm512_set1_pd(1.25)));
  const __m512d s = _mm512_div_pd(kOne, u);
  const __m512d p_tail =
      _mm512_mul_pd(horner(kErfcPolyTail, s), _mm512_sqrt_pd(s));
  __m512d r = _mm512_mul_pd(
      e, _mm512_mask_blend_pd(_mm512_cmp_pd_mask(w, kTwo, _CMP_GT_OQ),
                              p_mid, p_tail));
  // w > 28: exactly 0 (and discards any garbage from the s = 1/u lanes).
  r = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(w, _mm512_set1_pd(28.0), _CMP_GT_OQ), r,
      _mm512_setzero_pd());
  // Negative arguments: erfc(x) = 2 - erfc(w).
  r = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(x, _mm512_setzero_pd(), _CMP_LT_OQ), r,
      _mm512_sub_pd(kTwo, r));
  return _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(w, _mm512_set1_pd(0.5), _CMP_LT_OQ), r, r_small);
}

void normal_cdf_batch_avx512(const double* z, std::size_t n, double* out) {
  const __m512d kNegInvSqrt2 = _mm512_set1_pd(-0x1.6a09e667f3bcdp-1);
  const __m512d kHalf = _mm512_set1_pd(0.5);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d x = _mm512_mul_pd(_mm512_loadu_pd(z + i), kNegInvSqrt2);
    _mm512_storeu_pd(out + i, _mm512_mul_pd(kHalf, erfc8(x)));
  }
  if (i < n) {
    alignas(64) double buf[8] = {};
    for (std::size_t j = i; j < n; ++j) buf[j - i] = z[j];
    const __m512d x = _mm512_mul_pd(_mm512_load_pd(buf), kNegInvSqrt2);
    _mm512_store_pd(buf, _mm512_mul_pd(kHalf, erfc8(x)));
    for (std::size_t j = i; j < n; ++j) out[j] = buf[j - i];
  }
}

// ---------------------------------------------------------------------
// orow[c] += av * brow[c]: the shared GEMM/SYRK inner step. mul + add
// (not FMA) reproduces the scalar kernels' per-element rounding exactly;
// the wide loop touches independent elements, so vectorization does not
// reorder any accumulation chain.
inline void axpy_row(double* orow, const double* brow, double av,
                     std::size_t n) {
  const __m512d va8 = _mm512_set1_pd(av);
  std::size_t c = 0;
  for (; c + 16 <= n; c += 16) {
    _mm512_storeu_pd(
        orow + c,
        _mm512_add_pd(_mm512_loadu_pd(orow + c),
                      _mm512_mul_pd(va8, _mm512_loadu_pd(brow + c))));
    _mm512_storeu_pd(
        orow + c + 8,
        _mm512_add_pd(_mm512_loadu_pd(orow + c + 8),
                      _mm512_mul_pd(va8, _mm512_loadu_pd(brow + c + 8))));
  }
  for (; c + 8 <= n; c += 8)
    _mm512_storeu_pd(
        orow + c,
        _mm512_add_pd(_mm512_loadu_pd(orow + c),
                      _mm512_mul_pd(va8, _mm512_loadu_pd(brow + c))));
  for (; c < n; ++c) orow[c] += av * brow[c];
}

constexpr std::size_t kMatmulTileK = 256;

void matmul_avx512(const double* a, const double* b, double* out,
                   std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t k0 = 0; k0 < k; k0 += kMatmulTileK) {
    const std::size_t k1 = std::min(k, k0 + kMatmulTileK);
    for (std::size_t r = 0; r < m; ++r) {
      const double* arow = a + r * k;
      double* orow = out + r * n;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const double av = arow[kk];
        if (av == 0.0) continue;
        axpy_row(orow, b + kk * n, av, n);
      }
    }
  }
}

// Four accumulator lanes per row (each 512-bit product folds low half
// then high half into the same lanes), combined like dot_counts —
// bit-identical to the AVX2 matvec, which carries the documented
// ~1e-15-relative difference from the scalar single chain.
void matvec_avx512(const double* a, const double* x, double* y,
                   std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* arow = a + r * cols;
    __m256d acc = _mm256_setzero_pd();
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const __m512d prod = _mm512_mul_pd(_mm512_loadu_pd(arow + c),
                                         _mm512_loadu_pd(x + c));
      acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(prod, 0));
      acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(prod, 1));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    for (; c + 4 <= cols; c += 4)
      for (std::size_t l = 0; l < 4; ++l) lanes[l] += arow[c + l] * x[c + l];
    for (; c < cols; ++c) lanes[0] += arow[c] * x[c];
    y[r] = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
  }
}

// SYRK as a row-axpy sweep over the materialized transpose — the same
// structure as the AVX2 variant; axpy_row keeps the round-then-add
// sequence, so every entry stays bit-identical to the scalar triangle
// loop.
void gram_aat_avx512(const double* a, double* g, std::size_t n,
                     std::size_t k) {
  std::vector<double> at(k * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < k; ++c) at[c * n + i] = a[i * k + c];
  for (std::size_t i = 0; i < n; ++i) {
    double* gi = g + i * n;
    std::fill(gi + i, gi + n, 0.0);
    const double* ai = a + i * k;
    for (std::size_t c = 0; c < k; ++c)
      axpy_row(gi + i, at.data() + c * n + i, ai[c], n - i);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) g[j * n + i] = g[i * n + j];
}

// Clenshaw over interleaved pencils, eight per register. Lanes are
// independent pencils executing the scalar kernel's exact operation
// sequence (separate mul/sub/add, never FMA — bit-identity contract in
// kernels.hpp); the tail repeats the sequence in scalar arithmetic.
void clenshaw_batch_avx512(const double* coeffs, std::size_t n,
                           std::size_t m, double u, double* out) {
  if (n == 0) {
    for (std::size_t p = 0; p < m; ++p) out[p] = 0.0;
    return;
  }
  const double tu = 2.0 * u;
  const __m512d vtu = _mm512_set1_pd(tu);
  const __m512d vu = _mm512_set1_pd(u);
  std::size_t p = 0;
  for (; p + 8 <= m; p += 8) {
    __m512d b1 = _mm512_setzero_pd();
    __m512d b2 = _mm512_setzero_pd();
    for (std::size_t k = n - 1; k >= 1; --k) {
      const __m512d s = _mm512_mul_pd(vtu, b1);
      const __m512d q = _mm512_sub_pd(s, b2);
      const __m512d b = _mm512_add_pd(_mm512_loadu_pd(coeffs + k * m + p), q);
      b2 = b1;
      b1 = b;
    }
    const __m512d s = _mm512_mul_pd(vu, b1);
    _mm512_storeu_pd(out + p, _mm512_add_pd(_mm512_loadu_pd(coeffs + p),
                                            _mm512_sub_pd(s, b2)));
  }
  for (; p < m; ++p) {
    double b1 = 0.0;
    double b2 = 0.0;
    for (std::size_t k = n - 1; k >= 1; --k) {
      const double s = tu * b1;
      const double q = s - b2;
      const double b = coeffs[k * m + p] + q;
      b2 = b1;
      b1 = b;
    }
    const double s = u * b1;
    out[p] = coeffs[p] + (s - b2);
  }
}

}  // namespace

namespace detail {

const KernelTable kAvx512Kernels = {
    fill_bin_factors_avx512, dot_counts_avx512, normal_cdf_batch_avx512,
    matmul_avx512,           matvec_avx512,     gram_aat_avx512,
    clenshaw_batch_avx512,   tql2_rotate_avx2,  tred2_symv_avx2,
    tred2_rank2_avx2,        tred2_reflect_avx2, hybrid_row_avx2,
};

}  // namespace detail
}  // namespace obd::simd

#else  // !(__AVX512F__ && __AVX512DQ__)

#include "simd/kernels.hpp"

namespace obd::simd::detail {

// Built without AVX-512 support: keep the symbol defined (the test suite
// references all tables unconditionally) but alias the scalar reference.
// kScalarKernels is constant-initialized (function addresses only), so
// copying it during dynamic initialization is order-safe.
const KernelTable kAvx512Kernels = kScalarKernels;

}  // namespace obd::simd::detail

#endif  // __AVX512F__ && __AVX512DQ__
