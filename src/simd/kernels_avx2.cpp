// AVX2 + FMA kernels. This translation unit is compiled with
// -mavx2 -mfma -ffp-contract=off (see src/simd/CMakeLists.txt); the rest
// of the build stays at the baseline ISA and reaches these only through
// the runtime-dispatched kernel table.
//
// -ffp-contract=off matters: several kernels (dot_counts, matmul,
// gram_aat) promise bit-identity with the scalar reference, which rounds
// every product before adding it. Explicit _mm256_fmadd_pd is still used
// where fusion is wanted (the erfc polynomials); the flag only stops the
// compiler from fusing the separate mul/add intrinsics behind our back.

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/hybrid_row.hpp"
#include "simd/kernels.hpp"

namespace obd::simd {
namespace {

// ---------------------------------------------------------------------
// fill_bin_factors: the scalar kernel re-anchors p with an exact exp at
// every block of kReanchorInterval (64) bins and multiplies by
// ratio = exp(gb*step) in between. The vector variant keeps the same
// anchors (same scalar std::exp calls) and advances two 4-lane chains by
// ratio^8, so each block needs at most ~17 roundings on any value's
// dependency chain instead of up to 63 — the drift from the scalar
// values stays bounded near 1e-13 relative (pinned in tests/simd_test).
void fill_bin_factors_avx2(double gb, double x_lo, double step,
                           std::size_t bins, double* out) {
  const double ratio = std::exp(gb * step);
  const double r2 = ratio * ratio;
  const double r3 = r2 * ratio;
  const double r4 = r2 * r2;
  const __m256d vr8 = _mm256_set1_pd(r4 * r4);
  const __m256d ladder = _mm256_setr_pd(1.0, ratio, r2, r3);
  static_assert(kReanchorInterval % 8 == 0);
  std::size_t k0 = 0;
  for (; k0 + kReanchorInterval <= bins; k0 += kReanchorInterval) {
    const double anchor =
        std::exp(gb * (x_lo + (static_cast<double>(k0) + 0.5) * step));
    __m256d p = _mm256_mul_pd(_mm256_set1_pd(anchor), ladder);
    __m256d q = _mm256_mul_pd(p, _mm256_set1_pd(r4));
    for (std::size_t j = 0; j < kReanchorInterval; j += 8) {
      _mm256_storeu_pd(out + k0 + j, p);
      _mm256_storeu_pd(out + k0 + j + 4, q);
      p = _mm256_mul_pd(p, vr8);
      q = _mm256_mul_pd(q, vr8);
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
// dot_counts: bit-identical to the scalar kernel. Vector lane l holds
// scalar accumulator a_l (both sum elements 4j + l in ascending j), the
// uint32 -> double conversion is exact (2^52 bias trick; AVX2 has no
// unsigned conversion), products are rounded before the add (mul + add,
// no FMA), the tail accumulates into lane 0, and the final combine is
// (a0 + a2) + (a1 + a3).
double dot_counts_avx2(const std::uint32_t* c, const double* e,
                       std::size_t n) {
  const __m256i kExpBits = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d kTwo52 = _mm256_set1_pd(4503599627370496.0);  // 2^52
  __m256d acc = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m128i ci =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + k));
    const __m256d cd = _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_or_si256(_mm256_cvtepu32_epi64(ci), kExpBits)),
        kTwo52);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(cd, _mm256_loadu_pd(e + k)));
  }
  alignas(32) double a[4];
  _mm256_store_pd(a, acc);
  for (; k < n; ++k) a[0] += static_cast<double>(c[k]) * e[k];
  return (a[0] + a[2]) + (a[1] + a[3]);
}

// ---------------------------------------------------------------------
// Vectorized standard-normal CDF via polynomial erfc.
//
// cdf(z) = 0.5 * erfc(x), x = -z/sqrt(2), w = |x|:
//   w in [0, 0.5)  : erfc(x) = 1 - x * P_small(x^2)
//   w in [0.5, 2]  : erfc(w) = exp(-w^2) * P_mid(w - 5/4)
//   w in (2, 28]   : erfc(w) = exp(-w^2) * P_tail(1/w^2) * sqrt(1/w^2)
//   w > 28         : erfc(w) = 0 exactly (true value < 1e-341)
//   x < 0, w >= 0.5: erfc(x) = 2 - erfc(w)
//
// The coefficients are Chebyshev least-max fits (computed with 40-digit
// mpmath against its erfc) of erf(sqrt(u))/sqrt(u), erfc(w)*exp(w^2) and
// w*erfc(w)*exp(w^2) respectively, validated in float64 Horner
// arithmetic. End-to-end max relative error of the cdf, measured on a
// dense |z| <= 37 grid against 40-digit references, is 2.4e-13 (the
// floor is the half-ulp rounding of w^2 feeding exp, not the fits);
// results with |cdf| < 1e-300 carry absolute error only. Documented
// caller-facing bound: 1e-12 relative.

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
inline __m256d horner(const double (&cs)[N], __m256d x) {
  __m256d acc = _mm256_set1_pd(cs[0]);
  for (std::size_t i = 1; i < N; ++i)
    acc = _mm256_fmadd_pd(acc, x, _mm256_set1_pd(cs[i]));
  return acc;
}

// hybrid_row.hpp's operations on four lanes (see ScalarOps in
// kernels_scalar.cpp for the one-lane twin they match bit for bit).
// scale_pow2 is also exp_nonpos's 2^n scaling.
struct Avx2Ops {
  using V = __m256d;
  using M = __m256d;
  static constexpr std::size_t kWidth = 4;
  static V set1(double a) { return _mm256_set1_pd(a); }
  static V iota(std::size_t i0) {
    return _mm256_add_pd(_mm256_set1_pd(static_cast<double>(i0)),
                         _mm256_setr_pd(0.0, 1.0, 2.0, 3.0));
  }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V abs(V a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V fnma(V a, V b, V c) { return _mm256_fnmadd_pd(a, b, c); }
  static V round_nearest(V a) {
    return _mm256_round_pd(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static V max(V a, V b) { return _mm256_max_pd(a, b); }
  static V min(V a, V b) { return _mm256_min_pd(a, b); }
  static V scale_pow2(V p, V nf) {
    const __m128i n = _mm256_cvtpd_epi32(nf);
    const __m128i n1 = _mm_srai_epi32(n, 1);
    const auto pow2 = [](__m128i m) {
      const __m256i wide = _mm256_add_epi64(_mm256_cvtepi32_epi64(m),
                                            _mm256_set1_epi64x(1023));
      return _mm256_castsi256_pd(_mm256_slli_epi64(wide, 52));
    };
    return _mm256_mul_pd(_mm256_mul_pd(p, pow2(n1)),
                         pow2(_mm_sub_epi32(n, n1)));
  }
  static M lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static M gt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static V select(M m, V a, V b) { return _mm256_blendv_pd(b, a, m); }
  static bool any(M m) { return _mm256_movemask_pd(m) != 0; }
  static bool all(M m) { return _mm256_movemask_pd(m) == 0xf; }
  static void store(double* out, V a) { _mm256_storeu_pd(out, a); }
};

// exp(t) for t <= 0, graceful underflow to 0 below ~-745 (the 2^n scaling
// is split into two factors so subnormal results stay exact to rounding).
inline __m256d exp_nonpos(__m256d t) {
  const __m256d kLog2e = _mm256_set1_pd(0x1.71547652b82fep+0);
  const __m256d kLn2Hi = _mm256_set1_pd(0x1.62e42fee00000p-1);
  const __m256d kLn2Lo = _mm256_set1_pd(0x1.a39ef35793c76p-33);
  // Clamp far below the underflow threshold: keeps the exponent arithmetic
  // in range for arbitrarily negative inputs without changing any result
  // that is representable (everything below -800 is exactly 0).
  t = _mm256_max_pd(t, _mm256_set1_pd(-800.0));
  const __m256d nf = _mm256_round_pd(
      _mm256_mul_pd(t, kLog2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(nf, kLn2Hi, t);
  r = _mm256_fnmadd_pd(nf, kLn2Lo, r);
  return Avx2Ops::scale_pow2(horner(kExpPoly, r), nf);
}

inline __m256d erfc4(__m256d x) {
  const __m256d kAbsMask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d kOne = _mm256_set1_pd(1.0);
  const __m256d kTwo = _mm256_set1_pd(2.0);
  const __m256d w = _mm256_and_pd(x, kAbsMask);
  const __m256d u = _mm256_mul_pd(w, w);
  // |x| < 0.5 (sign handled by the odd polynomial directly).
  const __m256d r_small =
      _mm256_fnmadd_pd(x, horner(kErfPolySmall, u), kOne);
  // w >= 0.5: erfc(w) = exp(-w^2) * (mid or tail polynomial).
  const __m256d e = exp_nonpos(_mm256_sub_pd(_mm256_setzero_pd(), u));
  const __m256d p_mid =
      horner(kErfcPolyMid, _mm256_sub_pd(w, _mm256_set1_pd(1.25)));
  const __m256d s = _mm256_div_pd(kOne, u);
  const __m256d p_tail =
      _mm256_mul_pd(horner(kErfcPolyTail, s), _mm256_sqrt_pd(s));
  __m256d r = _mm256_mul_pd(
      e, _mm256_blendv_pd(p_mid, p_tail,
                          _mm256_cmp_pd(w, kTwo, _CMP_GT_OQ)));
  // w > 28: exactly 0 (and discards any garbage from the s = 1/u lanes).
  r = _mm256_andnot_pd(
      _mm256_cmp_pd(w, _mm256_set1_pd(28.0), _CMP_GT_OQ), r);
  // Negative arguments: erfc(x) = 2 - erfc(w).
  r = _mm256_blendv_pd(
      r, _mm256_sub_pd(kTwo, r),
      _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ));
  return _mm256_blendv_pd(
      r, r_small, _mm256_cmp_pd(w, _mm256_set1_pd(0.5), _CMP_LT_OQ));
}

void normal_cdf_batch_avx2(const double* z, std::size_t n, double* out) {
  const __m256d kNegInvSqrt2 = _mm256_set1_pd(-0x1.6a09e667f3bcdp-1);
  const __m256d kHalf = _mm256_set1_pd(0.5);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_mul_pd(_mm256_loadu_pd(z + i), kNegInvSqrt2);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(kHalf, erfc4(x)));
  }
  if (i < n) {
    alignas(32) double buf[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = i; j < n; ++j) buf[j - i] = z[j];
    const __m256d x = _mm256_mul_pd(_mm256_load_pd(buf), kNegInvSqrt2);
    _mm256_store_pd(buf, _mm256_mul_pd(kHalf, erfc4(x)));
    for (std::size_t j = i; j < n; ++j) out[j] = buf[j - i];
  }
}

// ---------------------------------------------------------------------
// orow[c] += av * brow[c]: the shared GEMM/SYRK inner step. mul + add
// (not FMA) reproduces the scalar kernels' per-element rounding exactly;
// the 4-wide unrolled pairs touch independent elements, so vectorization
// does not reorder any accumulation chain.
inline void axpy_row(double* orow, const double* brow, double av,
                     std::size_t n) {
  const __m256d va = _mm256_set1_pd(av);
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    _mm256_storeu_pd(
        orow + c,
        _mm256_add_pd(_mm256_loadu_pd(orow + c),
                      _mm256_mul_pd(va, _mm256_loadu_pd(brow + c))));
    _mm256_storeu_pd(
        orow + c + 4,
        _mm256_add_pd(_mm256_loadu_pd(orow + c + 4),
                      _mm256_mul_pd(va, _mm256_loadu_pd(brow + c + 4))));
  }
  for (; c + 4 <= n; c += 4)
    _mm256_storeu_pd(
        orow + c,
        _mm256_add_pd(_mm256_loadu_pd(orow + c),
                      _mm256_mul_pd(va, _mm256_loadu_pd(brow + c))));
  for (; c < n; ++c) orow[c] += av * brow[c];
}

constexpr std::size_t kMatmulTileK = 256;

void matmul_avx2(const double* a, const double* b, double* out,
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

// Four accumulator lanes per row, combined like dot_counts. Differs from
// the scalar single-chain matvec by dot-product rounding only (no caller
// pins matvec bits — see kernels.hpp).
void matvec_avx2(const double* a, const double* x, double* y,
                 std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* arow = a + r * cols;
    __m256d acc = _mm256_setzero_pd();
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4)
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_loadu_pd(arow + c),
                             _mm256_loadu_pd(x + c)));
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    for (; c < cols; ++c) lanes[0] += arow[c] * x[c];
    y[r] = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
  }
}

// SYRK as a row-axpy sweep over the materialized transpose. For every
// upper-triangle entry g(i, j) the contributions a(i,c)*a(j,c) accumulate
// from 0.0 in ascending c with round-then-add — the identical operation
// sequence to the scalar triangle loop, hence bit-identical; only the
// interleaving across independent entries changes.
void gram_aat_avx2(const double* a, double* g, std::size_t n,
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

// Clenshaw over interleaved pencils, four per register. Each lane is one
// independent pencil running exactly the scalar kernel's operation
// sequence — mul, then sub, then add, each rounded separately (this TU is
// built with -ffp-contract=off, and no FMA intrinsic is used here), so
// the result is bit-identical to the scalar reference. The tail pencils
// repeat the same sequence in scalar arithmetic.
void clenshaw_batch_avx2(const double* coeffs, std::size_t n, std::size_t m,
                         double u, double* out) {
  if (n == 0) {
    for (std::size_t p = 0; p < m; ++p) out[p] = 0.0;
    return;
  }
  const double tu = 2.0 * u;
  const __m256d vtu = _mm256_set1_pd(tu);
  const __m256d vu = _mm256_set1_pd(u);
  std::size_t p = 0;
  for (; p + 4 <= m; p += 4) {
    __m256d b1 = _mm256_setzero_pd();
    __m256d b2 = _mm256_setzero_pd();
    for (std::size_t k = n - 1; k >= 1; --k) {
      const __m256d s = _mm256_mul_pd(vtu, b1);
      const __m256d q = _mm256_sub_pd(s, b2);
      const __m256d b = _mm256_add_pd(_mm256_loadu_pd(coeffs + k * m + p), q);
      b2 = b1;
      b1 = b;
    }
    const __m256d s = _mm256_mul_pd(vu, b1);
    _mm256_storeu_pd(out + p, _mm256_add_pd(_mm256_loadu_pd(coeffs + p),
                                            _mm256_sub_pd(s, b2)));
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

// ---------------------------------------------------------------------
// Eigensolver kernels (tred2/tql2). The contract is bit-identity with the
// scalar loops, so every product is rounded before its add or sub, and a
// lane only ever holds an independent element or an independent dot
// chain.

// acc lane r += p_r[0], then p_r[1], p_r[2], p_r[3], where p_r holds row
// r's products at four consecutive columns. A 4x4 transpose turns the
// four rows' terms at one column into one vector, so each lane is one
// row's dot chain and still adds its terms in ascending column order.
inline __m256d add_row_products(__m256d acc, __m256d p0, __m256d p1,
                                __m256d p2, __m256d p3) {
  const __m256d t0 = _mm256_unpacklo_pd(p0, p1);
  const __m256d t1 = _mm256_unpackhi_pd(p0, p1);
  const __m256d t2 = _mm256_unpacklo_pd(p2, p3);
  const __m256d t3 = _mm256_unpackhi_pd(p2, p3);
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(t0, t2, 0x20));
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(t1, t3, 0x20));
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(t0, t2, 0x31));
  return _mm256_add_pd(acc, _mm256_permute2f128_pd(t1, t3, 0x31));
}

// out[r] = sum_k u[k] * a(r, k) over [0, len) from 0.0 in ascending k,
// for kGroups * 4 rows. Two groups keep two independent add chains in
// flight.
template <std::size_t kGroups>
void dots_rows(const double* a, std::size_t lda, const double* u,
               std::size_t len, double* out) {
  __m256d acc[kGroups];
  for (std::size_t g = 0; g < kGroups; ++g) acc[g] = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= len; k += 4) {
    const __m256d uk = _mm256_loadu_pd(u + k);
    for (std::size_t g = 0; g < kGroups; ++g) {
      const double* r = a + 4 * g * lda + k;
      acc[g] = add_row_products(
          acc[g], _mm256_mul_pd(uk, _mm256_loadu_pd(r)),
          _mm256_mul_pd(uk, _mm256_loadu_pd(r + lda)),
          _mm256_mul_pd(uk, _mm256_loadu_pd(r + 2 * lda)),
          _mm256_mul_pd(uk, _mm256_loadu_pd(r + 3 * lda)));
    }
  }
  for (std::size_t g = 0; g < kGroups; ++g)
    _mm256_storeu_pd(out + 4 * g, acc[g]);
  for (; k < len; ++k)
    for (std::size_t r = 0; r < 4 * kGroups; ++r)
      out[r] += u[k] * a[r * lda + k];
}

// row[k] -= g * w[k]: independent elements, 4-wide.
inline void sub_scaled(double* row, double g, const double* w,
                       std::size_t len) {
  const __m256d vg = _mm256_set1_pd(g);
  std::size_t k = 0;
  for (; k + 4 <= len; k += 4)
    _mm256_storeu_pd(row + k,
                     _mm256_sub_pd(_mm256_loadu_pd(row + k),
                                   _mm256_mul_pd(vg, _mm256_loadu_pd(w + k))));
  for (; k < len; ++k) row[k] -= g * w[k];
}

}  // namespace

namespace detail {

// Three vectors (12 entries) per node step: on one thread the EV6 fill
// measured about 180 / 135-155 / 130-155 / 165-175 ms at 1 / 2 / 3 / 4.
void hybrid_row_avx2(const double* u, const double* v, const double* w,
                     std::size_t n_nodes, double gamma, double b_lo,
                     double d_b, double area, std::size_t n_b, double* out) {
  hybrid_row<Avx2Ops, 3>(u, v, w, n_nodes, gamma, b_lo, d_b, area, n_b, out);
}

void tql2_rotate_avx2(double* x, double* y, double c, double s,
                      std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d xv = _mm256_loadu_pd(x + k);
    const __m256d yv = _mm256_loadu_pd(y + k);
    _mm256_storeu_pd(y + k, _mm256_add_pd(_mm256_mul_pd(vs, xv),
                                          _mm256_mul_pd(vc, yv)));
    _mm256_storeu_pd(x + k, _mm256_sub_pd(_mm256_mul_pd(vc, xv),
                                          _mm256_mul_pd(vs, yv)));
  }
  for (; k < n; ++k) {
    const double f = y[k];
    y[k] = s * x[k] + c * f;
    x[k] = c * x[k] - s * f;
  }
}

// Rows in blocks of four. For j below the block, one pass over the four
// rows both adds their terms to e[j] (in ascending row order, 4-wide
// along j) and advances their four dots (one lane per row); the 4x4
// corner on and below the diagonal then runs in scalar order, and leftover
// rows run the scalar loop.
void tred2_symv_avx2(const double* a, std::size_t lda, const double* u,
                     std::size_t m, double* e) {
  std::size_t k0 = 0;
  for (; k0 + 4 <= m; k0 += 4) {
    const double* r0 = a + k0 * lda;
    const __m256d u0 = _mm256_set1_pd(u[k0]);
    const __m256d u1 = _mm256_set1_pd(u[k0 + 1]);
    const __m256d u2 = _mm256_set1_pd(u[k0 + 2]);
    const __m256d u3 = _mm256_set1_pd(u[k0 + 3]);
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < k0; j += 4) {
      const __m256d x0 = _mm256_loadu_pd(r0 + j);
      const __m256d x1 = _mm256_loadu_pd(r0 + lda + j);
      const __m256d x2 = _mm256_loadu_pd(r0 + 2 * lda + j);
      const __m256d x3 = _mm256_loadu_pd(r0 + 3 * lda + j);
      __m256d ev = _mm256_loadu_pd(e + j);
      ev = _mm256_add_pd(ev, _mm256_mul_pd(x0, u0));
      ev = _mm256_add_pd(ev, _mm256_mul_pd(x1, u1));
      ev = _mm256_add_pd(ev, _mm256_mul_pd(x2, u2));
      ev = _mm256_add_pd(ev, _mm256_mul_pd(x3, u3));
      _mm256_storeu_pd(e + j, ev);
      const __m256d uj = _mm256_loadu_pd(u + j);
      acc = add_row_products(acc, _mm256_mul_pd(x0, uj),
                             _mm256_mul_pd(x1, uj), _mm256_mul_pd(x2, uj),
                             _mm256_mul_pd(x3, uj));
    }
    alignas(32) double g[4];
    _mm256_store_pd(g, acc);
    for (std::size_t r = 0; r < 4; ++r) {
      const std::size_t k = k0 + r;
      const double* row = a + k * lda;
      for (std::size_t j = k0; j < k; ++j) {
        g[r] += row[j] * u[j];
        e[j] += row[j] * u[k];
      }
      e[k] = g[r] + row[k] * u[k];
    }
  }
  for (std::size_t k = k0; k < m; ++k) {
    const double* row = a + k * lda;
    double g = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      g += row[j] * u[j];
      e[j] += row[j] * u[k];
    }
    e[k] = g + row[k] * u[k];
  }
}

void tred2_rank2_avx2(double* a, std::size_t lda, const double* u, double hh,
                      std::size_t m, double* e) {
  for (std::size_t j = 0; j < m; ++j) {
    const double f = u[j];
    const double g = e[j] - hh * f;
    e[j] = g;
    double* row = a + j * lda;
    const __m256d vf = _mm256_set1_pd(f);
    const __m256d vg = _mm256_set1_pd(g);
    std::size_t k = 0;
    for (; k + 4 <= j + 1; k += 4)
      _mm256_storeu_pd(
          row + k,
          _mm256_sub_pd(
              _mm256_loadu_pd(row + k),
              _mm256_add_pd(_mm256_mul_pd(vf, _mm256_loadu_pd(e + k)),
                            _mm256_mul_pd(vg, _mm256_loadu_pd(u + k)))));
    for (; k <= j; ++k) row[k] -= f * e[k] + g * u[k];
  }
}

// Rows in blocks of eight, then four, then one: a block's dots all read
// the rows before any of its updates writes them, which is the order the
// scalar loop sees too (row j's dot reads only row j).
void tred2_reflect_avx2(double* a, std::size_t lda, std::size_t rows,
                        const double* u, const double* w, std::size_t len) {
  std::size_t j = 0;
  alignas(32) double g[8];
  for (; j + 8 <= rows; j += 8) {
    dots_rows<2>(a + j * lda, lda, u, len, g);
    for (std::size_t r = 0; r < 8; ++r)
      sub_scaled(a + (j + r) * lda, g[r], w, len);
  }
  for (; j + 4 <= rows; j += 4) {
    dots_rows<1>(a + j * lda, lda, u, len, g);
    for (std::size_t r = 0; r < 4; ++r)
      sub_scaled(a + (j + r) * lda, g[r], w, len);
  }
  for (; j < rows; ++j) {
    double* row = a + j * lda;
    double s = 0.0;
    for (std::size_t k = 0; k < len; ++k) s += u[k] * row[k];
    sub_scaled(row, s, w, len);
  }
}

const KernelTable kAvx2Kernels = {
    fill_bin_factors_avx2, dot_counts_avx2,  normal_cdf_batch_avx2,
    matmul_avx2,           matvec_avx2,      gram_aat_avx2,
    clenshaw_batch_avx2,   tql2_rotate_avx2, tred2_symv_avx2,
    tred2_rank2_avx2,      tred2_reflect_avx2, hybrid_row_avx2,
};

}  // namespace detail
}  // namespace obd::simd

#else  // !(__AVX2__ && __FMA__)

#include "simd/kernels.hpp"

namespace obd::simd::detail {

// Built without AVX2 support: keep the symbol defined (the test suite
// references both tables unconditionally) but alias the scalar reference.
// kScalarKernels is constant-initialized (function addresses only), so
// copying it during dynamic initialization is order-safe.
const KernelTable kAvx2Kernels = kScalarKernels;

}  // namespace obd::simd::detail

#endif  // __AVX2__ && __FMA__
