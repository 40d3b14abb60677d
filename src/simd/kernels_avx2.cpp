// AVX2 + FMA kernel table. This translation unit is compiled with
// -mavx2 -mfma -ffp-contract=off (see src/simd/CMakeLists.txt); the rest
// of the build stays at the baseline ISA and reaches it only through the
// runtime-dispatched kernel table. It instantiates the shared bodies of
// kernel_bodies.hpp, hybrid_row.hpp and box_muller.hpp at four lanes
// (Avx2Ops); fill_bin_factors, normal_cdf_batch and matvec are the scalar
// table's own functions.
//
// -ffp-contract=off matters: the shared bodies round every product before
// adding it, as the one-lane instantiation does. Explicit
// _mm256_fmadd_pd is still used where fusion is wanted (Ops::fma); the
// flag only stops the compiler from fusing the separate mul/add
// intrinsics behind our back.

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "simd/box_muller.hpp"
#include "simd/hybrid_row.hpp"
#include "simd/kernel_bodies.hpp"
#include "simd/kernels.hpp"

namespace obd::simd {
namespace {

// The shared bodies' operations on four lanes (see ScalarOps in
// kernels_scalar.cpp for the one-lane twin they match bit for bit).
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
  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static V div(V a, V b) { return _mm256_div_pd(a, b); }
  static V sqrt(V a) { return _mm256_sqrt_pd(a); }
  // The field is below 2^52, so or-ing it into 2^52's mantissa and
  // subtracting 2^52 converts it exactly (AVX2 has no int64 conversion).
  static V exponent(V a) {
    const __m256i field =
        _mm256_and_si256(_mm256_srli_epi64(_mm256_castpd_si256(a), 52),
                         _mm256_set1_epi64x(0x7ff));
    return _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            field, _mm256_set1_epi64x(0x4330000000000000LL))),
        _mm256_set1_pd(0x1p52 + 1023.0));
  }
  static V mantissa(V a) {
    return _mm256_or_pd(
        _mm256_and_pd(a, _mm256_castsi256_pd(_mm256_set1_epi64x(
                             static_cast<long long>(0x800fffffffffffffull)))),
        _mm256_set1_pd(1.0));
  }
  static void store_pairs(double* out, V a, V b) {
    const __m256d lo = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
    const __m256d hi = _mm256_unpackhi_pd(a, b);  // a1 b1 a3 b3
    _mm256_storeu_pd(out, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  // The field is below 2^52, so or-ing it into 2^52's mantissa and
  // subtracting 2^52 converts it exactly (AVX2 has no unsigned
  // conversion).
  static V load_u32(const std::uint32_t* p) {
    const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_or_si256(_mm256_cvtepu32_epi64(c),
                            _mm256_set1_epi64x(0x4330000000000000LL))),
        _mm256_set1_pd(0x1p52));
  }
  // A 4x4 transpose turns the four rows' products at one column into one
  // vector, so lane r adds row r's products in ascending column order.
  static void add_row_products(V (&acc)[1], const V (&p)[4][1]) {
    const __m256d t0 = _mm256_unpacklo_pd(p[0][0], p[1][0]);
    const __m256d t1 = _mm256_unpackhi_pd(p[0][0], p[1][0]);
    const __m256d t2 = _mm256_unpacklo_pd(p[2][0], p[3][0]);
    const __m256d t3 = _mm256_unpackhi_pd(p[2][0], p[3][0]);
    acc[0] = _mm256_add_pd(acc[0], _mm256_permute2f128_pd(t0, t2, 0x20));
    acc[0] = _mm256_add_pd(acc[0], _mm256_permute2f128_pd(t1, t3, 0x20));
    acc[0] = _mm256_add_pd(acc[0], _mm256_permute2f128_pd(t0, t2, 0x31));
    acc[0] = _mm256_add_pd(acc[0], _mm256_permute2f128_pd(t1, t3, 0x31));
  }
};

}  // namespace

namespace detail {

const KernelTable kAvx2Kernels = {
    fill_bin_factors,
    dot_counts<Avx2Ops>,
    normal_cdf_batch,
    matmul<Avx2Ops>,
    matvec,
    gram_aat<Avx2Ops>,
    clenshaw_batch<Avx2Ops>,
    tql2_rotate<Avx2Ops>,
    tred2_symv<Avx2Ops>,
    tred2_rank2<Avx2Ops>,
    tred2_reflect<Avx2Ops>,
    // Three vectors (12 entries) per node step: on one thread the EV6
    // grid-25 fill measured 42.1 / 35.3 / 34.4 / 34.8 ms with 1 / 2 / 3 / 4
    // vectors.
    hybrid_row<Avx2Ops, 3>,
    box_muller<Avx2Ops>,
    quad_form_dots<Avx2Ops>,
};

}  // namespace detail
}  // namespace obd::simd

#else  // !(__AVX2__ && __FMA__)

#include "simd/kernels.hpp"

namespace obd::simd::detail {

// Built without AVX2 support: keep the symbol defined (tests and benches
// reference it unconditionally) but alias the scalar reference.
// kScalarKernels is constant-initialized (function addresses only), so
// copying it during dynamic initialization is order-safe.
const KernelTable kAvx2Kernels = kScalarKernels;

}  // namespace obd::simd::detail

#endif  // __AVX2__ && __FMA__
