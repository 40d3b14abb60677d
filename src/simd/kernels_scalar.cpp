// The scalar kernel table, compiled at the baseline ISA: ScalarOps, the
// one-lane policy that instantiates the shared bodies (kernel_bodies.hpp,
// hybrid_row.hpp, box_muller.hpp); the one implementation of
// fill_bin_factors, normal_cdf_batch and matvec, which both tables serve;
// and the baseline and FMA builds of hybrid_row and box_muller (the two
// functions here compiled above the baseline ISA). kernels.hpp states
// which kernels are the historical arithmetic bit for bit.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "simd/box_muller.hpp"
#include "simd/hybrid_row.hpp"
#include "simd/kernel_bodies.hpp"
#include "simd/kernels.hpp"

namespace obd::simd {
namespace {

// The shared bodies' operations on one lane. std::fma and std::nearbyint
// round exactly like _mm256_fmadd_pd and _mm256_round_pd (nearest), max
// and min keep maxpd/minpd's NaN rule, and scale_pow2 converts a NaN
// exponent to INT32_MIN as cvtpd2dq does, so each lane matches the AVX2
// kernel bit for bit. fnma negates the constant operand, never a possible
// NaN, as fnmadd leaves a NaN's sign alone.
struct ScalarOps {
  using V = double;
  using M = bool;
  static constexpr std::size_t kWidth = 1;
  static V set1(double a) { return a; }
  static V iota(std::size_t i0) { return static_cast<double>(i0); }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V mul(V a, V b) { return a * b; }
  static V abs(V a) { return std::fabs(a); }
  static V fma(V a, V b, V c) { return std::fma(a, b, c); }
  static V fnma(V a, V b, V c) { return std::fma(a, -b, c); }
  static V round_nearest(V a) { return std::nearbyint(a); }
  static V max(V a, V b) { return a > b ? a : b; }
  static V min(V a, V b) { return a < b ? a : b; }
  static V scale_pow2(V p, V nf) {
    const std::int32_t n = nf == nf ? static_cast<std::int32_t>(nf)
                                    : std::numeric_limits<std::int32_t>::min();
    const std::int32_t n1 = n >> 1;
    const auto pow2 = [](std::int32_t m) {
      return std::bit_cast<double>(
          static_cast<std::uint64_t>(static_cast<std::int64_t>(m) + 1023)
          << 52);
    };
    return (p * pow2(n1)) * pow2(n - n1);
  }
  static M lt(V a, V b) { return a < b; }
  static M gt(V a, V b) { return a > b; }
  static V select(M m, V a, V b) { return m ? a : b; }
  static bool any(M m) { return m; }
  static bool all(M m) { return m; }
  static void store(double* out, V a) { *out = a; }
  static V load(const double* p) { return *p; }
  static V div(V a, V b) { return a / b; }
  static V sqrt(V a) { return std::sqrt(a); }
  static V exponent(V a) {
    return static_cast<double>(
        static_cast<std::int64_t>((std::bit_cast<std::uint64_t>(a) >> 52) &
                                  0x7ff) -
        1023);
  }
  static V mantissa(V a) {
    return std::bit_cast<double>(
        (std::bit_cast<std::uint64_t>(a) & 0x800fffffffffffffull) |
        0x3ff0000000000000ull);
  }
  static void store_pairs(double* out, V a, V b) {
    out[0] = a;
    out[1] = b;
  }
  static V load_u32(const std::uint32_t* p) { return static_cast<double>(*p); }
  static void add_row_products(V (&acc)[4], const V (&p)[4][4]) {
    for (std::size_t r = 0; r < 4; ++r)
      for (std::size_t c = 0; c < 4; ++c) acc[r] += p[r][c];
  }
};

// The scalar table's hybrid_row and box_muller: the FMA build where the
// CPU has one, else the baseline build, chosen once.
void hybrid_row_scalar(const double* u, const double* wu, std::size_t nu,
                       const double* v, const double* wv, std::size_t nv,
                       double gamma, double b_lo, double d_b, double area,
                       std::size_t n_b, double* out) {
  static const auto build = detail::has_fma_build()
                                ? detail::hybrid_row_fma
                                : detail::hybrid_row_baseline;
  build(u, wu, nu, v, wv, nv, gamma, b_lo, d_b, area, n_b, out);
}

void box_muller_scalar(const double* u1, const double* u2, std::size_t n,
                       double* out) {
  static const auto build = detail::has_fma_build()
                                ? detail::box_muller_fma
                                : detail::box_muller_baseline;
  build(u1, u2, n, out);
}

}  // namespace

namespace detail {

void fill_bin_factors(double gb, double x_lo, double step, std::size_t bins,
                      double* out) {
  const double ratio = std::exp(gb * step);
  double p = 0.0;
  for (std::size_t k = 0; k < bins; ++k) {
    if (k % kReanchorInterval == 0)
      p = std::exp(gb * (x_lo + (static_cast<double>(k) + 0.5) * step));
    out[k] = p;
    p *= ratio;
  }
}

// Exactly stats::normal_cdf per element (same expression, same libm).
void normal_cdf_batch(const double* z, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = 0.5 * std::erfc(-z[i] / std::sqrt(2.0));
}

void matvec(const double* a, const double* x, double* y, std::size_t rows,
            std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* arow = a + r * cols;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += arow[c] * x[c];
    y[r] = acc;
  }
}

void hybrid_row_baseline(const double* u, const double* wu, std::size_t nu,
                         const double* v, const double* wv, std::size_t nv,
                         double gamma, double b_lo, double d_b, double area,
                         std::size_t n_b, double* out) {
  hybrid_row<ScalarOps, 1>(u, wu, nu, v, wv, nv, gamma, b_lo, d_b, area, n_b,
                           out);
}

void box_muller_baseline(const double* u1, const double* u2, std::size_t n,
                         double* out) {
  box_muller<ScalarOps>(u1, u2, n, out);
}

#if defined(__x86_64__) && defined(__GNUC__)
// The same template body with FMA and SSE4.1 enabled: flatten inlines it
// here, where std::fma compiles to vfmadd and std::nearbyint to roundsd
// instead of libm calls. Both round as libm does, so the bits match the
// baseline build's.
[[gnu::target("fma,sse4.1"), gnu::flatten]] void hybrid_row_fma(
    const double* u, const double* wu, std::size_t nu, const double* v,
    const double* wv, std::size_t nv, double gamma, double b_lo, double d_b,
    double area, std::size_t n_b, double* out) {
  hybrid_row<ScalarOps, 1>(u, wu, nu, v, wv, nv, gamma, b_lo, d_b, area, n_b,
                           out);
}

[[gnu::target("fma,sse4.1"), gnu::flatten]] void box_muller_fma(
    const double* u1, const double* u2, std::size_t n, double* out) {
  box_muller<ScalarOps>(u1, u2, n, out);
}

bool has_fma_build() {
  return __builtin_cpu_supports("fma") && __builtin_cpu_supports("sse4.1");
}
#else
void hybrid_row_fma(const double* u, const double* wu, std::size_t nu,
                    const double* v, const double* wv, std::size_t nv,
                    double gamma, double b_lo, double d_b, double area,
                    std::size_t n_b, double* out) {
  hybrid_row_baseline(u, wu, nu, v, wv, nv, gamma, b_lo, d_b, area, n_b, out);
}

void box_muller_fma(const double* u1, const double* u2, std::size_t n,
                    double* out) {
  box_muller_baseline(u1, u2, n, out);
}

bool has_fma_build() { return false; }
#endif

const KernelTable kScalarKernels = {
    fill_bin_factors,
    dot_counts<ScalarOps>,
    normal_cdf_batch,
    matmul<ScalarOps>,
    matvec,
    gram_aat<ScalarOps>,
    clenshaw_batch<ScalarOps>,
    tql2_rotate<ScalarOps>,
    tred2_symv<ScalarOps>,
    tred2_rank2<ScalarOps>,
    tred2_reflect<ScalarOps>,
    hybrid_row_scalar,
    box_muller_scalar,
    quad_form_dots<ScalarOps>,
};

}  // namespace detail
}  // namespace obd::simd
