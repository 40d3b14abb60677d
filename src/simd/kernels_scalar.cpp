// Scalar reference kernels — the dispatch fallback, compiled at the
// baseline ISA. These are the authoritative definitions of the numerical
// contracts in kernels.hpp: each loop is bit-identical to the historical
// inner loop it replaced (montecarlo.cpp's dot_counts/fill_bin_factors,
// matrix.cpp's matmul/multiply/gram_aat, stats::normal_cdf, eigen.cpp's
// tred2/tql2 loops), so forcing
// OBDREL_SIMD=scalar reproduces pre-SIMD results exactly. hybrid_row is
// the exception: it replaced libm's exp/expm1 with the portable ones of
// hybrid_row.hpp, and its scalar variant runs them one lane at a time.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "simd/hybrid_row.hpp"
#include "simd/kernels.hpp"

namespace obd::simd {
namespace {

void fill_bin_factors_scalar(double gb, double x_lo, double step,
                             std::size_t bins, double* out) {
  const double ratio = std::exp(gb * step);
  double p = 0.0;
  for (std::size_t k = 0; k < bins; ++k) {
    if (k % kReanchorInterval == 0)
      p = std::exp(gb * (x_lo + (static_cast<double>(k) + 0.5) * step));
    out[k] = p;
    p *= ratio;
  }
}

// Four explicit independent accumulators combined as (a0 + a2) +
// (a1 + a3); the fixed structure is part of the determinism contract (the
// AVX2 variant reproduces exactly this lane mapping).
double dot_counts_scalar(const std::uint32_t* c, const double* e,
                         std::size_t n) {
  double a0 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;
  double a3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    a0 += static_cast<double>(c[k]) * e[k];
    a1 += static_cast<double>(c[k + 1]) * e[k + 1];
    a2 += static_cast<double>(c[k + 2]) * e[k + 2];
    a3 += static_cast<double>(c[k + 3]) * e[k + 3];
  }
  for (; k < n; ++k) a0 += static_cast<double>(c[k]) * e[k];
  return (a0 + a2) + (a1 + a3);
}

// Exactly stats::normal_cdf per element (same expression, same libm).
void normal_cdf_batch_scalar(const double* z, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = 0.5 * std::erfc(-z[i] / std::sqrt(2.0));
}

// k-tiled ikj product. Per output element the accumulation still visits
// k in ascending order with round(a*b)-then-add and the a == 0.0 skip, so
// the result is bit-identical to the untiled historical loop; the tiling
// only keeps the active B panel cache-resident instead of streaming all
// of B once per output row.
constexpr std::size_t kMatmulTileK = 256;

void matmul_scalar(const double* a, const double* b, double* out,
                   std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t k0 = 0; k0 < k; k0 += kMatmulTileK) {
    const std::size_t k1 = std::min(k, k0 + kMatmulTileK);
    for (std::size_t r = 0; r < m; ++r) {
      const double* arow = a + r * k;
      double* orow = out + r * n;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const double av = arow[kk];
        if (av == 0.0) continue;
        const double* brow = b + kk * n;
        for (std::size_t c = 0; c < n; ++c) orow[c] += av * brow[c];
      }
    }
  }
}

void matvec_scalar(const double* a, const double* x, double* y,
                   std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* arow = a + r * cols;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += arow[c] * x[c];
    y[r] = acc;
  }
}

// Ascending-index single-accumulator dot per upper-triangle entry,
// mirrored — the layout tests pin these exact bits.
void gram_aat_scalar(const double* a, double* g, std::size_t n,
                     std::size_t k) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* ri = a + i * k;
    for (std::size_t j = i; j < n; ++j) {
      const double* rj = a + j * k;
      double s = 0.0;
      for (std::size_t c = 0; c < k; ++c) s += ri[c] * rj[c];
      g[i * n + j] = s;
      g[j * n + i] = s;
    }
  }
}

// Clenshaw recurrence, one pencil at a time. The per-pencil operation
// sequence (s = (2u)*b1; q = s - b2; b = c_k + q — each rounded
// separately, no FMA: this TU is compiled at the baseline ISA, which has
// no fused multiply-add) is the authoritative definition the vector
// variants reproduce lane-for-lane, so all dispatch levels are
// bit-identical by construction.
void clenshaw_batch_scalar(const double* coeffs, std::size_t n,
                           std::size_t m, double u, double* out) {
  if (n == 0) {
    for (std::size_t p = 0; p < m; ++p) out[p] = 0.0;
    return;
  }
  const double tu = 2.0 * u;
  for (std::size_t p = 0; p < m; ++p) {
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

// The EISPACK tred2/tql2 inner loops of la::eigen_symmetric, verbatim in
// their row-order form: the vector variants reproduce these operation
// sequences element for element.
void tql2_rotate_scalar(double* x, double* y, double c, double s,
                        std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double f = y[k];
    y[k] = s * x[k] + c * f;
    x[k] = c * x[k] - s * f;
  }
}

void tred2_symv_scalar(const double* a, std::size_t lda, const double* u,
                       std::size_t m, double* e) {
  for (std::size_t k = 0; k < m; ++k) {
    const double* row = a + k * lda;
    double g = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      g += row[j] * u[j];
      e[j] += row[j] * u[k];
    }
    e[k] = g + row[k] * u[k];
  }
}

void tred2_rank2_scalar(double* a, std::size_t lda, const double* u,
                        double hh, std::size_t m, double* e) {
  for (std::size_t j = 0; j < m; ++j) {
    const double f = u[j];
    const double g = e[j] - hh * f;
    e[j] = g;
    double* row = a + j * lda;
    for (std::size_t k = 0; k <= j; ++k) row[k] -= f * e[k] + g * u[k];
  }
}

void tred2_reflect_scalar(double* a, std::size_t lda, std::size_t rows,
                          const double* u, const double* w, std::size_t len) {
  for (std::size_t j = 0; j < rows; ++j) {
    double* row = a + j * lda;
    double g = 0.0;
    for (std::size_t k = 0; k < len; ++k) g += u[k] * row[k];
    for (std::size_t k = 0; k < len; ++k) row[k] -= g * w[k];
  }
}

// hybrid_row.hpp's operations on one lane. std::fma and std::nearbyint
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
};

void hybrid_row_scalar(const double* u, const double* v, const double* w,
                       std::size_t n_nodes, double gamma, double b_lo,
                       double d_b, double area, std::size_t n_b,
                       double* out) {
  detail::hybrid_row<ScalarOps, 1>(u, v, w, n_nodes, gamma, b_lo, d_b, area,
                                n_b, out);
}

}  // namespace

namespace detail {

const KernelTable kScalarKernels = {
    fill_bin_factors_scalar, dot_counts_scalar,  normal_cdf_batch_scalar,
    matmul_scalar,           matvec_scalar,      gram_aat_scalar,
    clenshaw_batch_scalar,   tql2_rotate_scalar, tred2_symv_scalar,
    tred2_rank2_scalar,      tred2_reflect_scalar, hybrid_row_scalar,
};

}  // namespace detail
}  // namespace obd::simd
