// Kernel table for the runtime-dispatched SIMD layer.
//
// Each entry is one of the straight-line inner loops that dominate
// end-to-end runtime now that the algorithmic fast paths are in place
// (see docs/PERFORMANCE.md, "SIMD kernels"). Two tables exist: a scalar
// one (`kernels_scalar.cpp`, compiled at the baseline ISA) and an
// AVX2+FMA one (`kernels_avx2.cpp`, compiled per-file with -mavx2 -mfma).
// Eleven kernels are written once, as templates on an Ops policy that each
// table instantiates at its own width (kernel_bodies.hpp, hybrid_row.hpp,
// box_muller.hpp); fill_bin_factors, normal_cdf_batch and matvec have one
// implementation that both tables serve. The scalar table is the
// historical arithmetic bit for bit except in three kernels: hybrid_row
// and box_muller traded libm's exp/expm1 and log/sin/cos for portable
// ones, and quad_form_dots sums in four lanes where st_MC's sample loop
// ran three single-chain dots. Dispatch between the tables
// (auto | avx2 | scalar) is a process-wide runtime decision — see
// dispatch.hpp.
//
// Exactness contracts (what callers may rely on, per kernel):
//   dot_counts, quad_form_dots, matmul, gram_aat, clenshaw_batch,
//   tql2_rotate, tred2_symv, tred2_rank2, tred2_reflect
//                     bit-identical across ALL levels by construction:
//                     one body each in kernel_bodies.hpp, in which a lane
//                     only holds an independent element, dot chain or
//                     pencil and every product is rounded before its add
//                     or sub (never FMA), so each value sees the same
//                     operation sequence at any width. Each is also the
//                     historical loop bit for bit except quad_form_dots:
//                     dot_counts sums in four fixed lanes (lane l takes
//                     elements 4j+l in ascending j, the tail goes into
//                     lane 0, combined as (a0 + a2) + (a1 + a3)); matmul
//                     adds round(a*b) onto out's entry value in ascending
//                     k with the a == 0.0 skip; gram_aat is the ascending
//                     single-chain dot per upper-triangle entry, mirrored;
//                     clenshaw_batch runs s = round((2u)*b1);
//                     q = round(s - b2); b = round(c_k + q) for
//                     k = n-1 .. 1, then out = c_0 + round(round(u*b1) -
//                     b2) per pencil (the surrogate layer's certified
//                     envelopes rely on this); the tred2/tql2 kernels are
//                     the EISPACK loops of la::eigen_symmetric they
//                     replaced, every dot summing in ascending index from
//                     0.0.
//   fill_bin_factors  single implementation: the historical loop.
//   normal_cdf_batch  single implementation: stats::normal_cdf per element.
//   matvec            single implementation: the historical loop (one
//                     accumulator per row).
//   hybrid_row        bit-identical across ALL levels and both scalar
//                     builds: one lane is one table entry b_e = b_lo +
//                     e*d_b, summing its nu*nv tensor-product nodes, node
//                     (i, k) with weight wu_i*wv_k formed in the kernel,
//                     from 0.0 u-row by u-row in ascending i. The
//                     integrand exp(gb*u_i + c*v_k) is the product
//                     P_i * Q_k of P_i = exp((gamma*b)*u_i), taken once
//                     per u value, and Q_k = -area *
//                     exp(((((0.5*gamma)*gamma)*b)*b)*v_k), once per v
//                     value, so an entry costs nu + nv exps, not nu*nv.
//                     A u-row whose P_i * max_k |Q_k| is below 2^-10 (and
//                     whose lane's moments pass the range checks of
//                     hybrid_row.hpp) is one term, wu_i times the
//                     five-term series sum_m P_i^m * C_m in the lane's
//                     moments C_m = sum_k wv_k*Q_k^m/m!, by Horner with
//                     FMA; any other u-row adds its nodes in ascending k,
//                     (wu_i*wv_k) * -expm1(P_i*Q_k), every product and
//                     sum rounded on its own. The choice is per lane, on
//                     that lane's own values only, so an entry with no
//                     series row is the plain node sum in ascending
//                     n = i*nv + k. exp and expm1 are the portable ones of
//                     hybrid_row.hpp (Cody-Waite reduction, a degree-13
//                     Estrin core with FMA, two-factor 2^n scaling; expm1
//                     in three branches, -1 for a group saturated below
//                     -40), written once and instantiated per level with
//                     operations that round alike; a vector's unused tail
//                     lanes compute throwaway entries, so lane width never
//                     changes a bit (extreme arguments: see the member
//                     below). Error budget: the worst relative error of
//                     any entry against a long-double evaluation of the
//                     same node sum is at most 8 * 2^-52 above the
//                     historical std::exp / std::expm1 loop's
//                     (tests/mech_test.cpp); an entry of series rows at
//                     |y| just under 2^-10 is within (nu + nv + 8) *
//                     2^-53 of the long-double expm1 sum over the same
//                     rounded exp arguments (tests/simd_test.cpp).
//   box_muller        bit-identical across ALL levels and both scalar
//                     builds: one lane is one uniform pair, run through
//                     box_muller.hpp's portable log (fdlibm's e_log.c
//                     form, log(1) exactly 0) and sin/cos of
//                     theta = (2 pi) * u2 (a three-part Cody-Waite pi/2
//                     reduction and fdlibm's minimax kernels), then
//                     IEEE sqrt and the products r cos theta and
//                     r sin theta, in Rng::normal()'s order; a vector's
//                     padding lanes compute throwaway pairs. Error budget:
//                     every normal within 8 ULP of libm's
//                     sqrt(-2 log u1) * cos/sin((2 pi) * u2) on the same
//                     uniforms, +0 and -0 counted equal
//                     (tests/simd_test.cpp).
//   quad_form_dots    (above) not the historical arithmetic: the three
//                     sums alpha.y, beta.y and sum (lambda_i*y_i)*y_i each
//                     follow dot_counts' lane structure, so it needs no
//                     FMA build and runs as fast on hosts without FMA.
//                     NaN and inf entries propagate as in any IEEE sum
//                     (which NaN comes out is not fixed). Error budget:
//                     each sum within (n/4 + 6) * 2^-53 * sum |terms| of
//                     the exact one (tests/simd_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

namespace obd::simd {

/// Accumulator lane count of dot_counts. Callers that align ranges to the
/// accumulator structure (e.g. the Monte Carlo nonzero-range trimming)
/// must use this width so trimming stays bit-neutral.
inline constexpr std::size_t kDotLanes = 4;

/// Bins between exact-exp re-anchors in fill_bin_factors. Part of the
/// numerical contract shared with core::detail::kReanchorInterval.
inline constexpr std::size_t kReanchorInterval = 64;

/// One dispatch level's implementations. All pointers are always valid.
struct KernelTable {
  /// out[k] = exp(gb * (x_lo + (k + 0.5) * step)) for k in [0, bins),
  /// via an incremental recurrence re-anchored by an exact exp every
  /// kReanchorInterval bins. `out` must hold `bins` doubles.
  void (*fill_bin_factors)(double gb, double x_lo, double step,
                           std::size_t bins, double* out);
  /// Dot product of uint32 counts against double factors with the fixed
  /// four-lane accumulator structure (see contract above).
  double (*dot_counts)(const std::uint32_t* counts, const double* factors,
                       std::size_t n);
  /// out[i] = standard normal CDF of z[i]. In-place (out == z) is allowed.
  void (*normal_cdf_batch)(const double* z, std::size_t n, double* out);
  /// out(m x n) += a(m x k) * b(k x n), row-major: each out(r, c) starts
  /// from its value on entry and adds round(a(r, kk) * b(kk, c)) in
  /// ascending kk (zero-fill out first for a plain product). Skips
  /// a(r, kk) == 0.0 exactly like the historical loop.
  void (*matmul)(const double* a, const double* b, double* out,
                 std::size_t m, std::size_t k, std::size_t n);
  /// y(rows) = a(rows x cols) * x(cols), row-major.
  void (*matvec)(const double* a, const double* x, double* y,
                 std::size_t rows, std::size_t cols);
  /// g(n x n) = a(n x k) * a(n x k)^T, row-major, symmetric (upper
  /// triangle computed, lower mirrored bitwise).
  void (*gram_aat)(const double* a, double* g, std::size_t n,
                   std::size_t k);
  /// Clenshaw evaluation of m interleaved Chebyshev pencils at one point
  /// u in [-1, 1]: out[p] = sum_{k < n} coeffs[k * m + p] * T_k(u) for
  /// each pencil p in [0, m). n == 0 zero-fills `out`; in-place
  /// (out == coeffs) is NOT allowed. Bit-identical across all levels
  /// (see contract above).
  void (*clenshaw_batch)(const double* coeffs, std::size_t n, std::size_t m,
                         double u, double* out);
  /// tql2's plane rotation of two rows: for k in [0, n), with f = y[k],
  /// y[k] = s*x[k] + c*f and x[k] = c*x[k] - s*f. x and y must not
  /// overlap.
  void (*tql2_rotate)(double* x, double* y, double c, double s,
                      std::size_t n);
  /// tred2's e loop, e = A u from the lower triangle of the row-major
  /// m x m block `a` (row stride lda): for k in [0, m), g = sum_{j<k}
  /// a(k,j)*u[j] from 0.0 in ascending j while e[j] += a(k,j)*u[k], then
  /// e[k] = g + a(k,k)*u[k]. `u` may be a row of `a` below the block;
  /// `e` (m doubles) must not overlap `a`.
  void (*tred2_symv)(const double* a, std::size_t lda, const double* u,
                     std::size_t m, double* e);
  /// tred2's rank-2 update: for j in [0, m), g = e[j] - hh*u[j] is stored
  /// to e[j], then a(j,k) -= u[j]*e[k] + g*u[k] for k <= j. `u` may be a
  /// row of `a` below the block; `e` must not overlap `a`.
  void (*tred2_rank2)(double* a, std::size_t lda, const double* u,
                      double hh, std::size_t m, double* e);
  /// tred2's transform accumulation, a Householder reflection of `rows`
  /// rows of `a` (row stride lda): per row j, g = sum_k u[k]*a(j,k) from
  /// 0.0 in ascending k over [0, len), then a(j,k) -= g*w[k]. `u` and `w`
  /// must not overlap the rows updated.
  void (*tred2_reflect)(double* a, std::size_t lda, std::size_t rows,
                        const double* u, const double* w, std::size_t len);
  /// One gamma row of a hybrid table over the tensor product of nu u
  /// values (weights wu) and nv v values (weights wv): node (i, k) is
  /// (u[i], v[k]) with weight wu[i]*wv[k]. For e in [0, n_b), with b =
  /// b_lo + e*d_b, out[e] = sum over i, k of wu[i]*wv[k] *
  /// -expm1(P_i * Q_k), where P_i = exp((gamma*b) * u[i]) and Q_k = -area
  /// * exp(((((0.5*gamma)*gamma)*b)*b) * v[k]); a u-row whose every
  /// |P_i * Q_k| is below 2^-10 is summed as a five-term series in the
  /// entry's v moments (contract above). Any argument is allowed:
  /// P_i*Q_k = -inf gives a term of the node weight, 0 a term of 0, and
  /// NaN propagates. At extreme arguments one factor can overflow while
  /// the other underflows: P_i = +inf with Q_k = 0 (or 0 with -inf) makes
  /// the term NaN, where exp of the summed argument might have been
  /// finite. The series is accurate for weights >= 0, as quadrature
  /// weights are.
  void (*hybrid_row)(const double* u, const double* wu, std::size_t nu,
                     const double* v, const double* wv, std::size_t nv,
                     double gamma, double b_lo, double d_b, double area,
                     std::size_t n_b, double* out);
  /// Box-Muller over n uniform pairs: with r = sqrt(-2 log u1[p]) and
  /// theta = (2 pi) * u2[p], out[2p] = r cos(theta) and out[2p + 1] =
  /// r sin(theta). Requires u1[p] in [2^-1022, 1] and u2[p] in [0, 1), as
  /// Rng::uniform_positive() and Rng::uniform() give. `out` holds 2n
  /// doubles.
  void (*box_muller)(const double* u1, const double* u2, std::size_t n,
                     double* out);
  /// The three per-sample sums of st_MC's (u, v) in the eigenbasis of a
  /// block's quadratic form: out[0] = alpha.y, out[1] = beta.y and
  /// out[2] = sum_i (lambda[i]*y[i])*y[i] over [0, n), each in the
  /// four-lane order of the contract above. `out` holds 3 doubles; n == 0
  /// gives zeros.
  void (*quad_form_dots)(const double* alpha, const double* beta,
                         const double* lambda, const double* y,
                         std::size_t n, double* out);
};

/// The table for the active dispatch level (lazily resolved from
/// OBDREL_SIMD on first use — see dispatch.hpp).
const KernelTable& kernels();

namespace detail {
extern const KernelTable kScalarKernels;
// The one implementation of each of these three, compiled at the baseline
// ISA; both tables serve it.
void fill_bin_factors(double gb, double x_lo, double step, std::size_t bins,
                      double* out);
void normal_cdf_batch(const double* z, std::size_t n, double* out);
void matvec(const double* a, const double* x, double* y, std::size_t rows,
            std::size_t cols);
// The scalar table's hybrid_row and box_muller each run one template body
// in two builds: at the baseline ISA, where std::fma and std::nearbyint
// are libm calls, and with FMA and SSE4.1 enabled, where they are single
// instructions. Both give the same bits. The table picks the _fma builds
// when has_fma_build(); elsewhere (no FMA, or not x86-64 GCC/Clang) they
// run the baseline builds.
void hybrid_row_baseline(const double* u, const double* wu, std::size_t nu,
                         const double* v, const double* wv, std::size_t nv,
                         double gamma, double b_lo, double d_b, double area,
                         std::size_t n_b, double* out);
void hybrid_row_fma(const double* u, const double* wu, std::size_t nu,
                    const double* v, const double* wv, std::size_t nv,
                    double gamma, double b_lo, double d_b, double area,
                    std::size_t n_b, double* out);
void box_muller_baseline(const double* u1, const double* u2, std::size_t n,
                         double* out);
void box_muller_fma(const double* u1, const double* u2, std::size_t n,
                    double* out);
bool has_fma_build();
// Aliases kScalarKernels when kernels_avx2.cpp is built without the ISA,
// so taking the symbol is always safe; dispatch never selects a level the
// CPU cannot run.
extern const KernelTable kAvx2Kernels;
}  // namespace detail

}  // namespace obd::simd
