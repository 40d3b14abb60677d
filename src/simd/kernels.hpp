// Kernel table for the runtime-dispatched SIMD layer.
//
// Each entry is one of the straight-line inner loops that dominate
// end-to-end runtime now that the algorithmic fast paths are in place
// (see docs/PERFORMANCE.md, "SIMD kernels"). Three implementations exist:
// a scalar reference (`kernels_scalar.cpp`, compiled at the baseline ISA,
// bit-identical to the loops it replaced except hybrid_row, which traded
// libm's exp/expm1 for portable ones), an AVX2+FMA variant
// (`kernels_avx2.cpp`, compiled per-file with -mavx2 -mfma), and an
// AVX-512F/DQ variant (`kernels_avx512.cpp`, compiled per-file with
// -mavx512f -mavx512dq). Dispatch between them is a process-wide runtime
// decision — see dispatch.hpp.
//
// Exactness contracts (what callers may rely on, per kernel):
//   fill_bin_factors  scalar: bit-identical to the historical loop.
//                     avx2/avx512: same exact-exp re-anchor every
//                     kReanchorInterval bins; between anchors the vector
//                     recurrence steps by ratio^8 per chain, so values
//                     drift from the scalar recurrence by a bounded ~1e-13
//                     relative amount (fewer roundings than scalar, not
//                     more).
//   dot_counts        bit-identical across ALL levels: every variant uses
//                     the same four fixed accumulator lanes (lane l sums
//                     elements 4j+l in ascending j, product rounded before
//                     the add — no FMA), the same scalar tail into lane 0,
//                     and the same final combine (a0 + a2) + (a1 + a3).
//                     The AVX-512 variant folds the high 256-bit half of
//                     each 512-bit product into the same four lanes
//                     low-half-first, preserving ascending-j order per
//                     lane.
//   normal_cdf_batch  scalar: bit-identical to stats::normal_cdf per
//                     element. avx2/avx512: polynomial erfc (identical
//                     coefficient sets and operation sequence), relative
//                     error <= ~1e-12 wherever |result| > 1e-300; exactly
//                     0/1 outside |z| ~ 39.6 (the scalar path underflows
//                     over the same region).
//   matmul            bit-identical across ALL levels AND to the
//                     historical naive ikj loop: per output element the
//                     contributions accumulate onto out's entry value
//                     (out += a*b, not out = a*b) in ascending k with the
//                     same round(product)-then-add sequence and the same
//                     a == 0.0 skip; k-tiling and column vectorization
//                     (4-wide or 8-wide) only reorder independent
//                     elements.
//   gram_aat          bit-identical across ALL levels and to the
//                     historical triangle loop (same ascending-index
//                     single-chain dot per entry, mirrored).
//   matvec            scalar: bit-identical to the historical loop (one
//                     accumulator per row). avx2/avx512: four accumulator
//                     lanes per row (avx512 folds its high half into the
//                     same four lanes) — differs from scalar by normal
//                     dot-product rounding (~1e-15 relative); no caller
//                     pins matvec bits.
//   clenshaw_batch    bit-identical across ALL levels: every pencil runs
//                     the identical per-step operation sequence
//                     s = round((2u)*b1); q = round(s - b2);
//                     b = round(c_k + q) for k = n-1 .. 1, then
//                     out = c_0 + round(round(u*b1) - b2) — separate
//                     mul/sub/add, never FMA. The vector variants map
//                     SIMD lanes to independent pencils (4-wide / 8-wide)
//                     and the scalar tail repeats the same sequence, so
//                     lane width never changes any rounding. The
//                     surrogate layer's certified envelopes rely on this.
//   tql2_rotate,      bit-identical across ALL levels AND to the EISPACK
//   tred2_symv,       tred2/tql2 loops of la::eigen_symmetric they
//   tred2_rank2,      replaced: every element sees the same separate
//   tred2_reflect     mul/add/sub (never FMA) in the same order. Vector
//                     lanes only ever hold independent elements or
//                     independent dot chains: tql2_rotate, tred2_rank2 and
//                     the update half of tred2_reflect run 4-wide along a
//                     row; the dots of tred2_symv (4 rows) and
//                     tred2_reflect (8 rows) put one row per lane behind a
//                     4x4 transpose of the products, so each dot still
//                     sums in ascending index from 0.0; tred2_symv's
//                     e[j] += terms come in ascending row order, and its
//                     4x4 diagonal corner runs in scalar order. The
//                     AVX-512 table serves the AVX2 variants.
//   hybrid_row        bit-identical across ALL levels: one lane is one
//                     table entry b_i = b_lo + i*d_b, summing its nodes
//                     from 0.0 in ascending order, with the argument
//                     formed as (gamma*b)*u + ((((0.5*gamma)*gamma)*b)*b)*v
//                     and every product and sum rounded on its own. exp
//                     and expm1 are the portable ones of hybrid_row.hpp
//                     (Cody-Waite reduction, a degree-13 Estrin core with
//                     FMA, two-factor 2^n scaling; expm1 in three
//                     branches), written once and instantiated per level
//                     with operations that round alike; a vector's unused
//                     tail lanes compute throwaway entries, so lane width
//                     never changes a bit. Error budget: every entry within
//                     8 ULP of the historical std::exp/std::expm1 loop
//                     (tests/mech_test.cpp). The AVX-512 table serves the
//                     AVX2 variant.
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
  /// One gamma row of a hybrid table: for i in [0, n_b), with
  /// b = b_lo + i*d_b, out[i] = sum_k w[k] * -expm1(-area * exp((gamma*b)
  /// * u[k] + ((((0.5*gamma)*gamma)*b)*b) * v[k])) over the n_nodes nodes
  /// in ascending k. Any argument is allowed: exp overflow gives a term of
  /// w[k], underflow a term of 0, and NaN propagates.
  void (*hybrid_row)(const double* u, const double* v, const double* w,
                     std::size_t n_nodes, double gamma, double b_lo,
                     double d_b, double area, std::size_t n_b, double* out);
};

/// The table for the active dispatch level (lazily resolved from
/// OBDREL_SIMD on first use — see dispatch.hpp).
const KernelTable& kernels();

namespace detail {
extern const KernelTable kScalarKernels;
// The vector tables alias kScalarKernels when their translation unit is
// built without the matching ISA, so taking either symbol is always safe;
// dispatch never selects a level the CPU cannot run.
extern const KernelTable kAvx2Kernels;
extern const KernelTable kAvx512Kernels;

// The AVX2 eigensolver and hybrid_row kernels, which the AVX-512 table
// serves as well
// (that tier has no variant of its own). Defined only in builds that
// compile the AVX2 tier; the AVX-512 tier is only compiled alongside it.
void tql2_rotate_avx2(double* x, double* y, double c, double s,
                      std::size_t n);
void tred2_symv_avx2(const double* a, std::size_t lda, const double* u,
                     std::size_t m, double* e);
void tred2_rank2_avx2(double* a, std::size_t lda, const double* u, double hh,
                      std::size_t m, double* e);
void tred2_reflect_avx2(double* a, std::size_t lda, std::size_t rows,
                        const double* u, const double* w, std::size_t len);
void hybrid_row_avx2(const double* u, const double* v, const double* w,
                     std::size_t n_nodes, double gamma, double b_lo,
                     double d_b, double area, std::size_t n_b, double* out);
}  // namespace detail

}  // namespace obd::simd
