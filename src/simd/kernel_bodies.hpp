// The kernels that are bit-identical across dispatch levels, each written
// once for every level the way hybrid_row.hpp and box_muller.hpp write
// theirs: dot_counts, quad_form_dots, matmul, gram_aat, clenshaw_batch and
// the four tred2/tql2 kernels of la::eigen_symmetric.
//
// Each body is a template on the level's Ops policy (kernels_scalar.cpp:
// one double per lane; kernels_avx2.cpp: four). A lane only ever holds an
// independent element, an independent dot chain or an independent pencil,
// and every product is rounded before its add or sub (never FMA: both
// kernel translation units build with -ffp-contract=off), so each value
// sees the same operation sequence at any width and the levels agree bit
// for bit. Past the last whole vector or block, a body goes on in plain
// double arithmetic with the same operations, at every width (the dot
// tails, the corners of tred2_symv's blocks, tred2_reflect's single
// rows). Everything here is a template on Ops or constant data, and
// only the two kernel translation units include it, so nothing is
// emitted until a level instantiates it with its own ISA flags.
//
// Beyond hybrid_row.hpp's and box_muller.hpp's operations, Ops provides:
// load_u32 (kWidth uint32 values, each converted exactly to double) and
// add_row_products(acc, p), which adds four rows' products at four
// consecutive columns to four dot chains, one per row, each taking its
// row's products in ascending column order. acc holds the chains as
// 4 / kWidth vectors (chain r in lane r % kWidth of acc[r / kWidth]) and
// p[r] holds row r's four products in the same layout; at width 4 it is
// a 4x4 transpose and four vector adds, at width 1 four scalar chains.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/kernels.hpp"

namespace obd::simd::detail {

// Unrolls the short loops over a body's vectors, so that at width 1 the
// per-lane accumulators stay in registers.
#define OBD_KERNEL_UNROLL _Pragma("GCC unroll 8")

// Rows and columns of one add_row_products step.
inline constexpr std::size_t kRowBlock = 4;

// dot_counts: kDotLanes accumulator lanes, lane l summing c[k] * e[k] for
// k = 4j + l in ascending j; the elements past the last whole group go
// into lane 0 and the lanes combine as (a0 + a2) + (a1 + a3).
template <class Ops>
double dot_counts(const std::uint32_t* c, const double* e, std::size_t n) {
  using V = typename Ops::V;
  constexpr std::size_t kW = Ops::kWidth;
  constexpr std::size_t kV = kDotLanes / kW;
  V acc[kV];
  OBD_KERNEL_UNROLL
  for (V& a : acc) a = Ops::set1(0.0);
  std::size_t k = 0;
  for (; k + kDotLanes <= n; k += kDotLanes) {
    OBD_KERNEL_UNROLL
    for (std::size_t g = 0; g < kV; ++g)
      acc[g] = Ops::add(acc[g], Ops::mul(Ops::load_u32(c + k + g * kW),
                                         Ops::load(e + k + g * kW)));
  }
  double a[kDotLanes];
  OBD_KERNEL_UNROLL
  for (std::size_t g = 0; g < kV; ++g) Ops::store(a + g * kW, acc[g]);
  for (; k < n; ++k) a[0] += static_cast<double>(c[k]) * e[k];
  return (a[0] + a[2]) + (a[1] + a[3]);
}

// quad_form_dots: dot_counts' lanes for each of alpha.y, beta.y and
// sum (lambda_i*y_i)*y_i.
template <class Ops>
void quad_form_dots(const double* alpha, const double* beta,
                    const double* lambda, const double* y, std::size_t n,
                    double* out) {
  using V = typename Ops::V;
  constexpr std::size_t kW = Ops::kWidth;
  constexpr std::size_t kV = kDotLanes / kW;
  V acc_a[kV];
  V acc_b[kV];
  V acc_q[kV];
  OBD_KERNEL_UNROLL
  for (std::size_t g = 0; g < kV; ++g)
    acc_a[g] = acc_b[g] = acc_q[g] = Ops::set1(0.0);
  std::size_t k = 0;
  for (; k + kDotLanes <= n; k += kDotLanes) {
    OBD_KERNEL_UNROLL
    for (std::size_t g = 0; g < kV; ++g) {
      const std::size_t i = k + g * kW;
      const V yv = Ops::load(y + i);
      acc_a[g] = Ops::add(acc_a[g], Ops::mul(Ops::load(alpha + i), yv));
      acc_b[g] = Ops::add(acc_b[g], Ops::mul(Ops::load(beta + i), yv));
      acc_q[g] = Ops::add(
          acc_q[g], Ops::mul(Ops::mul(Ops::load(lambda + i), yv), yv));
    }
  }
  double a[kDotLanes];
  double b[kDotLanes];
  double q[kDotLanes];
  OBD_KERNEL_UNROLL
  for (std::size_t g = 0; g < kV; ++g) {
    Ops::store(a + g * kW, acc_a[g]);
    Ops::store(b + g * kW, acc_b[g]);
    Ops::store(q + g * kW, acc_q[g]);
  }
  for (; k < n; ++k) {
    a[0] += alpha[k] * y[k];
    b[0] += beta[k] * y[k];
    q[0] += (lambda[k] * y[k]) * y[k];
  }
  out[0] = (a[0] + a[2]) + (a[1] + a[3]);
  out[1] = (b[0] + b[2]) + (b[1] + b[3]);
  out[2] = (q[0] + q[2]) + (q[1] + q[3]);
}

// out[c] += av * b[c] for c in [0, n), two vectors a step: the shared
// GEMM/SYRK inner step, every element independent.
template <class Ops>
[[gnu::always_inline]] inline void axpy_row(double* out, const double* b,
                                            double av, std::size_t n) {
  constexpr std::size_t kW = Ops::kWidth;
  const typename Ops::V va = Ops::set1(av);
  std::size_t c = 0;
  for (; c + 2 * kW <= n; c += 2 * kW) {
    Ops::store(out + c, Ops::add(Ops::load(out + c),
                                 Ops::mul(va, Ops::load(b + c))));
    Ops::store(out + c + kW, Ops::add(Ops::load(out + c + kW),
                                      Ops::mul(va, Ops::load(b + c + kW))));
  }
  for (; c + kW <= n; c += kW)
    Ops::store(out + c, Ops::add(Ops::load(out + c),
                                 Ops::mul(va, Ops::load(b + c))));
  for (; c < n; ++c) out[c] += av * b[c];
}

// matmul's k tile: the active panel of b stays cache-resident instead of
// all of b streaming past once per output row. Each out(r, c) still adds
// its terms in ascending kk.
inline constexpr std::size_t kMatmulTileK = 256;

template <class Ops>
void matmul(const double* a, const double* b, double* out, std::size_t m,
            std::size_t k, std::size_t n) {
  for (std::size_t k0 = 0; k0 < k; k0 += kMatmulTileK) {
    const std::size_t k1 = std::min(k, k0 + kMatmulTileK);
    for (std::size_t r = 0; r < m; ++r) {
      const double* arow = a + r * k;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const double av = arow[kk];
        if (av == 0.0) continue;
        axpy_row<Ops>(out + r * n, b + kk * n, av, n);
      }
    }
  }
}

// SYRK as a row-axpy sweep over the transpose of a: every upper-triangle
// entry g(i, j) adds a(i,c)*a(j,c) to 0.0 in ascending c, the sequence of
// the single-chain triangle loop; the lower triangle mirrors it.
template <class Ops>
void gram_aat(const double* a, double* g, std::size_t n, std::size_t k) {
  std::vector<double> at(k * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < k; ++c) at[c * n + i] = a[i * k + c];
  for (std::size_t i = 0; i < n; ++i) {
    double* gi = g + i * n;
    std::fill(gi + i, gi + n, 0.0);
    const double* ai = a + i * k;
    for (std::size_t c = 0; c < k; ++c)
      axpy_row<Ops>(gi + i, at.data() + c * n + i, ai[c], n - i);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) g[j * n + i] = g[i * n + j];
}

// Clenshaw over interleaved pencils, one pencil per lane: s = (2u)*b1;
// q = s - b2; b = c_k + q for k = n-1 .. 1, then c_0 + (u*b1 - b2).
template <class Ops>
void clenshaw_batch(const double* coeffs, std::size_t n, std::size_t m,
                    double u, double* out) {
  using V = typename Ops::V;
  constexpr std::size_t kW = Ops::kWidth;
  if (n == 0) {
    std::fill(out, out + m, 0.0);
    return;
  }
  const double tu = 2.0 * u;
  std::size_t p = 0;
  for (; p + kW <= m; p += kW) {
    V b1 = Ops::set1(0.0);
    V b2 = Ops::set1(0.0);
    for (std::size_t k = n - 1; k >= 1; --k) {
      const V s = Ops::mul(Ops::set1(tu), b1);
      const V q = Ops::sub(s, b2);
      const V b = Ops::add(Ops::load(coeffs + k * m + p), q);
      b2 = b1;
      b1 = b;
    }
    const V s = Ops::mul(Ops::set1(u), b1);
    Ops::store(out + p, Ops::add(Ops::load(coeffs + p), Ops::sub(s, b2)));
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
// The EISPACK tred2/tql2 inner loops of la::eigen_symmetric. Row updates
// run along the row; a dot is one lane's chain, summing from 0.0 in
// ascending index.

template <class Ops>
void tql2_rotate(double* x, double* y, double c, double s, std::size_t n) {
  using V = typename Ops::V;
  constexpr std::size_t kW = Ops::kWidth;
  const V vc = Ops::set1(c);
  const V vs = Ops::set1(s);
  std::size_t k = 0;
  for (; k + kW <= n; k += kW) {
    const V xv = Ops::load(x + k);
    const V yv = Ops::load(y + k);
    Ops::store(y + k, Ops::add(Ops::mul(vs, xv), Ops::mul(vc, yv)));
    Ops::store(x + k, Ops::sub(Ops::mul(vc, xv), Ops::mul(vs, yv)));
  }
  for (; k < n; ++k) {
    const double f = y[k];
    y[k] = s * x[k] + c * f;
    x[k] = c * x[k] - s * f;
  }
}

// Rows in blocks of kRowBlock. For j below the block, one pass over its
// rows both adds their terms to e[j] (in ascending row order) and
// advances their dots (one chain per row); the corner on and below the
// block's diagonal then runs in scalar order, as do the leftover rows.
template <class Ops>
void tred2_symv(const double* a, std::size_t lda, const double* u,
                std::size_t m, double* e) {
  using V = typename Ops::V;
  constexpr std::size_t kW = Ops::kWidth;
  constexpr std::size_t kV = kRowBlock / kW;
  std::size_t k0 = 0;
  for (; k0 + kRowBlock <= m; k0 += kRowBlock) {
    const double* r0 = a + k0 * lda;
    V uk[kRowBlock];
    OBD_KERNEL_UNROLL
    for (std::size_t r = 0; r < kRowBlock; ++r) uk[r] = Ops::set1(u[k0 + r]);
    V acc[kV];
    OBD_KERNEL_UNROLL
    for (V& x : acc) x = Ops::set1(0.0);
    for (std::size_t j = 0; j < k0; j += kRowBlock) {
      V x[kRowBlock][kV];
      OBD_KERNEL_UNROLL
      for (std::size_t g = 0; g < kV; ++g) {
        V ev = Ops::load(e + j + g * kW);
        OBD_KERNEL_UNROLL
        for (std::size_t r = 0; r < kRowBlock; ++r) {
          x[r][g] = Ops::load(r0 + r * lda + j + g * kW);
          ev = Ops::add(ev, Ops::mul(x[r][g], uk[r]));
        }
        Ops::store(e + j + g * kW, ev);
      }
      V p[kRowBlock][kV];
      OBD_KERNEL_UNROLL
      for (std::size_t g = 0; g < kV; ++g) {
        const V uj = Ops::load(u + j + g * kW);
        OBD_KERNEL_UNROLL
        for (std::size_t r = 0; r < kRowBlock; ++r)
          p[r][g] = Ops::mul(x[r][g], uj);
      }
      Ops::add_row_products(acc, p);
    }
    double g[kRowBlock];
    OBD_KERNEL_UNROLL
    for (std::size_t v = 0; v < kV; ++v) Ops::store(g + v * kW, acc[v]);
    for (std::size_t r = 0; r < kRowBlock; ++r) {
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

template <class Ops>
void tred2_rank2(double* a, std::size_t lda, const double* u, double hh,
                 std::size_t m, double* e) {
  using V = typename Ops::V;
  constexpr std::size_t kW = Ops::kWidth;
  for (std::size_t j = 0; j < m; ++j) {
    const double f = u[j];
    const double g = e[j] - hh * f;
    e[j] = g;
    double* row = a + j * lda;
    const V vf = Ops::set1(f);
    const V vg = Ops::set1(g);
    std::size_t k = 0;
    for (; k + kW <= j + 1; k += kW)
      Ops::store(row + k,
                 Ops::sub(Ops::load(row + k),
                          Ops::add(Ops::mul(vf, Ops::load(e + k)),
                                   Ops::mul(vg, Ops::load(u + k)))));
    for (; k <= j; ++k) row[k] -= f * e[k] + g * u[k];
  }
}

// out[r] = sum_k u[k] * a(r, k) over [0, len) from 0.0 in ascending k, for
// kRows rows; kRows / kRowBlock blocks keep as many add chains in flight.
template <class Ops, std::size_t kRows>
[[gnu::always_inline]] inline void dots_rows(const double* a,
                                             std::size_t lda,
                                             const double* u, std::size_t len,
                                             double* out) {
  using V = typename Ops::V;
  constexpr std::size_t kW = Ops::kWidth;
  constexpr std::size_t kV = kRowBlock / kW;
  constexpr std::size_t kBlocks = kRows / kRowBlock;
  V acc[kBlocks][kV];
  OBD_KERNEL_UNROLL
  for (auto& block : acc)
    for (V& x : block) x = Ops::set1(0.0);
  std::size_t k = 0;
  for (; k + kRowBlock <= len; k += kRowBlock) {
    V uk[kV];
    OBD_KERNEL_UNROLL
    for (std::size_t v = 0; v < kV; ++v) uk[v] = Ops::load(u + k + v * kW);
    OBD_KERNEL_UNROLL
    for (std::size_t b = 0; b < kBlocks; ++b) {
      V p[kRowBlock][kV];
      OBD_KERNEL_UNROLL
      for (std::size_t r = 0; r < kRowBlock; ++r)
        for (std::size_t v = 0; v < kV; ++v)
          p[r][v] = Ops::mul(
              uk[v], Ops::load(a + (b * kRowBlock + r) * lda + k + v * kW));
      Ops::add_row_products(acc[b], p);
    }
  }
  OBD_KERNEL_UNROLL
  for (std::size_t b = 0; b < kBlocks; ++b)
    for (std::size_t v = 0; v < kV; ++v)
      Ops::store(out + b * kRowBlock + v * kW, acc[b][v]);
  for (; k < len; ++k)
    for (std::size_t r = 0; r < kRows; ++r) out[r] += u[k] * a[r * lda + k];
}

// row[k] -= g * w[k] for k in [0, len): independent elements.
template <class Ops>
[[gnu::always_inline]] inline void sub_scaled(double* row, double g,
                                              const double* w,
                                              std::size_t len) {
  constexpr std::size_t kW = Ops::kWidth;
  const typename Ops::V vg = Ops::set1(g);
  std::size_t k = 0;
  for (; k + kW <= len; k += kW)
    Ops::store(row + k, Ops::sub(Ops::load(row + k),
                                 Ops::mul(vg, Ops::load(w + k))));
  for (; k < len; ++k) row[k] -= g * w[k];
}

// Rows in blocks of eight, then four, then one: a block's dots all read
// the rows before any of its updates writes them, which is the order the
// one-row loop sees too (row j's dot reads only row j).
template <class Ops>
void tred2_reflect(double* a, std::size_t lda, std::size_t rows,
                   const double* u, const double* w, std::size_t len) {
  std::size_t j = 0;
  double g[2 * kRowBlock];
  for (; j + 2 * kRowBlock <= rows; j += 2 * kRowBlock) {
    dots_rows<Ops, 2 * kRowBlock>(a + j * lda, lda, u, len, g);
    for (std::size_t r = 0; r < 2 * kRowBlock; ++r)
      sub_scaled<Ops>(a + (j + r) * lda, g[r], w, len);
  }
  for (; j + kRowBlock <= rows; j += kRowBlock) {
    dots_rows<Ops, kRowBlock>(a + j * lda, lda, u, len, g);
    for (std::size_t r = 0; r < kRowBlock; ++r)
      sub_scaled<Ops>(a + (j + r) * lda, g[r], w, len);
  }
  for (; j < rows; ++j) {
    double* row = a + j * lda;
    double s = 0.0;
    for (std::size_t k = 0; k < len; ++k) s += u[k] * row[k];
    sub_scaled<Ops>(row, s, w, len);
  }
}

#undef OBD_KERNEL_UNROLL

}  // namespace obd::simd::detail
