// The hybrid_row kernel's arithmetic, written once for every dispatch
// level: a portable exp/expm1 and the per-entry node sum built on them,
// with each u-row of small arguments summed as a short series in the
// entry's v moments instead of one expm1 per node.
//
// Each level supplies an `Ops` policy (kernels_scalar.cpp: one double per
// lane with std::fma and std::nearbyint; kernels_avx2.cpp: four lanes with
// _mm256_fmadd_pd and _mm256_round_pd) whose operations round exactly
// alike, so every level runs the identical per-lane operation sequence
// below and the tables agree bit for bit. Everything here is a template
// on Ops or constant data: nothing is emitted into a translation unit
// until a level instantiates it with its own ISA flags.
//
// Ops provides: V (lane vector), M (lane mask), kWidth, set1, iota (lane
// l holds double(i0 + l)), add, sub, mul, abs, fma (a*b + c, one
// rounding), fnma (c - a*b, one rounding), round_nearest (ties to even),
// max/min with x86 maxpd/minpd semantics (a > b ? a : b, so a NaN in b
// comes back), scale_pow2 (p * 2^n1 * 2^n2 for n1 = n >> 1, n2 = n - n1
// with n = int(nf)), lt/gt (ordered compares), select (a where the mask
// is set, else b), any, all, load and store (both unaligned).
// box_muller.hpp and kernel_bodies.hpp list what more their bodies use;
// all of them are instantiated from the same two policies.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace obd::simd::detail {

// 1/k! for k = 0..14, correctly rounded: exp's Taylor core uses k = 0..13
// and expm1(y)/y's uses k = 1..14.
inline constexpr double kInvFactorial[15] = {
    0x1.0000000000000p+0,  0x1.0000000000000p+0,  0x1.0000000000000p-1,
    0x1.5555555555555p-3,  0x1.5555555555555p-5,  0x1.1111111111111p-7,
    0x1.6c16c16c16c17p-10, 0x1.a01a01a01a01ap-13, 0x1.a01a01a01a01ap-16,
    0x1.71de3a556c734p-19, 0x1.27e4fb7789f5cp-22, 0x1.ae64567f544e4p-26,
    0x1.1eed8eff8d898p-29, 0x1.6124613a86d09p-33, 0x1.93974a8c07c9dp-37,
};

// sum_{k<14} c[k] * x^k in a fixed Estrin order: pairs, then x^2, x^4
// and x^8 levels, every step one FMA.
template <class Ops>
[[gnu::always_inline]] inline typename Ops::V estrin13(const double* c,
                                                       typename Ops::V x) {
  using V = typename Ops::V;
  const V x2 = Ops::mul(x, x);
  const V x4 = Ops::mul(x2, x2);
  const V x8 = Ops::mul(x4, x4);
  const auto pair = [&](int k) {
    return Ops::fma(Ops::set1(c[k + 1]), x, Ops::set1(c[k]));
  };
  const V q0 = Ops::fma(pair(2), x2, pair(0));
  const V q1 = Ops::fma(pair(6), x2, pair(4));
  const V q2 = Ops::fma(pair(10), x2, pair(8));
  const V s0 = Ops::fma(q1, x4, q0);
  const V s1 = Ops::fma(pair(12), x4, q2);
  return Ops::fma(s1, x8, s0);
}

// Unrolls the short per-vector loops below: K independent vectors per
// node step only keep the FMA units busy when their code is interleaved.
#define OBD_HYBRID_UNROLL _Pragma("GCC unroll 8")

// exp(x) for any x: Cody-Waite reduction by ln2 in two parts, the
// degree-13 Taylor core on |r| <= ln2/2, then 2^n applied as two factors
// so subnormal results round once. Arguments are clamped to [-800, 800],
// which changes no representable result: below -745 the result is 0,
// above ~709.78 it overflows to +inf. NaN propagates.
template <class Ops>
[[gnu::always_inline]] inline typename Ops::V exp_portable(
    typename Ops::V x) {
  using V = typename Ops::V;
  x = Ops::max(Ops::set1(-800.0), x);
  x = Ops::min(Ops::set1(800.0), x);
  const V nf =
      Ops::round_nearest(Ops::mul(x, Ops::set1(0x1.71547652b82fep+0)));
  V r = Ops::fnma(nf, Ops::set1(0x1.62e42fee00000p-1), x);
  r = Ops::fnma(nf, Ops::set1(0x1.a39ef35793c76p-33), r);
  return Ops::scale_pow2(estrin13<Ops>(kInvFactorial, r), nf);
}

// expm1(y) in place for a group of K vectors, in three branches: y
// itself when |y| < 2^-54, y * P(y) with P the degree-13 Taylor core of
// expm1(y)/y when |y| <= ln2/2, and exp(y) - 1 beyond. Lanes take their
// own branch; the group early-outs only skip work no lane needs. When
// every lane has y < -40 (-inf included; NaN fails the compare) the
// group is exactly -1 without either polynomial: exp(y) < 2^-57 there,
// so exp(y) - 1 rounds to -1 in the third branch too.
template <class Ops, std::size_t K>
[[gnu::always_inline]] inline void expm1_portable(typename Ops::V (&y)[K]) {
  using V = typename Ops::V;
  using M = typename Ops::M;
  V a[K];
  M tiny[K];
  M big[K];
  bool all_tiny = true;
  bool any_big = false;
  bool all_saturated = true;
  OBD_HYBRID_UNROLL
  for (std::size_t k = 0; k < K; ++k) {
    a[k] = Ops::abs(y[k]);
    tiny[k] = Ops::lt(a[k], Ops::set1(0x1p-54));
    big[k] = Ops::gt(a[k], Ops::set1(0x1.62e42fefa39efp-2));
    all_tiny = all_tiny && Ops::all(tiny[k]);
    any_big = any_big || Ops::any(big[k]);
    all_saturated = all_saturated && Ops::all(Ops::lt(y[k], Ops::set1(-40.0)));
  }
  if (all_tiny) return;
  if (all_saturated) {
    OBD_HYBRID_UNROLL
    for (std::size_t k = 0; k < K; ++k) y[k] = Ops::set1(-1.0);
    return;
  }
  V r[K];
  OBD_HYBRID_UNROLL
  for (std::size_t k = 0; k < K; ++k)
    r[k] = Ops::mul(y[k], estrin13<Ops>(kInvFactorial + 1, y[k]));
  if (any_big) {
    OBD_HYBRID_UNROLL
    for (std::size_t k = 0; k < K; ++k)
      r[k] = Ops::select(
          big[k], Ops::sub(exp_portable<Ops>(y[k]), Ops::set1(1.0)), r[k]);
  }
  OBD_HYBRID_UNROLL
  for (std::size_t k = 0; k < K; ++k) y[k] = Ops::select(tiny[k], y[k], r[k]);
}

// The short-series path of hybrid_lanes: a u-row whose every node has
// |P_i * Q_k| < kSeriesTau sums as wu_i * sum_{m=1..kSeriesTerms} P_i^m *
// C_m with C_m = sum_k wv_k * Q_k^m / m!. The first omitted term is at
// most |y|^5 / 6! <= 2^-59.5 of the node's own |y|, and with wv_k >= 0
// every term of C_m has the sign of Q^m, so the moments do not cancel.
// The series is taken only where every C_m is finite, so no power up to
// Q^5 overflowed, and max_k |Q_k| > kSeriesQLo, so none of them that
// matters against the row's sum underflowed.
inline constexpr double kSeriesTau = 0x1p-10;
inline constexpr std::size_t kSeriesTerms = 5;
inline constexpr double kSeriesQLo = 0x1p-200;

// Table entries i0 .. i0 + K * kWidth - 1 of a row, one per lane: b =
// b_lo + i * d_b, gb = gamma*b and c = (((0.5*gamma)*gamma)*b)*b. The
// nodes are the tensor product of nu u values and nv v values, node n =
// i * nv + k being (u[i], v[k]) with weight wu[i] * wv[k], and the
// integrand exp(gb*u + c*v) is taken as the product P_i * Q_k: Q_k =
// -area * exp(c*v[k]) once per v value (kept in q, K * kWidth * nv
// doubles) and P_i = exp(gb*u[i]) once per u value. Per lane group the Q
// loop also forms qmax = max_k |Q_k| and the moments C_m above. Then per
// u value, each lane either
//   - takes the series, when P_i * qtest < kSeriesTau (qtest is qmax, or
//     +inf where the series is not taken at all; NaN and inf * 0 fail the
//     ordered compare): the entry subtracts wu[i] * S once, with S =
//     P_i * C_1 + ... + P_i^5 * C_5 by Horner, every step one FMA; or
//   - sums the row's nodes: in ascending k, w * -expm1(P_i * Q_k) with w
//     = wu[i] * wv[k], each product and sum rounded on its own. Each term
//     is subtracted as w * expm1(..), which is the same IEEE operation as
//     adding w * -expm1(..) and leaves compilers no negation to fold, so
//     even a NaN's sign agrees across levels.
// A lane's choice depends only on its own P_i and qtest, so the bits are
// the same for any grouping and at every level; the any/all tests over
// the group only skip work. An entry none of whose u-rows takes the
// series is the plain node sum from 0.0 in ascending n = i * nv + k.
template <class Ops, std::size_t K>
[[gnu::always_inline]] inline void hybrid_lanes(
    const double* u, const double* wu, std::size_t nu, const double* v,
    const double* wv, std::size_t nv, double gamma, double b_lo, double d_b,
    double area, std::size_t i0, double* q, double* out) {
  using V = typename Ops::V;
  using M = typename Ops::M;
  constexpr std::size_t kW = Ops::kWidth;
  constexpr std::size_t kT = kSeriesTerms;
  V gb[K];
  V c[K];
  V fail[K];
  V qtest[K];
  V cm[K][kT];
  OBD_HYBRID_UNROLL
  for (std::size_t k = 0; k < K; ++k) {
    const V b = Ops::add(
        Ops::set1(b_lo),
        Ops::mul(Ops::iota(i0 + k * kW), Ops::set1(d_b)));
    gb[k] = Ops::mul(Ops::set1(gamma), b);
    c[k] = Ops::mul(Ops::mul(Ops::set1((0.5 * gamma) * gamma), b), b);
    fail[k] = Ops::set1(0.0);
    qtest[k] = Ops::set1(0.0);
    for (std::size_t m = 0; m < kT; ++m) cm[k][m] = Ops::set1(0.0);
  }
  const V neg_area = Ops::set1(-area);
  for (std::size_t kv = 0; kv < nv; ++kv) {
    const V vk = Ops::set1(v[kv]);
    const V wk = Ops::set1(wv[kv]);
    OBD_HYBRID_UNROLL
    for (std::size_t k = 0; k < K; ++k) {
      const V qk = Ops::mul(neg_area, exp_portable<Ops>(Ops::mul(c[k], vk)));
      Ops::store(q + (kv * K + k) * kW, qk);
      qtest[k] = Ops::max(qtest[k], Ops::abs(qk));
      V qm = qk;
      for (std::size_t m = 0; m < kT; ++m) {
        if (m > 0) qm = Ops::mul(qm, qk);
        cm[k][m] = Ops::fma(wk, qm, cm[k][m]);
      }
    }
  }
  const V inf = Ops::set1(std::numeric_limits<double>::infinity());
  OBD_HYBRID_UNROLL
  for (std::size_t k = 0; k < K; ++k) {
    V csum = Ops::set1(0.0);
    for (std::size_t m = 0; m < kT; ++m) {
      cm[k][m] = Ops::mul(cm[k][m], Ops::set1(kInvFactorial[m + 1]));
      csum = Ops::add(csum, cm[k][m]);
    }
    // +inf (so no P_i passes) for qmax <= kSeriesQLo or NaN, and where a
    // moment or their sum is not finite.
    qtest[k] = Ops::select(Ops::gt(qtest[k], Ops::set1(kSeriesQLo)),
                           qtest[k], inf);
    qtest[k] = Ops::select(Ops::lt(Ops::abs(csum), inf), qtest[k], inf);
  }
  const V tau = Ops::set1(kSeriesTau);
  for (std::size_t iu = 0; iu < nu; ++iu) {
    const V ui = Ops::set1(u[iu]);
    const V wi = Ops::set1(wu[iu]);
    V p[K];
    M series[K];
    bool any_series = false;
    bool all_series = true;
    OBD_HYBRID_UNROLL
    for (std::size_t k = 0; k < K; ++k) {
      p[k] = exp_portable<Ops>(Ops::mul(gb[k], ui));
      series[k] = Ops::lt(Ops::mul(p[k], qtest[k]), tau);
      any_series = any_series || Ops::any(series[k]);
      all_series = all_series && Ops::all(series[k]);
    }
    // fail less wu[i] * S, for lanes that take the series.
    V by_series[K];
    if (any_series) {
      OBD_HYBRID_UNROLL
      for (std::size_t k = 0; k < K; ++k) {
        V s = cm[k][kT - 1];
        for (std::size_t m = kT - 1; m-- > 0;)
          s = Ops::fma(s, p[k], cm[k][m]);
        by_series[k] = Ops::sub(fail[k], Ops::mul(wi, Ops::mul(s, p[k])));
      }
    }
    if (all_series) {
      OBD_HYBRID_UNROLL
      for (std::size_t k = 0; k < K; ++k) fail[k] = by_series[k];
      continue;
    }
    for (std::size_t kv = 0; kv < nv; ++kv) {
      V y[K];
      OBD_HYBRID_UNROLL
      for (std::size_t k = 0; k < K; ++k)
        y[k] = Ops::mul(p[k], Ops::load(q + (kv * K + k) * kW));
      expm1_portable<Ops, K>(y);
      const V wn = Ops::set1(wu[iu] * wv[kv]);
      OBD_HYBRID_UNROLL
      for (std::size_t k = 0; k < K; ++k)
        fail[k] = Ops::sub(fail[k], Ops::mul(wn, y[k]));
    }
    if (any_series) {
      OBD_HYBRID_UNROLL
      for (std::size_t k = 0; k < K; ++k)
        fail[k] = Ops::select(series[k], by_series[k], fail[k]);
    }
  }
  OBD_HYBRID_UNROLL
  for (std::size_t k = 0; k < K; ++k)
    Ops::store(out + k * kW, fail[k]);
}

#undef OBD_HYBRID_UNROLL

// out[i] for i in [0, n_b): groups of kGroup vectors, single vectors,
// then one vector whose lanes past n_b compute throwaway entries that are
// not stored. Lanes never interact, so the grouping changes no bit. The
// Q_k scratch is one buffer per thread that only grows, so a row
// allocates nothing once the thread has filled a row with as many v
// values.
template <class Ops, std::size_t kGroup>
void hybrid_row(const double* u, const double* wu, std::size_t nu,
                const double* v, const double* wv, std::size_t nv,
                double gamma, double b_lo, double d_b, double area,
                std::size_t n_b, double* out) {
  constexpr std::size_t kW = Ops::kWidth;
  thread_local std::vector<double> scratch;
  if (scratch.size() < kGroup * kW * nv) scratch.resize(kGroup * kW * nv);
  double* q = scratch.data();
  std::size_t i = 0;
  for (; i + kGroup * kW <= n_b; i += kGroup * kW)
    hybrid_lanes<Ops, kGroup>(u, wu, nu, v, wv, nv, gamma, b_lo, d_b, area,
                              i, q, out + i);
  for (; i + kW <= n_b; i += kW)
    hybrid_lanes<Ops, 1>(u, wu, nu, v, wv, nv, gamma, b_lo, d_b, area, i, q,
                         out + i);
  if (i < n_b) {
    double tail[kW];
    hybrid_lanes<Ops, 1>(u, wu, nu, v, wv, nv, gamma, b_lo, d_b, area, i, q,
                         tail);
    for (std::size_t l = 0; i + l < n_b; ++l) out[i + l] = tail[l];
  }
}

}  // namespace obd::simd::detail
