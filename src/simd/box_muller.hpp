// The box_muller kernel's arithmetic, written once for every dispatch
// level the way hybrid_row.hpp writes exp/expm1: a portable log and a
// sin/cos pair built on the same Ops policies, so every level runs the
// identical per-lane operation sequence and the normals agree bit for
// bit.
//
// Beyond hybrid_row.hpp's operations, Ops provides: load (kWidth doubles
// from memory), div and sqrt (IEEE, correctly rounded), exponent (the
// 11-bit exponent field minus 1023, as a double), mantissa (the value with
// its exponent field replaced by 1023's, so a positive normal double maps
// into [1, 2)) and store_pairs (lane l of a to out[2l], lane l of b to
// out[2l + 1]).
#pragma once

#include <cstddef>

namespace obd::simd::detail {

// log(x) for a positive normal double x, in fdlibm's e_log.c form:
// x = 2^k m with m in [sqrt(1/2), sqrt(2)), f = m - 1 (exact), s =
// f / (2 + f) and a degree-14 minimax polynomial in s, with ln 2 split in
// two so k ln2_hi is exact. log(1) is exactly 0.
template <class Ops>
[[gnu::always_inline]] inline typename Ops::V log_positive(
    typename Ops::V x) {
  using V = typename Ops::V;
  V k = Ops::exponent(x);
  V m = Ops::mantissa(x);
  const auto high = Ops::gt(m, Ops::set1(0x1.6a09e667f3bcdp+0));
  m = Ops::select(high, Ops::mul(m, Ops::set1(0.5)), m);
  k = Ops::select(high, Ops::add(k, Ops::set1(1.0)), k);
  const V f = Ops::sub(m, Ops::set1(1.0));
  const V hfsq = Ops::mul(Ops::mul(Ops::set1(0.5), f), f);
  const V s = Ops::div(f, Ops::add(Ops::set1(2.0), f));
  const V z = Ops::mul(s, s);
  const V w = Ops::mul(z, z);
  const V t1 = Ops::mul(
      w, Ops::fma(w,
                  Ops::fma(w, Ops::set1(0x1.39a09d078c69fp-3),
                           Ops::set1(0x1.c71c51d8e78afp-3)),
                  Ops::set1(0x1.999999997fa04p-2)));
  const V t2 = Ops::mul(
      z, Ops::fma(w,
                  Ops::fma(w,
                           Ops::fma(w, Ops::set1(0x1.2f112df3e5244p-3),
                                    Ops::set1(0x1.7466496cb03dep-3)),
                           Ops::set1(0x1.2492494229359p-2)),
                  Ops::set1(0x1.5555555555593p-1)));
  const V r = Ops::add(t1, t2);
  const V lo = Ops::fma(k, Ops::set1(0x1.a39ef35793c76p-33),
                        Ops::mul(s, Ops::add(hfsq, r)));
  return Ops::sub(Ops::mul(k, Ops::set1(0x1.62e42fee00000p-1)),
                  Ops::sub(Ops::sub(hfsq, lo), f));
}

// sin and cos of theta = fl((2 pi) * u) for u in [0, 1), the argument
// libm sees in Rng::normal(). theta is reduced by pi/2 in three
// round-to-nearest parts: n = round(theta * 2/pi) is in 0..4, the first
// FMA step is exact, and the three parts carry pi/2 to about 160 bits,
// so the reduced r keeps its relative accuracy next to the zeros of sin
// and cos. fdlibm's __kernel_sin and __kernel_cos minimax polynomials on
// |r| <= pi/4 then give sin r and cos r, and the quadrant n (4 is 0)
// swaps them and sets the signs.
template <class Ops>
[[gnu::always_inline]] inline void sincos_two_pi(typename Ops::V u,
                                                 typename Ops::V& sin_out,
                                                 typename Ops::V& cos_out) {
  using V = typename Ops::V;
  const V theta = Ops::mul(Ops::set1(0x1.921fb54442d18p+2), u);
  const V n =
      Ops::round_nearest(Ops::mul(theta, Ops::set1(0x1.45f306dc9c883p-1)));
  V r = Ops::fnma(n, Ops::set1(0x1.921fb54442d18p+0), theta);
  r = Ops::fnma(n, Ops::set1(0x1.1a62633145c07p-54), r);
  r = Ops::fnma(n, Ops::set1(-0x1.f1976b7ed8fbcp-110), r);
  const V z = Ops::mul(r, r);

  const V ps = Ops::fma(
      z,
      Ops::fma(z,
               Ops::fma(z,
                        Ops::fma(z, Ops::set1(0x1.5d93a5acfd57cp-33),
                                 Ops::set1(-0x1.ae5e68a2b9cebp-26)),
                        Ops::set1(0x1.71de357b1fe7dp-19)),
               Ops::set1(-0x1.a01a019c161d5p-13)),
      Ops::set1(0x1.111111110f8a6p-7));
  const V sin_r =
      Ops::fma(Ops::mul(z, r),
               Ops::fma(z, ps, Ops::set1(-0x1.5555555555549p-3)), r);

  const V pc = Ops::mul(
      z,
      Ops::fma(
          z,
          Ops::fma(z,
                   Ops::fma(z,
                            Ops::fma(z,
                                     Ops::fma(z,
                                              Ops::set1(-0x1.8fae9be8838d4p-37),
                                              Ops::set1(0x1.1ee9ebdb4b1c4p-29)),
                                     Ops::set1(-0x1.27e4f809c52adp-22)),
                            Ops::set1(0x1.a01a019cb1590p-16)),
                   Ops::set1(-0x1.6c16c16c15177p-10)),
          Ops::set1(0x1.555555555554cp-5)));
  const V one = Ops::set1(1.0);
  const V hz = Ops::mul(Ops::set1(0.5), z);
  const V w = Ops::sub(one, hz);
  const V cos_r = Ops::add(
      w, Ops::add(Ops::sub(Ops::sub(one, w), hz), Ops::mul(z, pc)));

  // n = 1 or 3 swaps sin and cos; sin is negative for n = 2 or 3, cos for
  // n = 1 or 2.
  const auto swap = Ops::lt(
      Ops::abs(Ops::sub(Ops::abs(Ops::sub(n, Ops::set1(2.0))), one)),
      Ops::set1(0.5));
  const V minus = Ops::set1(-1.0);
  const V sin_sign =
      Ops::select(Ops::lt(Ops::abs(Ops::sub(n, Ops::set1(2.5))), one), minus,
                  one);
  const V cos_sign =
      Ops::select(Ops::lt(Ops::abs(Ops::sub(n, Ops::set1(1.5))), one), minus,
                  one);
  sin_out = Ops::mul(sin_sign, Ops::select(swap, cos_r, sin_r));
  cos_out = Ops::mul(cos_sign, Ops::select(swap, sin_r, cos_r));
}

// One vector of pairs: out gets sqrt(-2 log u1) cos(theta) and then
// sqrt(-2 log u1) sin(theta) per lane, in Rng::normal()'s operation order.
template <class Ops>
[[gnu::always_inline]] inline void box_muller_lanes(typename Ops::V u1,
                                                    typename Ops::V u2,
                                                    double* out) {
  using V = typename Ops::V;
  const V radius =
      Ops::sqrt(Ops::mul(Ops::set1(-2.0), log_positive<Ops>(u1)));
  V sin_t;
  V cos_t;
  sincos_two_pi<Ops>(u2, sin_t, cos_t);
  Ops::store_pairs(out, Ops::mul(radius, cos_t), Ops::mul(radius, sin_t));
}

// Pairs [0, n): full vectors, then one vector padded with the pair
// (1, 0) whose throwaway normals past n are not stored. Lanes never
// interact, so the vector width changes no bit.
template <class Ops>
void box_muller(const double* u1, const double* u2, std::size_t n,
                double* out) {
  constexpr std::size_t kW = Ops::kWidth;
  std::size_t i = 0;
  for (; i + kW <= n; i += kW)
    box_muller_lanes<Ops>(Ops::load(u1 + i), Ops::load(u2 + i), out + 2 * i);
  if (i < n) {
    double a[kW];
    double b[kW];
    double tail[2 * kW];
    for (std::size_t l = 0; l < kW; ++l) {
      a[l] = i + l < n ? u1[i + l] : 1.0;
      b[l] = i + l < n ? u2[i + l] : 0.0;
    }
    box_muller_lanes<Ops>(Ops::load(a), Ops::load(b), tail);
    for (std::size_t l = 0; l < 2 * (n - i); ++l) out[2 * i + l] = tail[l];
  }
}

}  // namespace obd::simd::detail
