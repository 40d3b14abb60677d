// Closed-form kernels of the statistical OBD analysis (eq. 9-18).
#pragma once

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "core/problem.hpp"

namespace obd::core {

/// The Gaussian integral of eq. (17):
///   g(u, v) = exp(gamma b u + gamma^2 b^2 v / 2),  gamma = ln(t/alpha).
/// This is E[(t/alpha)^(b X)] for X ~ N(u, v) — the per-unit-area expected
/// Weibull exponent of a block whose BLOD has mean u and variance v.
double g_closed_form(double t, double alpha, double b, double u, double v);

/// The t-dependent coefficients of g for one block, so that
/// g(u, v) = exp(lin u + quad v) with lin = gamma b, quad = gamma^2 b^2 / 2.
/// A loop over (u, v) nodes evaluates the logarithm once instead of per
/// node; every g it returns is bit-identical to g_closed_form's.
struct GExponent {
  double lin = 0.0;
  double quad = 0.0;
};
GExponent g_exponent(double t, double alpha, double b);

/// g(u, v) from precomputed coefficients (v must be non-negative). The
/// check builds its message only on failure: this runs once per node.
inline double g_from_exponent(const GExponent& e, double u, double v) {
  if (!(v >= 0.0))
    throw Error("g_closed_form: variance must be non-negative");
  return std::exp(e.lin * u + e.quad * v);
}

/// Conditional reliability of one device (eq. 9):
/// R_i(t | x) = exp(-a (t/alpha)^(b x)).
double device_reliability(double t, double alpha, double b, double thickness,
                          double area = 1.0);

/// Conditional chip failure probability for known BLOD realizations
/// (u_j, v_j) of every block (complement of eq. 18). Evaluated in the exact
/// product form F = 1 - exp(-sum_j A_j g_j) — identical to the paper's
/// first-order expansion (eq. 16) at the ppm failure levels of interest,
/// but never negative for large t.
double conditional_chip_failure(const std::vector<BlockParams>& blocks,
                                double t, const std::vector<double>& u,
                                const std::vector<double>& v);

/// Single-block conditional failure: 1 - exp(-A g(u, v)).
double block_conditional_failure(const BlockParams& block, double t, double u,
                                 double v);

}  // namespace obd::core
