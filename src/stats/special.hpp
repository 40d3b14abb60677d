// Special functions needed by the statistical machinery: regularized
// incomplete gamma (chi-square/gamma CDFs), its inverse, and the inverse
// standard-normal CDF (quantiles for integration-domain selection).
#pragma once

#include <cstddef>

namespace obd::stats {

/// Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).
/// Domain: a > 0, x >= 0. P is the CDF of a Gamma(shape=a, scale=1) variate.
double gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double gamma_q(double a, double x);

/// Inverse of gamma_p in x: returns x with P(a, x) = p. Domain: a > 0,
/// p in [0, 1). Newton iteration with bisection safeguarding.
double gamma_p_inverse(double a, double p);

/// Standard normal CDF Phi(x).
double normal_cdf(double x);

/// Standard normal PDF phi(x).
double normal_pdf(double x);

/// Batched standard normal CDF: out[i] = Phi(z[i]) for i in [0, n);
/// in-place operation (out == z) is allowed. Runs the SIMD layer's
/// normal_cdf_batch, one implementation at every dispatch level: every
/// element is bit-identical to normal_cdf() (see docs/PERFORMANCE.md,
/// "SIMD kernels").
void normal_cdf_batch(const double* z, std::size_t n, double* out);

/// Inverse standard normal CDF (probit). Domain: p in (0, 1).
/// Acklam's rational approximation refined by one Halley step — accurate to
/// ~1e-15 over the full domain.
double normal_quantile(double p);

}  // namespace obd::stats
