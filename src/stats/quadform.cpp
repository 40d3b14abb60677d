#include "stats/quadform.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "linalg/eigen.hpp"
#include "numeric/quadrature.hpp"

namespace obd::stats {

ShiftedChiSquare::ShiftedChiSquare(double shift, double scale, double dof)
    : shift_(shift), scale_(scale), chi_(dof) {
  require(scale > 0.0, "ShiftedChiSquare: scale must be positive");
}

double ShiftedChiSquare::pdf(double x) const {
  return chi_.pdf((x - shift_) / scale_) / scale_;
}

double ShiftedChiSquare::cdf(double x) const {
  if (x <= shift_) return 0.0;
  return chi_.cdf((x - shift_) / scale_);
}

double ShiftedChiSquare::quantile(double p) const {
  return shift_ + scale_ * chi_.quantile(p);
}

double ShiftedChiSquare::sample(Rng& rng) const {
  return shift_ + scale_ * chi_.sample(rng);
}

std::size_t QuadraticForm::dimension() const {
  if (!quad.empty()) {
    require(quad.rows() == quad.cols(),
            "QuadraticForm: quad matrix must be square");
    require(linear.empty() || linear.size() == quad.rows(),
            "QuadraticForm: linear/quad dimension mismatch");
    return quad.rows();
  }
  return linear.size();
}

double QuadraticForm::value(const la::Vector& z) const {
  require(z.size() == dimension(), "QuadraticForm::value: z dimension");
  double v = constant;
  if (!linear.empty()) v += la::dot(linear, z);
  if (!quad.empty()) {
    const auto qz = quad.multiply(z);
    v += la::dot(z, qz);
  }
  return v;
}

double QuadraticForm::mean() const {
  return constant + (quad.empty() ? 0.0 : quad.trace());
}

double QuadraticForm::variance() const {
  double var = 0.0;
  if (!quad.empty()) var += 2.0 * quad.frobenius_squared();
  if (!linear.empty()) var += la::dot(linear, linear);
  return var;
}

double QuadraticForm::sample(Rng& rng) const {
  la::Vector z(dimension());
  for (auto& zi : z) zi = rng.normal();
  return value(z);
}

ShiftedChiSquare chi_square_match(const QuadraticForm& form) {
  require(!form.quad.empty(), "chi_square_match: quadratic part required");
  const double tr = form.quad.trace();
  require(tr > 0.0, "chi_square_match: tr(Q) must be positive");
  const double var = form.variance();
  require(var > 0.0, "chi_square_match: variance must be positive");
  const double a_hat = var / (2.0 * tr);
  const double b_hat = 2.0 * tr * tr / var;
  return {form.constant, a_hat, b_hat};
}

double third_central_moment(const QuadraticForm& form) {
  require(!form.quad.empty(), "third_central_moment: quadratic part required");
  const la::Matrix q2 = form.quad.matmul(form.quad);
  const la::Matrix q3 = q2.matmul(form.quad);
  double mu3 = 8.0 * q3.trace();
  if (!form.linear.empty()) {
    const la::Vector ql = form.quad.multiply(form.linear);
    mu3 += 6.0 * la::dot(form.linear, ql);
  }
  return mu3;
}

ShiftedChiSquare three_moment_match(const QuadraticForm& form) {
  const double mean = form.mean();
  const double var = form.variance();
  require(var > 0.0, "three_moment_match: variance must be positive");
  const double mu3 = third_central_moment(form);
  require(mu3 > 0.0, "three_moment_match: skewness must be positive");
  // For shift + a * chi2(b): mu3 = 8 a^3 b, var = 2 a^2 b =>
  // a = mu3 / (4 var), b = 2 var / (4 a^2) = 8 var^3 / mu3^2.
  const double a_hat = mu3 / (4.0 * var);
  const double b_hat = 0.5 * var / (a_hat * a_hat);
  const double shift = mean - a_hat * b_hat;
  return {shift, a_hat, b_hat};
}

namespace {

// Terms of the diagonalized form: sum_r lambda_r * chi2_1(delta_r^2).
struct ImhofTerms {
  la::Vector lambda;  // nonzero eigenvalues
  la::Vector delta2;  // noncentralities (delta_r^2)
  double shift = 0.0; // total constant after completing the square
};

ImhofTerms diagonalize(const QuadraticForm& form) {
  require(!form.quad.empty(), "imhof_cdf: quadratic part required");
  // The linear term in the eigenbasis, m = V^T l, without forming V.
  const std::size_t n = form.dimension();
  la::Matrix l(n, 1);
  std::copy(form.linear.begin(), form.linear.end(), l.row(0));
  const auto eig = la::eigen_symmetric_project(form.quad, l);
  const la::Vector m(eig.projected.row(0), eig.projected.row(0) + n);

  double scale = 0.0;
  for (double v : eig.values) scale = std::max(scale, std::fabs(v));
  const double eps = 1e-12 * std::max(scale, 1.0);

  ImhofTerms terms;
  terms.shift = form.constant;
  for (std::size_t k = 0; k < n; ++k) {
    const double lam = eig.values[k];
    if (std::fabs(lam) <= eps) {
      require(std::fabs(m[k]) <= 1e-9 * std::max(1.0, la::norm(m)),
              "imhof_cdf: linear term in the null space of Q is unsupported");
      continue;
    }
    // lam*(w + m/(2 lam))^2 - m^2/(4 lam)
    const double delta = m[k] / (2.0 * lam);
    terms.lambda.push_back(lam);
    terms.delta2.push_back(delta * delta);
    terms.shift -= lam * delta * delta;
  }
  return terms;
}

// Imhof integrand components.
double theta(const ImhofTerms& t, double u, double x0) {
  double s = 0.0;
  for (std::size_t r = 0; r < t.lambda.size(); ++r) {
    const double lu = t.lambda[r] * u;
    s += std::atan(lu) + t.delta2[r] * lu / (1.0 + lu * lu);
  }
  return 0.5 * s - 0.5 * x0 * u;
}

double rho(const ImhofTerms& t, double u) {
  double logrho = 0.0;
  for (std::size_t r = 0; r < t.lambda.size(); ++r) {
    const double lu2 = t.lambda[r] * u * t.lambda[r] * u;
    logrho += 0.25 * std::log1p(lu2);
    logrho += 0.5 * t.delta2[r] * lu2 / (1.0 + lu2);
  }
  return std::exp(logrho);
}

}  // namespace

double imhof_cdf(const QuadraticForm& form, double x, double tolerance) {
  const ImhofTerms terms = diagonalize(form);
  require(!terms.lambda.empty(), "imhof_cdf: form has no quadratic content");
  const double x0 = x - terms.shift;

  auto integrand = [&](double u) -> double {
    if (u <= 0.0) {
      // Limit u -> 0: theta(u)/u -> theta'(0).
      double tp = 0.0;
      for (std::size_t r = 0; r < terms.lambda.size(); ++r)
        tp += terms.lambda[r] * (1.0 + terms.delta2[r]);
      return 0.5 * (tp - x0);
    }
    return std::sin(theta(terms, u, x0)) / (u * rho(terms, u));
  };

  // Truncation point: envelope 1/(u rho(u)) below tolerance.
  double upper = 1.0;
  for (int i = 0; i < 200; ++i) {
    if (1.0 / (upper * rho(terms, upper)) < 0.1 * tolerance) break;
    upper *= 1.5;
  }

  // Integrate in panels sized against both the envelope decay and the
  // oscillation wavelength |theta'| ~ x0/2 at large u.
  const double omega = std::max(1.0, std::fabs(x0));
  const double panel = std::min(upper, 2.0 * M_PI / omega);
  double integral = 0.0;
  double a = 0.0;
  while (a < upper) {
    const double b = std::min(a + panel, upper);
    integral +=
        num::adaptive_simpson(integrand, a, b, tolerance * panel / upper);
    a = b;
  }

  const double prob_exceeds = 0.5 + integral / M_PI;
  const double cdf = 1.0 - prob_exceeds;
  return std::min(1.0, std::max(0.0, cdf));
}

}  // namespace obd::stats
