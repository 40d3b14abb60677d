// Tests for the statistics extensions: Lognormal, Latin-hypercube
// sampling, and the three-moment quadratic-form approximation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "stats/quadform.hpp"
#include "stats/sampling.hpp"
#include "stats/special.hpp"

namespace obd::stats {
namespace {

la::Matrix diag(std::initializer_list<double> values) {
  la::Matrix m(values.size(), values.size(), 0.0);
  std::size_t i = 0;
  for (double v : values) m(i, i) = v, ++i;
  return m;
}

TEST(LognormalDist, MomentsRoundTrip) {
  const Lognormal ln = Lognormal::from_moments(3.0, 0.5);
  EXPECT_NEAR(ln.mean(), 3.0, 1e-12);
  EXPECT_NEAR(ln.variance(), 0.5, 1e-12);
}

TEST(LognormalDist, CdfQuantilePdfConsistent) {
  const Lognormal ln(0.5, 0.3);
  for (double p : {0.01, 0.3, 0.5, 0.9, 0.999})
    EXPECT_NEAR(ln.cdf(ln.quantile(p)), p, 1e-12);
  // pdf = d cdf / dx.
  for (double x : {1.0, 1.6, 2.5}) {
    const double h = 1e-6;
    EXPECT_NEAR(ln.pdf(x), (ln.cdf(x + h) - ln.cdf(x - h)) / (2 * h), 1e-6);
  }
  EXPECT_DOUBLE_EQ(ln.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ln.pdf(-1.0), 0.0);
}

TEST(LognormalDist, SampleMoments) {
  Rng rng(4);
  const Lognormal ln(1.0, 0.25);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(ln.sample(rng));
  EXPECT_NEAR(s.mean(), ln.mean(), 0.01 * ln.mean());
  EXPECT_NEAR(s.variance(), ln.variance(), 0.05 * ln.variance());
}

TEST(LatinHypercube, MarginalsArePerfectlyStratified) {
  Rng rng(5);
  const std::size_t n = 1000;
  const std::size_t dims = 3;
  const auto xs = latin_hypercube_normal(n, dims, rng);
  // Each dimension: exactly one point per equiprobable stratum.
  for (std::size_t k = 0; k < dims; ++k) {
    std::vector<int> bin_count(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = normal_cdf(xs[i * dims + k]);
      ++bin_count[std::min(n - 1, static_cast<std::size_t>(
                                      u * static_cast<double>(n)))];
    }
    for (std::size_t b = 0; b < n; ++b)
      EXPECT_EQ(bin_count[b], 1) << "dim " << k << " bin " << b;
  }
}

TEST(LatinHypercube, VarianceLowerThanIid) {
  // Estimating E[z^2] = 1: the stratified estimator has far lower variance.
  const int reps = 200;
  const std::size_t n = 64;
  RunningStats iid_est;
  RunningStats lhs_est;
  Rng rng(6);
  for (int r = 0; r < reps; ++r) {
    double iid = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double z = rng.normal();
      iid += z * z;
    }
    iid_est.add(iid / static_cast<double>(n));
    const auto xs = latin_hypercube_normal(n, 1, rng);
    double lhs = 0.0;
    for (double z : xs) lhs += z * z;
    lhs_est.add(lhs / static_cast<double>(n));
  }
  EXPECT_NEAR(lhs_est.mean(), 1.0, 0.02);
  EXPECT_LT(lhs_est.variance(), 0.2 * iid_est.variance());
}

TEST(ThreeMomentMatch, PreservesThreeMoments) {
  QuadraticForm f;
  f.constant = 0.3;
  f.quad = diag({2.0, 0.5, 0.25, 0.1});
  f.linear = {0.2, 0.0, 0.1, 0.0};
  const ShiftedChiSquare m = three_moment_match(f);
  EXPECT_NEAR(m.mean(), f.mean(), 1e-10);
  EXPECT_NEAR(m.variance(), f.variance(), 1e-10);
  // Third central moment of shift + a chi2(b) is 8 a^3 b.
  const double mu3 = 8.0 * std::pow(m.scale(), 3) * m.dof();
  EXPECT_NEAR(mu3, third_central_moment(f), 1e-9);
}

TEST(ThirdCentralMoment, MatchesSampling) {
  QuadraticForm f;
  f.quad = diag({1.0, 0.4});
  f.linear = {0.5, -0.2};
  Rng rng(7);
  const double mean = f.mean();
  double m3 = 0.0;
  const int n = 2000000;
  for (int i = 0; i < n; ++i) {
    const double d = f.sample(rng) - mean;
    m3 += d * d * d;
  }
  m3 /= n;
  EXPECT_NEAR(m3, third_central_moment(f), 0.05 * third_central_moment(f));
}

TEST(ThreeMomentMatch, BeatsTwoMomentInTheTailForSkewedSpectra) {
  // Single dominant eigenvalue: the exact distribution is nearly a scaled
  // chi2_1; the three-moment match recovers dof ~ 1 while the two-moment
  // match over-smooths.
  QuadraticForm f;
  f.quad = diag({1.0, 0.05, 0.05});
  const ShiftedChiSquare two = chi_square_match(f);
  const ShiftedChiSquare three = three_moment_match(f);
  EXPECT_NEAR(three.dof(), 1.0, 0.25);
  EXPECT_GT(two.dof(), three.dof());
  // Compare upper-tail quantiles against Imhof.
  for (double p : {0.95, 0.99}) {
    const double x3 = three.quantile(p);
    const double x2 = two.quantile(p);
    const double exact3 = imhof_cdf(f, x3);
    const double exact2 = imhof_cdf(f, x2);
    EXPECT_LT(std::fabs(exact3 - p), std::fabs(exact2 - p) + 1e-3)
        << "p=" << p;
  }
}

TEST(ThreeMomentMatch, RejectsDegenerate) {
  QuadraticForm empty;
  EXPECT_THROW(three_moment_match(empty), obd::Error);
  EXPECT_THROW(third_central_moment(empty), obd::Error);
}

}  // namespace
}  // namespace obd::stats
