#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/blod.hpp"
#include "stats/descriptive.hpp"

namespace obd::core {
namespace {

struct Fixture {
  var::VariationBudget budget;
  var::GridModel grid{10.0, 10.0, 5};
  var::CanonicalForm canonical =
      var::make_canonical_form(grid, budget, 0.5, 1.0);
};

TEST(Blod, UMomentsMatchAnalyticOverPcSamples) {
  Fixture f;
  // Block spanning grids 0, 1, 5, 6 with equal device shares.
  BlodMoments blod(f.canonical,
                   {{0, 0.25}, {1, 0.25}, {5, 0.25}, {6, 0.25}}, 10000);
  stats::Rng rng(1);
  stats::RunningStats s;
  for (int i = 0; i < 100000; ++i)
    s.add(blod.u_value(f.canonical.sample_z(rng)));
  EXPECT_NEAR(s.mean(), blod.u_nominal(), 1e-3);
  // u_value excludes the tiny independent-residual term; compare against
  // the correlated part of u_sigma.
  const double resid = f.canonical.residual_sigma() / std::sqrt(10000.0);
  const double corr_sigma =
      std::sqrt(blod.u_sigma() * blod.u_sigma() - resid * resid);
  EXPECT_NEAR(s.stddev(), corr_sigma, 0.02 * corr_sigma);
}

TEST(Blod, UNominalIsWeightedGridNominal) {
  Fixture f;
  BlodMoments blod(f.canonical, {{0, 0.5}, {24, 0.5}}, 5000);
  EXPECT_NEAR(blod.u_nominal(),
              0.5 * (f.canonical.nominal(0) + f.canonical.nominal(24)),
              1e-12);
  EXPECT_NEAR(blod.u_marginal().mean(), blod.u_nominal(), 1e-15);
  EXPECT_NEAR(blod.u_marginal().stddev(), blod.u_sigma(), 1e-15);
}

TEST(Blod, VMomentsMatchSampledValues) {
  Fixture f;
  BlodMoments blod(f.canonical, {{0, 0.4}, {4, 0.3}, {20, 0.3}}, 20000);
  ASSERT_FALSE(blod.v_degenerate());
  stats::Rng rng(2);
  stats::RunningStats s;
  for (int i = 0; i < 200000; ++i)
    s.add(blod.v_value(f.canonical.sample_z(rng)));
  EXPECT_NEAR(s.mean(), blod.v_mean(), 0.01 * blod.v_mean());
  EXPECT_NEAR(s.variance(), blod.v_variance(), 0.05 * blod.v_variance());
}

TEST(Blod, SingleGridBlockIsDegenerate) {
  Fixture f;
  BlodMoments blod(f.canonical, {{7, 1.0}}, 5000);
  EXPECT_TRUE(blod.v_degenerate());
  // v collapses to the residual variance lambda_r^2.
  const double sr = f.canonical.residual_sigma();
  EXPECT_NEAR(blod.v_mean(), sr * sr, 1e-15);
  EXPECT_THROW((void)blod.v_marginal(), obd::Error);
  // And any realization agrees.
  stats::Rng rng(3);
  EXPECT_NEAR(blod.v_value(f.canonical.sample_z(rng)), sr * sr, 1e-12);
}

TEST(Blod, QuadraticFormAgreesWithFastPath) {
  Fixture f;
  BlodMoments blod(f.canonical, {{2, 0.5}, {3, 0.25}, {8, 0.25}}, 8000);
  const stats::QuadraticForm form = blod.v_quadratic_form(f.canonical);
  // Moments agree with the grid-pair computation.
  EXPECT_NEAR(form.mean(), blod.v_mean(), 1e-9 * blod.v_mean());
  // The explicit form has no residual-sampling-noise term, hence slightly
  // smaller variance; the difference is 2 sigma_r^4/(m-1).
  const double sr = f.canonical.residual_sigma();
  const double noise = 2.0 * sr * sr * sr * sr / (8000.0 - 1.0);
  EXPECT_NEAR(form.variance() + noise, blod.v_variance(),
              1e-9 * blod.v_variance());
  // Pointwise value agreement.
  stats::Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const la::Vector z = f.canonical.sample_z(rng);
    EXPECT_NEAR(form.value(z), blod.v_value(z),
                1e-9 * std::max(form.value(z), blod.v_value(z)));
  }
}

TEST(Blod, UAndVAreUncorrelatedLemma) {
  // The paper's Lemma: E[u v] = E[u] E[v] under the canonical model.
  Fixture f;
  BlodMoments blod(f.canonical, {{0, 0.3}, {12, 0.4}, {24, 0.3}}, 30000);
  stats::Rng rng(5);
  const int n = 400000;
  double sum_u = 0.0;
  double sum_v = 0.0;
  double sum_uv = 0.0;
  for (int i = 0; i < n; ++i) {
    const la::Vector z = f.canonical.sample_z(rng);
    const double u = blod.u_value(z);
    const double v = blod.v_value(z);
    sum_u += u;
    sum_v += v;
    sum_uv += u * v;
  }
  const double cov = sum_uv / n - (sum_u / n) * (sum_v / n);
  const double scale = blod.u_sigma() * std::sqrt(blod.v_variance());
  // Correlation coefficient statistically indistinguishable from 0.
  EXPECT_NEAR(cov / scale, 0.0, 0.01);
}

TEST(Blod, ChiSquareMarginalMatchesSampledQuantiles) {
  Fixture f;
  BlodMoments blod(f.canonical,
                   {{0, 0.2}, {6, 0.2}, {12, 0.2}, {18, 0.2}, {24, 0.2}},
                   50000);
  const stats::ShiftedChiSquare fv = blod.v_marginal();
  EXPECT_NEAR(fv.mean(), blod.v_mean(), 1e-12);
  EXPECT_NEAR(fv.variance(), blod.v_variance(), 1e-12);

  stats::Rng rng(6);
  std::vector<double> samples;
  samples.reserve(200000);
  for (int i = 0; i < 200000; ++i)
    samples.push_back(blod.v_value(f.canonical.sample_z(rng)));
  std::sort(samples.begin(), samples.end());
  // CDF agreement at a few quantiles (the Fig. 8 claim at BLOD scale).
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double x = fv.quantile(p);
    EXPECT_NEAR(stats::empirical_cdf(samples, x), p, 0.06) << "p=" << p;
  }
}

TEST(Blod, LargerBlockHasSmallerIndependentTerm) {
  Fixture f;
  BlodMoments small(f.canonical, {{0, 1.0}}, 100);
  BlodMoments large(f.canonical, {{0, 1.0}}, 100000);
  EXPECT_GT(small.u_sigma(), large.u_sigma());
}

TEST(Blod, RejectsBadConstruction) {
  Fixture f;
  EXPECT_THROW(BlodMoments(f.canonical, {}, 100), obd::Error);
  EXPECT_THROW(BlodMoments(f.canonical, {{0, 1.0}}, 1), obd::Error);
  EXPECT_THROW(BlodMoments(f.canonical, {{99, 1.0}}, 100), obd::Error);
  EXPECT_THROW(BlodMoments(f.canonical, {{0, 0.4}}, 100), obd::Error);
}

TEST(Blod, WaferPatternInducesLinearTermInV) {
  // With a systematic nominal gradient across the block, d_g != 0 and the
  // generalized eq. (24) gains constant and linear contributions.
  var::VariationBudget budget;
  var::GridModel grid(10.0, 10.0, 5);
  var::WaferPattern pattern;
  pattern.tilt_x = 0.05;
  const var::CanonicalForm canonical =
      var::make_canonical_form(grid, budget, 0.5, 1.0, pattern);
  BlodMoments blod(canonical, {{0, 0.5}, {4, 0.5}}, 10000);
  // Constant part now exceeds the bare residual variance.
  const double sr2 = std::pow(canonical.residual_sigma(), 2);
  EXPECT_GT(blod.v_constant(), sr2 * 1.5);
  // Sampled mean still matches the analytic mean.
  stats::Rng rng(7);
  stats::RunningStats s;
  for (int i = 0; i < 100000; ++i)
    s.add(blod.v_value(canonical.sample_z(rng)));
  EXPECT_NEAR(s.mean(), blod.v_mean(), 0.01 * blod.v_mean());
}

}  // namespace
}  // namespace obd::core
