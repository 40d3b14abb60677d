// Tests for the algorithmic fast paths: the binned device sampler, the
// batched F(t) sweep kernel, the displacement-table covariance, and the
// shared truncation/Gram helpers they are built from.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chip/design.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/device_model.hpp"
#include "core/lifetime.hpp"
#include "core/montecarlo.hpp"
#include "core/problem.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "simd/dispatch.hpp"
#include "stats/rng.hpp"
#include "stats/sampling.hpp"
#include "stats/special.hpp"
#include "variation/model.hpp"

namespace obd {
namespace {

// ------------------------------------------------------------------------
// binomial_sample

TEST(BinomialSample, DegenerateCasesAreExact) {
  stats::Rng rng(1);
  EXPECT_EQ(stats::binomial_sample(0, 0.5, rng), 0u);
  EXPECT_EQ(stats::binomial_sample(100, 0.0, rng), 0u);
  EXPECT_EQ(stats::binomial_sample(100, 1.0, rng), 100u);
}

TEST(BinomialSample, MomentsMatchAcrossRegimes) {
  // Covers the inversion branch (np < 10), BTRS (np >= 10), and the
  // complement path (p > 0.5).
  struct Case {
    std::uint64_t n;
    double p;
  };
  const std::vector<Case> cases = {
      {50, 0.05}, {40, 0.3}, {10000, 0.47}, {1000000, 0.002}, {30, 0.9}};
  stats::Rng rng(20260806);
  const std::size_t reps = 20000;
  for (const auto& c : cases) {
    double sum = 0.0;
    double sumsq = 0.0;
    for (std::size_t i = 0; i < reps; ++i) {
      const double v =
          static_cast<double>(stats::binomial_sample(c.n, c.p, rng));
      ASSERT_LE(v, static_cast<double>(c.n));
      sum += v;
      sumsq += v * v;
    }
    const double mean = sum / static_cast<double>(reps);
    const double var =
        sumsq / static_cast<double>(reps) - mean * mean;
    const double m = static_cast<double>(c.n) * c.p;
    const double s2 = m * (1.0 - c.p);
    // 6-sigma band on the sample mean; generous band on the variance.
    EXPECT_NEAR(mean, m, 6.0 * std::sqrt(s2 / static_cast<double>(reps)))
        << "n=" << c.n << " p=" << c.p;
    EXPECT_NEAR(var / s2, 1.0, 0.10) << "n=" << c.n << " p=" << c.p;
  }
}

// ------------------------------------------------------------------------
// Re-anchored factor recurrence

TEST(FillBinFactors, TracksExactExpAtLargeBinCounts) {
  // The drift satellite: at a bin count far beyond the default, the
  // re-anchored recurrence must stay within ~an anchor interval's worth of
  // ulps of the exact exponential, while the pure recurrence drifts
  // linearly in the bin count.
  const std::size_t bins = 16384;
  const double x_lo = 1.8;
  const double step = 0.8 / static_cast<double>(bins);
  const double gb = -7.25;
  std::vector<double> out;
  core::detail::fill_bin_factors(gb, x_lo, step, bins, out);
  ASSERT_EQ(out.size(), bins);

  const double ratio = std::exp(gb * step);
  double pure = std::exp(gb * (x_lo + 0.5 * step));
  double max_reanchored = 0.0;
  double max_pure = 0.0;
  for (std::size_t k = 0; k < bins; ++k) {
    const double exact =
        std::exp(gb * (x_lo + (static_cast<double>(k) + 0.5) * step));
    max_reanchored =
        std::max(max_reanchored, std::abs(out[k] - exact) / exact);
    max_pure = std::max(max_pure, std::abs(pure - exact) / exact);
    pure *= ratio;
  }
  EXPECT_LT(max_reanchored, 1e-13);
  // The unanchored recurrence accumulates noticeably more drift over 16k
  // bins; the re-anchor must beat it by a wide margin.
  EXPECT_LT(max_reanchored, 0.25 * max_pure);
}

// ------------------------------------------------------------------------
// Binned device sampling

class FastPathMcFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = new chip::Design(chip::make_synthetic_design(
        "FP", {.devices = 60000, .block_count = 6, .die_width = 6.0,
               .die_height = 6.0, .seed = 41}));
    const std::vector<double> temps(design_->blocks.size(), 80.0);
    core::ProblemOptions opts;
    opts.grid_cells_per_side = 10;
    problem_ = new core::ReliabilityProblem(core::ReliabilityProblem::build(
        *design_, var::VariationBudget{}, core::AnalyticReliabilityModel{},
        temps, 1.2, opts));
  }
  static void TearDownTestSuite() {
    delete problem_;
    delete design_;
    problem_ = nullptr;
    design_ = nullptr;
  }

  static chip::Design* design_;
  static core::ReliabilityProblem* problem_;
};

chip::Design* FastPathMcFixture::design_ = nullptr;
core::ReliabilityProblem* FastPathMcFixture::problem_ = nullptr;

TEST_F(FastPathMcFixture, BinnedSamplerConservesDeviceCounts) {
  const std::size_t chips = 30;
  const core::MonteCarloAnalyzer per_device(
      *problem_, {.chip_samples = chips,
                  .sampling = core::DeviceSampling::kPerDevice});
  const core::MonteCarloAnalyzer binned(
      *problem_,
      {.chip_samples = chips, .sampling = core::DeviceSampling::kBinned});
  for (std::size_t j = 0; j < design_->blocks.size(); ++j) {
    const auto a = per_device.pooled_thickness_histogram(j);
    const auto b = binned.pooled_thickness_histogram(j);
    std::uint64_t ta = a.underflow + a.overflow;
    std::uint64_t tb = b.underflow + b.overflow;
    for (std::uint64_t c : a.counts) ta += c;
    for (std::uint64_t c : b.counts) tb += c;
    EXPECT_EQ(ta, tb) << "block " << j;
    EXPECT_EQ(ta, chips * design_->blocks[j].device_count) << "block " << j;
  }
}

TEST_F(FastPathMcFixture, BinnedSamplerMatchesPerDeviceDistribution) {
  // Chi-square homogeneity test between the pooled thickness histograms of
  // the two samplers. Both analyzers draw the same correlated grid means
  // per chip (the z draw precedes the device draws in the chip stream), so
  // conditional on the chips the two populations are samples from the same
  // per-cell Gaussians: the binned sampler is exactly multinomial in each
  // cell, and homogeneity must hold to statistical accuracy.
  const std::size_t chips = 40;
  const core::MonteCarloAnalyzer per_device(
      *problem_, {.chip_samples = chips,
                  .sampling = core::DeviceSampling::kPerDevice});
  const core::MonteCarloAnalyzer binned(
      *problem_,
      {.chip_samples = chips, .sampling = core::DeviceSampling::kBinned});

  for (std::size_t j = 0; j < design_->blocks.size(); ++j) {
    const auto a = per_device.pooled_thickness_histogram(j);
    const auto b = binned.pooled_thickness_histogram(j);
    ASSERT_EQ(a.counts.size(), b.counts.size());

    // Merge fine bins into categories with expected pooled count >= 20 so
    // the chi-square approximation is sound; under/overflow fold into the
    // edge categories.
    std::vector<double> ca;
    std::vector<double> cb;
    double accum_a = static_cast<double>(a.underflow);
    double accum_b = static_cast<double>(b.underflow);
    for (std::size_t k = 0; k < a.counts.size(); ++k) {
      accum_a += static_cast<double>(a.counts[k]);
      accum_b += static_cast<double>(b.counts[k]);
      if (accum_a + accum_b >= 40.0) {
        ca.push_back(accum_a);
        cb.push_back(accum_b);
        accum_a = 0.0;
        accum_b = 0.0;
      }
    }
    accum_a += static_cast<double>(a.overflow);
    accum_b += static_cast<double>(b.overflow);
    if (!ca.empty()) {
      ca.back() += accum_a;
      cb.back() += accum_b;
    }
    ASSERT_GE(ca.size(), 3u) << "block " << j;

    double na = 0.0;
    double nb = 0.0;
    for (double v : ca) na += v;
    for (double v : cb) nb += v;
    double chi2 = 0.0;
    for (std::size_t k = 0; k < ca.size(); ++k) {
      const double pooled = (ca[k] + cb[k]) / (na + nb);
      const double ea = na * pooled;
      const double eb = nb * pooled;
      if (ea > 0.0) chi2 += (ca[k] - ea) * (ca[k] - ea) / ea;
      if (eb > 0.0) chi2 += (cb[k] - eb) * (cb[k] - eb) / eb;
    }
    const double dof = static_cast<double>(ca.size() - 1);
    const double p_value = 1.0 - stats::gamma_p(dof / 2.0, chi2 / 2.0);
    EXPECT_GT(p_value, 1e-6) << "block " << j << " chi2 " << chi2
                             << " dof " << dof;
  }
}

TEST_F(FastPathMcFixture, BinnedFailureEstimateAgreesWithinError) {
  const std::size_t chips = 60;
  const core::MonteCarloAnalyzer per_device(
      *problem_, {.chip_samples = chips,
                  .sampling = core::DeviceSampling::kPerDevice});
  const core::MonteCarloAnalyzer binned(
      *problem_,
      {.chip_samples = chips, .sampling = core::DeviceSampling::kBinned});
  const double t = per_device.lifetime_at(0.01);
  const double fa = per_device.failure_probability(t);
  const double fb = binned.failure_probability(t);
  const double se = std::hypot(per_device.failure_std_error(t),
                               binned.failure_std_error(t));
  EXPECT_LE(std::abs(fa - fb), std::max(6.0 * se, 1e-12));
}

// ------------------------------------------------------------------------
// Batched F(t) sweeps

TEST_F(FastPathMcFixture, BatchedSweepIsBitIdenticalToScalarCalls) {
  const core::MonteCarloAnalyzer mc(*problem_, {.chip_samples = 50});
  std::vector<double> ts;
  for (double t = 3e7; t < 4e9; t *= 2.7) ts.push_back(t);

  const auto f = mc.failure_probabilities(ts);
  const auto se = mc.failure_std_errors(ts);
  const auto k3 = mc.kth_failure_probabilities(ts, 3);
  ASSERT_EQ(f.size(), ts.size());
  ASSERT_EQ(se.size(), ts.size());
  ASSERT_EQ(k3.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(f[i], mc.failure_probability(ts[i])) << "point " << i;
    EXPECT_EQ(se[i], mc.failure_std_error(ts[i])) << "point " << i;
    EXPECT_EQ(k3[i], mc.kth_failure_probability(ts[i], 3)) << "point " << i;
  }
}

// Golden digests of every MonteCarloAnalyzer query on a small fixture, bit
// for bit: the batched sweep and its standard errors, the k-th breakdown
// sweeps (oxide only; aging stacks reject k > 1), root-found lifetimes,
// simulated failure times (the scalar chip_exponent path) and the
// streaming range partials over two adjacent ranges. Both samplers, with
// and without aging mechanisms, at the default histogram range and at a
// narrow one whose under/overflow populations are nonzero (evaluated at
// the boundary factors). Every kernel these queries run is one
// implementation or bit-identical across SIMD tiers, so one row of digests
// holds at every level and at 1 and 3 pool threads.
TEST(McGolden, QueryDigestsPerSimdLevelAndThreadCount) {
  struct Restore {
    simd::Level saved = simd::active_level();
    ~Restore() {
      simd::set_level(saved);
      par::set_threads(0);
      diagnostics().clear();  // the narrow range's mc.binning warnings
    }
  } restore;
  const chip::Design design = chip::make_synthetic_design(
      "MCG", {.devices = 24000, .block_count = 5, .die_width = 5.0,
              .die_height = 5.0, .seed = 23});
  std::vector<double> temps;
  for (std::size_t j = 0; j < design.blocks.size(); ++j)
    temps.push_back(70.0 + 6.0 * static_cast<double>(j));
  constexpr double kYear = 365.25 * 24.0 * 3600.0;
  std::vector<double> ts;
  for (int i = 0; i < 9; ++i)
    ts.push_back(0.5 * kYear * std::pow(100.0, i / 8.0));

  // [stack][sampler][range]: {oxide, oxide+nbti+em} x {per-device,
  // binned} x {7 sigma (default), 2.5 sigma}.
  const std::uint64_t digests[2][2][2] = {
      {{0xb8a1674d489eaa5eull, 0x4b8947bed0920710ull},
       {0x6e56880709fcdb59ull, 0x133bc665edae5011ull}},
      {{0x890dde2a79de85bbull, 0x524a56e3c61a92a5ull},
       {0xacc28c2cb4146750ull, 0xfcb50143525d0735ull}}};
  const auto digest = [&ts](const core::ReliabilityProblem& problem,
                            const core::MonteCarloOptions& mc_opts) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](double x) {
      const auto bits = std::bit_cast<std::uint64_t>(x);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    };
    const core::MonteCarloAnalyzer mc(problem, mc_opts);
    if (mc_opts.thickness_range_sigmas < 7.0) {
      EXPECT_GT(mc.out_of_range_fraction(), 0.0);
    }
    for (const double v : mc.failure_probabilities(ts)) mix(v);
    for (const double v : mc.failure_std_errors(ts)) mix(v);
    if (problem.mechanisms().trivial()) {
      for (const std::size_t k : {std::size_t{2}, std::size_t{3}})
        for (const double v : mc.kth_failure_probabilities(ts, k)) mix(v);
    }
    for (const double target : {core::kOneFaultPerMillion, 1e-2}) {
      const double life = mc.lifetime_at(target);
      EXPECT_TRUE(std::isfinite(life) && life > 0.0);
      mix(life);
    }
    stats::Rng rng(5);
    for (const double v : mc.sample_failure_times(16, rng)) mix(v);
    const auto streaming =
        core::MonteCarloAnalyzer::streaming(problem, mc_opts);
    for (const auto& [begin, end] :
         {std::pair<std::uint64_t, std::uint64_t>{0, 23},
          std::pair<std::uint64_t, std::uint64_t>{23, 50}}) {
      const auto part = streaming.accumulate_chip_range(ts, begin, end);
      for (const double v : part.sum_f) mix(v);
      for (const double v : part.sum_f2) mix(v);
    }
    return h;
  };

  for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    if (level == simd::Level::kAvx2 && !simd::can_use_avx2()) continue;
    simd::set_level(level);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      par::set_threads(threads);
      for (const int aging : {0, 1}) {
        core::ProblemOptions opts;
        opts.grid_cells_per_side = 8;
        opts.mechanisms.nbti = aging == 1;
        opts.mechanisms.em = aging == 1;
        const auto problem = core::ReliabilityProblem::build(
            design, var::VariationBudget{}, core::AnalyticReliabilityModel{},
            temps, 1.2, opts);
        for (const int sampler : {0, 1}) {
          for (const int range : {0, 1}) {
            const core::MonteCarloOptions mc_opts{
                .chip_samples = 60,
                .thickness_range_sigmas = range == 0 ? 7.0 : 2.5,
                .sampling = sampler == 0 ? core::DeviceSampling::kPerDevice
                                         : core::DeviceSampling::kBinned};
            const std::uint64_t h = digest(problem, mc_opts);
            EXPECT_EQ(h, digests[aging][sampler][range])
                << simd::to_string(level) << ", " << threads
                << " threads, aging " << aging << ", sampler " << sampler
                << ", range " << range << std::hex << ": got 0x" << h;
          }
        }
      }
    }
  }
}

TEST_F(FastPathMcFixture, EmptyAndSinglePointSweeps) {
  const core::MonteCarloAnalyzer mc(*problem_, {.chip_samples = 20});
  EXPECT_TRUE(mc.failure_probabilities({}).empty());
  EXPECT_TRUE(mc.failure_std_errors({}).empty());
  EXPECT_TRUE(mc.kth_failure_probabilities({}, 2).empty());

  const double t = 2e8;
  const auto one = mc.failure_probabilities(std::span<const double>(&t, 1));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front(), mc.failure_probability(t));

  const double bad = -1.0;
  EXPECT_THROW(
      (void)mc.failure_probabilities(std::span<const double>(&bad, 1)),
      Error);
}

// ------------------------------------------------------------------------
// Covariance displacement table

TEST(CovarianceTable, BitIdenticalToPairwiseEvaluation) {
  const var::GridModel grid(7.0, 5.0, 9);
  const var::VariationBudget budget;
  const double rho_dist = 0.4;
  const double length = rho_dist * 7.0;
  const double vg = budget.sigma_global() * budget.sigma_global();
  const double vs = budget.sigma_spatial() * budget.sigma_spatial();
  for (const auto kernel : {var::CorrelationKernel::kExponential,
                            var::CorrelationKernel::kMatern32,
                            var::CorrelationKernel::kSpherical}) {
    const la::Matrix c = var::build_covariance(grid, budget, rho_dist, kernel);
    for (std::size_t i = 0; i < grid.cell_count(); ++i) {
      for (std::size_t j = 0; j < grid.cell_count(); ++j) {
        const double expected =
            vg + vs * var::kernel_correlation(kernel, grid.distance(i, j),
                                              length);
        ASSERT_EQ(c(i, j), expected) << "kernel " << static_cast<int>(kernel)
                                     << " (" << i << ", " << j << ")";
      }
    }
  }
}

// ------------------------------------------------------------------------
// Shared truncation helpers

TEST(TruncationHelpers, LeadingComponentCountRule) {
  const la::Vector values = {4.0, 3.0, 2.0, 1.0, 0.0, -0.5};
  // Total (clipped) is 10; keep while captured < share * total and the
  // next eigenvalue is positive.
  EXPECT_EQ(la::leading_component_count(values, 0.39), 1u);
  EXPECT_EQ(la::leading_component_count(values, 0.40), 1u);
  EXPECT_EQ(la::leading_component_count(values, 0.41), 2u);
  EXPECT_EQ(la::leading_component_count(values, 0.95), 4u);
  // share 1.0 keeps every positive component but never the zero/negative
  // tail.
  EXPECT_EQ(la::leading_component_count(values, 1.0), 4u);
  // No positive mass -> zero components; callers decide how to clamp.
  EXPECT_EQ(la::leading_component_count({0.0, -1.0}, 0.9), 0u);
}

TEST(TruncationHelpers, PrincipalFactorMatchesManualLoop) {
  const la::Matrix a = [] {
    la::Matrix m(4, 4);
    stats::Rng rng(5);
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = i; j < 4; ++j) {
        m(i, j) = rng.normal();
        m(j, i) = m(i, j);
      }
    for (std::size_t i = 0; i < 4; ++i) m(i, i) += 4.0;  // make PSD-ish
    return m;
  }();
  const auto eig = la::eigen_symmetric(a);
  const std::size_t keep = 3;
  const la::Matrix f = la::principal_factor(eig, keep);
  ASSERT_EQ(f.rows(), 4u);
  ASSERT_EQ(f.cols(), keep);
  for (std::size_t k = 0; k < keep; ++k) {
    const double s = std::sqrt(std::max(0.0, eig.values[k]));
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_EQ(f(i, k), eig.vectors(i, k) * s);
  }
}

TEST(GramAat, BitIdenticalToTripleLoop) {
  la::Matrix a(7, 5);
  stats::Rng rng(77);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) a(i, k) = rng.normal();
  const la::Matrix g = la::gram_aat(a);
  ASSERT_EQ(g.rows(), 7u);
  ASSERT_EQ(g.cols(), 7u);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i; j < a.rows(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * a(j, k);
      EXPECT_EQ(g(i, j), s);
      EXPECT_EQ(g(j, i), s);
    }
  }
}

// ------------------------------------------------------------------------
// Bounding-box device assignment

TEST(AssignDevices, BoundingBoxScanMatchesFullScan) {
  const chip::Design design = chip::make_synthetic_design(
      "AD", {.devices = 5000, .block_count = 7, .die_width = 9.0,
             .die_height = 4.0, .seed = 23});
  const var::GridModel grid(design.width, design.height, 13);
  const auto layout = var::assign_devices(design, grid);
  ASSERT_EQ(layout.weights.size(), design.blocks.size());

  for (std::size_t b = 0; b < design.blocks.size(); ++b) {
    // Full-scan reference: every grid cell, ascending, exact overlap.
    const chip::Rect& rect = design.blocks[b].rect;
    std::vector<std::pair<std::size_t, double>> expected;
    double sum = 0.0;
    for (std::size_t g = 0; g < grid.cell_count(); ++g) {
      const double ov = rect.overlap(grid.cell_rect(g));
      if (ov <= 0.0) continue;
      expected.emplace_back(g, ov / rect.area());
      sum += ov / rect.area();
    }
    for (auto& [g, w] : expected) w /= sum;

    const auto& got = layout.weights[b];
    ASSERT_EQ(got.size(), expected.size()) << "block " << b;
    double total = 0.0;
    for (std::size_t e = 0; e < got.size(); ++e) {
      EXPECT_EQ(got[e].first, expected[e].first) << "block " << b;
      EXPECT_EQ(got[e].second, expected[e].second) << "block " << b;
      total += got[e].second;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "block " << b;
  }
}

}  // namespace
}  // namespace obd
