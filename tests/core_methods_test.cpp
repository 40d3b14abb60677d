#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chip/design.hpp"
#include "common/config.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "core/analytic.hpp"
#include "core/guardband.hpp"
#include "core/hybrid.hpp"
#include "core/lifetime.hpp"
#include "core/montecarlo.hpp"
#include "core/pipeline.hpp"
#include "mech/spec.hpp"

namespace obd::core {
namespace {

// A small but non-trivial shared fixture: synthetic design, EV6-like
// temperature spread, built once for the whole suite (problem construction
// includes a PCA).
class MethodsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = new chip::Design(chip::make_synthetic_design(
        "T1", {.devices = 30000, .block_count = 6, .die_width = 6.0,
               .die_height = 6.0, .seed = 77}));
    model_ = new AnalyticReliabilityModel();
    // Temperature spread similar to Fig. 1: hot spots ~30 C above idle.
    temps_ = new std::vector<double>{95.0, 70.0, 58.0, 82.0, 64.0, 75.0};
    ProblemOptions opts;
    opts.grid_cells_per_side = 10;
    problem_ = new ReliabilityProblem(ReliabilityProblem::build(
        *design_, var::VariationBudget{}, *model_, *temps_, 1.2, opts));
  }
  static void TearDownTestSuite() {
    delete problem_;
    delete temps_;
    delete model_;
    delete design_;
    problem_ = nullptr;
    temps_ = nullptr;
    model_ = nullptr;
    design_ = nullptr;
  }

  static chip::Design* design_;
  static AnalyticReliabilityModel* model_;
  static std::vector<double>* temps_;
  static ReliabilityProblem* problem_;
};

chip::Design* MethodsFixture::design_ = nullptr;
AnalyticReliabilityModel* MethodsFixture::model_ = nullptr;
std::vector<double>* MethodsFixture::temps_ = nullptr;
ReliabilityProblem* MethodsFixture::problem_ = nullptr;

TEST_F(MethodsFixture, ProblemAssemblyIsConsistent) {
  EXPECT_EQ(problem_->blocks().size(), 6u);
  for (std::size_t j = 0; j < 6; ++j) {
    const auto& b = problem_->blocks()[j];
    EXPECT_GT(b.alpha, 0.0);
    EXPECT_GT(b.b, 0.0);
    EXPECT_DOUBLE_EQ(b.temp_c, (*temps_)[j]);
    EXPECT_DOUBLE_EQ(b.area, design_->blocks[j].obd_area());
  }
  EXPECT_DOUBLE_EQ(problem_->worst_temp_c(), 95.0);
  EXPECT_NEAR(problem_->min_thickness(), 2.2 * (1.0 - 0.04), 1e-12);
}

TEST_F(MethodsFixture, FailureIsMonotoneAndBounded) {
  const AnalyticAnalyzer fast(*problem_);
  double prev = 0.0;
  for (double t = 1e6; t < 1e11; t *= 3.0) {
    const double f = fast.failure_probability(t);
    EXPECT_GE(f, prev - 1e-15);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST_F(MethodsFixture, LifetimeRoundTrip) {
  const AnalyticAnalyzer fast(*problem_);
  for (double target : {kOneFaultPerMillion, kTenFaultsPerMillion, 1e-3}) {
    const double t = fast.lifetime_at(target);
    EXPECT_NEAR(fast.failure_probability(t) / target, 1.0, 1e-6);
  }
  // 10/million happens later than 1/million.
  EXPECT_GT(fast.lifetime_at(kTenFaultsPerMillion),
            fast.lifetime_at(kOneFaultPerMillion));
}

TEST_F(MethodsFixture, QuadratureSchemesAgree) {
  AnalyticOptions paper;
  paper.quadrature = Quadrature::kPaperMidpoint;
  paper.cells = 10;  // the paper's l0
  AnalyticOptions quantile;
  quantile.quadrature = Quadrature::kEqualProbability;
  quantile.cells = 32;
  const AnalyticAnalyzer a(*problem_, paper);
  const AnalyticAnalyzer b(*problem_, quantile);
  const double t1a = a.lifetime_at(kOneFaultPerMillion);
  const double t1b = b.lifetime_at(kOneFaultPerMillion);
  EXPECT_NEAR(t1a / t1b, 1.0, 0.05);
}

TEST_F(MethodsFixture, StFastTracksMonteCarloAtPpmLevels) {
  // The paper's headline claim (Table III): ~1-2% lifetime error vs MC.
  const AnalyticAnalyzer fast(*problem_);
  MonteCarloOptions mco;
  mco.chip_samples = 400;
  const MonteCarloAnalyzer mc(*problem_, mco);
  for (double target : {kOneFaultPerMillion, kTenFaultsPerMillion}) {
    const double t_fast = fast.lifetime_at(target);
    const double t_mc = mc.lifetime_at(target);
    EXPECT_NEAR(t_fast / t_mc, 1.0, 0.10) << "target " << target;
  }
}

TEST_F(MethodsFixture, StMcTracksStFast) {
  const AnalyticAnalyzer fast(*problem_);
  StMcOptions opt;
  opt.samples = 8000;
  const StMcAnalyzer st_mc(*problem_, opt);
  const double t_fast = fast.lifetime_at(kTenFaultsPerMillion);
  const double t_stmc = st_mc.lifetime_at(kTenFaultsPerMillion);
  EXPECT_NEAR(t_stmc / t_fast, 1.0, 0.08);
}

TEST_F(MethodsFixture, StMcSampleAverageMatchesHistogram) {
  StMcOptions hist;
  hist.samples = 6000;
  hist.use_histogram = true;
  StMcOptions raw = hist;
  raw.use_histogram = false;
  const StMcAnalyzer a(*problem_, hist);
  const StMcAnalyzer b(*problem_, raw);
  const double t = 2e8;
  EXPECT_NEAR(a.failure_probability(t) / b.failure_probability(t), 1.0, 0.05);
}

// FNV-1a over the bit patterns of every node's u, v and weight, block by
// block: two st_MC builds share a digest only if they agree bit for bit.
std::uint64_t node_digest(const std::vector<std::vector<UvNode>>& nodes) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& block : nodes)
    for (const UvNode& n : block) {
      mix(n.u);
      mix(n.v);
      mix(n.weight);
    }
  return h;
}

// The st_MC sampler is seed-pinned: these digests fix its bits, and a
// change that moves them is budgeted by StMcMoments and StMcSeedSpread
// below. The fixture's 10x10 grid gives every block several cells with
// more than one kept block-local component. 1037 samples is odd and 100
// is the minimum.
TEST_F(MethodsFixture, StMcGoldenNodeDigests) {
  std::size_t multi_cell_blocks = 0;
  for (const auto& w : problem_->layout().weights)
    if (w.size() > 1) ++multi_cell_blocks;
  ASSERT_GT(multi_cell_blocks, 0u);

  StMcOptions lhs;
  lhs.latin_hypercube = true;
  StMcOptions raw;
  raw.use_histogram = false;
  StMcOptions odd;
  odd.samples = 1037;
  StMcOptions odd_raw = odd;
  odd_raw.use_histogram = false;
  StMcOptions least;
  least.samples = 100;
  least.use_histogram = false;
  const struct {
    const char* name;
    StMcOptions options;
    std::uint64_t digest;
  } cases[] = {{"default", StMcOptions{}, 0x5a0e09e92a82c95full},
               {"latin_hypercube", lhs, 0x3c461b2ca38e876dull},
               {"raw samples", raw, 0xbac60f62e8e95ce8ull},
               {"1037 samples", odd, 0xa7cec3e2ce9d740dull},
               {"1037 raw samples", odd_raw, 0x9d203cbd14a6b7feull},
               {"100 raw samples", least, 0x1de3df56c4afbf5bull}};
  for (const auto& c : cases) {
    const StMcAnalyzer st_mc(*problem_, c.options);
    EXPECT_EQ(node_digest(st_mc.nodes()), c.digest)
        << c.name << std::hex << " got 0x" << node_digest(st_mc.nodes());
  }
}

// The EV6 chip through the default pipeline at the given grid.
ReliabilityProblem ev6_problem(const char* grid) {
  Config cfg;
  cfg.set("design", "ev6");
  cfg.set("grid", grid);
  return build_problem(cfg, run_pipeline(cfg));
}

// st_MC's block-local PCA on the EV6 chip at default options: F(t) over a
// fixed sweep and both lifetime targets, digested bit for bit. At grids 25
// and 32 the L2 block spans more than 32 grid cells (n = 325 and 512), so
// its block-local eigensolve is a large dense one; the digests pin the
// samples that eigenbasis produces.
TEST(StMcGolden, Ev6FailureDigestsAtGrid25And32) {
  const struct {
    const char* grid;
    std::uint64_t digest;
  } cases[] = {{"25", 0x33aee94bbe825490ull}, {"32", 0x54fde578a6854a3cull}};
  for (const auto& c : cases) {
    const ReliabilityProblem problem = ev6_problem(c.grid);
    std::size_t largest_block = 0;
    for (const auto& w : problem.layout().weights)
      largest_block = std::max(largest_block, w.size());
    ASSERT_GT(largest_block, 32u) << "grid " << c.grid;

    const StMcAnalyzer st_mc(problem);
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](double x) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &x, sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffu;
        h *= 1099511628211ull;
      }
    };
    constexpr double kYear = 365.25 * 24.0 * 3600.0;
    for (int i = 0; i < 24; ++i)
      mix(st_mc.failure_probability(0.5 * kYear * std::pow(100.0, i / 23.0)));
    mix(st_mc.lifetime_at(kOneFaultPerMillion));
    mix(st_mc.lifetime_at(kTenFaultsPerMillion));
    EXPECT_EQ(h, c.digest) << "grid " << c.grid << std::hex << " got 0x" << h;
  }
}

// Statistical budget of the st_MC sampler: each block's raw (u, v)
// samples against the closed forms of BlodMoments, in units of the
// samples' own standard errors. Any sampler of the same distribution must
// pass; the bits are pinned separately by the goldens above. The
// standard errors are the plug-in ones: sigma_u / sqrt(N) for u's mean,
// sqrt((m4 - m2^2) / N) for a variance, sqrt((m6 - m3^2 - 6 m4 m2 +
// 9 m2^3) / N) for v's third central moment and sqrt(E[du^2 dv^2] / N)
// for the u-v covariance (the Lemma: zero for a uniform nominal).
// Over seeds 1-10 at 10k samples on these two problems (21 blocks) the
// sampler this gate was committed against reached at most 3.1 standard
// errors on u's mean and variance, 3.3 on v's mean, 3.2 on v's variance,
// 3.0 on the covariance and 4.0 on v's third moment, whose standard error
// rests on a sample sixth moment; hence 4.5 and 5. A single-cell block's
// v is deterministic, so only its u is checked here.
void expect_uv_match_blod(const ReliabilityProblem& problem,
                          const std::string& name) {
  constexpr double kSigmas = 4.5;
  constexpr double kThirdMomentSigmas = 5.0;
  StMcOptions options;
  options.use_histogram = false;
  const StMcAnalyzer st_mc(problem, options);
  for (std::size_t j = 0; j < problem.blocks().size(); ++j) {
    const BlodMoments& blod = problem.blocks()[j].blod;
    const std::vector<UvNode>& samples = st_mc.nodes()[j];
    ASSERT_EQ(samples.size(), options.samples);
    const double n = static_cast<double>(samples.size());
    double u_mean = 0.0;
    double v_mean = 0.0;
    for (const UvNode& s : samples) {
      u_mean += s.u;
      v_mean += s.v;
    }
    u_mean /= n;
    v_mean /= n;
    double u2 = 0.0, u4 = 0.0, v2 = 0.0, v3 = 0.0, v4 = 0.0, v6 = 0.0;
    double uv = 0.0, u2v2 = 0.0;
    for (const UvNode& s : samples) {
      const double du = s.u - u_mean;
      const double dv = s.v - v_mean;
      u2 += du * du;
      u4 += du * du * du * du;
      v2 += dv * dv;
      v3 += dv * dv * dv;
      v4 += dv * dv * dv * dv;
      v6 += dv * dv * dv * dv * dv * dv;
      uv += du * dv;
      u2v2 += du * du * dv * dv;
    }
    u2 /= n, u4 /= n, v2 /= n, v3 /= n, v4 /= n, v6 /= n, uv /= n, u2v2 /= n;
    const std::string where = name + " block " + std::to_string(j);
    const double u_var = blod.u_sigma() * blod.u_sigma();
    EXPECT_LE(std::abs(u_mean - blod.u_nominal()) /
                  (blod.u_sigma() / std::sqrt(n)),
              kSigmas)
        << where << " u mean " << u_mean << " vs " << blod.u_nominal();
    EXPECT_LE(std::abs(u2 - u_var) / std::sqrt((u4 - u2 * u2) / n), kSigmas)
        << where << " u variance " << u2 << " vs " << u_var;
    if (blod.v_degenerate()) continue;
    EXPECT_LE(std::abs(v_mean - blod.v_mean()) / std::sqrt(v2 / n), kSigmas)
        << where << " v mean " << v_mean << " vs " << blod.v_mean();
    EXPECT_LE(std::abs(v2 - blod.v_variance()) /
                  std::sqrt((v4 - v2 * v2) / n),
              kSigmas)
        << where << " v variance " << v2 << " vs " << blod.v_variance();
    EXPECT_LE(std::abs(v3 - blod.v_third_central_moment()) /
                  std::sqrt((v6 - v3 * v3 - 6.0 * v4 * v2 +
                             9.0 * v2 * v2 * v2) /
                            n),
              kThirdMomentSigmas)
        << where << " v third central moment " << v3 << " vs "
        << blod.v_third_central_moment();
    EXPECT_LE(std::abs(uv) / std::sqrt(u2v2 / n), kSigmas)
        << where << " u-v covariance " << uv;
  }
}

class StMcMoments : public MethodsFixture {};

TEST_F(StMcMoments, SampledUvMatchesBlodClosedForms) {
  expect_uv_match_blod(ev6_problem("25"), "ev6 grid 25");
  expect_uv_match_blod(*problem_, "methods fixture");
}

// A block inside one grid cell has no correlated spread: its sampled v is
// exactly the residual variance, the deterministic v of v_degenerate().
// EV6 at grid 4 has seven such blocks.
TEST_F(StMcMoments, SingleCellBlockVIsExactlyResidualVariance) {
  const ReliabilityProblem problem = ev6_problem("4");
  StMcOptions options;
  options.samples = 1000;
  options.use_histogram = false;
  const StMcAnalyzer st_mc(problem, options);
  const double sr = problem.canonical().residual_sigma();
  std::size_t single_cell_blocks = 0;
  for (std::size_t j = 0; j < problem.blocks().size(); ++j) {
    if (problem.layout().weights[j].size() != 1) continue;
    ++single_cell_blocks;
    const BlodMoments& blod = problem.blocks()[j].blod;
    ASSERT_TRUE(blod.v_degenerate()) << "block " << j;
    ASSERT_EQ(blod.v_mean(), sr * sr) << "block " << j;
    for (const UvNode& s : st_mc.nodes()[j])
      ASSERT_EQ(s.v, sr * sr) << "block " << j;
  }
  EXPECT_GT(single_cell_blocks, 0u);
}

// st_MC's lifetimes on EV6 at grid 25 with 20k samples (the ledger's
// sign-off setting), averaged over seeds 1-10, against the mean of the
// sampler this gate was committed with. Its per-seed lifetimes spread with
// the sample standard deviations below; the two 10-seed means of
// independent samplers differ by sqrt(2/10) = 0.45 of that spread (one
// standard error), so two spreads is 4.5 standard errors.
TEST(StMcSeedSpread, Ev6LifetimesWithinParentSpread) {
  const struct {
    double target;
    double mean;
    double spread;
  } committed[] = {{kOneFaultPerMillion, 10021456.08796752, 4357.846070956635},
                   {kTenFaultsPerMillion, 51852060.70715353,
                    20046.230589624534}};
  constexpr double kSpreads = 2.0;
  constexpr int kSeeds = 10;
  const ReliabilityProblem problem = ev6_problem("25");
  double sum[2] = {0.0, 0.0};
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const StMcAnalyzer st_mc(
        problem, {.samples = 20000, .seed = static_cast<std::uint64_t>(seed)});
    for (std::size_t k = 0; k < 2; ++k)
      sum[k] += st_mc.lifetime_at(committed[k].target);
  }
  for (std::size_t k = 0; k < 2; ++k) {
    const double mean = sum[k] / kSeeds;
    EXPECT_LE(std::abs(mean - committed[k].mean), kSpreads * committed[k].spread)
        << "target " << committed[k].target << ": mean lifetime " << mean
        << " s against " << committed[k].mean << " s";
  }
}

TEST_F(MethodsFixture, HybridMatchesStFast) {
  const AnalyticAnalyzer fast(*problem_);
  const HybridEvaluator hybrid(*problem_);
  for (double t : {5e7, 2e8, 1e9}) {
    const double ff = fast.failure_probability(t);
    const double fh = hybrid.failure_probability(t);
    EXPECT_NEAR(fh / ff, 1.0, 0.03) << "t=" << t;
  }
  EXPECT_NEAR(hybrid.lifetime_at(kOneFaultPerMillion) /
                  fast.lifetime_at(kOneFaultPerMillion),
              1.0, 0.03);
}

TEST_F(MethodsFixture, HybridMatchesAnalyticAtHighFailureLevels) {
  // Regression for the block-composition bug: summing per-block failures
  // and clamping to [0, 1] (the first-order expansion) overestimates F(t)
  // once blocks stop being individually reliable, saturating at 1 long
  // before the true weakest-link curve does. Both analyzers now compose
  // through the survival product, so they must agree deep into the
  // high-failure regime, not just at ppm levels.
  const AnalyticAnalyzer fast(*problem_);
  const HybridEvaluator hybrid(*problem_);
  for (double target : {0.5, 0.9, 0.99}) {
    const double t = fast.lifetime_at(target);
    const double ff = fast.failure_probability(t);
    const double fh = hybrid.failure_probability(t);
    ASSERT_NEAR(ff, target, 1e-6 * target);  // lifetime_at round trip
    EXPECT_LT(fh, 1.0) << "hybrid saturated at target " << target;
    EXPECT_NEAR(fh / ff, 1.0, 0.03) << "target " << target;
  }
  // The survival product can never exceed the first-order block-failure
  // sum; at F ~ 0.9 the two must differ measurably (the sum would have
  // been driven toward saturation).
  const double t90 = fast.lifetime_at(0.9);
  double block_sum = 0.0;
  for (std::size_t j = 0; j < problem_->blocks().size(); ++j)
    block_sum += fast.block_failure(j, t90);
  EXPECT_GT(block_sum, fast.failure_probability(t90) + 1e-3);
}

TEST_F(MethodsFixture, MonteCarloAccountsOutOfRangeThickness) {
  diagnostics().clear();
  // A deliberately narrow histogram (+-1 sigma of total variation) forces
  // a macroscopic fraction of device draws outside the axis. They must be
  // counted (not folded into edge bins) and flagged once via "mc.binning".
  MonteCarloOptions narrow;
  narrow.chip_samples = 50;
  narrow.thickness_range_sigmas = 1.0;
  const MonteCarloAnalyzer mc_narrow(*problem_, narrow);
  EXPECT_GT(mc_narrow.out_of_range_fraction(), 1e-6);
  EXPECT_EQ(diagnostics().count("mc.binning"), 1u);
  diagnostics().clear();

  // The default range must not clip and must not warn.
  MonteCarloOptions wide;
  wide.chip_samples = 50;
  const MonteCarloAnalyzer mc_wide(*problem_, wide);
  EXPECT_EQ(mc_wide.out_of_range_fraction(), 0.0);
  EXPECT_EQ(diagnostics().count("mc.binning"), 0u);

  // Boundary accounting keeps the clipped analyzer a sane estimator: the
  // out-of-range mass contributes at the clamp value instead of being
  // dropped, so F(t) stays bounded and in the neighborhood of the
  // unclipped estimate.
  for (double t : {1e8, 1e9}) {
    const double f_narrow = mc_narrow.failure_probability(t);
    const double f_wide = mc_wide.failure_probability(t);
    EXPECT_GE(f_narrow, 0.0);
    EXPECT_LE(f_narrow, 1.0);
    EXPECT_NEAR(f_narrow, f_wide, 0.25) << "t=" << t;
  }
  diagnostics().clear();
}

TEST_F(MethodsFixture, HybridPaperBilinearStillClose) {
  HybridOptions opt;
  opt.log_space = false;  // the paper-literal interpolation
  const HybridEvaluator hybrid(*problem_, opt);
  const AnalyticAnalyzer fast(*problem_);
  EXPECT_NEAR(hybrid.lifetime_at(kTenFaultsPerMillion) /
                  fast.lifetime_at(kTenFaultsPerMillion),
              1.0, 0.10);
}

TEST_F(MethodsFixture, HybridReparameterizationMatchesRebuiltProblem) {
  // The hybrid method's purpose: answer for a *different* temperature
  // profile without re-integration. Compare against st_fast on a problem
  // rebuilt at the new temperatures.
  const HybridEvaluator hybrid(*problem_);
  std::vector<double> hot_temps;
  for (double t : *temps_) hot_temps.push_back(t + 12.0);
  ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  const auto hot_problem = ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, hot_temps, 1.2, opts);
  const AnalyticAnalyzer hot_fast(hot_problem);

  std::vector<double> alphas;
  std::vector<double> bs;
  for (double t : hot_temps) {
    alphas.push_back(model_->alpha(t, 1.2));
    bs.push_back(model_->b(t, 1.2));
  }
  const double t_query = 2e8;
  EXPECT_NEAR(hybrid.failure_probability_with(t_query, alphas, bs) /
                  hot_fast.failure_probability(t_query),
              1.0, 0.03);
}

TEST_F(MethodsFixture, GuardBandIsPessimisticByTensOfPercent) {
  // Table III: guard-band underestimates lifetime by ~40-60%.
  const AnalyticAnalyzer fast(*problem_);
  const GuardBandAnalyzer guard(*problem_);
  for (double target : {kOneFaultPerMillion, kTenFaultsPerMillion}) {
    const double t_fast = fast.lifetime_at(target);
    const double t_guard = guard.lifetime_at(target);
    EXPECT_LT(t_guard, t_fast);
    const double underestimate = 1.0 - t_guard / t_fast;
    EXPECT_GT(underestimate, 0.25) << "target " << target;
    EXPECT_LT(underestimate, 0.85) << "target " << target;
  }
}

TEST_F(MethodsFixture, GuardBandClosedFormRoundTrip) {
  const GuardBandAnalyzer guard(*problem_);
  const double t = guard.lifetime_at(1e-6);
  EXPECT_NEAR(guard.failure_probability(t), 1e-6, 1e-9);
}

TEST_F(MethodsFixture, TemperatureUnawareIsPessimistic) {
  // Using the worst temperature for every block (Fig. 10's
  // temperature-unaware curve) must under-predict lifetime vs the
  // temperature-aware analysis, but less than the guard band.
  ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  const std::vector<double> worst(temps_->size(), problem_->worst_temp_c());
  const auto unaware_problem = ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, worst, 1.2, opts);
  const AnalyticAnalyzer aware(*problem_);
  const AnalyticAnalyzer unaware(unaware_problem);
  const GuardBandAnalyzer guard(*problem_);
  const double t_aware = aware.lifetime_at(kTenFaultsPerMillion);
  const double t_unaware = unaware.lifetime_at(kTenFaultsPerMillion);
  const double t_guard = guard.lifetime_at(kTenFaultsPerMillion);
  EXPECT_LT(t_unaware, t_aware);
  EXPECT_LT(t_guard, t_unaware);
}

TEST_F(MethodsFixture, MonteCarloFailureTimesMatchFailureCurve) {
  // The empirical CDF of sampled chip failure times must agree with the
  // analyzer's own failure probability at bulk quantiles.
  MonteCarloOptions mco;
  mco.chip_samples = 200;
  const MonteCarloAnalyzer mc(*problem_, mco);
  stats::Rng rng(8);
  auto times = mc.sample_failure_times(2000, rng);
  std::sort(times.begin(), times.end());
  const double median = times[times.size() / 2];
  const double f_at_median = mc.failure_probability(median);
  EXPECT_NEAR(f_at_median, 0.5, 0.06);
}

TEST_F(MethodsFixture, FailureCurveIsLogSpacedAndMonotone) {
  const AnalyticAnalyzer fast(*problem_);
  const auto curve = failure_curve(
      [&](double t) { return fast.failure_probability(t); }, 1e7, 1e10, 30);
  ASSERT_EQ(curve.size(), 30u);
  EXPECT_NEAR(curve.front().time_s, 1e7, 1.0);
  EXPECT_NEAR(curve.back().time_s, 1e10, 1e4);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].time_s, curve[i - 1].time_s);
    EXPECT_GE(curve[i].failure, curve[i - 1].failure - 1e-15);
  }
}

// The operating-point stage on a shared variation stage must reproduce a
// full build at the new operating point bit for bit, and must not depend
// on its donor staying alive.
bool same_bits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

std::string tables_text(const HybridEvaluator& h) {
  std::ostringstream out;
  h.save(out);
  return out.str();
}

TEST(OperatingPointStage, MatchesAFullBuildBitForBitAndOutlivesItsDonor) {
  const chip::Design design = chip::make_synthetic_design(
      "T1", {.devices = 30000, .block_count = 6, .die_width = 6.0,
             .die_height = 6.0, .seed = 77});
  const AnalyticReliabilityModel model;
  ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  const std::vector<double> t1 = {95.0, 70.0, 58.0, 82.0, 64.0, 75.0};
  const std::vector<double> t2 = {61.0, 88.5, 47.25, 70.0, 99.0, 55.5};
  Config mech_cfg;
  mech_cfg.set("mechanisms", "oxide,nbti,em");
  const mech::MechanismSpec spec2 = mech::parse_spec(mech_cfg);
  ProblemOptions opts2 = opts;
  opts2.mechanisms = spec2;

  auto donor = std::make_unique<ReliabilityProblem>(ReliabilityProblem::build(
      design, var::VariationBudget{}, model, t1, 1.2, opts));
  const ReliabilityProblem want = ReliabilityProblem::build(
      design, var::VariationBudget{}, model, t2, 1.1, opts2);
  const ReliabilityProblem got =
      ReliabilityProblem::with_operating_point(*donor, model, t2, 1.1, spec2);

  EXPECT_EQ(&got.canonical(), &donor->canonical());
  EXPECT_EQ(&got.grid(), &donor->grid());
  EXPECT_TRUE(same_bits(got.vdd(), 1.1));
  EXPECT_EQ(got.mechanism_canonical(), want.mechanism_canonical());
  EXPECT_EQ(got.options().mechanisms.canonical(), spec2.canonical());
  EXPECT_EQ(got.options().grid_cells_per_side, opts.grid_cells_per_side);
  ASSERT_EQ(got.blocks().size(), want.blocks().size());
  for (std::size_t j = 0; j < got.blocks().size(); ++j) {
    const BlockParams& g = got.blocks()[j];
    const BlockParams& w = want.blocks()[j];
    EXPECT_EQ(g.name, w.name);
    EXPECT_TRUE(same_bits(g.area, w.area)) << j;
    EXPECT_TRUE(same_bits(g.alpha, w.alpha)) << j;
    EXPECT_TRUE(same_bits(g.b, w.b)) << j;
    EXPECT_TRUE(same_bits(g.temp_c, w.temp_c)) << j;
    EXPECT_TRUE(same_bits(g.blod.u_nominal(), w.blod.u_nominal())) << j;
    EXPECT_TRUE(same_bits(g.blod.u_sigma(), w.blod.u_sigma())) << j;
    EXPECT_EQ(g.blod.u_sensitivities(), w.blod.u_sensitivities()) << j;
    EXPECT_TRUE(same_bits(g.blod.v_mean(), w.blod.v_mean())) << j;
    EXPECT_TRUE(same_bits(g.blod.v_variance(), w.blod.v_variance())) << j;
    EXPECT_TRUE(same_bits(g.blod.v_third_central_moment(),
                          w.blod.v_third_central_moment()))
        << j;
    ASSERT_EQ(g.blod.v_degenerate(), w.blod.v_degenerate()) << j;
    for (const double q : {1e-6, 0.3, 0.5, 0.999}) {
      EXPECT_TRUE(same_bits(g.blod.u_marginal().quantile(q),
                            w.blod.u_marginal().quantile(q)))
          << j;
      if (!g.blod.v_degenerate())
        EXPECT_TRUE(same_bits(g.blod.v_marginal().quantile(q),
                              w.blod.v_marginal().quantile(q)))
            << j;
    }
  }

  HybridOptions small;
  small.n_gamma = 24;
  small.n_b = 16;
  auto donor_tables = std::make_unique<HybridEvaluator>(*donor, small);
  const HybridEvaluator shared(got, *donor_tables);
  const HybridEvaluator built(want, small);
  EXPECT_EQ(tables_text(shared), tables_text(built));

  // Destroy the donor: the recipient's BLOD moments still reach the
  // canonical form (v_value dereferences it), and both evaluators answer
  // exactly as the full build does.
  donor_tables.reset();
  donor.reset();
  const la::Vector z(got.canonical().pc_count(), 0.5);
  for (std::size_t j = 0; j < got.blocks().size(); ++j)
    EXPECT_TRUE(same_bits(got.blocks()[j].blod.v_value(z),
                          want.blocks()[j].blod.v_value(z)))
        << j;
  for (const double t : {3.15e8, 1e9, 4e9}) {
    EXPECT_TRUE(same_bits(shared.failure_probability(t),
                          built.failure_probability(t)))
        << t;
    EXPECT_TRUE(same_bits(AnalyticAnalyzer(got).failure_probability(t),
                          AnalyticAnalyzer(want).failure_probability(t)))
        << t;
  }
}

TEST(OperatingPointStage, TablesAreSharedOnlyWithinOneVariationStage) {
  const chip::Design design = chip::make_synthetic_design(
      "T1", {.devices = 20000, .block_count = 4, .die_width = 4.0,
             .die_height = 4.0, .seed = 5});
  const AnalyticReliabilityModel model;
  ProblemOptions opts;
  opts.grid_cells_per_side = 6;
  const std::vector<double> temps(design.blocks.size(), 80.0);
  const ReliabilityProblem a = ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, 1.2, opts);
  const ReliabilityProblem b = ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, 1.2, opts);
  HybridOptions small;
  small.n_gamma = 4;
  small.n_b = 4;
  const HybridEvaluator tables(a, small);
  EXPECT_THROW(HybridEvaluator(b, tables), obd::Error);
  EXPECT_THROW((void)ReliabilityProblem::with_operating_point(
                   a, model, std::vector<double>(1, 80.0), 1.2, {}),
               obd::Error);
  EXPECT_THROW((void)ReliabilityProblem::with_operating_point(
                   a, model, temps, 0.0, {}),
               obd::Error);
}

TEST(MethodsErrors, RejectBadArguments) {
  EXPECT_THROW(GuardBandAnalyzer(0.0, 1.0, 1.0, 1.0), obd::Error);
  EXPECT_THROW(GuardBandAnalyzer(1.0, 1.0, 1.0, 1.0).lifetime_at(0.0),
               obd::Error);
  EXPECT_THROW(
      lifetime_at_failure([](double) { return 0.5; }, 1.5), obd::Error);
}

TEST(McStdError, ShrinksWithSampleCountAndBoundsError) {
  const chip::Design design = chip::make_synthetic_design(
      "M", {.devices = 15000, .block_count = 4, .die_width = 4.0,
            .die_height = 4.0, .seed = 61});
  const core::AnalyticReliabilityModel model;
  const std::vector<double> temps{90.0, 70.0, 80.0, 60.0};
  core::ProblemOptions opts;
  opts.grid_cells_per_side = 8;
  const auto problem = core::ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, 1.2, opts);

  const core::MonteCarloAnalyzer small(problem, {.chip_samples = 100});
  const core::MonteCarloAnalyzer big(problem,
                                     {.chip_samples = 900, .seed = 2});
  const double t = 3e8;
  // SE scales like 1/sqrt(n): 3x fewer per 9x more samples.
  EXPECT_NEAR(small.failure_std_error(t) / big.failure_std_error(t), 3.0,
              1.5);
  // The two estimates agree within a few joint standard errors.
  const double gap =
      std::fabs(small.failure_probability(t) - big.failure_probability(t));
  const double joint =
      std::hypot(small.failure_std_error(t), big.failure_std_error(t));
  EXPECT_LT(gap, 5.0 * joint);
}

}  // namespace
}  // namespace obd::core
