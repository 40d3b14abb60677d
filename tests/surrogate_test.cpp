// Certified Chebyshev surrogate: fit/certify correctness, the envelope
// property (surrogate answers never escape the certified tolerance on
// random in-domain queries, at every SIMD dispatch level and thread
// count), domain refusal, serialization round trip, and the exact-corner
// ConditionEvaluator the fit is referenced against.
//
// The certificate's value rests on two properties checked here: the
// certification probes are deterministic (re-running certify() reproduces
// the stored certificate bit for bit), and evaluation is bit-identical
// across scalar/AVX2 dispatch (the clenshaw_batch contract), so a
// certificate earned at one tier holds at all of them.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "chip/design.hpp"
#include "common/parallel.hpp"
#include "core/condition_eval.hpp"
#include "core/device_model.hpp"
#include "core/hybrid.hpp"
#include "core/problem.hpp"
#include "simd/dispatch.hpp"
#include "surrogate/chebyshev.hpp"
#include "surrogate/surrogate.hpp"
#include "variation/model.hpp"

namespace obd {
namespace {

constexpr double kYear = 365.25 * 24.0 * 3600.0;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct GlobalsGuard {
  simd::Level saved = simd::active_level();
  ~GlobalsGuard() {
    simd::set_level(saved);
    par::set_threads(0);
  }
};

// Reduced-size options so a fit costs a fraction of a second in the test;
// the bench exercises default resolution.
surrogate::SurrogateOptions test_options() {
  surrogate::SurrogateOptions o;
  o.n_t = 11;
  o.n_dt = 7;
  o.n_vdd = 5;
  o.n_act = 4;
  o.fit_n_gamma = 160;
  o.fit_n_b = 64;
  o.probe_points = 128;
  return o;
}

class SurrogateFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = new chip::Design(chip::make_synthetic_design(
        "SUR", {.devices = 20000, .block_count = 14, .die_width = 6.0,
                .die_height = 6.0, .seed = 97}));
    model_ = new core::AnalyticReliabilityModel();
    temps_ = new std::vector<double>(design_->blocks.size());
    for (std::size_t j = 0; j < temps_->size(); ++j)
      (*temps_)[j] = 55.0 + 40.0 * design_->blocks[j].activity;
    core::ProblemOptions opts;
    opts.grid_cells_per_side = 8;
    oxide_ = new core::ReliabilityProblem(core::ReliabilityProblem::build(
        *design_, var::VariationBudget{}, *model_, *temps_, 1.2, opts));
    core::ProblemOptions all_opts = opts;
    all_opts.mechanisms.nbti = true;
    all_opts.mechanisms.em = true;
    all_opts.mechanisms.hci = true;
    all_ = new core::ReliabilityProblem(core::ReliabilityProblem::build(
        *design_, var::VariationBudget{}, *model_, *temps_, 1.2, all_opts));
  }
  static void TearDownTestSuite() {
    delete all_;
    delete oxide_;
    delete temps_;
    delete model_;
    delete design_;
  }

  static chip::Design* design_;
  static core::AnalyticReliabilityModel* model_;
  static std::vector<double>* temps_;
  static core::ReliabilityProblem* oxide_;
  static core::ReliabilityProblem* all_;
};

chip::Design* SurrogateFixture::design_ = nullptr;
core::AnalyticReliabilityModel* SurrogateFixture::model_ = nullptr;
std::vector<double>* SurrogateFixture::temps_ = nullptr;
core::ReliabilityProblem* SurrogateFixture::oxide_ = nullptr;
core::ReliabilityProblem* SurrogateFixture::all_ = nullptr;

// ------------------------------------------------------------------------
// ChebAxis / ChebTensor basics

TEST(ChebAxis, NodesDescendFromHiAndMidpointsInterleave) {
  surrogate::ChebAxis a{-2.0, 3.0, 9};
  EXPECT_DOUBLE_EQ(a.node(0), 3.0);
  EXPECT_DOUBLE_EQ(a.node(8), -2.0);
  for (std::size_t i = 0; i + 1 < a.n; ++i) {
    EXPECT_GT(a.node(i), a.node(i + 1));
    EXPECT_GT(a.node(i), a.midpoint(i));
    EXPECT_GT(a.midpoint(i), a.node(i + 1));
  }
  EXPECT_EQ(a.midpoint_count(), 8u);
  surrogate::ChebAxis single{-1.0, 1.0, 1};
  EXPECT_DOUBLE_EQ(single.node(0), 0.0);
  EXPECT_EQ(single.midpoint_count(), 1u);
}

TEST(ChebTensor, ReproducesPolynomialsExactly) {
  // A degree-(3,2) polynomial is inside the span of a (5,4)-node grid, so
  // interpolation is exact up to rounding.
  std::vector<surrogate::ChebAxis> axes = {{-1.5, 2.0, 5}, {0.5, 3.0, 4}};
  const auto f = [](const double* x) {
    return 1.0 + x[0] * (2.0 - x[1]) + 0.25 * x[0] * x[0] * x[0] -
           0.5 * x[1] * x[1] * (1.0 + x[0]);
  };
  const auto tensor = surrogate::ChebTensor::fit(axes, f);
  std::mt19937 rng(123);
  std::uniform_real_distribution<double> u0(-1.5, 2.0), u1(0.5, 3.0);
  for (int i = 0; i < 200; ++i) {
    const double x[2] = {u0(rng), u1(rng)};
    EXPECT_NEAR(tensor.eval(x), f(x), 1e-12);
  }
}

TEST(ChebTensor, ContractTailMatchesFullEval) {
  std::vector<surrogate::ChebAxis> axes = {
      {0.0, 1.0, 6}, {-1.0, 1.0, 4}, {2.0, 5.0, 3}};
  const auto f = [](const double* x) {
    return std::sin(2.0 * x[0]) + x[1] * x[2] + 0.1 * x[0] * x[1];
  };
  const auto tensor = surrogate::ChebTensor::fit(axes, f);
  const double tail[2] = {0.3, 4.1};
  const auto pencil = tensor.contract_tail(tail);
  ASSERT_EQ(pencil.size(), 6u);
  for (double x0 : {0.05, 0.4, 0.77, 0.99}) {
    const double x[3] = {x0, tail[0], tail[1]};
    EXPECT_TRUE(
        same_bits(tensor.eval_pencil(pencil, x0), tensor.eval(x)))
        << "pencil eval must be bit-identical to the full contraction";
  }
}

// ------------------------------------------------------------------------
// ConditionEvaluator: the exact reference

TEST_F(SurrogateFixture, ConditionEvaluatorBaselineMatchesHybrid) {
  core::HybridOptions hopts;
  hopts.n_gamma = 60;
  hopts.n_b = 40;
  const core::HybridEvaluator hybrid(*oxide_, hopts);
  core::ConditionEvaluator cond(hybrid);

  // The identity corner must reproduce the problem's own alpha/b bits,
  // hence the plain table evaluation.
  cond.set_corner(0.0, oxide_->vdd(), 1.0);
  std::vector<double> alphas, bs;
  for (const auto& blk : oxide_->blocks()) {
    alphas.push_back(blk.alpha);
    bs.push_back(blk.b);
  }
  for (double ty : {1.0, 5.0, 20.0}) {
    EXPECT_TRUE(same_bits(
        cond.evaluate(ty * kYear),
        hybrid.failure_probability_with(ty * kYear, alphas, bs)));
  }

  // A hotter corner strictly increases failure probability.
  const double f0 = cond.evaluate(10.0 * kYear);
  cond.set_corner(10.0, oxide_->vdd(), 1.0);
  EXPECT_GT(cond.evaluate(10.0 * kYear), f0);

  // Re-applying the identical corner dirties nothing (bit-comparing
  // setters) — the serve session reuse path.
  const auto before = cond.stats();
  cond.set_corner(10.0, oxide_->vdd(), 1.0);
  (void)cond.evaluate(10.0 * kYear);
  const auto after = cond.stats();
  EXPECT_EQ(after.full_rebuilds, before.full_rebuilds);
  EXPECT_EQ(after.rows_refreshed, before.rows_refreshed);
}

TEST_F(SurrogateFixture, ConditionEvaluatorPerBlockOverride) {
  core::HybridOptions hopts;
  hopts.n_gamma = 60;
  hopts.n_b = 40;
  const core::HybridEvaluator hybrid(*oxide_, hopts);
  core::ConditionEvaluator cond(hybrid);
  cond.set_corner(5.0, 1.25, 1.0);
  const double f_uniform = cond.evaluate(8.0 * kYear);
  cond.set_block_dt(3, 25.0);
  const double f_hot = cond.evaluate(8.0 * kYear);
  EXPECT_GT(f_hot, f_uniform);
  // Restoring the block restores the uniform-corner bits.
  cond.set_block_dt(3, 5.0);
  EXPECT_TRUE(same_bits(cond.evaluate(8.0 * kYear), f_uniform));
}

// ------------------------------------------------------------------------
// Fit + certification

TEST_F(SurrogateFixture, FitCertifiesOxideProblem) {
  const auto opts = test_options();
  const auto model = surrogate::SurrogateModel::fit(*oxide_, opts);
  const auto& cert = model.certificate();
  EXPECT_TRUE(cert.certified);
  EXPECT_LE(cert.max_rel_error, opts.tol);
  EXPECT_LE(cert.mean_rel_error, cert.max_rel_error);
  EXPECT_GT(cert.probes, opts.probe_points);  // grid probes on top

  // Trivial stack: one oxide channel, activity axis collapsed to a node.
  ASSERT_EQ(model.channels().size(), 1u);
  EXPECT_EQ(model.channels()[0].axes()[3].n, 1u);

  // Domain box derived from the options, centered on the problem vdd.
  EXPECT_DOUBLE_EQ(model.domain().dt_lo, -opts.dt_c);
  EXPECT_DOUBLE_EQ(model.domain().vdd_lo, 1.2 - opts.dvdd);
  EXPECT_DOUBLE_EQ(model.domain().t_hi, opts.t_hi_years * kYear);
}

TEST_F(SurrogateFixture, EnvelopePropertyAcrossTiersAndThreads) {
  GlobalsGuard guard;
  const auto opts = test_options();
  const auto model = surrogate::SurrogateModel::fit(*oxide_, opts);
  ASSERT_TRUE(model.certificate().certified);

  core::HybridEvaluator reference(*oxide_,
                                  surrogate::fit_reference_options(*oxide_, opts));
  core::ConditionEvaluator exact(reference);

  // Random in-domain queries, fixed seed. The envelope property: every
  // certified answer stays within tol of the exact engine.
  std::mt19937 rng(20260808);
  const auto& d = model.domain();
  std::uniform_real_distribution<double> udt(d.dt_lo, d.dt_hi);
  std::uniform_real_distribution<double> uvdd(d.vdd_lo, d.vdd_hi);
  std::uniform_real_distribution<double> uact(d.act_lo, d.act_hi);
  std::uniform_real_distribution<double> ult(std::log(d.t_lo),
                                             std::log(d.t_hi));
  struct Query {
    double dt, vdd, act, t;
  };
  std::vector<Query> queries;
  for (int i = 0; i < 160; ++i)
    queries.push_back({udt(rng), uvdd(rng), uact(rng), std::exp(ult(rng))});

  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::can_use_avx2()) levels.push_back(simd::Level::kAvx2);

  std::vector<double> baseline;
  for (simd::Level level : levels) {
    simd::set_level(level);
    for (int threads : {1, 7}) {
      par::set_threads(threads);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const Query& q = queries[i];
        ASSERT_TRUE(model.in_domain(q.dt, q.vdd, q.act, q.t));
        const double s = model.evaluate(q.dt, q.vdd, q.act, q.t);
        if (level == levels[0] && threads == 1) {
          exact.set_corner(q.dt, q.vdd, q.act);
          const double r = exact.evaluate(q.t);
          const double rel =
              std::abs(s - r) / std::max(std::abs(r), 1e-12);
          EXPECT_LE(rel, model.tol())
              << "query " << i << " escaped the certified envelope";
          baseline.push_back(s);
        } else {
          // clenshaw_batch's bit-identity contract: the certificate
          // earned at one tier holds at every tier.
          EXPECT_TRUE(same_bits(s, baseline[i]))
              << "level=" << static_cast<int>(level)
              << " threads=" << threads << " query " << i;
        }
      }
    }
  }
}

TEST_F(SurrogateFixture, NonTrivialStackUsesActivityAxis) {
  // Default node counts: the reduced test_options() that suffice for the
  // single oxide channel leave the aging channels short of 1e-4 on this
  // design (the competing-mechanism sum is the hard case the defaults
  // are sized for). Only the probe budget is trimmed here.
  surrogate::SurrogateOptions opts;
  opts.probe_points = 256;
  const auto model = surrogate::SurrogateModel::fit(*all_, opts);
  // Oxide channel plus one channel per enabled aging mechanism; the
  // aging channels carry the activity axis, the oxide channel does not.
  ASSERT_EQ(model.channels().size(), 4u);
  EXPECT_EQ(model.channels()[0].axes()[3].n, 1u);
  for (std::size_t c = 1; c < 4; ++c)
    EXPECT_EQ(model.channels()[c].axes()[3].n, opts.n_act);
  EXPECT_TRUE(model.certificate().certified)
      << "max_rel_error=" << model.certificate().max_rel_error;

  // Activity must actually move the answer through the aging stack.
  const double lo = model.evaluate(0.0, 1.2, 0.6, 10.0 * kYear);
  const double hi = model.evaluate(0.0, 1.2, 1.4, 10.0 * kYear);
  EXPECT_NE(lo, hi);
}

TEST_F(SurrogateFixture, CertifyIsDeterministic) {
  const auto opts = test_options();
  const auto model = surrogate::SurrogateModel::fit(*oxide_, opts);
  core::HybridEvaluator reference(*oxide_,
                                  surrogate::fit_reference_options(*oxide_, opts));
  core::ConditionEvaluator exact(reference);
  const auto cert =
      surrogate::certify(model, exact, opts.probe_points, opts.tol);
  EXPECT_TRUE(same_bits(cert.max_rel_error,
                        model.certificate().max_rel_error));
  EXPECT_TRUE(same_bits(cert.mean_rel_error,
                        model.certificate().mean_rel_error));
  EXPECT_EQ(cert.probes, model.certificate().probes);
}

TEST_F(SurrogateFixture, AbsurdToleranceRefusesCertification) {
  auto opts = test_options();
  opts.n_t = 6;
  opts.n_dt = 4;
  opts.n_vdd = 3;
  opts.probe_points = 64;
  opts.tol = 1e-14;
  const auto model = surrogate::SurrogateModel::fit(*oxide_, opts);
  EXPECT_FALSE(model.certificate().certified);
  EXPECT_GT(model.certificate().max_rel_error, opts.tol);
}

TEST_F(SurrogateFixture, DomainRefusalPerAxis) {
  const auto opts = test_options();
  const auto model = surrogate::SurrogateModel::fit(*oxide_, opts);
  const auto& d = model.domain();
  const double t_mid = 10.0 * kYear;
  EXPECT_TRUE(model.in_domain(0.0, 1.2, 1.0, t_mid));
  EXPECT_FALSE(model.in_domain(d.dt_hi + 1.0, 1.2, 1.0, t_mid));
  EXPECT_FALSE(model.in_domain(d.dt_lo - 1.0, 1.2, 1.0, t_mid));
  EXPECT_FALSE(model.in_domain(0.0, d.vdd_hi + 0.01, 1.0, t_mid));
  EXPECT_FALSE(model.in_domain(0.0, 1.2, d.act_lo - 0.1, t_mid));
  EXPECT_FALSE(model.in_domain(0.0, 1.2, 1.0, d.t_hi * 1.01));
  EXPECT_FALSE(model.in_domain(0.0, 1.2, 1.0, d.t_lo * 0.99));
  // Boundary points are inside (closed box).
  EXPECT_TRUE(model.in_domain(d.dt_hi, d.vdd_hi, d.act_hi, d.t_hi));
}

TEST_F(SurrogateFixture, PlanCornerMatchesEvaluate) {
  const auto opts = test_options();
  const auto model = surrogate::SurrogateModel::fit(*oxide_, opts);
  const auto pencil = model.plan_corner(4.0, 1.23, 1.0);
  for (double ty : {1.0, 3.0, 11.0, 39.0}) {
    EXPECT_TRUE(same_bits(model.evaluate_at(pencil, ty * kYear),
                          model.evaluate(4.0, 1.23, 1.0, ty * kYear)));
  }
}

// ------------------------------------------------------------------------
// Serialization

TEST_F(SurrogateFixture, SaveLoadRoundTripIsExact) {
  auto opts = test_options();
  opts.n_t = 7;
  opts.n_dt = 4;
  opts.n_vdd = 3;
  opts.probe_points = 64;
  const auto model = surrogate::SurrogateModel::fit(*oxide_, opts);
  const std::string text = model.save_text();
  const auto loaded = surrogate::SurrogateModel::load_text(text);
  ASSERT_TRUE(loaded.has_value());

  ASSERT_EQ(loaded->channels().size(), model.channels().size());
  for (std::size_t c = 0; c < model.channels().size(); ++c) {
    const auto& got = loaded->channels()[c].coefficients();
    const auto& want = model.channels()[c].coefficients();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_TRUE(same_bits(got[i], want[i]));
  }
  EXPECT_TRUE(same_bits(loaded->certificate().max_rel_error,
                        model.certificate().max_rel_error));
  EXPECT_EQ(loaded->certificate().certified, model.certificate().certified);
  EXPECT_TRUE(same_bits(loaded->domain().t_hi, model.domain().t_hi));

  // Evaluation through the loaded model is bit-identical.
  const double q[4] = {3.0, 1.21, 1.0, 12.0 * kYear};
  EXPECT_TRUE(same_bits(loaded->evaluate(q[0], q[1], q[2], q[3]),
                        model.evaluate(q[0], q[1], q[2], q[3])));
  // Save of the load reproduces the bytes.
  EXPECT_EQ(loaded->save_text(), text);
}

TEST(SurrogateLoad, RejectsMalformedText) {
  EXPECT_FALSE(surrogate::SurrogateModel::load_text("").has_value());
  EXPECT_FALSE(
      surrogate::SurrogateModel::load_text("obdrel-surrogate 2\n").has_value());
  EXPECT_FALSE(surrogate::SurrogateModel::load_text(
                   "obdrel-surrogate 1\ndomain 0 1 0 1 0 1 0 1\n"
                   "channels 1\naxes 1\n"
                   "axis 0 1 4\ncoeffs 3\n1\n2\n3\n")
                   .has_value());  // count mismatch
  EXPECT_FALSE(surrogate::SurrogateModel::load_text(
                   "obdrel-surrogate 1\ndomain 0 1 0 1 0 1 0 1\n"
                   "channels 1\naxes 1\n"
                   "axis 0 1 2\ncoeffs 2\n1\n2\n")
                   .has_value());  // truncated: no cert/end
}

}  // namespace
}  // namespace obd
