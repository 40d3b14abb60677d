// Tests for the multi-mechanism competing-risks framework: spec parsing,
// the lognormal aging mechanisms, stack composition, unit-level
// redundancy, and the evaluator/DRM wiring. The key invariants:
//
//   1. The default spec (oxide only, no redundancy) is bit-identical to
//      the seed composition on every evaluator path.
//   2. An N-mechanism result equals the hand-computed survival product.
//   3. Adding mechanisms strictly shortens lifetime; adding spares
//      monotonically extends it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "chip/design.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "core/analytic.hpp"
#include "core/chip_state.hpp"
#include "core/condition_eval.hpp"
#include "core/duty_cycle.hpp"
#include "core/hybrid.hpp"
#include "core/incremental.hpp"
#include "core/lifetime.hpp"
#include "core/montecarlo.hpp"
#include "core/report.hpp"
#include "drm/manager.hpp"
#include "mech/mechanism.hpp"
#include "mech/spec.hpp"
#include "mech/stack.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"
#include "surrogate/surrogate.hpp"

namespace obd {
namespace {

using core::AnalyticAnalyzer;
using core::ReliabilityProblem;

constexpr double kYear = 365.25 * 24.0 * 3600.0;

mech::MechanismSpec all_mechanisms_spec() {
  mech::MechanismSpec spec;
  spec.nbti = true;
  spec.em = true;
  spec.hci = true;
  return spec;
}

/// Shared fixture: one synthetic design with an EV6-like temperature
/// spread, built twice — once with the seed default spec and once with
/// all four mechanisms enabled.
class MechFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = new chip::Design(chip::make_synthetic_design(
        "M1", {.devices = 30000, .block_count = 6, .die_width = 6.0,
               .die_height = 6.0, .seed = 77}));
    model_ = new core::AnalyticReliabilityModel();
    temps_ = new std::vector<double>{95.0, 70.0, 58.0, 82.0, 64.0, 75.0};
    core::ProblemOptions oxide_opts;
    oxide_opts.grid_cells_per_side = 10;
    oxide_ = new ReliabilityProblem(ReliabilityProblem::build(
        *design_, var::VariationBudget{}, *model_, *temps_, 1.2, oxide_opts));
    core::ProblemOptions all_opts = oxide_opts;
    all_opts.mechanisms = all_mechanisms_spec();
    all_ = new ReliabilityProblem(ReliabilityProblem::build(
        *design_, var::VariationBudget{}, *model_, *temps_, 1.2, all_opts));
  }
  static void TearDownTestSuite() {
    delete all_;
    delete oxide_;
    delete temps_;
    delete model_;
    delete design_;
    all_ = nullptr;
    oxide_ = nullptr;
    temps_ = nullptr;
    model_ = nullptr;
    design_ = nullptr;
  }

  static chip::Design* design_;
  static core::AnalyticReliabilityModel* model_;
  static std::vector<double>* temps_;
  static ReliabilityProblem* oxide_;  ///< seed default spec
  static ReliabilityProblem* all_;    ///< oxide + nbti + em + hci
};

chip::Design* MechFixture::design_ = nullptr;
core::AnalyticReliabilityModel* MechFixture::model_ = nullptr;
std::vector<double>* MechFixture::temps_ = nullptr;
ReliabilityProblem* MechFixture::oxide_ = nullptr;
ReliabilityProblem* MechFixture::all_ = nullptr;

// ---------------------------------------------------------------------------
// Spec parsing and canonical rendering.

TEST(MechSpec, DefaultIsSeedEquivalent) {
  const mech::MechanismSpec spec;
  EXPECT_TRUE(spec.seed_equivalent());
  EXPECT_EQ(spec.extra_count(), 0u);
  EXPECT_EQ(spec.canonical(), "oxide");
  // An empty config parses to the seed spec.
  Config cfg;
  EXPECT_TRUE(mech::parse_spec(cfg).seed_equivalent());
}

TEST(MechSpec, ParsesMechanismListAndParams) {
  Config cfg;
  cfg.set("mechanisms", "oxide,nbti,em");
  cfg.set("nbti_t50_years", "20");
  cfg.set("nbti_sigma", "0.3");
  cfg.set("mech_tref_c", "85");
  const mech::MechanismSpec spec = mech::parse_spec(cfg);
  EXPECT_TRUE(spec.oxide);
  EXPECT_TRUE(spec.nbti);
  EXPECT_TRUE(spec.em);
  EXPECT_FALSE(spec.hci);
  EXPECT_FALSE(spec.seed_equivalent());
  EXPECT_EQ(spec.extra_count(), 2u);
  EXPECT_DOUBLE_EQ(spec.nbti_params.t50_years, 20.0);
  EXPECT_DOUBLE_EQ(spec.nbti_params.sigma, 0.3);
  EXPECT_DOUBLE_EQ(spec.tref_c, 85.0);
  // Canonical string is deterministic and distinguishes parameters.
  const std::string c = spec.canonical();
  EXPECT_NE(c, "oxide");
  EXPECT_NE(c.find("nbti"), std::string::npos);
  Config cfg2 = cfg;
  cfg2.set("nbti_t50_years", "21");
  EXPECT_NE(mech::parse_spec(cfg2).canonical(), c);
}

TEST(MechSpec, ParsesRedundancyGrammar) {
  Config cfg;
  cfg.set("redundancy", "cores:blk0+blk1+blk2:1, cache:blk3+blk4:0");
  const mech::MechanismSpec spec = mech::parse_spec(cfg);
  ASSERT_EQ(spec.redundancy.size(), 2u);
  EXPECT_EQ(spec.redundancy[0].name, "cores");
  EXPECT_EQ(spec.redundancy[0].members.size(), 3u);
  EXPECT_EQ(spec.redundancy[0].spares, 1u);
  EXPECT_EQ(spec.redundancy[1].spares, 0u);
  EXPECT_FALSE(spec.seed_equivalent());
}

TEST(MechSpec, RejectsBadConfigs) {
  const auto expect_config_error = [](const Config& cfg) {
    try {
      (void)mech::parse_spec(cfg);
      FAIL() << "expected kConfig";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kConfig);
    }
  };
  {
    Config cfg;
    cfg.set("mechanisms", "oxide,tddb");  // unknown mechanism
    expect_config_error(cfg);
  }
  {
    Config cfg;
    cfg.set("mechanisms", "nbti");  // oxide base model missing
    expect_config_error(cfg);
  }
  {
    Config cfg;
    cfg.set("mechanisms", "oxide,nbti");
    cfg.set("nbti_sigma", "-0.1");  // non-positive shape
    expect_config_error(cfg);
  }
  {
    Config cfg;
    cfg.set("redundancy", "cores:blk0+blk1");  // missing spare count
    expect_config_error(cfg);
  }
  {
    Config cfg;
    cfg.set("redundancy", "cores:blk0+blk1:two");  // non-numeric spares
    expect_config_error(cfg);
  }
}

TEST(MechSpec, StackRejectsInvalidRedundancyAgainstDesign) {
  const std::vector<std::string> names{"blk0", "blk1", "blk2"};
  std::vector<mech::OperatingConditions> conds(3);
  const auto build = [&](const mech::MechanismSpec& spec) {
    return mech::MechanismStack(spec, names, conds);
  };
  mech::MechanismSpec unknown;
  unknown.redundancy.push_back({"g", {"blk0", "nosuch"}, 0});
  EXPECT_THROW((void)build(unknown), Error);
  mech::MechanismSpec dup;
  dup.redundancy.push_back({"g1", {"blk0", "blk1"}, 0});
  dup.redundancy.push_back({"g2", {"blk1", "blk2"}, 0});
  EXPECT_THROW((void)build(dup), Error);
  mech::MechanismSpec too_many;
  too_many.redundancy.push_back({"g", {"blk0", "blk1"}, 2});
  EXPECT_THROW((void)build(too_many), Error);
}

// ---------------------------------------------------------------------------
// The lognormal aging law.

TEST(LognormalMechanism, MedianAndAccelerationDirections) {
  mech::MechanismParams p;
  p.t50_years = 30.0;
  p.sigma = 0.4;
  p.ea_ev = 0.5;
  p.gamma_v = 8.0;
  p.activity_exp = 1.0;
  const mech::LognormalMechanism m("nbti", p, 100.0, 1.2);
  const mech::OperatingConditions ref{100.0, 1.2, 1.0};
  // At reference conditions the median is t50_years.
  EXPECT_NEAR(m.t50(ref) / (30.0 * kYear), 1.0, 1e-12);
  EXPECT_NEAR(m.block_cdf(0, 30.0 * kYear, ref), 0.5, 1e-12);
  // Hotter, higher voltage, and busier all shorten the median (Ea > 0).
  EXPECT_LT(m.t50({120.0, 1.2, 1.0}), m.t50(ref));
  EXPECT_LT(m.t50({100.0, 1.3, 1.0}), m.t50(ref));
  EXPECT_LT(m.t50(ref), m.t50({100.0, 1.2, 0.25}));
  // Arrhenius factor hand-check: 20 C hotter at Ea = 0.5 eV.
  const double af = std::exp((0.5 / mech::kBoltzmannEv) *
                             (1.0 / 393.15 - 1.0 / 373.15));
  EXPECT_NEAR(m.t50({120.0, 1.2, 1.0}) / m.t50(ref), af, 1e-9 * af);
  // A negative Ea (HCI-style cold carrier damage) inverts the direction.
  mech::MechanismParams hci = p;
  hci.ea_ev = -0.05;
  const mech::LognormalMechanism h("hci", hci, 100.0, 1.2);
  EXPECT_GT(h.t50({120.0, 1.2, 1.0}), h.t50(ref));
}

TEST(LognormalMechanism, QuantileInvertsCdfAndHazardIsPositive) {
  mech::MechanismParams p;
  const mech::LognormalMechanism m("em", p, 100.0, 1.2);
  const mech::OperatingConditions c{80.0, 1.25, 0.4};
  for (double f : {1e-6, 1e-3, 0.1, 0.5, 0.9}) {
    const double t = m.block_time_at(0, f, c);
    ASSERT_GT(t, 0.0);
    EXPECT_NEAR(m.block_cdf(0, t, c), f, 1e-9) << "f=" << f;
  }
  EXPECT_DOUBLE_EQ(m.block_time_at(0, 0.0, c), 0.0);
  EXPECT_DOUBLE_EQ(m.block_cdf(0, 0.0, c), 0.0);
  // Closed-form hazard agrees with the base-class finite difference.
  const double t = m.block_time_at(0, 0.2, c);
  const double closed = m.block_hazard(0, t, c);
  const double fd = m.FailureMechanism::block_hazard(0, t, c);
  EXPECT_GT(closed, 0.0);
  EXPECT_NEAR(closed / fd, 1.0, 1e-4);
}

TEST(LognormalMechanism, RejectsBadParameters) {
  mech::MechanismParams p;
  p.sigma = 0.0;
  EXPECT_THROW(mech::LognormalMechanism("x", p, 100.0, 1.2), Error);
  mech::MechanismParams q;
  q.t50_years = -1.0;
  EXPECT_THROW(mech::LognormalMechanism("x", q, 100.0, 1.2), Error);
}

// ---------------------------------------------------------------------------
// Stack composition.

TEST_F(MechFixture, TrivialStackReproducesSeedComposition) {
  ASSERT_TRUE(oxide_->mechanisms().trivial());
  const AnalyticAnalyzer analytic(*oxide_);
  for (double t : {2.0 * kYear, 8.0 * kYear, 25.0 * kYear}) {
    double log_survival = 0.0;
    std::vector<double> oxide_f;
    for (std::size_t j = 0; j < oxide_->blocks().size(); ++j) {
      const double fj =
          std::clamp(analytic.block_failure(j, t), 0.0, 1.0);
      oxide_f.push_back(fj);
      log_survival += std::log1p(-fj);
    }
    const double seed = std::clamp(-std::expm1(log_survival), 0.0, 1.0);
    EXPECT_EQ(oxide_->mechanisms().compose(oxide_f.data(), t), seed);
    EXPECT_EQ(analytic.failure_probability(t), seed);
  }
}

// Order-sensitive FNV-1a digest over the exact bit patterns of a double
// stream: equal digests iff every value is bit-identical and in order.
struct BitDigest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void add(double d) {
    const auto bits = std::bit_cast<std::uint64_t>(d);
    for (int i = 0; i < 8; ++i) {
      value ^= (bits >> (8 * i)) & 0xffu;
      value *= 0x100000001b3ull;
    }
  }
};

// Golden F(t) digests: every evaluator entry point, hashed over 60
// log-spaced times (0.2 to 60 years), on three stacks — the trivial
// oxide-only stack, a series competing-risks stack, and a stack with a
// spare group. The digests pin every bit of every composed F(t), so any
// change to how a path folds block failures into the chip answer shows
// here, whichever SIMD tier is active.
TEST_F(MechFixture, GoldenFailureDigestsOnEveryEntryPoint) {
  std::vector<double> ts;
  for (int i = 0; i < 60; ++i) {
    ts.push_back(0.2 * kYear * std::pow(300.0, i / 59.0));
  }
  const std::vector<double> targets{1e-6, 1e-5, 1e-4, 1e-3,
                                    1e-2, 0.1,  0.5,  0.9};

  core::ProblemOptions series_opts;
  series_opts.grid_cells_per_side = 10;
  series_opts.mechanisms.nbti = true;
  series_opts.mechanisms.em = true;
  const ReliabilityProblem series(ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, *temps_, 1.2, series_opts));
  core::ProblemOptions spare_opts;
  spare_opts.grid_cells_per_side = 10;
  spare_opts.mechanisms.hci = true;
  spare_opts.mechanisms.redundancy.push_back(
      {"cores", {"blk0", "blk2", "blk3"}, 1});
  const ReliabilityProblem spare(ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, *temps_, 1.2, spare_opts));

  const char* const entry_points[] = {
      "st_fast",     "st_mc",        "hybrid",     "hybrid_with",
      "incremental", "condition",    "condition_ls", "duty_cycle",
      "lifetime_at", "surrogate"};
  const struct {
    const char* name;
    const ReliabilityProblem* problem;
    std::uint64_t digests[std::size(entry_points)];
  } stacks[] = {
      {"oxide",
       oxide_,
       {0x829716d06ac3d395ull, 0x94ffb794915623c7ull, 0x7669e885031ccc5aull,
        0x8c0c2b419c05cd8cull, 0x2d9d42662200e147ull, 0x9393efc7aa6def47ull,
        0x34d80b647436180aull, 0xe4b8a654f16df7eaull, 0xba8b8891fb5864c9ull,
        0x9f56dd673cf32e41ull}},
      {"oxide+nbti+em",
       &series,
       {0x3bd40250ad8ed757ull, 0x50367bf697c87b7cull, 0x3a32c55545794eb3ull,
        0x9cc30f13a26ab8e4ull, 0xda46a05d26e14cb7ull, 0xf63069c826b62077ull,
        0xa96e49adf00485c6ull, 0x7ae724d9c94dd38aull, 0xf58e5c37a0c27e88ull,
        0x714deb5154dfcfa5ull}},
      {"oxide+hci+spare",
       &spare,
       {0xe1813c751d182817ull, 0xdbba3f169b5c0b43ull, 0xcf9d98b60c7fdadaull,
        0x8a5696f856a73606ull, 0x9cdd7c5f926c1f67ull, 0xe9fcf5cc01816f43ull,
        0xa716ca9195bc5ff9ull, 0x17f07cc020c32e0cull, 0x2509064d973ffa1cull,
        0x704ac6aae6ed40c4ull}},
  };

  for (const auto& stack : stacks) {
    const ReliabilityProblem& p = *stack.problem;
    const std::size_t n = p.blocks().size();
    BitDigest d[std::size(entry_points)];

    const AnalyticAnalyzer st_fast(p);
    core::StMcOptions mc_opts;
    mc_opts.samples = 400;
    const core::StMcAnalyzer st_mc(p, mc_opts);
    const core::HybridEvaluator hybrid(p);
    std::vector<double> alphas;
    std::vector<double> bs;
    for (const auto& blk : p.blocks()) {
      alphas.push_back(blk.alpha * 1.3);
      bs.push_back(blk.b * 0.97);
    }
    core::ChipState state(p);
    core::IncrementalEvaluator incremental(hybrid);
    core::ConditionEvaluator condition(hybrid);
    condition.set_corner(4.0, 1.24, 1.2);
    condition.set_block_dt(1, -3.0);
    std::vector<double> hot(*temps_);
    std::vector<double> cool(*temps_);
    for (double& c : hot) c += 10.0;
    for (double& c : cool) c -= 15.0;
    const core::DutyCycleAnalyzer duty(
        p, {core::make_phase("hot", 0.3, *model_, hot, 1.25),
            core::make_phase("cool", 0.7, *model_, cool, 1.15)});

    for (std::size_t i = 0; i < ts.size(); ++i) {
      const double t = ts[i];
      d[0].add(st_fast.failure_probability(t));
      d[1].add(st_mc.failure_probability(t));
      d[2].add(hybrid.failure_probability(t));
      d[3].add(hybrid.failure_probability_with(t, alphas, bs));
      // A full rebuild at each new t, then a one-row dirty refresh.
      d[4].add(incremental.evaluate(state, t));
      const std::size_t j = i % n;
      state.set_alpha_b(j, alphas[j], bs[j]);
      d[4].add(incremental.evaluate(state, t));
      d[5].add(condition.evaluate(t));
      d[6].add(condition.evaluate_ls(t));
      d[7].add(duty.failure_probability(t));
    }
    for (const double target : targets) {
      d[8].add(st_fast.lifetime_at(target));
      d[8].add(st_mc.lifetime_at(target));
      d[8].add(hybrid.lifetime_at(target));
      d[8].add(duty.lifetime_at(target));
    }

    surrogate::SurrogateOptions so;
    so.n_t = 9;
    so.n_t_aging = 9;
    so.n_dt = 5;
    so.n_vdd = 4;
    so.n_act = 3;
    so.fit_n_gamma = 64;
    so.fit_n_b = 32;
    so.probe_points = 16;
    const auto sur = surrogate::SurrogateModel::fit(p, so);
    for (const double dt : {-6.0, 0.0, 6.0}) {
      for (const double vdd : {1.16, 1.2, 1.24}) {
        for (const double act : {0.7, 1.0, 1.3}) {
          for (int i = 0; i < 8; ++i) {
            const double t = kYear * std::pow(30.0, i / 7.0);
            d[9].add(sur.evaluate(dt, vdd, act, t));
          }
        }
      }
    }

    for (std::size_t e = 0; e < std::size(entry_points); ++e) {
      EXPECT_EQ(d[e].value, stack.digests[e])
          << stack.name << " / " << entry_points[e] << std::hex
          << ": got 0x" << d[e].value;
    }
  }
}

// ---------------------------------------------------------------------------
// Hybrid table fill error budget: every stored entry within 8 ULP of the
// libm loop that filled the tables before they moved into the SIMD kernel
// table.

// That loop, verbatim: libm exp/expm1 per node, summed in node order,
// stored as log(fail) floored at -745.
std::vector<double> libm_table(const std::vector<core::UvNode>& node_list,
                               double area, const core::HybridOptions& o) {
  constexpr double kLogFloor = -745.0;
  const double d_gamma =
      (o.gamma_hi - o.gamma_lo) / static_cast<double>(o.n_gamma - 1);
  const double d_b = (o.b_hi - o.b_lo) / static_cast<double>(o.n_b - 1);
  auto entry = [&](double gamma, double b) -> double {
    double fail = 0.0;
    for (const auto& n : node_list) {
      const double g =
          std::exp(gamma * b * n.u + 0.5 * gamma * gamma * b * b * n.v);
      fail += n.weight * (-std::expm1(-area * g));
    }
    if (!o.log_space) return fail;
    return (fail > 0.0) ? std::max(kLogFloor, std::log(fail)) : kLogFloor;
  };
  std::vector<double> values(o.n_gamma * o.n_b);
  for (std::size_t idx = 0; idx < values.size(); ++idx) {
    const std::size_t ig = idx / o.n_b;
    const std::size_t ib = idx % o.n_b;
    values[idx] = entry(o.gamma_lo + static_cast<double>(ig) * d_gamma,
                        o.b_lo + static_cast<double>(ib) * d_b);
  }
  return values;
}

// The stored tables, read back from save()'s stream (17 significant
// digits round-trip every double exactly).
std::vector<std::vector<double>> saved_tables(
    const core::HybridEvaluator& hybrid) {
  std::stringstream s;
  hybrid.save(s);
  std::string magic;
  int version = 0;
  std::size_t n_blocks = 0, n_gamma = 0, n_b = 0;
  int log_space = 0;
  double lo = 0.0, hi = 0.0;
  s >> magic >> version >> n_blocks >> n_gamma >> n_b >> log_space >> lo >>
      hi >> lo >> hi;
  std::vector<std::vector<double>> tables(n_blocks);
  for (auto& values : tables) {
    std::string name;
    double area = 0.0;
    s >> name >> area;
    values.resize(n_gamma * n_b);
    for (double& v : values) s >> v;
  }
  EXPECT_TRUE(s.good());
  return tables;
}

// Distance in units in the last place between two finite doubles.
std::uint64_t ulp_distance(double a, double b) {
  const auto ordered = [](double d) {
    const auto i = std::bit_cast<std::int64_t>(d);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t ia = ordered(a);
  const std::int64_t ib = ordered(b);
  return ia > ib ? static_cast<std::uint64_t>(ia - ib)
                 : static_cast<std::uint64_t>(ib - ia);
}

// Largest ULP distance of any of `problem`'s hybrid table entries from
// the libm loop, on tables of F itself (log_space off). Default tables
// store log(F) and must be exactly the floored log of those entries:
// near F = 1 an F one ULP off moves log(F) by many ULPs of its own, so
// the budget is stated on F.
std::uint64_t max_fill_ulps(const ReliabilityProblem& problem) {
  constexpr double kLogFloor = -745.0;
  core::HybridOptions linear;
  linear.log_space = false;
  const auto raw = saved_tables(core::HybridEvaluator(problem, linear));
  const auto logs = saved_tables(core::HybridEvaluator(problem));
  const AnalyticAnalyzer integrator(problem, linear.integration);
  EXPECT_EQ(raw.size(), problem.blocks().size());
  EXPECT_EQ(logs.size(), raw.size());
  std::uint64_t worst = 0;
  for (std::size_t j = 0; j < raw.size() && j < logs.size(); ++j) {
    const std::vector<double> want = libm_table(
        integrator.nodes()[j], problem.blocks()[j].area, linear);
    EXPECT_EQ(raw[j].size(), want.size());
    EXPECT_EQ(logs[j].size(), want.size());
    for (std::size_t i = 0; i < want.size() && i < raw[j].size(); ++i) {
      worst = std::max(worst, ulp_distance(raw[j][i], want[i]));
      const double f = raw[j][i];
      const double log_f =
          f > 0.0 ? std::max(kLogFloor, std::log(f)) : kLogFloor;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(logs[j][i]),
                std::bit_cast<std::uint64_t>(log_f))
          << "block " << j << " entry " << i;
    }
  }
  return worst;
}

constexpr std::uint64_t kFillBudgetUlps = 8;

TEST_F(MechFixture, HybridTablesWithinEightUlpOfLibmFill) {
  core::ProblemOptions series_opts;
  series_opts.grid_cells_per_side = 10;
  series_opts.mechanisms.nbti = true;
  series_opts.mechanisms.em = true;
  core::ProblemOptions spare_opts;
  spare_opts.grid_cells_per_side = 10;
  spare_opts.mechanisms.hci = true;
  spare_opts.mechanisms.redundancy.push_back(
      {"cores", {"blk0", "blk2", "blk3"}, 1});
  const ReliabilityProblem series(ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, *temps_, 1.2, series_opts));
  const ReliabilityProblem spare(ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, *temps_, 1.2, spare_opts));
  for (const ReliabilityProblem* p :
       {static_cast<const ReliabilityProblem*>(oxide_), &series, &spare}) {
    const std::uint64_t ulps = max_fill_ulps(*p);
    EXPECT_LE(ulps, kFillBudgetUlps);
    std::printf("max table ULP distance from the libm fill: %llu\n",
                static_cast<unsigned long long>(ulps));
  }
}

TEST(HybridFillBudget, Ev6TablesWithinEightUlpOfLibmFillAtGrid25And32) {
  const chip::Design ev6 = chip::make_ev6_design();
  std::vector<double> temps;
  for (std::size_t j = 0; j < ev6.blocks.size(); ++j)
    temps.push_back(60.0 + 3.0 * static_cast<double>(j));
  const core::AnalyticReliabilityModel model;
  for (const std::size_t grid : {25u, 32u}) {
    core::ProblemOptions opts;
    opts.grid_cells_per_side = grid;
    const ReliabilityProblem problem(ReliabilityProblem::build(
        ev6, var::VariationBudget{}, model, temps, 1.2, opts));
    const std::uint64_t ulps = max_fill_ulps(problem);
    EXPECT_LE(ulps, kFillBudgetUlps) << "grid " << grid;
    std::printf("grid %zu: max table ULP distance from the libm fill: %llu\n",
                grid, static_cast<unsigned long long>(ulps));
  }
}

TEST_F(MechFixture, CompetingRisksEqualsHandComputedSurvivalProduct) {
  ASSERT_FALSE(all_->mechanisms().trivial());
  ASSERT_EQ(all_->mechanisms().extra_count(), 3u);
  const AnalyticAnalyzer analytic(*all_);
  const AnalyticAnalyzer base(*oxide_);
  const mech::MechanismSpec spec = all_mechanisms_spec();
  // Independent reconstruction of the three aging laws.
  std::vector<mech::LognormalMechanism> laws;
  laws.emplace_back("nbti", spec.nbti_params, spec.tref_c, spec.vref);
  laws.emplace_back("em", spec.em_params, spec.tref_c, spec.vref);
  laws.emplace_back("hci", spec.hci_params, spec.tref_c, spec.vref);
  for (double t : {2.0 * kYear, 8.0 * kYear, 25.0 * kYear}) {
    double log_survival = 0.0;
    for (std::size_t j = 0; j < all_->blocks().size(); ++j) {
      log_survival +=
          std::log1p(-std::clamp(base.block_failure(j, t), 0.0, 1.0));
      const mech::OperatingConditions c{(*temps_)[j], 1.2,
                                        design_->blocks[j].activity};
      for (const auto& law : laws) {
        log_survival += std::log1p(-std::clamp(law.block_cdf(j, t, c),
                                               0.0, 1.0));
      }
    }
    const double expected =
        std::clamp(-std::expm1(log_survival), 0.0, 1.0);
    EXPECT_NEAR(analytic.failure_probability(t), expected,
                1e-13 + 1e-12 * expected)
        << "t/year=" << t / kYear;
  }
}

TEST_F(MechFixture, AllMechanismsStrictlyShortenLifetime) {
  const AnalyticAnalyzer base(*oxide_);
  const AnalyticAnalyzer aged(*all_);
  for (double target : {1e-6, 1e-5, 1e-3}) {
    const double t_base = base.lifetime_at(target);
    const double t_aged = aged.lifetime_at(target);
    EXPECT_LT(t_aged, t_base) << "target " << target;
  }
  // Pointwise: more competing risks can only raise F(t).
  for (double t : {1.0 * kYear, 10.0 * kYear}) {
    EXPECT_GE(aged.failure_probability(t), base.failure_probability(t));
  }
}

TEST_F(MechFixture, HybridFoldMatchesSeparableTransform) {
  // Absent redundancy the aging term separates from the oxide term:
  // F_all = 1 - (1 - F_ox) * S_extra. The hybrid path must agree with its
  // own oxide-only twin through that exact fold.
  const core::HybridEvaluator hybrid_ox(*oxide_);
  const core::HybridEvaluator hybrid_all(*all_);
  const auto& stack = all_->mechanisms();
  for (double t : {2.0 * kYear, 8.0 * kYear, 25.0 * kYear}) {
    const double f_ox = hybrid_ox.failure_probability(t);
    const double folded = 1.0 - (1.0 - f_ox) * stack.extra_survival(t);
    EXPECT_NEAR(hybrid_all.failure_probability(t), folded, 1e-12);
  }
}

TEST(MechEv6, AllMechanismsShortenEv6Lifetime) {
  // The paper's EV6 floorplan with a Fig. 1-style hot/cold spread. At ppm
  // targets the oxide weakest link over ~10^6 devices fails first (the
  // aging CDFs underflow), so the acceptance is pinned where aging is
  // representable: mid-range failure levels.
  const chip::Design ev6 = chip::make_ev6_design();
  std::vector<double> temps;
  for (std::size_t j = 0; j < ev6.blocks.size(); ++j) {
    temps.push_back(75.0 + 30.0 * static_cast<double>(j) /
                               static_cast<double>(ev6.blocks.size() - 1));
  }
  const core::AnalyticReliabilityModel model;
  core::ProblemOptions base_opts;
  base_opts.grid_cells_per_side = 10;
  const ReliabilityProblem base_problem(ReliabilityProblem::build(
      ev6, var::VariationBudget{}, model, temps, 1.2, base_opts));
  core::ProblemOptions aged_opts = base_opts;
  aged_opts.mechanisms = all_mechanisms_spec();
  const ReliabilityProblem aged_problem(ReliabilityProblem::build(
      ev6, var::VariationBudget{}, model, temps, 1.2, aged_opts));
  const AnalyticAnalyzer base(base_problem);
  const AnalyticAnalyzer aged(aged_problem);
  for (double target : {0.1, 0.5, 0.9}) {
    EXPECT_LT(aged.lifetime_at(target), base.lifetime_at(target))
        << "target " << target;
  }
  // Below the underflow threshold the two can only tie, never invert.
  EXPECT_LE(aged.lifetime_at(1e-5), base.lifetime_at(1e-5));
}

// ---------------------------------------------------------------------------
// Monte Carlo wiring.

TEST_F(MechFixture, MonteCarloAppliesDeterministicAgingTransform) {
  core::MonteCarloOptions mco;
  mco.chip_samples = 200;
  const core::MonteCarloAnalyzer mc_ox(*oxide_, mco);
  const core::MonteCarloAnalyzer mc_all(*all_, mco);
  const auto& stack = all_->mechanisms();
  const std::vector<double> ts{2.0 * kYear, 8.0 * kYear, 25.0 * kYear};
  const auto f_ox = mc_ox.failure_probabilities(ts);
  const auto f_all = mc_all.failure_probabilities(ts);
  const auto se_ox = mc_ox.failure_std_errors(ts);
  const auto se_all = mc_all.failure_std_errors(ts);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const double s = stack.extra_survival(ts[i]);
    EXPECT_NEAR(f_all[i], 1.0 - (1.0 - f_ox[i]) * s, 1e-12) << i;
    // The deterministic factor scales the sampling noise by S as well.
    EXPECT_NEAR(se_all[i], se_ox[i] * s, 1e-12) << i;
  }
}

TEST_F(MechFixture, MonteCarloSampledLifetimesNeverLengthen) {
  // sample_failure_times draws the oxide TTF from the same per-chip
  // streams for both problems (extras draw after all oxide use), so the
  // aged chip lifetime is the min over mechanisms: element-wise <=.
  core::MonteCarloOptions mco;
  mco.chip_samples = 50;
  const core::MonteCarloAnalyzer mc_ox(*oxide_, mco);
  const core::MonteCarloAnalyzer mc_all(*all_, mco);
  stats::Rng rng_a(1234);
  stats::Rng rng_b(1234);
  const auto base = mc_ox.sample_failure_times(64, rng_a);
  const auto aged = mc_all.sample_failure_times(64, rng_b);
  ASSERT_EQ(base.size(), aged.size());
  std::size_t strictly_less = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_LE(aged[i], base[i]) << i;
    if (aged[i] < base[i]) ++strictly_less;
  }
  // With three extra mechanisms some chips must die of aging first.
  EXPECT_GT(strictly_less, 0u);
}

TEST_F(MechFixture, MonteCarloRejectsUnsupportedCompositions) {
  // Redundancy breaks the separability the MC transform rests on.
  core::ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  opts.mechanisms.redundancy.push_back({"pair", {"blk0", "blk1"}, 1});
  const ReliabilityProblem redundant(ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, *temps_, 1.2, opts));
  try {
    const core::MonteCarloAnalyzer mc(redundant, {});
    FAIL() << "expected kInvalidInput";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
  // kth-failure semantics are oxide-only; k = 1 stays available.
  core::MonteCarloOptions mco;
  mco.chip_samples = 50;
  const core::MonteCarloAnalyzer mc_all(*all_, mco);
  EXPECT_GT(mc_all.kth_failure_probability(8.0 * kYear, 1), 0.0);
  EXPECT_THROW((void)mc_all.kth_failure_probability(8.0 * kYear, 2), Error);
}

// ---------------------------------------------------------------------------
// Redundancy composition.

TEST_F(MechFixture, SpareGroupsExtendLifetimeMonotonically) {
  // One group over three hot blocks; more spares => lower F at every t.
  std::vector<ReliabilityProblem> storage;
  storage.reserve(3);
  for (std::size_t spares = 0; spares <= 2; ++spares) {
    core::ProblemOptions opts;
    opts.grid_cells_per_side = 10;
    opts.mechanisms.redundancy.push_back(
        {"cores", {"blk0", "blk3", "blk5"}, spares});
    storage.push_back(ReliabilityProblem::build(
        *design_, var::VariationBudget{}, *model_, *temps_, 1.2, opts));
  }
  const AnalyticAnalyzer base(*oxide_);
  const AnalyticAnalyzer s0(storage[0]);
  const AnalyticAnalyzer s1(storage[1]);
  const AnalyticAnalyzer s2(storage[2]);
  for (double t : {2.0 * kYear, 8.0 * kYear, 25.0 * kYear}) {
    const double f_base = base.failure_probability(t);
    const double f0 = s0.failure_probability(t);
    const double f1 = s1.failure_probability(t);
    const double f2 = s2.failure_probability(t);
    // Zero spares degenerates to the series chip (within composition fp).
    EXPECT_NEAR(f0, f_base, 1e-12 + 1e-9 * f_base);
    EXPECT_LT(f1, f0) << "t/year=" << t / kYear;
    EXPECT_LT(f2, f1) << "t/year=" << t / kYear;
  }
  // Lifetime at a ppm target is extended, not shortened.
  EXPECT_GT(s1.lifetime_at(1e-5), base.lifetime_at(1e-5));
}

TEST_F(MechFixture, SpareGroupMatchesHandComputedPoissonBinomial) {
  // Group = {blk1, blk4}, one spare: the group fails only when both
  // members fail, so chip F folds p1 * p4 into the ungrouped survival.
  core::ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  opts.mechanisms.redundancy.push_back({"pair", {"blk1", "blk4"}, 1});
  const ReliabilityProblem redundant(ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, *temps_, 1.2, opts));
  const AnalyticAnalyzer red(redundant);
  const AnalyticAnalyzer base(*oxide_);
  for (double t : {2.0 * kYear, 8.0 * kYear, 25.0 * kYear}) {
    double log_survival = 0.0;
    double p1 = 0.0;
    double p4 = 0.0;
    for (std::size_t j = 0; j < oxide_->blocks().size(); ++j) {
      const double fj = std::clamp(base.block_failure(j, t), 0.0, 1.0);
      if (j == 1) {
        p1 = fj;
      } else if (j == 4) {
        p4 = fj;
      } else {
        log_survival += std::log1p(-fj);
      }
    }
    log_survival += std::log1p(-p1 * p4);
    const double expected =
        std::clamp(-std::expm1(log_survival), 0.0, 1.0);
    EXPECT_NEAR(red.failure_probability(t), expected,
                1e-13 + 1e-11 * expected);
  }
}

// ---------------------------------------------------------------------------
// DRM damage accounting.

TEST_F(MechFixture, DrmTracksPerMechanismDamage) {
  const std::vector<drm::OperatingPoint> ladder{
      {"eco", 1.0, 1.2e9}, {"turbo", 1.25, 2.3e9}};
  drm::DrmOptions opts;
  opts.control_interval_s = 90.0 * 86400.0;
  drm::ReliabilityManager mgr(*all_, *model_, ladder, opts);
  const std::size_t n = all_->blocks().size();
  ASSERT_EQ(mgr.extra_damage().size(), 3 * n);
  ASSERT_EQ(mgr.state_size(), 4 * n);
  for (int i = 0; i < 4; ++i) (void)mgr.step(0.6);
  // Every mechanism accumulated monotone damage on at least one block.
  const auto& extra = mgr.extra_damage();
  for (std::size_t m = 0; m < 3; ++m) {
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(extra[m * n + j], 0.0);
      total += extra[m * n + j];
    }
    EXPECT_GT(total, 0.0) << "mechanism " << m;
  }
  const double damage_before = mgr.damage();
  EXPECT_GT(damage_before, 0.0);
  // Round-trip through the checkpoint vector.
  const std::vector<double> state = mgr.damage_state();
  ASSERT_EQ(state.size(), mgr.state_size());
  drm::ReliabilityManager fresh(*all_, *model_, ladder, opts);
  fresh.restore_state(state, 4.0 * opts.control_interval_s,
                      mgr.last_op_index());
  EXPECT_DOUBLE_EQ(fresh.damage(), damage_before);
  EXPECT_EQ(fresh.extra_damage(), extra);
  // Damage keeps growing after the restore.
  (void)fresh.step(0.6);
  EXPECT_GT(fresh.damage(), damage_before);
}

TEST_F(MechFixture, DrmOxideOnlyStateIsSeedShaped) {
  const std::vector<drm::OperatingPoint> ladder{{"eco", 1.0, 1.2e9}};
  drm::ReliabilityManager mgr(*oxide_, *model_, ladder, {});
  EXPECT_TRUE(mgr.extra_damage().empty());
  EXPECT_EQ(mgr.state_size(), oxide_->blocks().size());
  (void)mgr.step(0.5);
  EXPECT_EQ(mgr.damage_state(), mgr.block_damage());
}

// ---------------------------------------------------------------------------
// Report surface.

TEST_F(MechFixture, ReportNamesMechanismsOnlyWhenNonDefault) {
  const auto base = core::make_signoff_report(*oxide_, *model_);
  EXPECT_EQ(base.mechanisms, "oxide");
  EXPECT_EQ(base.redundancy_groups, 0u);
  EXPECT_EQ(base.render().find("Mechanisms:"), std::string::npos);
  const auto aged = core::make_signoff_report(*all_, *model_);
  EXPECT_NE(aged.mechanisms, "oxide");
  EXPECT_NE(aged.render().find("Mechanisms:"), std::string::npos);
}

}  // namespace
}  // namespace obd
