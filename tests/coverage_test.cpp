// Cross-cutting coverage: file-based I/O round trips, quad-tree problems
// through the full analyzer stack, LHS-driven st_MC, the three-moment
// analyzer option, and the public hybrid block lookup.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "chip/design.hpp"
#include "chip/floorplan_io.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "core/analytic.hpp"
#include "core/hybrid.hpp"
#include "core/lifetime.hpp"
#include "power/trace_io.hpp"

namespace obd {
namespace {

// Temporary file helper (unique per test-process).
std::string temp_path(const char* stem) {
  return std::string(::testing::TempDir()) + "/obdrel_" + stem;
}

TEST(FileRoundTrips, FloorplanAndTraceFiles) {
  const chip::Design d = chip::make_benchmark(1);
  const std::string flp = temp_path("rt.flp");
  {
    std::ofstream out(flp);
    chip::save_floorplan(out, d);
  }
  const chip::Design loaded = chip::load_floorplan_file(flp, {.name = "C1"});
  EXPECT_EQ(loaded.blocks.size(), d.blocks.size());
  EXPECT_NEAR(loaded.width, d.width, 1e-9);

  const std::string ptrace = temp_path("rt.ptrace");
  {
    std::ofstream out(ptrace);
    std::vector<power::PowerMap> maps(2);
    maps[0].block_watts.assign(d.blocks.size(), 1.0);
    maps[1].block_watts.assign(d.blocks.size(), 2.0);
    power::save_power_trace(out, d, maps);
  }
  const auto trace = power::load_power_trace_file(ptrace, d);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace[1].block_watts[0], 2.0);

  EXPECT_THROW(chip::load_floorplan_file("/nonexistent/x.flp"), Error);
  EXPECT_THROW(power::load_power_trace_file("/nonexistent/x.ptrace", d),
               Error);
  std::remove(flp.c_str());
  std::remove(ptrace.c_str());
}

TEST(FileRoundTrips, ConfigFile) {
  const std::string path = temp_path("cfg");
  {
    std::ofstream out(path);
    out << "design = c2\nvdd = 1.15\n";
  }
  const Config cfg = Config::parse_file(path);
  EXPECT_EQ(cfg.get_string("design"), "c2");
  EXPECT_DOUBLE_EQ(cfg.get_double("vdd"), 1.15);
  EXPECT_THROW(Config::parse_file("/nonexistent/cfg"), Error);
  std::remove(path.c_str());
}

class QuadTreeProblemFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = new chip::Design(chip::make_synthetic_design(
        "Q1", {.devices = 20000, .block_count = 4, .die_width = 5.0,
               .die_height = 5.0, .seed = 121}));
    model_ = new core::AnalyticReliabilityModel();
  }
  static void TearDownTestSuite() {
    delete model_;
    delete design_;
    model_ = nullptr;
    design_ = nullptr;
  }
  static chip::Design* design_;
  static core::AnalyticReliabilityModel* model_;
};

chip::Design* QuadTreeProblemFixture::design_ = nullptr;
core::AnalyticReliabilityModel* QuadTreeProblemFixture::model_ = nullptr;

TEST_F(QuadTreeProblemFixture, FullStackRunsAndAgreesWithGridModel) {
  const std::vector<double> temps{85.0, 65.0, 75.0, 92.0};
  core::ProblemOptions grid_opts;
  grid_opts.grid_cells_per_side = 10;
  core::ProblemOptions qt_opts = grid_opts;
  qt_opts.structure = core::CorrelationStructure::kQuadTree;

  const auto grid_problem = core::ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, temps, 1.2, grid_opts);
  const auto qt_problem = core::ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, temps, 1.2, qt_opts);

  const core::AnalyticAnalyzer grid_fast(grid_problem);
  const core::AnalyticAnalyzer qt_fast(qt_problem);
  // Different correlation families, same variance budget: lifetimes agree
  // closely (failure is dominated by the shared global mode).
  EXPECT_NEAR(qt_fast.lifetime_at(core::kTenFaultsPerMillion) /
                  grid_fast.lifetime_at(core::kTenFaultsPerMillion),
              1.0, 0.05);
}

TEST_F(QuadTreeProblemFixture, LatinHypercubeStMcMatchesPlain) {
  const std::vector<double> temps{85.0, 65.0, 75.0, 92.0};
  core::ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  const auto problem = core::ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, temps, 1.2, opts);
  const core::StMcAnalyzer plain(problem, {.samples = 6000});
  const core::StMcAnalyzer lhs(problem,
                               {.samples = 6000, .latin_hypercube = true});
  EXPECT_NEAR(lhs.lifetime_at(core::kTenFaultsPerMillion) /
                  plain.lifetime_at(core::kTenFaultsPerMillion),
              1.0, 0.05);
}

TEST_F(QuadTreeProblemFixture, ThreeMomentAnalyzerOptionTracksDefault) {
  const std::vector<double> temps{85.0, 65.0, 75.0, 92.0};
  core::ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  const auto problem = core::ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, temps, 1.2, opts);
  core::AnalyticOptions three;
  three.v_three_moment = true;
  const core::AnalyticAnalyzer two_m(problem);
  const core::AnalyticAnalyzer three_m(problem, three);
  EXPECT_NEAR(three_m.lifetime_at(core::kOneFaultPerMillion) /
                  two_m.lifetime_at(core::kOneFaultPerMillion),
              1.0, 0.02);
}

TEST_F(QuadTreeProblemFixture, HybridBlockLookupIsMonotoneInGamma) {
  const std::vector<double> temps{85.0, 65.0, 75.0, 92.0};
  core::ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  const auto problem = core::ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, temps, 1.2, opts);
  const core::HybridEvaluator hybrid(problem);
  const auto& hopts = hybrid.options();
  double prev = -1.0;
  for (double g = hopts.gamma_lo; g <= hopts.gamma_hi; g += 2.0) {
    const double v = hybrid.block_failure(0, g, 0.64);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
}

}  // namespace
}  // namespace obd
