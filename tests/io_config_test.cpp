// Tests for the file-format layer: HotSpot .flp floorplans, .ptrace power
// traces, key/value configs, and hybrid-LUT serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "chip/design.hpp"
#include "chip/floorplan_io.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "core/analytic.hpp"
#include "core/hybrid.hpp"
#include "power/trace_io.hpp"

namespace obd {
namespace {

constexpr const char* kFlp =
    "# toy EV6-ish floorplan (meters)\n"
    "L2      0.016 0.008 0.000 0.000\n"
    "Icache  0.005 0.004 0.000 0.008   # flanks the core\n"
    "IntExec 0.004 0.002 0.005 0.008\n"
    "\n"
    "FPMul   0.004 0.002 0.009 0.008\n";

TEST(FloorplanIo, ParsesHotspotFormat) {
  std::istringstream in(kFlp);
  const chip::Design d = chip::load_floorplan(in, {.name = "toy"});
  ASSERT_EQ(d.blocks.size(), 4u);
  EXPECT_EQ(d.name, "toy");
  // Meters converted to millimeters; die extent = bounding box.
  EXPECT_DOUBLE_EQ(d.width, 16.0);
  EXPECT_DOUBLE_EQ(d.height, 12.0);
  EXPECT_DOUBLE_EQ(d.blocks[0].rect.width, 16.0);
  EXPECT_DOUBLE_EQ(d.blocks[1].rect.y, 8.0);
  // Kinds inferred from names.
  EXPECT_EQ(d.blocks[0].kind, chip::UnitKind::kCache);
  EXPECT_EQ(d.blocks[1].kind, chip::UnitKind::kCache);
  EXPECT_EQ(d.blocks[3].kind, chip::UnitKind::kFloatingPoint);
  // Devices assigned by density.
  EXPECT_EQ(d.blocks[0].device_count,
            static_cast<std::size_t>(16.0 * 8.0 * 3000.0));
}

TEST(FloorplanIo, RoundTripsThroughSave) {
  const chip::Design original = chip::make_ev6_design();
  std::ostringstream out;
  chip::save_floorplan(out, original);
  std::istringstream in(out.str());
  const chip::Design loaded = chip::load_floorplan(in, {.name = "C6"});
  ASSERT_EQ(loaded.blocks.size(), original.blocks.size());
  for (std::size_t j = 0; j < original.blocks.size(); ++j) {
    EXPECT_EQ(loaded.blocks[j].name, original.blocks[j].name);
    EXPECT_NEAR(loaded.blocks[j].rect.x, original.blocks[j].rect.x, 1e-9);
    EXPECT_NEAR(loaded.blocks[j].rect.area(),
                original.blocks[j].rect.area(), 1e-9);
  }
  EXPECT_NEAR(loaded.width, original.width, 1e-9);
}

TEST(FloorplanIo, KindInference) {
  using chip::UnitKind;
  EXPECT_EQ(chip::kind_from_name("L2_left"), UnitKind::kCache);
  EXPECT_EQ(chip::kind_from_name("dcache"), UnitKind::kCache);
  EXPECT_EQ(chip::kind_from_name("IntReg"), UnitKind::kRegisterFile);
  EXPECT_EQ(chip::kind_from_name("FPAdd"), UnitKind::kFloatingPoint);
  EXPECT_EQ(chip::kind_from_name("Bpred_0"), UnitKind::kPredictor);
  EXPECT_EQ(chip::kind_from_name("DTB"), UnitKind::kTlb);
  EXPECT_EQ(chip::kind_from_name("core7"), UnitKind::kCore);
  EXPECT_EQ(chip::kind_from_name("noc_router"), UnitKind::kInterconnect);
  EXPECT_EQ(chip::kind_from_name("decode"), UnitKind::kLogic);
}

TEST(FloorplanIo, RejectsMalformedInput) {
  std::istringstream missing_field("blk 0.001 0.001 0.0\n");
  EXPECT_THROW(chip::load_floorplan(missing_field), Error);
  std::istringstream bad_number("blk 0.001 abc 0.0 0.0\n");
  EXPECT_THROW(chip::load_floorplan(bad_number), Error);
  std::istringstream empty("# nothing\n");
  EXPECT_THROW(chip::load_floorplan(empty), Error);
}

TEST(PowerTraceIo, ParsesAndReorders) {
  chip::Design d;
  d.name = "t";
  d.width = 2.0;
  d.height = 1.0;
  d.blocks.push_back({"a", {0, 0, 1, 1}, 10, 1.0, chip::UnitKind::kLogic, 0.5});
  d.blocks.push_back({"b", {1, 0, 1, 1}, 10, 1.0, chip::UnitKind::kCache, 0.1});
  // Header in reversed order relative to the design.
  std::istringstream in("b a\n1.5 2.5\n0.5 3.5\n");
  const auto maps = power::load_power_trace(in, d);
  ASSERT_EQ(maps.size(), 2u);
  EXPECT_DOUBLE_EQ(maps[0].block_watts[0], 2.5);  // column 'a'
  EXPECT_DOUBLE_EQ(maps[0].block_watts[1], 1.5);  // column 'b'
  EXPECT_DOUBLE_EQ(maps[1].block_watts[0], 3.5);
}

TEST(PowerTraceIo, RoundTripsThroughSave) {
  chip::Design d;
  d.name = "t";
  d.width = 2.0;
  d.height = 1.0;
  d.blocks.push_back({"x", {0, 0, 1, 1}, 10, 1.0, chip::UnitKind::kLogic, 0.5});
  d.blocks.push_back({"y", {1, 0, 1, 1}, 10, 1.0, chip::UnitKind::kCache, 0.1});
  std::vector<power::PowerMap> maps(3);
  for (std::size_t i = 0; i < 3; ++i)
    maps[i].block_watts = {1.0 + static_cast<double>(i), 0.25};
  std::ostringstream out;
  power::save_power_trace(out, d, maps);
  std::istringstream in(out.str());
  const auto loaded = power::load_power_trace(in, d);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded[2].block_watts[0], 3.0);
}

TEST(PowerTraceIo, RejectsBadTraces) {
  chip::Design d;
  d.name = "t";
  d.width = 1.0;
  d.height = 1.0;
  d.blocks.push_back({"a", {0, 0, 1, 1}, 10, 1.0, chip::UnitKind::kLogic, 0.5});
  std::istringstream unknown("zz\n1.0\n");
  EXPECT_THROW(power::load_power_trace(unknown, d), Error);
  std::istringstream negative("a\n-1.0\n");
  EXPECT_THROW(power::load_power_trace(negative, d), Error);
  std::istringstream no_samples("a\n");
  EXPECT_THROW(power::load_power_trace(no_samples, d), Error);
}

TEST(ConfigFile, ParsesKeysCommentsOverrides) {
  std::istringstream in(
      "# comment\n"
      "design = ev6\n"
      "vdd 1.25\n"
      "mc_chips = 200   # inline comment\n"
      "targets = 1e-6 1e-5\n"
      "verbose = yes\n"
      "design = c3\n");  // later assignment wins
  const Config cfg = Config::parse(in);
  EXPECT_EQ(cfg.get_string("design"), "c3");
  EXPECT_DOUBLE_EQ(cfg.get_double("vdd"), 1.25);
  EXPECT_EQ(cfg.get_int("mc_chips"), 200);
  EXPECT_TRUE(cfg.get_bool("verbose", false));
  const auto targets = cfg.get_doubles("targets", {});
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_DOUBLE_EQ(targets[0], 1e-6);
  EXPECT_FALSE(cfg.has("nope"));
  EXPECT_DOUBLE_EQ(cfg.get_double("nope", 7.0), 7.0);
  EXPECT_EQ(cfg.keys().size(), 5u);
}

TEST(ConfigFile, ErrorsOnBadValues) {
  Config cfg;
  cfg.set("x", "abc");
  EXPECT_THROW((void)cfg.get_double("x"), Error);
  EXPECT_THROW((void)cfg.get_int("x"), Error);
  EXPECT_THROW((void)cfg.get_bool("x", true), Error);
  EXPECT_THROW(cfg.get_string("missing"), Error);
  std::istringstream bad("keyonly\n");
  EXPECT_THROW(Config::parse(bad), Error);
}

TEST(ConfigFile, RejectsTrailingCharactersInDoubleLists) {
  // Regression: get_doubles used bare std::stod, which parses "1.5abc" as
  // 1.5 and silently drops the garbage. Every token must consume fully.
  Config cfg;
  cfg.set("targets", "1e-6 1.5abc");
  try {
    (void)cfg.get_doubles("targets", {});
    FAIL() << "expected a config error for '1.5abc'";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
    EXPECT_NE(std::string(e.what()).find("1.5abc"), std::string::npos);
  }
  // The scalar getter already rejected trailing garbage; keep it pinned.
  cfg.set("vdd", "1.2volts");
  EXPECT_THROW((void)cfg.get_double("vdd"), Error);
}

TEST(ConfigFile, RejectsNonFiniteDoubles) {
  // std::stod happily parses "nan" and "inf"; a reliability target or
  // supply voltage must be finite, and the error must name the key.
  for (const char* raw : {"nan", "inf", "-inf", "NaN", "Infinity"}) {
    Config cfg;
    cfg.set("vdd", raw);
    try {
      (void)cfg.get_double("vdd");
      FAIL() << "expected a config error for '" << raw << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kConfig) << raw;
      EXPECT_NE(std::string(e.what()).find("vdd"), std::string::npos) << raw;
    }
  }
  Config cfg;
  cfg.set("targets", "1e-6 inf 1e-4");
  try {
    (void)cfg.get_doubles("targets", {});
    FAIL() << "expected a config error for a non-finite list entry";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
    EXPECT_NE(std::string(e.what()).find("targets"), std::string::npos);
  }
}

TEST(HybridSerialization, SaveLoadRoundTrip) {
  const chip::Design design = chip::make_synthetic_design(
      "S", {.devices = 20000, .block_count = 5, .die_width = 5.0,
            .die_height = 5.0, .seed = 21});
  const core::AnalyticReliabilityModel model;
  const std::vector<double> temps{90.0, 75.0, 60.0, 82.0, 70.0};
  core::ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  const auto problem = core::ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, 1.2, opts);

  const core::HybridEvaluator original(problem);
  std::ostringstream out;
  original.save(out);
  std::istringstream in(out.str());
  const auto loaded = core::HybridEvaluator::load(in, problem);
  for (double t : {1e7, 1e8, 1e9}) {
    EXPECT_NEAR(loaded.failure_probability(t),
                original.failure_probability(t),
                1e-12 * std::max(1e-30, original.failure_probability(t)))
        << "t=" << t;
  }
}

TEST(HybridSerialization, LoadValidatesProblem) {
  const chip::Design design = chip::make_synthetic_design(
      "S", {.devices = 20000, .block_count = 5, .die_width = 5.0,
            .die_height = 5.0, .seed = 21});
  const core::AnalyticReliabilityModel model;
  const std::vector<double> temps{90.0, 75.0, 60.0, 82.0, 70.0};
  core::ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  const auto problem = core::ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, 1.2, opts);
  const core::HybridEvaluator original(problem);
  std::ostringstream out;
  original.save(out);

  // A different design must be rejected.
  const chip::Design other = chip::make_benchmark(1);
  const auto other_problem = core::ReliabilityProblem::build(
      other, var::VariationBudget{}, model,
      std::vector<double>(other.blocks.size(), 80.0), 1.2, opts);
  std::istringstream in(out.str());
  EXPECT_THROW(core::HybridEvaluator::load(in, other_problem), Error);

  // Garbage input must be rejected.
  std::istringstream garbage("not-a-lut 1\n");
  EXPECT_THROW(core::HybridEvaluator::load(garbage, problem), Error);
}

}  // namespace
}  // namespace obd
