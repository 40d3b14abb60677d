// Robustness tests: malformed inputs must raise typed obd::Error (never
// crash or hang), and every registered fault-injection site must either
// recover gracefully (with a diagnostic) or fail with the documented
// error code.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "chip/design.hpp"
#include "chip/floorplan_io.hpp"
#include "common/checkpoint.hpp"
#include "common/config.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "core/device_model.hpp"
#include "core/hybrid.hpp"
#include "core/problem.hpp"
#include "drm/manager.hpp"
#include "fleet/shard.hpp"
#include "fleet/supervisor.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "numeric/quadrature.hpp"
#include "power/power.hpp"
#include "power/trace_io.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "thermal/solver.hpp"
#include "variation/model.hpp"

namespace obd {
namespace {

// Every test starts and ends with a pristine fault/diagnostic state.
class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm();
    diagnostics().clear();
    set_strict_mode(false);
  }
  void TearDown() override {
    fault::disarm();
    diagnostics().clear();
    set_strict_mode(false);
  }
};

template <typename Fn>
ErrorCode thrown_code(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected obd::Error, got: " << e.what();
    return ErrorCode::kInternal;
  }
  ADD_FAILURE() << "expected obd::Error, nothing was thrown";
  return ErrorCode::kInternal;
}

chip::Design small_design() {
  return chip::make_synthetic_design(
      "robust", {.devices = 20000, .block_count = 4, .die_width = 4.0,
                 .die_height = 4.0, .seed = 5});
}

// ---------------------------------------------------------------------------
// Malformed config
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, ConfigRejectsGarbageLines) {
  std::istringstream in("grid 12\nthis-line-has-no-value\n");
  EXPECT_EQ(thrown_code([&] { Config::parse(in); }), ErrorCode::kConfig);
}

TEST_F(RobustnessTest, ConfigRejectsNonNumericValues) {
  std::istringstream in("t_seconds 12abc\n");
  Config cfg = Config::parse(in);
  EXPECT_EQ(thrown_code([&] { (void)cfg.get_double("t_seconds"); }),
            ErrorCode::kConfig);
}

TEST_F(RobustnessTest, ConfigMissingFileIsIoError) {
  EXPECT_EQ(
      thrown_code([&] { Config::parse_file("/nonexistent/obdrel.cfg"); }),
      ErrorCode::kIo);
}

TEST_F(RobustnessTest, ConfigCountsMustBePositive) {
  std::istringstream in("grid 0\nmc_chips -100\nok 7\n");
  Config cfg = Config::parse(in);
  EXPECT_EQ(thrown_code([&] { (void)cfg.get_count("grid", 20); }),
            ErrorCode::kInvalidInput);
  EXPECT_EQ(thrown_code([&] { (void)cfg.get_count("mc_chips", 20); }),
            ErrorCode::kInvalidInput);
  EXPECT_EQ(cfg.get_count("ok", 20), 7u);
  EXPECT_EQ(cfg.get_count("absent", 20), 20u);
}

// ---------------------------------------------------------------------------
// Malformed floorplan
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, FloorplanRejectsTruncatedLine) {
  std::istringstream in("alu 0.001 0.002\n");
  EXPECT_EQ(thrown_code([&] { chip::load_floorplan(in); }),
            ErrorCode::kInvalidInput);
}

TEST_F(RobustnessTest, FloorplanRejectsNonFiniteDimensions) {
  std::istringstream nan_in("alu nan 0.002 0.0 0.0\n");
  EXPECT_EQ(thrown_code([&] { chip::load_floorplan(nan_in); }),
            ErrorCode::kInvalidInput);
  std::istringstream inf_in("alu 0.001 inf 0.0 0.0\n");
  EXPECT_EQ(thrown_code([&] { chip::load_floorplan(inf_in); }),
            ErrorCode::kInvalidInput);
}

TEST_F(RobustnessTest, FloorplanRejectsNegativeDimensions) {
  std::istringstream in("alu -0.001 0.002 0.0 0.0\n");
  EXPECT_EQ(thrown_code([&] { chip::load_floorplan(in); }),
            ErrorCode::kInvalidInput);
}

TEST_F(RobustnessTest, FloorplanRejectsGarbageNumbers) {
  std::istringstream in("alu abc 0.002 0.0 0.0\n");
  EXPECT_EQ(thrown_code([&] { chip::load_floorplan(in); }),
            ErrorCode::kInvalidInput);
}

TEST_F(RobustnessTest, FloorplanRejectsEmptyStream) {
  std::istringstream in("# only comments\n\n");
  EXPECT_EQ(thrown_code([&] { chip::load_floorplan(in); }),
            ErrorCode::kInvalidInput);
}

TEST_F(RobustnessTest, FloorplanMissingFileIsIoError) {
  EXPECT_EQ(
      thrown_code([&] { chip::load_floorplan_file("/nonexistent/x.flp"); }),
      ErrorCode::kIo);
}

// ---------------------------------------------------------------------------
// Malformed power trace
// ---------------------------------------------------------------------------

class PtraceTest : public RobustnessTest {
 protected:
  PtraceTest() : design_(small_design()) {
    std::ostringstream h;
    for (std::size_t j = 0; j < design_.blocks.size(); ++j)
      h << design_.blocks[j].name
        << (j + 1 < design_.blocks.size() ? ' ' : '\n');
    header_ = h.str();
  }
  chip::Design design_;
  std::string header_;  // valid header naming every design block
};

TEST_F(PtraceTest, RejectsUnknownBlockHeader) {
  std::istringstream in("bogus_block_name\n1.0\n");
  EXPECT_EQ(thrown_code([&] { power::load_power_trace(in, design_); }),
            ErrorCode::kInvalidInput);
}

TEST_F(PtraceTest, RejectsShortSampleRow) {
  std::istringstream in(header_ + "1.0 2.0\n");
  EXPECT_EQ(thrown_code([&] { power::load_power_trace(in, design_); }),
            ErrorCode::kInvalidInput);
}

TEST_F(PtraceTest, RejectsNonFinitePower) {
  // Non-finite telemetry is corruption that would silently poison the
  // thermal solve: typed configuration error plus a trace.parse
  // diagnostic, distinct from structurally malformed input.
  std::istringstream in(header_ + "1.0 nan 1.0 1.0\n");
  EXPECT_EQ(thrown_code([&] { power::load_power_trace(in, design_); }),
            ErrorCode::kConfig);
  EXPECT_GE(diagnostics().count("trace.parse"), 1u);
}

TEST_F(PtraceTest, RejectsInfinitePower) {
  std::istringstream in(header_ + "1.0 inf 1.0 1.0\n");
  EXPECT_EQ(thrown_code([&] { power::load_power_trace(in, design_); }),
            ErrorCode::kConfig);
  EXPECT_GE(diagnostics().count("trace.parse"), 1u);
}

TEST_F(PtraceTest, RejectsOverflowingPower) {
  // 1e999 overflows double range: same corruption class as nan/inf.
  std::istringstream in(header_ + "1.0 1e999 1.0 1.0\n");
  EXPECT_EQ(thrown_code([&] { power::load_power_trace(in, design_); }),
            ErrorCode::kConfig);
  EXPECT_GE(diagnostics().count("trace.parse"), 1u);
}

TEST_F(PtraceTest, NonFiniteErrorNamesTheLine) {
  // Header is line 1; the corrupt sample sits on line 3.
  std::istringstream in(header_ + "1.0 1.0 1.0 1.0\n1.0 inf 1.0 1.0\n");
  try {
    (void)power::load_power_trace(in, design_);
    ADD_FAILURE() << "expected obd::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST_F(PtraceTest, RejectsNegativePower) {
  std::istringstream in(header_ + "1.0 -2.0 1.0 1.0\n");
  EXPECT_EQ(thrown_code([&] { power::load_power_trace(in, design_); }),
            ErrorCode::kInvalidInput);
}

TEST_F(PtraceTest, RejectsTraceWithoutSamples) {
  std::istringstream in(header_);
  EXPECT_EQ(thrown_code([&] { power::load_power_trace(in, design_); }),
            ErrorCode::kInvalidInput);
}

// ---------------------------------------------------------------------------
// Malformed hybrid LUT
// ---------------------------------------------------------------------------

// Shared small problem: building one is the expensive part of these tests.
class LutTest : public RobustnessTest {
 protected:
  static void SetUpTestSuite() {
    design_ = new chip::Design(small_design());
    model_ = new core::AnalyticReliabilityModel();
    core::ProblemOptions opts;
    opts.grid_cells_per_side = 8;
    problem_ = new core::ReliabilityProblem(core::ReliabilityProblem::build(
        *design_, var::VariationBudget{}, *model_,
        std::vector<double>(design_->blocks.size(), 80.0), 1.2, opts));
  }
  static void TearDownTestSuite() {
    delete problem_;
    delete model_;
    delete design_;
    problem_ = nullptr;
    model_ = nullptr;
    design_ = nullptr;
  }
  static chip::Design* design_;
  static core::AnalyticReliabilityModel* model_;
  static core::ReliabilityProblem* problem_;
};

chip::Design* LutTest::design_ = nullptr;
core::AnalyticReliabilityModel* LutTest::model_ = nullptr;
core::ReliabilityProblem* LutTest::problem_ = nullptr;

TEST_F(LutTest, RejectsGarbageHeader) {
  std::istringstream in("not-a-lut-file at all\n");
  EXPECT_EQ(
      thrown_code([&] { core::HybridEvaluator::load(in, *problem_); }),
      ErrorCode::kInvalidInput);
}

TEST_F(LutTest, RejectsTruncatedTable) {
  core::HybridOptions hopts;
  hopts.n_gamma = 8;
  hopts.n_b = 4;
  const core::HybridEvaluator ev(*problem_, hopts);
  std::ostringstream out;
  ev.save(out);
  const std::string full = out.str();
  std::istringstream in(full.substr(0, full.size() / 2));
  EXPECT_EQ(
      thrown_code([&] { core::HybridEvaluator::load(in, *problem_); }),
      ErrorCode::kInvalidInput);
}

TEST_F(LutTest, RejectsAbsurdTableDimensionsQuickly) {
  // A header advertising a gigantic table must be rejected before any
  // allocation is attempted (no OOM, no hang).
  core::HybridOptions hopts;
  hopts.n_gamma = 8;
  hopts.n_b = 4;
  const core::HybridEvaluator ev(*problem_, hopts);
  std::ostringstream out;
  ev.save(out);
  std::string text = out.str();
  const std::string from = " 8 4 ";
  const std::string to = " 999999999 999999999 ";
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), to);
  std::istringstream in(text);
  EXPECT_EQ(
      thrown_code([&] { core::HybridEvaluator::load(in, *problem_); }),
      ErrorCode::kInvalidInput);
}

// Version-1 streams hold tables filled with libm's exp/expm1, version-2
// streams tables from the per-node portable exp and version-3 streams
// tables that sum every node on its own; this build writes version 4 and
// refuses all three with a typed error naming the version.
TEST_F(LutTest, RefusesVersionOneStreamNamingTheVersion) {
  core::HybridOptions hopts;
  hopts.n_gamma = 8;
  hopts.n_b = 4;
  const core::HybridEvaluator ev(*problem_, hopts);
  std::ostringstream out;
  ev.save(out);
  const std::string v4 = "obdrel-hybrid-lut 4\n";
  ASSERT_EQ(out.str().rfind(v4, 0), 0u) << out.str().substr(0, 40);
  for (const int version : {1, 2, 3}) {
    std::string text = out.str();
    text.replace(0, v4.size(),
                 "obdrel-hybrid-lut " + std::to_string(version) + "\n");
    std::istringstream in(text);
    try {
      (void)core::HybridEvaluator::load(in, *problem_);
      FAIL() << "a version-" << version << " stream loaded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find("version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(LutTest, RoundTripStillWorks) {
  core::HybridOptions hopts;
  hopts.n_gamma = 8;
  hopts.n_b = 4;
  const core::HybridEvaluator ev(*problem_, hopts);
  std::ostringstream out;
  ev.save(out);
  std::istringstream in(out.str());
  const core::HybridEvaluator back =
      core::HybridEvaluator::load(in, *problem_);
  const double t = 3.0e8;
  EXPECT_NEAR(back.failure_probability(t), ev.failure_probability(t),
              1e-12);
}

// ---------------------------------------------------------------------------
// Fault-injection registry semantics
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, ArmRejectsUnknownSites) {
  EXPECT_EQ(thrown_code([&] { fault::arm("no.such.site"); }),
            ErrorCode::kConfig);
  EXPECT_EQ(thrown_code([&] { fault::arm("thermal.sor:bogus"); }),
            ErrorCode::kConfig);
}

TEST_F(RobustnessTest, FiringBudgetIsConsumed) {
  fault::arm("numeric.quadrature:2");
  EXPECT_TRUE(fault::should_fire(fault::site::kQuadrature));
  EXPECT_TRUE(fault::should_fire(fault::site::kQuadrature));
  EXPECT_FALSE(fault::should_fire(fault::site::kQuadrature));
  EXPECT_EQ(fault::fired(fault::site::kQuadrature), 2u);
}

TEST_F(RobustnessTest, DisarmedSitesNeverFire) {
  for (const auto& s : fault::known_sites())
    EXPECT_FALSE(fault::should_fire(s.c_str())) << s;
}

// ---------------------------------------------------------------------------
// Fault-injection coverage: arm each registered site and assert the
// documented outcome (typed failure for parsers, graceful recovery with a
// diagnostic for the numerical seams).
// ---------------------------------------------------------------------------

class FaultCoverageTest : public LutTest {};  // reuse the shared problem

TEST_F(FaultCoverageTest, EveryRegisteredSiteHasACoveredScenario) {
  std::size_t covered = 0;
  for (const std::string& name : fault::known_sites()) {
    SCOPED_TRACE("site: " + name);
    fault::disarm();
    diagnostics().clear();
    fault::arm(name);  // one shot

    if (name == fault::site::kConfigParse) {
      std::istringstream in("grid 12\n");
      EXPECT_EQ(thrown_code([&] { Config::parse(in); }),
                ErrorCode::kConfig);
    } else if (name == fault::site::kFloorplanParse) {
      std::istringstream in("alu 0.001 0.002 0.0 0.0\n");
      EXPECT_EQ(thrown_code([&] { chip::load_floorplan(in); }),
                ErrorCode::kInvalidInput);
    } else if (name == fault::site::kPtraceParse) {
      std::ostringstream h;
      for (std::size_t j = 0; j < design_->blocks.size(); ++j)
        h << design_->blocks[j].name
          << (j + 1 < design_->blocks.size() ? ' ' : '\n');
      std::istringstream in(h.str() + "1.0 1.0 1.0 1.0\n");
      EXPECT_EQ(
          thrown_code([&] { power::load_power_trace(in, *design_); }),
          ErrorCode::kInvalidInput);
    } else if (name == fault::site::kLutLoad) {
      core::HybridOptions hopts;
      hopts.n_gamma = 8;
      hopts.n_b = 4;
      const core::HybridEvaluator ev(*problem_, hopts);
      std::ostringstream out;
      ev.save(out);
      std::istringstream in(out.str());
      EXPECT_EQ(
          thrown_code([&] { core::HybridEvaluator::load(in, *problem_); }),
          ErrorCode::kIo);
    } else if (name == fault::site::kCholesky) {
      // The injected non-PD failure is absorbed by the ridge retry.
      la::Matrix a = la::Matrix::identity(4);
      const la::Matrix l = la::cholesky_lower_robust(a, "coverage");
      for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(l(i, i), 1.0, 1e-3);
      EXPECT_GE(diagnostics().count("linalg.cholesky"), 1u);
    } else if (name == fault::site::kEigen) {
      // Direct hit: the QL solver reports typed nonconvergence.
      la::Matrix a = la::Matrix::identity(3);
      EXPECT_EQ(thrown_code([&] { la::eigen_symmetric(a); }),
                ErrorCode::kNonconvergence);
      // The canonical-form builder retries with a ridge and recovers.
      fault::arm(name);
      diagnostics().clear();
      const var::GridModel grid(4.0, 4.0, 4);
      const var::CanonicalForm form =
          var::make_canonical_form(grid, var::VariationBudget{}, 0.5);
      EXPECT_GT(form.pc_count(), 0u);
      EXPECT_GE(diagnostics().count("linalg.eigen"), 1u);
    } else if (name == fault::site::kThermalSor) {
      // Direct solve: typed nonconvergence...
      power::PowerParams pp;
      const power::PowerMap map = power::estimate_power(*design_, pp);
      EXPECT_EQ(thrown_code([&] {
                  thermal::solve_thermal(*design_, map);
                }),
                ErrorCode::kNonconvergence);
      // ...while the fixed point retries with damping and converges.
      fault::arm(name);
      diagnostics().clear();
      const thermal::ThermalProfile tp =
          thermal::power_thermal_fixed_point(*design_, pp);
      EXPECT_TRUE(tp.converged);
      EXPECT_TRUE(std::isfinite(tp.max_c()));
      EXPECT_GE(diagnostics().count("thermal.fixed_point"), 1u);
    } else if (name == fault::site::kThermalFixedPoint) {
      // Injected NaN temperature: detected, retried, converged.
      power::PowerParams pp;
      const thermal::ThermalProfile tp =
          thermal::power_thermal_fixed_point(*design_, pp);
      EXPECT_TRUE(tp.converged);
      EXPECT_TRUE(std::isfinite(tp.max_c()));
      EXPECT_GE(diagnostics().count("thermal.fixed_point"), 1u);
    } else if (name == fault::site::kQuadrature) {
      EXPECT_EQ(thrown_code([&] {
                  num::adaptive_simpson([](double x) { return x; }, 0.0,
                                        1.0);
                }),
                ErrorCode::kNonconvergence);
    } else if (name == fault::site::kDrmThermal) {
      // One rung's thermal solve fails: the manager skips it and keeps
      // the control loop alive on a slower rung.
      std::vector<drm::OperatingPoint> ladder{{"eco", 1.0, 1.2e9},
                                              {"turbo", 1.25, 2.3e9}};
      drm::ReliabilityManager mgr(*problem_, *model_, ladder);
      const drm::DrmStep s = mgr.step(0.7);
      EXPECT_TRUE(s.degraded);
      EXPECT_TRUE(std::isfinite(s.damage));
      EXPECT_GE(diagnostics().count("drm.step"), 1u);
    } else if (name == fault::site::kCheckpointWrite) {
      // A torn snapshot write is a typed I/O failure, and the previously
      // published snapshot survives it untouched.
      const std::string path =
          ::testing::TempDir() + "obdrel-cov-ckpt.snap";
      fault::disarm();  // publish the survivor without the fault armed
      ckpt::write_snapshot_atomic(path, 1, "survivor");
      fault::arm(name);
      EXPECT_EQ(thrown_code([&] {
                  ckpt::write_snapshot_atomic(path, 1, "torn");
                }),
                ErrorCode::kIo);
      EXPECT_EQ(ckpt::read_snapshot(path).payload, "survivor");
      std::filesystem::remove(path);
    } else if (name == fault::site::kCheckpointCrc) {
      // A checksum mismatch on read is rejected as corrupt input, never
      // believed.
      const std::string path =
          ::testing::TempDir() + "obdrel-cov-crc.snap";
      ckpt::write_snapshot_atomic(path, 1, "payload");
      EXPECT_EQ(thrown_code([&] { (void)ckpt::read_snapshot(path); }),
                ErrorCode::kInvalidInput);
      std::filesystem::remove(path);
    } else if (name == fault::site::kJournalAppend) {
      const std::string path = ::testing::TempDir() + "obdrel-cov-j.log";
      ckpt::JournalWriter w(path, /*truncate=*/true);
      EXPECT_EQ(thrown_code([&] { w.append("doomed record"); }),
                ErrorCode::kIo);
      std::filesystem::remove(path);
    } else if (name == fault::site::kJournalReplay) {
      // A corrupt record during replay ends the usable prefix with a
      // reported tail error instead of throwing or looping.
      const std::string path = ::testing::TempDir() + "obdrel-cov-jr.log";
      {
        ckpt::JournalWriter w(path, /*truncate=*/true);
        w.append("first");
        w.append("second");
      }
      const ckpt::JournalReadResult r = ckpt::read_journal(path);
      EXPECT_LT(r.records.size(), 2u);
      EXPECT_FALSE(r.clean_tail);
      std::filesystem::remove(path);
    } else if (name == fault::site::kDrmDeadline) {
      // A watchdog overrun degrades to the cached rung decision at
      // guard-band conditions instead of stalling the control loop.
      std::vector<drm::OperatingPoint> ladder{{"eco", 1.0, 1.2e9},
                                              {"turbo", 1.25, 2.3e9}};
      drm::ReliabilityManager mgr(*problem_, *model_, ladder);
      const drm::DrmStep s = mgr.step(0.7);
      EXPECT_TRUE(s.degraded);
      EXPECT_EQ(s.op_index, 0u);  // no previous decision: slowest rung
      EXPECT_TRUE(std::isfinite(s.damage));
      EXPECT_GE(diagnostics().count("drm.deadline"), 1u);
    } else if (name == fault::site::kFleetHeartbeat) {
      // A failed heartbeat write is a skipped beat, never a crash: the
      // worker keeps computing (the journal carries durability) and the
      // supervisor's watchdog owns liveness.
      const std::string path = ::testing::TempDir() + "obdrel-cov-hb";
      EXPECT_FALSE(fleet::write_heartbeat(path, {17, 1, 0}));
      std::filesystem::remove(path);
    } else if (name == fault::site::kFleetSpawn) {
      // A fork/exec setup failure is a typed I/O error that the
      // supervisor's retry/backoff path absorbs.
      const std::string log =
          ::testing::TempDir() + "obdrel-cov-spawn.log";
      EXPECT_EQ(thrown_code([&] {
                  (void)fleet::spawn_worker({"/bin/true"}, log);
                }),
                ErrorCode::kIo);
      std::filesystem::remove(log);
    } else if (name == fault::site::kFleetShardCrc) {
      // A corrupt chunk record is rejected — treated as absent work to be
      // recomputed, never believed.
      fleet::FleetSpec spec;
      spec.chips = 256;
      spec.ts = {1.0e8, 2.0e8};
      const std::uint64_t fp = fleet::fleet_fingerprint(spec);
      fleet::ChunkResult r;
      r.chunk = 0;
      r.chips = 256;
      r.sum_f = {0.5, 0.25};
      r.sum_f2 = {0.5, 0.25};
      const std::string line = fleet::encode_chunk_record(fp, r);
      fleet::ChunkResult out;
      EXPECT_FALSE(fleet::decode_chunk_record(line, fp, 2, &out));
    } else if (name == fault::site::kServeAccept) {
      // A failed accept costs the client one retry, never the daemon: the
      // helper records a diagnostic and reports "no connection".
      EXPECT_EQ(serve::accept_client(/*listen_fd=*/-1), -1);
      EXPECT_GE(diagnostics().count("serve.accept"), 1u);
    } else if (name == fault::site::kServeCacheRead) {
      // Injected disk-tier corruption: the entry is quarantined with a
      // diagnostic and reported as a miss — recomputed, never believed.
      const std::string path =
          ::testing::TempDir() + "obdrel-cov-serve.lut";
      ckpt::write_snapshot_atomic(path, 1, "the-key\ntables");
      bool quarantined = false;
      EXPECT_FALSE(
          serve::read_cache_file(path, "the-key", &quarantined).has_value());
      EXPECT_TRUE(quarantined);
      EXPECT_FALSE(std::filesystem::exists(path));
      EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
      EXPECT_GE(diagnostics().count("serve.cache_corrupt"), 1u);
      std::filesystem::remove(path + ".quarantined");
    } else if (name == fault::site::kServeCacheEvict) {
      // A failed write-back during eviction drops the (recomputable)
      // entry with a diagnostic instead of crashing the daemon.
      const std::string path =
          ::testing::TempDir() + "obdrel-cov-serve-wb.lut";
      EXPECT_FALSE(serve::write_cache_file(path, "the-key", "tables"));
      EXPECT_FALSE(std::filesystem::exists(path));
      EXPECT_GE(diagnostics().count("serve.cache_evict"), 1u);
    } else if (name == fault::site::kServeDeadline) {
      // An injected deadline expiry forces the degraded analytic path for
      // any armed deadline — and only for armed deadlines.
      EXPECT_TRUE(serve::deadline_expired(0.0, 50.0));
      EXPECT_GE(diagnostics().count("serve.deadline"), 1u);
      fault::arm(name);
      EXPECT_FALSE(serve::deadline_expired(1.0e9, 0.0))
          << "disabled deadlines must never expire";
    } else {
      ADD_FAILURE() << "registered site has no coverage scenario: " << name
                    << " (add one here and to docs/ROBUSTNESS.md)";
      continue;
    }

    EXPECT_GE(fault::fired(name), 1u) << "site never fired";
    ++covered;
  }
  // The acceptance bar: at least 8 sites demonstrably covered (the
  // catalogue currently holds 18).
  EXPECT_GE(covered, 8u);
  EXPECT_EQ(covered, fault::known_sites().size());
}

// ---------------------------------------------------------------------------
// Strict mode turns degradation into typed errors
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, StrictModeEscalatesRecoveries) {
  fault::arm("linalg.cholesky");
  set_strict_mode(true);
  la::Matrix a = la::Matrix::identity(3);
  EXPECT_EQ(thrown_code([&] { la::cholesky_lower_robust(a, "strict"); }),
            ErrorCode::kDegraded);
  // The event is still recorded even though it threw.
  EXPECT_GE(diagnostics().size(), 1u);
}

TEST_F(RobustnessTest, DiagnosticsRenderNamesTheSite) {
  diagnostics().warn("thermal.fixed_point", "test message");
  const std::string text = diagnostics().render();
  EXPECT_NE(text.find("warning [thermal.fixed_point]: test message"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Docs/code sync: the fault-site catalogue in docs/ROBUSTNESS.md must list
// exactly the registered sites — a new site without a documented row (or a
// stale row for a removed site) fails here.
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, FaultCatalogueInDocsMatchesTheRegistry) {
  const std::string path =
      std::string(OBDREL_SOURCE_DIR) + "/docs/ROBUSTNESS.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;

  // Collect the first backticked token of every table row inside the
  // "Fault injection" section.
  std::vector<std::string> documented;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line.find("Fault injection") != std::string::npos;
      continue;
    }
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    const std::size_t open = 2;  // the backtick after "| "
    const std::size_t close = line.find('`', open + 1);
    ASSERT_NE(close, std::string::npos) << line;
    documented.push_back(line.substr(open + 1, close - open - 1));
  }
  std::sort(documented.begin(), documented.end());
  std::vector<std::string> registered = fault::known_sites();
  std::sort(registered.begin(), registered.end());

  EXPECT_EQ(documented, registered)
      << "docs/ROBUSTNESS.md section 3 and fault::known_sites() disagree";
}

}  // namespace
}  // namespace obd
