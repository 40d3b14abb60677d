// The config -> problem chain shared by every command and the daemon.
//
// The paper's flow runs once per configuration and feeds every method:
// floorplan and power, the power/thermal fixed point, then PCA and the
// BLOD moments inside ReliabilityProblem::build (Sections III-IV; PCA is
// shared preprocessing). The CLI's one-shot commands and the serve
// engine's cold builds both go through these functions, so a served
// answer matches `obdrel lut query` on the equivalent config byte for
// byte.
//
// Config keys read here (defaults in parentheses): design (c1),
// device_density (3000, .flp designs only), vdd (1.2), ambient_c (45),
// thermal_sweep (lexicographic), rho_dist (0.5), grid (25),
// variance_capture (0.999), and the mechanism spec keys read by
// mech::parse_spec.
//
// Two keys name what the chain builds. problem_key covers every key
// above but the mechanism spec; it identifies a whole problem and names
// durable state. variation_key covers only the keys of the variation stage
// (covariance, PCA, layout, BLOD moments); configs that share it differ
// only in their operating point, so the serve engine builds the variation
// stage once for all of them.
#pragma once

#include <string>

#include "chip/design.hpp"
#include "common/config.hpp"
#include "core/device_model.hpp"
#include "core/problem.hpp"
#include "thermal/solver.hpp"

namespace obd::core {

/// The design and its converged thermal profile at the configured supply.
/// `model` is a member because consumers (drm::DrmRuntime,
/// make_signoff_report) hold a reference to it past the problem build.
struct Pipeline {
  chip::Design design;
  thermal::ThermalProfile profile;
  AnalyticReliabilityModel model;
  double vdd = 0.0;
};

/// Loads the design and runs the power/thermal fixed point (resolution 48,
/// 2 iterations). Throws Error(kConfig) on a bad thermal_sweep.
[[nodiscard]] Pipeline run_pipeline(const Config& cfg);

/// Builds the reliability problem (covariance, PCA, per-block parameters)
/// on `p`'s design and block temperatures. Throws Error(kConfig) on a bad
/// grid, variance_capture or mechanism spec.
[[nodiscard]] ReliabilityProblem build_problem(const Config& cfg,
                                               const Pipeline& p);

/// Builds only the operating-point stage of the problem `cfg` describes
/// (per-block alpha, b, T from `p`, and the mechanism spec), reusing
/// `same_variation`'s variation stage; see
/// ReliabilityProblem::with_operating_point. `same_variation` must have
/// been built from a config with the same variation_key; the result is
/// then bit-identical to build_problem(cfg, p). Throws Error(kConfig) on a
/// bad mechanism spec.
[[nodiscard]] ReliabilityProblem build_problem(
    const Config& cfg, const Pipeline& p,
    const ReliabilityProblem& same_variation);

/// The `thermal_sweep` key. Exposed so the CLI can reject a bad value
/// before any numerics run.
[[nodiscard]] thermal::SweepOrder parse_thermal_sweep(const Config& cfg);

/// Canonical text of the keys above (without the mechanism spec), with
/// exact `%.17g` doubles:
/// `design=…;device_density=…;vdd=…;rho_dist=…;grid=…;ambient_c=…;`
/// `variance_capture=…;eigen_solver=dense;thermal_sweep=…`. The serve and
/// fleet problem keys extend it; their hashes name durable state, so
/// these bytes must not change. `eigen_solver=dense` is fixed text from
/// when the key selected between two eigensolvers; it is kept so that
/// existing names stay valid.
[[nodiscard]] std::string problem_key(const Config& cfg);

/// Canonical text of the variation-stage keys only, in the same rendering:
/// `design=…;device_density=…;rho_dist=…;grid=…;variance_capture=…;`
/// `eigen_solver=dense` (fixed text, as in problem_key). Two configs with
/// equal variation keys build the same grid, canonical form, layout and
/// BLOD moments, so one problem's variation stage (and the hybrid tables
/// on it, which depend only on the BLOD moments and block areas) serves
/// both. vdd, ambient_c, thermal_sweep, mechanisms and redundancy feed
/// only the thermal stage, alpha_j/b_j and the mechanism stack, and are
/// left out.
[[nodiscard]] std::string variation_key(const Config& cfg);

}  // namespace obd::core
