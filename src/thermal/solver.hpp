// Steady-state full-chip thermal simulation (HotSpot-like substrate).
//
// The paper derives block temperatures from HotSpot [10]. We solve the same
// physics at the same granularity: the die is discretized into a regular
// grid of cells forming a thermal RC network — lateral silicon conduction
// between adjacent cells and a vertical path to ambient through the package
// — and the steady-state temperature field is the solution of the resulting
// SPD linear system (solved with SOR). Block temperatures are area-averaged
// cell temperatures, giving the "global difference, local uniformity"
// profile of Fig. 1.
#pragma once

#include <cstddef>
#include <vector>

#include "chip/design.hpp"
#include "power/power.hpp"

namespace obd::thermal {

/// Cell-visit order of one SOR sweep.
///
/// kLexicographic is the historical row-major Gauss-Seidel order and the
/// default; its results are pinned by the regression suite. kRedBlack
/// updates the two checkerboard colors in turn on the calling thread;
/// within a color no cell reads another cell of the same color, so the
/// visit order inside a color does not change any value. It takes
/// fewer, cheaper sweeps than kLexicographic. The two orders converge to
/// the same fixed point of
/// the SPD system within `tolerance` but follow different iterate paths,
/// so converged fields agree to solver tolerance, not bit-for-bit.
enum class SweepOrder { kLexicographic, kRedBlack };

/// Resumable SOR iterate, used by power_thermal_fixed_point to warm-start
/// damped retries from the partial field of the failed attempt instead of
/// discarding those sweeps. solve_thermal fills it (even when it throws
/// kNonconvergence) and reads a non-empty matching-size `rise` as the
/// starting field.
struct SorState {
  std::vector<double> rise;    ///< last iterate, rise over ambient [K]
  std::size_t iterations = 0;  ///< sweeps spent producing `rise`
};

/// Physical and numerical parameters of the thermal solve.
struct ThermalParams {
  double ambient_c = 45.0;          ///< ambient/heatsink temperature [C]
  double package_resistance = 0.4;  ///< junction-to-ambient [K/W], die total
  /// Effective in-plane conductivity [W/(mm K)]. Larger than bulk silicon
  /// (~0.15) because the copper heat spreader above the die also conducts
  /// laterally; HotSpot models the spreader as separate layers, we fold it
  /// into one effective sheet.
  double conductivity = 0.60;
  double die_thickness = 0.7;       ///< [mm] die + effective spreader share
  std::size_t resolution = 64;      ///< grid cells per die side
  double sor_omega = 1.9;           ///< SOR relaxation factor in (0, 2)
  double tolerance = 1e-7;          ///< max residual [K] for convergence
  std::size_t max_iterations = 50000;
  SweepOrder sweep = SweepOrder::kLexicographic;  ///< SOR cell-visit order
};

/// Temperature field over the die plus per-block aggregates.
struct ThermalProfile {
  std::size_t resolution = 0;
  double die_width = 0.0;
  double die_height = 0.0;
  /// Cell temperatures [C], row-major, cell (col, row) at [row*resolution+col].
  std::vector<double> cell_temps_c;
  /// Area-averaged temperature per design block [C].
  std::vector<double> block_temps_c;
  /// False when the producing solve degraded (e.g. the power<->thermal
  /// fixed point gave up after damped retries and returned its last
  /// converged iterate). Always true for profiles from solve_thermal,
  /// which throws instead of degrading.
  bool converged = true;

  [[nodiscard]] double min_c() const;
  [[nodiscard]] double max_c() const;
  /// Temperature at die point (x, y) [C] (nearest cell).
  [[nodiscard]] double at(double x, double y) const;
};

/// Solves the steady-state temperature field for `power` over `design`.
/// Throws obd::Error if the SOR iteration fails to reach `tolerance`.
///
/// If `state` is non-null, a non-empty `state->rise` of matching size
/// seeds the iteration (warm start), and the final iterate plus sweep
/// count are written back before any nonconvergence throw, so a failed
/// solve still hands its partial progress to the caller.
ThermalProfile solve_thermal(const chip::Design& design,
                             const power::PowerMap& power,
                             const ThermalParams& params = {},
                             SorState* state = nullptr);

/// Runs the power <-> thermal fixed point: power at current temperatures ->
/// thermal solve -> updated leakage -> ... for `iterations` rounds
/// (2-3 suffice; leakage feedback is mild). Returns the final profile.
///
/// Fault tolerance: non-finite temperatures or a growing fixed-point
/// residual trigger bounded damped retries (relaxed SOR omega, averaged
/// temperature feedback), each reported to obd::diagnostics(). Retries
/// warm-start from the failed attempt's partial SOR iterate instead of
/// from zero, so the sweeps already spent are retained; a
/// "thermal.warm_start" stat summarizes how many. If damping cannot
/// rescue an iteration, the last converged profile is returned with
/// `converged = false` (or, when no iteration ever converged, an
/// Error(kNonconvergence) is thrown).
ThermalProfile power_thermal_fixed_point(const chip::Design& design,
                                         const power::PowerParams& pparams,
                                         const ThermalParams& tparams = {},
                                         std::size_t iterations = 3);

}  // namespace obd::thermal
