#include "thermal/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"

namespace obd::thermal {
namespace {

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

// One SOR cell relaxation; returns the absolute update. Shared by both
// sweep orders so their per-cell arithmetic is identical (and identical to
// the historical inline loop body).
inline double update_cell(std::vector<double>& t,
                          const std::vector<double>& cell_power,
                          std::size_t n, std::size_t r, std::size_t c,
                          double g_lat_x, double g_lat_y, double g_vert,
                          double omega) {
  const std::size_t i = r * n + c;
  double g_sum = g_vert;
  double rhs = cell_power[i];
  if (c > 0) {
    g_sum += g_lat_x;
    rhs += g_lat_x * t[i - 1];
  }
  if (c + 1 < n) {
    g_sum += g_lat_x;
    rhs += g_lat_x * t[i + 1];
  }
  if (r > 0) {
    g_sum += g_lat_y;
    rhs += g_lat_y * t[i - n];
  }
  if (r + 1 < n) {
    g_sum += g_lat_y;
    rhs += g_lat_y * t[i + n];
  }
  const double updated = rhs / g_sum;
  const double next = t[i] + omega * (updated - t[i]);
  const double change = std::fabs(next - t[i]);
  t[i] = next;
  return change;
}

// Historical row-major sweep: visits cells in lexicographic order on the
// calling thread. Bit-identical to the pre-refactor inline loop.
double sweep_lex(std::vector<double>& t, const std::vector<double>& cell_power,
                 std::size_t n, double g_lat_x, double g_lat_y, double g_vert,
                 double omega) {
  double residual = 0.0;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      residual = std::max(residual, update_cell(t, cell_power, n, r, c,
                                                g_lat_x, g_lat_y, g_vert,
                                                omega));
  return residual;
}

// Red-black sweep: updates one checkerboard color at a time on the
// calling thread. Cells of one color only read neighbors of the other
// color, so the order within a color does not change any cell's value.
// The per-color rows are too small to pay for the shared pool: at the
// pipeline's resolution 48, one pooled half-sweep costs several times the
// serial one.
double sweep_redblack(std::vector<double>& t,
                      const std::vector<double>& cell_power, std::size_t n,
                      double g_lat_x, double g_lat_y, double g_vert,
                      double omega) {
  double residual = 0.0;
  for (std::size_t color = 0; color < 2; ++color)
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = (r + color) & 1; c < n; c += 2)
        residual = std::max(residual, update_cell(t, cell_power, n, r, c,
                                                  g_lat_x, g_lat_y, g_vert,
                                                  omega));
  return residual;
}

}  // namespace

double ThermalProfile::min_c() const {
  return *std::min_element(cell_temps_c.begin(), cell_temps_c.end());
}

double ThermalProfile::max_c() const {
  return *std::max_element(cell_temps_c.begin(), cell_temps_c.end());
}

double ThermalProfile::at(double x, double y) const {
  const double fx = std::clamp(x / die_width, 0.0, 1.0 - 1e-12);
  const double fy = std::clamp(y / die_height, 0.0, 1.0 - 1e-12);
  const auto col =
      static_cast<std::size_t>(fx * static_cast<double>(resolution));
  const auto row =
      static_cast<std::size_t>(fy * static_cast<double>(resolution));
  return cell_temps_c[row * resolution + col];
}

ThermalProfile solve_thermal(const chip::Design& design,
                             const power::PowerMap& power,
                             const ThermalParams& params, SorState* state) {
  design.validate();
  require(power.block_watts.size() == design.blocks.size(),
          "solve_thermal: power map size mismatch");
  require(params.resolution >= 2, "solve_thermal: resolution must be >= 2");
  require(params.sor_omega > 0.0 && params.sor_omega < 2.0,
          "solve_thermal: SOR omega must be in (0, 2)");
  require(params.package_resistance > 0.0,
          "solve_thermal: package resistance must be positive");
  require(all_finite(power.block_watts),
          "solve_thermal: power map contains non-finite values");

  const std::size_t n = params.resolution;
  const double cw = design.width / static_cast<double>(n);
  const double ch = design.height / static_cast<double>(n);

  // Per-cell power: block power density integrated over the overlap with
  // each cell.
  std::vector<double> cell_power(n * n, 0.0);
  for (std::size_t b = 0; b < design.blocks.size(); ++b) {
    const chip::Rect& rect = design.blocks[b].rect;
    const double density = power.block_watts[b] / rect.area();
    // Restrict the scan to cells the block can overlap.
    const auto c0 = static_cast<std::size_t>(
        std::clamp(rect.x / cw, 0.0, static_cast<double>(n - 1)));
    const auto c1 = static_cast<std::size_t>(std::clamp(
        (rect.x + rect.width) / cw, 0.0, static_cast<double>(n - 1)));
    const auto r0 = static_cast<std::size_t>(
        std::clamp(rect.y / ch, 0.0, static_cast<double>(n - 1)));
    const auto r1 = static_cast<std::size_t>(std::clamp(
        (rect.y + rect.height) / ch, 0.0, static_cast<double>(n - 1)));
    for (std::size_t r = r0; r <= r1; ++r) {
      for (std::size_t c = c0; c <= c1; ++c) {
        const chip::Rect cell{static_cast<double>(c) * cw,
                              static_cast<double>(r) * ch, cw, ch};
        cell_power[r * n + c] += density * rect.overlap(cell);
      }
    }
  }

  // Conductances. Lateral: k * t * (perpendicular length / pitch).
  const double g_lat_x = params.conductivity * params.die_thickness *
                         (ch / cw);  // between horizontal neighbors
  const double g_lat_y = params.conductivity * params.die_thickness *
                         (cw / ch);  // between vertical neighbors
  // Vertical: the total package conductance 1/R distributed by cell area.
  const double g_vert = (1.0 / params.package_resistance) /
                        static_cast<double>(n * n);

  // SOR on: sum_nb g*(T_nb - T_i) + g_vert*(T_amb - T_i) + P_i = 0.
  // Temperatures are stored as rise over ambient; ambient added at the end.
  std::vector<double> t(n * n, 0.0);
  if (state && state->rise.size() == n * n && all_finite(state->rise))
    t = state->rise;  // warm start from a previous (partial) solve
  double residual = 0.0;
  std::size_t iter = 0;
  for (; iter < params.max_iterations; ++iter) {
    residual = (params.sweep == SweepOrder::kRedBlack)
                   ? sweep_redblack(t, cell_power, n, g_lat_x, g_lat_y,
                                    g_vert, params.sor_omega)
                   : sweep_lex(t, cell_power, n, g_lat_x, g_lat_y, g_vert,
                               params.sor_omega);
    if (residual < params.tolerance) break;
  }
  // Hand the iterate back before the convergence check so a failed solve
  // still gives the caller its partial progress for a warm-started retry.
  if (state) {
    state->rise = t;
    state->iterations = std::min(iter + 1, params.max_iterations);
  }
  if (fault::should_fire(fault::site::kThermalSor))
    residual = std::numeric_limits<double>::infinity();
  require(std::isfinite(residual) && residual < params.tolerance,
          ErrorCode::kNonconvergence,
          "solve_thermal: SOR failed to converge");

  ThermalProfile profile;
  profile.resolution = n;
  profile.die_width = design.width;
  profile.die_height = design.height;
  profile.cell_temps_c.resize(n * n);
  for (std::size_t i = 0; i < n * n; ++i)
    profile.cell_temps_c[i] = params.ambient_c + t[i];

  // Block aggregates: overlap-area-weighted average of cell temperatures.
  profile.block_temps_c.resize(design.blocks.size());
  for (std::size_t b = 0; b < design.blocks.size(); ++b) {
    const chip::Rect& rect = design.blocks[b].rect;
    double weighted = 0.0;
    double area = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        const chip::Rect cell{static_cast<double>(c) * cw,
                              static_cast<double>(r) * ch, cw, ch};
        const double ov = rect.overlap(cell);
        if (ov <= 0.0) continue;
        weighted += ov * profile.cell_temps_c[r * n + c];
        area += ov;
      }
    }
    require(area > 0.0, "solve_thermal: block overlaps no cells");
    profile.block_temps_c[b] = weighted / area;
  }
  return profile;
}

ThermalProfile power_thermal_fixed_point(const chip::Design& design,
                                         const power::PowerParams& pparams,
                                         const ThermalParams& tparams,
                                         std::size_t iterations) {
  require(iterations >= 1, "power_thermal_fixed_point: need >= 1 iteration");
  constexpr int kMaxRetries = 3;
  std::vector<double> temps;  // empty -> leakage at 25 C on the first pass
  ThermalProfile profile;
  bool have_profile = false;
  double prev_delta = std::numeric_limits<double>::infinity();
  ThermalParams tp = tparams;
  SorState sor_state;
  std::size_t warm_starts = 0;
  std::size_t retained_sweeps = 0;
  const auto publish_warm_starts = [&] {
    if (warm_starts == 0) return;
    std::ostringstream msg;
    msg << warm_starts << " damped " << (warm_starts == 1 ? "retry" : "retries")
        << " resumed from partial SOR iterates (" << retained_sweeps
        << " sweeps retained)";
    diagnostics().stat("thermal.warm_start", msg.str());
  };
  for (std::size_t i = 0; i < iterations; ++i) {
    const power::PowerMap power = estimate_power(design, pparams, temps);
    // Each outer iteration solves for a new power map, so retries within
    // it may resume from the failed attempt's iterate, but a fresh
    // iteration always starts cold (keeps the no-fault path identical to
    // the stateless solver).
    sor_state.rise.clear();
    sor_state.iterations = 0;
    bool solved = false;
    for (int attempt = 0; attempt <= kMaxRetries && !solved; ++attempt) {
      try {
        if (attempt > 0 && !sor_state.rise.empty()) {
          ++warm_starts;
          retained_sweeps += sor_state.iterations;
        }
        ThermalProfile next = solve_thermal(design, power, tp, &sor_state);
        if (fault::should_fire(fault::site::kThermalFixedPoint))
          next.block_temps_c.front() =
              std::numeric_limits<double>::quiet_NaN();
        require(all_finite(next.block_temps_c) &&
                    all_finite(next.cell_temps_c),
                ErrorCode::kNonconvergence,
                "power_thermal_fixed_point: non-finite temperature");
        profile = std::move(next);
        solved = true;
      } catch (const Error& e) {
        if (e.code() != ErrorCode::kNonconvergence) throw;
        if (attempt == kMaxRetries) break;
        // Damp the iteration: pull omega toward plain Gauss-Seidel (always
        // convergent for this SPD system) and give it more budget.
        tp.sor_omega = 1.0 + 0.5 * (tp.sor_omega - 1.0);
        tp.max_iterations *= 2;
        std::ostringstream msg;
        msg << "iteration " << i << " failed (" << e.what()
            << "); retrying with SOR omega " << tp.sor_omega;
        diagnostics().warn(fault::site::kThermalFixedPoint, msg.str());
      }
    }
    if (!solved) {
      if (!have_profile)
        throw Error(
            "power_thermal_fixed_point: thermal solve failed on the first "
            "iteration and damped retries did not recover",
            ErrorCode::kNonconvergence);
      diagnostics().warn(fault::site::kThermalFixedPoint,
                         "thermal solve failed after damped retries; "
                         "returning the last converged profile");
      profile.converged = false;
      publish_warm_starts();
      return profile;
    }
    have_profile = true;
    // Detect a diverging power<->thermal loop (leakage runaway): if the
    // fixed-point residual grows, damp the temperature feedback by
    // averaging with the previous iterate.
    if (!temps.empty()) {
      double delta = 0.0;
      for (std::size_t j = 0; j < temps.size(); ++j)
        delta = std::max(delta,
                         std::fabs(profile.block_temps_c[j] - temps[j]));
      if (delta > prev_delta) {
        for (std::size_t j = 0; j < temps.size(); ++j)
          profile.block_temps_c[j] =
              0.5 * (profile.block_temps_c[j] + temps[j]);
        std::ostringstream msg;
        msg << "fixed-point residual grew to " << delta
            << " K; damping the temperature feedback";
        diagnostics().warn(fault::site::kThermalFixedPoint, msg.str());
        delta = prev_delta;  // damped iterate is no worse than before
      }
      prev_delta = delta;
    }
    temps = profile.block_temps_c;
  }
  publish_warm_starts();
  return profile;
}

}  // namespace obd::thermal
