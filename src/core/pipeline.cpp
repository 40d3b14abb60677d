#include "core/pipeline.hpp"

#include <cstdio>
#include <sstream>

#include "chip/floorplan_io.hpp"
#include "common/error.hpp"
#include "mech/spec.hpp"
#include "power/power.hpp"

namespace obd::core {
namespace {

chip::Design load_design(const Config& cfg) {
  const std::string design = cfg.get_string("design", "c1");
  if (design == "ev6" || design == "c6") return chip::make_ev6_design();
  if (design == "manycore") return chip::make_manycore_design();
  if (design.size() == 2 && design[0] == 'c' && design[1] >= '1' &&
      design[1] <= '6')
    return chip::make_benchmark(design[1] - '0');
  chip::FloorplanLoadOptions opts;
  opts.device_density = cfg.get_double("device_density", 3000.0);
  opts.name = design;
  return chip::load_floorplan_file(design, opts);
}

/// Round-trip-exact rendering of a key double.
std::string fmt17(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

thermal::SweepOrder parse_thermal_sweep(const Config& cfg) {
  const std::string v = cfg.get_string("thermal_sweep", "lexicographic");
  if (v == "lexicographic") return thermal::SweepOrder::kLexicographic;
  if (v == "redblack") return thermal::SweepOrder::kRedBlack;
  throw Error(
      "thermal_sweep must be 'lexicographic' or 'redblack', got '" + v + "'",
      ErrorCode::kConfig);
}

Pipeline run_pipeline(const Config& cfg) {
  Pipeline p{load_design(cfg), {}, AnalyticReliabilityModel{},
             cfg.get_double("vdd", 1.2)};
  power::PowerParams pp;
  pp.vdd = p.vdd;
  thermal::ThermalParams tp;
  tp.ambient_c = cfg.get_double("ambient_c", 45.0);
  tp.resolution = 48;
  tp.sweep = parse_thermal_sweep(cfg);
  p.profile = thermal::power_thermal_fixed_point(p.design, pp, tp, 2);
  return p;
}

ReliabilityProblem build_problem(const Config& cfg, const Pipeline& p) {
  ProblemOptions opts;
  opts.rho_dist = cfg.get_double("rho_dist", 0.5);
  // get_count rejects zero/negative values instead of letting them wrap
  // through size_t into absurd grid sizes.
  opts.grid_cells_per_side = cfg.get_count("grid", 25);
  opts.variance_capture = cfg.get_double("variance_capture", 0.999);
  require(opts.variance_capture > 0.0 && opts.variance_capture <= 1.0,
          ErrorCode::kConfig, "variance_capture must be in (0, 1]");
  opts.mechanisms = mech::parse_spec(cfg);
  return ReliabilityProblem::build(p.design, var::VariationBudget{}, p.model,
                                   p.profile.block_temps_c, p.vdd, opts);
}

ReliabilityProblem build_problem(const Config& cfg, const Pipeline& p,
                                 const ReliabilityProblem& same_variation) {
  return ReliabilityProblem::with_operating_point(
      same_variation, p.model, p.profile.block_temps_c, p.vdd,
      mech::parse_spec(cfg));
}

std::string problem_key(const Config& cfg) {
  std::ostringstream os;
  os << "design=" << cfg.get_string("design", "c1")
     << ";device_density=" << fmt17(cfg.get_double("device_density", 3000.0))
     << ";vdd=" << fmt17(cfg.get_double("vdd", 1.2))
     << ";rho_dist=" << fmt17(cfg.get_double("rho_dist", 0.5))
     << ";grid=" << cfg.get_count("grid", 25)
     << ";ambient_c=" << fmt17(cfg.get_double("ambient_c", 45.0))
     << ";variance_capture="
     << fmt17(cfg.get_double("variance_capture", 0.999))
     // Fixed text: the dense eigensolver is the only one, and these bytes
     // name existing cache files and fleet journals.
     << ";eigen_solver=dense"
     << ";thermal_sweep=" << cfg.get_string("thermal_sweep", "lexicographic");
  return os.str();
}

std::string variation_key(const Config& cfg) {
  std::ostringstream os;
  os << "design=" << cfg.get_string("design", "c1")
     << ";device_density=" << fmt17(cfg.get_double("device_density", 3000.0))
     << ";rho_dist=" << fmt17(cfg.get_double("rho_dist", 0.5))
     << ";grid=" << cfg.get_count("grid", 25)
     << ";variance_capture="
     << fmt17(cfg.get_double("variance_capture", 0.999))
     << ";eigen_solver=dense";  // fixed text, as in problem_key
  return os.str();
}

}  // namespace obd::core
