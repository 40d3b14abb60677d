#include "core/duty_cycle.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace obd::core {

WorkloadPhase make_phase(const std::string& name, double fraction,
                         const DeviceReliabilityModel& model,
                         const std::vector<double>& block_temps_c,
                         double vdd) {
  WorkloadPhase phase;
  phase.name = name;
  phase.fraction = fraction;
  phase.alphas.reserve(block_temps_c.size());
  phase.bs.reserve(block_temps_c.size());
  for (double t : block_temps_c) {
    phase.alphas.push_back(model.alpha(t, vdd));
    phase.bs.push_back(model.b(t, vdd));
  }
  return phase;
}

DutyCycleAnalyzer::DutyCycleAnalyzer(const ReliabilityProblem& problem,
                                     std::vector<WorkloadPhase> phases,
                                     const AnalyticOptions& options)
    : problem_(&problem), phases_(std::move(phases)) {
  require(!phases_.empty(), "DutyCycleAnalyzer: need at least one phase");
  double total = 0.0;
  for (const auto& p : phases_) {
    require(p.fraction >= 0.0, "DutyCycleAnalyzer: negative phase fraction");
    require(p.alphas.size() == problem.blocks().size() &&
                p.bs.size() == problem.blocks().size(),
            "DutyCycleAnalyzer: phase '" + p.name +
                "' parameter count must match block count");
    for (std::size_t j = 0; j < p.alphas.size(); ++j)
      require(p.alphas[j] > 0.0 && p.bs[j] > 0.0,
              "DutyCycleAnalyzer: non-positive Weibull parameters");
    total += p.fraction;
  }
  require(std::fabs(total - 1.0) < 1e-9,
          "DutyCycleAnalyzer: phase fractions must sum to 1");

  // The (u, v) nodes depend only on the process model — reuse st_fast's.
  nodes_ = AnalyticAnalyzer(problem, options).nodes();

  // Per-block reference phase (largest fraction) and the equivalent-age
  // scale sum_p f_p AF_p (cumulative-exposure model).
  const std::size_t n_blocks = problem.blocks().size();
  ref_phase_.resize(n_blocks);
  age_scale_.resize(n_blocks);
  std::size_t ref = 0;
  for (std::size_t p = 1; p < phases_.size(); ++p)
    if (phases_[p].fraction > phases_[ref].fraction) ref = p;
  for (std::size_t j = 0; j < n_blocks; ++j) {
    ref_phase_[j] = ref;
    double scale = 0.0;
    for (const auto& phase : phases_)
      scale += phase.fraction * phases_[ref].alphas[j] / phase.alphas[j];
    age_scale_[j] = scale;
  }
}

double DutyCycleAnalyzer::failure_probability(double t) const {
  require(t > 0.0, "DutyCycleAnalyzer: t must be positive");
  const auto& blocks = problem_->blocks();
  const auto block_failure = [&](std::size_t j) {
    const double area = blocks[j].area;
    const auto& ref = phases_[ref_phase_[j]];
    const double t_eq = t * age_scale_[j];
    double f = 0.0;
    for (const auto& node : nodes_[j]) {
      const double exponent =
          area * g_closed_form(t_eq, ref.alphas[j], ref.bs[j], node.u,
                               node.v);
      f += node.weight * (-std::expm1(-exponent));
    }
    return std::clamp(f, 0.0, 1.0);
  };
  // Phases modulate the oxide (alpha, b) only; the aging mechanisms see
  // the actual elapsed time at each block's default operating point —
  // the same competing-risks fold as the direct evaluators.
  thread_local std::vector<double> oxide_f;
  oxide_f.resize(blocks.size());
  for (std::size_t j = 0; j < blocks.size(); ++j) oxide_f[j] = block_failure(j);
  return problem_->mechanisms().compose(oxide_f.data(), t);
}

double DutyCycleAnalyzer::lifetime_at(double target) const {
  return lifetime_at_failure(
      [this](double t) { return failure_probability(t); }, target);
}

}  // namespace obd::core
