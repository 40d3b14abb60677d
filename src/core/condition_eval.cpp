#include "core/condition_eval.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "mech/stack.hpp"

namespace obd::core {

ConditionEvaluator::ConditionEvaluator(const HybridEvaluator& hybrid,
                                       const AnalyticModelParams& model)
    : model_(model),
      hybrid_(&hybrid),
      state_(hybrid.problem()),
      inc_(hybrid),
      base_temps_c_(state_.temps_c().begin(), state_.temps_c().end()),
      base_activities_(state_.activities().begin(),
                       state_.activities().end()),
      cur_vdd_(state_.vdd()) {}

void ConditionEvaluator::apply_block(std::size_t j, double dt, double vdd,
                                     double act_scale) {
  const double temp_c = base_temps_c_[j] + dt;
  state_.set_temp_c(j, temp_c);
  state_.set_alpha_b(j, model_.alpha(temp_c, vdd), model_.b(temp_c, vdd));
  state_.set_activity(j, base_activities_[j] * act_scale);
}

void ConditionEvaluator::set_corner(double dt, double vdd,
                                    double act_scale) {
  state_.set_vdd(vdd);
  cur_vdd_ = vdd;
  cur_act_ = act_scale;
  for (std::size_t j = 0; j < state_.block_count(); ++j)
    apply_block(j, dt, vdd, act_scale);
}

void ConditionEvaluator::set_block_dt(std::size_t j, double dt) {
  apply_block(j, dt, cur_vdd_, cur_act_);
}

double ConditionEvaluator::evaluate_ls(double t) {
  const std::size_t n = state_.block_count();
  const std::span<const double> alphas = state_.alphas();
  const std::span<const double> bs = state_.bs();
  const mech::MechanismStack& stack = hybrid_->problem().mechanisms();
  ls_scratch_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double oxide_f = std::min(
        1.0, hybrid_->block_failure(j, std::log(t / alphas[j]), bs[j]));
    ls_scratch_[j] =
        stack.block_log_survival(j, oxide_f, t, state_.conditions(j));
  }
  return stack.chip_log_survival(ls_scratch_.data());
}

double ConditionEvaluator::oxide_log_survival(double t) {
  const std::size_t n = state_.block_count();
  const std::span<const double> alphas = state_.alphas();
  const std::span<const double> bs = state_.bs();
  double ls = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    ls += std::log1p(-std::min(
        1.0, hybrid_->block_failure(j, std::log(t / alphas[j]), bs[j])));
  }
  return ls;
}

double ConditionEvaluator::mechanism_log_survival(std::size_t m, double t) {
  const mech::MechanismStack& stack = hybrid_->problem().mechanisms();
  const mech::FailureMechanism& mechanism = *stack.extras()[m];
  double ls = 0.0;
  for (std::size_t j = 0; j < state_.block_count(); ++j) {
    // Same clamp as MechanismStack::extra_log_survival applies per term.
    const double f =
        std::clamp(mechanism.block_cdf(j, t, state_.conditions(j)), 0.0, 1.0);
    ls += std::log1p(-f);
  }
  return ls;
}

}  // namespace obd::core
