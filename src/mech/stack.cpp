#include "mech/stack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/error.hpp"

namespace obd::mech {

MechanismStack::MechanismStack(
    const MechanismSpec& spec, const std::vector<std::string>& block_names,
    std::vector<OperatingConditions> default_conditions)
    : spec_(spec), defaults_(std::move(default_conditions)) {
  require(defaults_.size() == block_names.size(), ErrorCode::kInternal,
          "MechanismStack: conditions/block count mismatch");
  require(spec_.oxide, ErrorCode::kConfig,
          "mechanisms: the oxide base model cannot be disabled");
  extras_ = make_aging_mechanisms(spec_);
  trivial_ = extras_.empty() && spec_.redundancy.empty();
  if (trivial_) return;

  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t j = 0; j < block_names.size(); ++j) {
    index.emplace(block_names[j], j);
  }
  group_of_.assign(block_names.size(), -1);
  for (const SpareGroup& g : spec_.redundancy) {
    require(!g.members.empty(), ErrorCode::kConfig,
            "redundancy group '" + g.name + "': no members");
    require(g.spares < g.members.size(), ErrorCode::kConfig,
            "redundancy group '" + g.name +
                "': spares must be < member count");
    Group resolved;
    resolved.name = g.name;
    resolved.spares = g.spares;
    for (const std::string& m : g.members) {
      auto it = index.find(m);
      require(it != index.end(), ErrorCode::kConfig,
              "redundancy group '" + g.name + "': unknown block '" + m + "'");
      require(group_of_[it->second] < 0, ErrorCode::kConfig,
              "redundancy: block '" + m + "' appears in more than one group");
      group_of_[it->second] = static_cast<int>(groups_.size());
      resolved.members.push_back(it->second);
    }
    groups_.push_back(std::move(resolved));
  }
}

double MechanismStack::extra_log_survival(std::size_t j, double t,
                                          const OperatingConditions& c) const {
  double ls = 0.0;
  for (const auto& mech : extras_) {
    const double f = std::clamp(mech->block_cdf(j, t, c), 0.0, 1.0);
    ls += std::log1p(-f);
  }
  return ls;
}

double MechanismStack::extra_survival(double t) const {
  double ls = 0.0;
  for (std::size_t j = 0; j < defaults_.size(); ++j) {
    ls += extra_log_survival(j, t, defaults_[j]);
  }
  return std::exp(ls);
}

double MechanismStack::compose(const double* oxide_f, double t) const {
  return compose_impl(oxide_f, t, nullptr);
}

double MechanismStack::compose_under(
    const double* oxide_f, double t,
    const std::vector<OperatingConditions>& conditions) const {
  require(conditions.size() == defaults_.size(), ErrorCode::kInvalidInput,
          "compose_under: conditions size mismatch");
  return compose_impl(oxide_f, t, &conditions);
}

double MechanismStack::block_log_survival(
    std::size_t j, double oxide_f_j, double t,
    const OperatingConditions& c) const {
  return std::log1p(-oxide_f_j) + extra_log_survival(j, t, c);
}

double MechanismStack::chip_log_survival(const double* block_ls) const {
  const std::size_t n = defaults_.size();
  double log_survival = 0.0;
  if (groups_.empty()) {
    for (std::size_t j = 0; j < n; ++j) log_survival += block_ls[j];
    return log_survival;
  }

  for (std::size_t j = 0; j < n; ++j) {
    if (group_of_[j] < 0) log_survival += block_ls[j];
  }
  // Poisson-binomial over member failure probabilities: dp[k] holds the
  // probability that exactly k members have failed, with counts above
  // `spares` dropped (they all mean "group dead").
  thread_local std::vector<double> dp;
  for (const Group& g : groups_) {
    dp.assign(g.spares + 1, 0.0);
    dp[0] = 1.0;
    for (std::size_t m : g.members) {
      const double p = std::clamp(-std::expm1(block_ls[m]), 0.0, 1.0);
      const std::size_t hi = g.spares;
      for (std::size_t k = hi; k > 0; --k) {
        dp[k] = dp[k] * (1.0 - p) + dp[k - 1] * p;
      }
      dp[0] *= 1.0 - p;
    }
    double group_survival = 0.0;
    for (double v : dp) group_survival += v;
    if (!(group_survival > 0.0))
      return -std::numeric_limits<double>::infinity();
    log_survival += std::log(std::min(1.0, group_survival));
  }
  return log_survival;
}

double MechanismStack::reduce_log_survival(const double* block_ls) const {
  // -expm1(-inf) == 1.0 exactly, so the dead-group escape returns the
  // same bits the pre-chip_log_survival implementation produced.
  return std::clamp(-std::expm1(chip_log_survival(block_ls)), 0.0, 1.0);
}

double MechanismStack::compose_impl(
    const double* oxide_f, double t,
    const std::vector<OperatingConditions>* conditions) const {
  const std::size_t n = defaults_.size();
  thread_local std::vector<double> block_ls;
  block_ls.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const OperatingConditions& c =
        conditions != nullptr ? (*conditions)[j] : defaults_[j];
    block_ls[j] = block_log_survival(j, oxide_f[j], t, c);
  }
  return reduce_log_survival(block_ls.data());
}

}  // namespace obd::mech
