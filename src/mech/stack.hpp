// MechanismStack: the per-problem composition engine for competing risks
// and unit-level redundancy.
//
// Built once by core::ReliabilityProblem::build from a MechanismSpec and
// the design's block list, it owns the enabled aging mechanisms, each
// block's default operating conditions (block temperature, chip supply,
// design switching activity), and the resolved spare groups. Evaluators
// hand it the per-block oxide failure probabilities at time t and get the
// chip-level failure probability back:
//
//   per block:  ls_j = log1p(-F_oxide,j) + sum_m log1p(-F_m,j(t))
//   series:     chip ls = sum over ungrouped blocks of ls_j
//   spare grp:  chip ls += log P(at most `spares` members failed)
//               (Poisson-binomial over member failure probs p_j = -expm1(ls_j))
//   chip F:     clamp(-expm1(chip ls), 0, 1)
//
// This is the one place the chip fold is written; every evaluator composes
// F(t) through it. With the seed-equivalent spec (`trivial()` true) each
// block term is log1p(-F_oxide,j) + 0.0 and the chip sum starts at +0.0,
// so the result is the seed survival product bit for bit.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "mech/mechanism.hpp"
#include "mech/spec.hpp"

namespace obd::mech {

class MechanismStack {
 public:
  /// Trivial stack: oxide only, no redundancy (seed behavior).
  MechanismStack() = default;

  /// Resolves `spec` against the design's block names and per-block
  /// default conditions. Throws kConfig when a redundancy group names an
  /// unknown/duplicate block or has spares >= members.
  MechanismStack(const MechanismSpec& spec,
                 const std::vector<std::string>& block_names,
                 std::vector<OperatingConditions> default_conditions);

  /// Seed-equivalent: no aging mechanisms and no redundancy. The Monte
  /// Carlo reference checks it to allow k-th-failure chip counts.
  [[nodiscard]] bool trivial() const { return trivial_; }

  [[nodiscard]] bool has_redundancy() const { return !groups_.empty(); }
  [[nodiscard]] std::size_t extra_count() const { return extras_.size(); }
  [[nodiscard]] std::size_t block_count() const { return defaults_.size(); }
  [[nodiscard]] const MechanismSpec& spec() const { return spec_; }

  /// spec().canonical(), rendered once at construction. The canonical
  /// string keys serve-daemon problem grouping and DRM checkpoint
  /// framing; both used to re-render it per request/frame.
  [[nodiscard]] const std::string& canonical_spec() const {
    return canonical_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<FailureMechanism>>&
  extras() const {
    return extras_;
  }
  [[nodiscard]] const OperatingConditions& default_conditions(
      std::size_t j) const {
    return defaults_[j];
  }

  /// Chip failure probability from per-block oxide failure probabilities
  /// at time `t`, with aging mechanisms evaluated at each block's default
  /// operating conditions. `oxide_f` must have block_count() entries
  /// already clamped to [0, 1] by the caller (evaluators always do).
  [[nodiscard]] double compose(const double* oxide_f, double t) const;

  /// Same, with explicit per-block operating conditions (DRM rungs).
  [[nodiscard]] double compose_under(
      const double* oxide_f, double t,
      const std::vector<OperatingConditions>& conditions) const;

  /// Sum over aging mechanisms of log1p(-F_m,j(t)) for one block.
  [[nodiscard]] double extra_log_survival(std::size_t j, double t,
                                          const OperatingConditions& c) const;

  /// Chip-level aging survival product at default conditions:
  /// exp(sum_j extra_log_survival(j, t, default_j)). Used by the Monte
  /// Carlo paths, where (absent redundancy) the deterministic aging term
  /// separates from the sampled oxide term.
  [[nodiscard]] double extra_survival(double t) const;

  /// One block's log-survival term: log1p(-oxide_f_j) +
  /// extra_log_survival(j, t, c). The incremental evaluator caches these
  /// per block and re-derives only dirty rows.
  [[nodiscard]] double block_log_survival(std::size_t j, double oxide_f_j,
                                          double t,
                                          const OperatingConditions& c) const;

  /// Folds block_count() per-block log-survival terms into the chip
  /// failure probability: series sum over ungrouped blocks plus the
  /// Poisson-binomial spare-group terms, in the same fixed order as
  /// compose() regardless of which inputs changed — the bit-identity
  /// anchor of the incremental path.
  [[nodiscard]] double reduce_log_survival(const double* block_ls) const;

  /// The same reduction stopped before the -expm1 conversion: the chip
  /// log-survival itself (-inf when a spare group is certainly dead).
  /// Unlike the probability, this does not saturate when F rounds to 1,
  /// which is what the surrogate layer fits against.
  [[nodiscard]] double chip_log_survival(const double* block_ls) const;

 private:
  struct Group {
    std::string name;
    std::vector<std::size_t> members;
    std::size_t spares = 0;
  };

  [[nodiscard]] double compose_impl(
      const double* oxide_f, double t,
      const std::vector<OperatingConditions>* conditions) const;

  MechanismSpec spec_{};
  // Depends on spec_ being initialized first (declaration order above).
  std::string canonical_ = spec_.canonical();
  bool trivial_ = true;
  std::vector<OperatingConditions> defaults_;
  std::vector<std::unique_ptr<FailureMechanism>> extras_;
  std::vector<Group> groups_;
  std::vector<int> group_of_;  ///< block -> group index, -1 if ungrouped
};

}  // namespace obd::mech
