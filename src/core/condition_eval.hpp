// Exact per-corner condition evaluation over a HybridEvaluator.
//
// A "corner" is an operating-condition delta applied on top of a built
// problem without re-running the thermal pipeline: a uniform (or
// per-block) temperature offset, a supply override, and an activity
// scale. The evaluator maps the corner through the device reliability
// model — alpha_j = alpha(T_j + dT, vdd), b_j = b(T_j + dT, vdd) — into a
// ChipState and answers F(t) through the IncrementalEvaluator, so the
// result is bit-identical to stack.compose_under over the corner's
// per-block oxide failures and conditions, and repeated corners on the
// same evaluator refresh only the rows that changed.
//
// Consumers: the serve daemon's per-session `cond.*` request path, the
// surrogate layer's fit/certification reference, and the surrogate bench
// comparator — one definition of "exact under a corner" for all three.
#pragma once

#include <cstddef>
#include <vector>

#include "core/chip_state.hpp"
#include "core/device_model.hpp"
#include "core/hybrid.hpp"
#include "core/incremental.hpp"

namespace obd::core {

class ConditionEvaluator {
 public:
  /// `hybrid` (and its problem) must outlive this evaluator. `model`
  /// supplies the (T, vdd) -> (alpha, b) mapping; the serve layer passes
  /// the same defaults its problem build used.
  explicit ConditionEvaluator(const HybridEvaluator& hybrid,
                              const AnalyticModelParams& model = {});

  /// Applies one corner to every block: T_j = base_T_j + dt,
  /// alpha/b re-derived from the model at (T_j, vdd), activity scaled by
  /// `act_scale` from each block's base activity. The setters are
  /// bit-comparing, so re-applying an unchanged corner dirties nothing.
  void set_corner(double dt, double vdd, double act_scale);

  /// Overrides the temperature offset of one block (applied on top of the
  /// current corner's vdd/activity). Call after set_corner.
  void set_block_dt(std::size_t j, double dt);

  /// F(t) at the current corner. Bit-identical to a from-scratch
  /// evaluation under the same parameters (see incremental.hpp).
  [[nodiscard]] double evaluate(double t) { return inc_.evaluate(state_, t); }

  /// Chip log-survival at the current corner: the pre-expm1 value, which
  /// keeps resolving after F rounds to 1.0 (F = -expm1 of it, equal to
  /// evaluate() up to op ordering). The surrogate layer fits against this
  /// so its fit target never saturates; refusal policy still certifies
  /// against evaluate(), the value the engine actually serves.
  [[nodiscard]] double evaluate_ls(double t);

  /// The oxide channel of evaluate_ls: sum over blocks of
  /// log1p(-F_oxide_j(t)). For redundancy-free stacks evaluate_ls is
  /// exactly this plus the mechanism channels below; the surrogate fits
  /// each channel separately because each is smooth in its own log space
  /// while the log of their sum has a kink wherever two channels cross.
  [[nodiscard]] double oxide_log_survival(double t);

  /// Aging channel m (an index into problem().mechanisms().extras()):
  /// sum over blocks of log1p(-F_m,j(t)) at the current per-block
  /// operating conditions.
  [[nodiscard]] double mechanism_log_survival(std::size_t m, double t);

  [[nodiscard]] const IncrementalStats& stats() const { return inc_.stats(); }
  [[nodiscard]] const ChipState& state() const { return state_; }
  [[nodiscard]] const AnalyticReliabilityModel& model() const {
    return model_;
  }

 private:
  void apply_block(std::size_t j, double dt, double vdd, double act_scale);

  AnalyticReliabilityModel model_;
  const HybridEvaluator* hybrid_;  // non-owning; must outlive this
  ChipState state_;
  IncrementalEvaluator inc_;
  std::vector<double> base_temps_c_;
  std::vector<double> base_activities_;
  std::vector<double> ls_scratch_;
  double cur_vdd_;
  double cur_act_ = 1.0;
};

}  // namespace obd::core
