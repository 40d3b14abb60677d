// FailureMechanism: the per-block failure-time law of one wear-out
// mechanism as a function of operating conditions (temperature, supply,
// switching activity) and time.
//
// The aging mechanisms NBTI, EM (Black's equation), and HCI implement it
// with a lognormal TTF and Arrhenius-style temperature acceleration using
// the same Kelvin-offset conventions as core/device_model.cpp. The
// paper's gate-oxide breakdown model stays outside the interface: the
// evaluators compute its per-block failures and MechanismStack composes
// them with these laws.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "mech/spec.hpp"

namespace obd::mech {

/// Celsius -> Kelvin offset, matching core/device_model.cpp.
inline constexpr double kKelvinOffset = 273.15;

/// Boltzmann constant [eV/K] for Arrhenius acceleration factors.
inline constexpr double kBoltzmannEv = 8.617333262e-5;

/// Seconds per year used to convert configured t50_years to seconds.
/// Matches the 365.25-day year used throughout the reporting layer.
inline constexpr double kSecondsPerYear = 365.25 * 24.0 * 3600.0;

/// Operating point of one block. Temperatures are Celsius (converted to
/// Kelvin internally, like device_model.cpp); activity is the mean
/// switching activity in (0, 1] and doubles as the current-density proxy
/// for EM's Black-equation exponent.
struct OperatingConditions {
  double temp_c = 100.0;
  double vdd = 1.2;
  double activity = 0.5;
};

/// Interface: per-block failure CDF/quantile/hazard of one mechanism.
/// Implementations must be deterministic and thread-safe for concurrent
/// const calls — evaluators invoke them from the parallel sweep paths.
class FailureMechanism {
 public:
  virtual ~FailureMechanism() = default;

  /// Short stable name ("nbti", "em", "hci", "oxide").
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Failure probability of block `j` by time `t` [s] under conditions
  /// `c`, monotone non-decreasing in t with F(0) = 0.
  [[nodiscard]] virtual double block_cdf(std::size_t j, double t,
                                         const OperatingConditions& c)
      const = 0;

  /// Inverse CDF: the time [s] at which block `j` reaches failure
  /// probability `f` under `c`. Used by the DRM effective-age recursion.
  [[nodiscard]] virtual double block_time_at(std::size_t j, double f,
                                             const OperatingConditions& c)
      const = 0;

  /// Instantaneous hazard rate h(t) = f(t) / (1 - F(t)) [1/s]. The default
  /// uses a central finite difference of the CDF; closed-form
  /// implementations may override.
  [[nodiscard]] virtual double block_hazard(std::size_t j, double t,
                                            const OperatingConditions& c)
      const;
};

/// Lognormal-TTF mechanism: F(t) = Phi((ln t - ln t50(c)) / sigma) with
///   ln t50(c) = ln t50_ref + Ea/k (1/T - 1/Tref)      (Arrhenius)
///               - gamma_v (V - Vref)                   (voltage)
///               - n ln(activity)                       (activity power law)
/// where T, Tref are Kelvin. All blocks share the same law; per-block
/// differentiation enters through the per-block operating conditions.
class LognormalMechanism final : public FailureMechanism {
 public:
  LognormalMechanism(std::string name, const MechanismParams& params,
                     double tref_c, double vref);

  [[nodiscard]] const std::string& name() const override { return name_; }

  /// Median TTF [s] under the given conditions.
  [[nodiscard]] double t50(const OperatingConditions& c) const;

  [[nodiscard]] double block_cdf(std::size_t j, double t,
                                 const OperatingConditions& c) const override;
  [[nodiscard]] double block_time_at(std::size_t j, double f,
                                     const OperatingConditions& c)
      const override;
  [[nodiscard]] double block_hazard(std::size_t j, double t,
                                    const OperatingConditions& c)
      const override;

 private:
  std::string name_;
  MechanismParams params_;
  double tref_c_;
  double vref_;
  double log_t50_ref_s_;  ///< ln(t50_ref) in seconds, precomputed
};

/// Builds the enabled aging mechanisms of `spec` (in the fixed order
/// nbti, em, hci). The oxide base model is not included — the
/// evaluators compute it and hand it to MechanismStack.
[[nodiscard]] std::vector<std::unique_ptr<FailureMechanism>>
make_aging_mechanisms(const MechanismSpec& spec);

}  // namespace obd::mech
