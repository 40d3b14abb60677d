// Assembly of a full-chip OBD reliability problem.
//
// A ReliabilityProblem bundles everything every analysis method consumes:
// the design, the PCA canonical thickness model (built once — the paper
// treats PCA as a shared preprocessing step excluded from per-method
// runtime), the device-to-grid layout, and per-block reliability parameters
// (A_j, alpha_j, b_j at the block's temperature, plus the BLOD moments).
// The statistical methods (st_fast, st_MC, hybrid), the Monte Carlo
// reference, and the guard-band baseline all operate on the same problem
// instance, so comparisons are apples-to-apples.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chip/design.hpp"
#include "core/blod.hpp"
#include "core/device_model.hpp"
#include "mech/spec.hpp"
#include "mech/stack.hpp"
#include "variation/model.hpp"
#include "variation/quadtree.hpp"

namespace obd::core {

/// Spatial-correlation structure used to build the canonical form.
enum class CorrelationStructure {
  kGridExponential,  ///< the paper's grid model with exponential decay
  kQuadTree,         ///< the ref-[24] quad-tree alternative
};

/// Per-block reliability inputs (Table I / eq. 11 notation).
struct BlockParams {
  std::string name;
  double area = 0.0;     ///< A_j: total normalized OBD area of the block
  double alpha = 0.0;    ///< alpha_j [s] at the block temperature
  double b = 0.0;        ///< b_j [1/nm] at the block temperature
  double temp_c = 0.0;   ///< block temperature [C]
  BlodMoments blod;      ///< (u_j, v_j) random-vector description
};

/// Knobs of the problem construction.
struct ProblemOptions {
  /// Spatial-correlation grid resolution (the paper sweeps 10/20/25 per
  /// side in Table V; 25 is the reference).
  std::size_t grid_cells_per_side = 25;
  /// Correlation distance normalized w.r.t. the chip dimension
  /// (Table III/IV use 0.5; Table IV sweeps 0.25/0.5/0.75).
  double rho_dist = 0.5;
  /// PCA truncation: keep leading components capturing this variance share.
  double variance_capture = 0.999;
  /// Optional wafer-level systematic nominal pattern (Section II extension).
  var::WaferPattern pattern{};
  /// Correlation structure (grid/exponential by default; rho_dist and
  /// variance_capture are ignored for the quad-tree, quadtree options
  /// apply instead).
  CorrelationStructure structure = CorrelationStructure::kGridExponential;
  var::QuadTreeOptions quadtree{};
  /// Correlation function family for the grid structure (ref [38] offers
  /// several valid choices; the paper's Section V uses the exponential).
  var::CorrelationKernel kernel = var::CorrelationKernel::kExponential;
  /// Failure mechanisms and unit-level redundancy. The default (oxide
  /// only, no spare groups) reproduces the seed behavior bit-for-bit.
  mech::MechanismSpec mechanisms{};
};

/// Immutable assembled problem. Create via build() or
/// with_operating_point().
///
/// Construction has two stages. The variation stage (grid, covariance +
/// PCA canonical form, device layout, BLOD moments) depends on geometry
/// and variation alone; the operating-point stage (per-block alpha_j, b_j,
/// T_j and the mechanism stack) depends on the block temperatures, the
/// supply and the mechanism spec.
class ReliabilityProblem {
 public:
  /// Builds the problem: the variation stage (grid + covariance + PCA,
  /// device layout, BLOD moments), then the operating-point stage through
  /// with_operating_point. `block_temps_c` must align with design.blocks
  /// (take it from thermal::solve_thermal, or supply a constant worst-case
  /// vector for the temperature-unaware variant).
  static ReliabilityProblem build(const chip::Design& design,
                                  const var::VariationBudget& budget,
                                  const DeviceReliabilityModel& model,
                                  const std::vector<double>& block_temps_c,
                                  double vdd,
                                  const ProblemOptions& options = {});

  /// Runs only the operating-point stage on `same_variation`'s variation
  /// stage: the result shares its grid and canonical form (by reference
  /// count, so it stays valid after the problem it was copied from is
  /// destroyed), keeps its design, layout and BLOD moments, and takes
  /// per-block (alpha, b, T) and the mechanism stack from the given
  /// inputs. Bit-identical to build() on the same design and options with
  /// these inputs. Taken by value: callers pass a problem to copy, and
  /// build() moves its own variation stage in.
  static ReliabilityProblem with_operating_point(
      ReliabilityProblem same_variation, const DeviceReliabilityModel& model,
      const std::vector<double>& block_temps_c, double vdd,
      const mech::MechanismSpec& mechanisms);

  [[nodiscard]] const chip::Design& design() const { return design_; }
  [[nodiscard]] const var::VariationBudget& budget() const { return budget_; }
  [[nodiscard]] const var::GridModel& grid() const { return *grid_; }
  [[nodiscard]] const var::CanonicalForm& canonical() const {
    return *canonical_;
  }
  [[nodiscard]] const var::BlockGridLayout& layout() const { return layout_; }
  [[nodiscard]] const std::vector<BlockParams>& blocks() const {
    return blocks_;
  }
  [[nodiscard]] double vdd() const { return vdd_; }
  [[nodiscard]] const ProblemOptions& options() const { return options_; }

  /// Competing-risks composition engine (aging mechanisms + redundancy),
  /// resolved once at build time. Trivial for the default spec.
  [[nodiscard]] const mech::MechanismStack& mechanisms() const {
    return *mech_;
  }

  /// Canonical mechanism-spec rendering, cached on the stack at build
  /// time (serve keys and checkpoint frames used to re-render it).
  [[nodiscard]] const std::string& mechanism_canonical() const {
    return mech_->canonical_spec();
  }

  /// Worst (hottest) block temperature — the guard-band corner.
  [[nodiscard]] double worst_temp_c() const;

  /// Worst-case minimum thickness used by the guard-band method:
  /// nominal - 3 sigma_total.
  [[nodiscard]] double min_thickness() const;

 private:
  ReliabilityProblem() = default;

  chip::Design design_;
  var::VariationBudget budget_;
  ProblemOptions options_;
  double vdd_ = 0.0;
  // Heap-held so BlodMoments' back-pointers survive moves of the problem
  // and stay valid in every problem sharing this variation stage.
  std::shared_ptr<const var::GridModel> grid_;
  std::shared_ptr<const var::CanonicalForm> canonical_;
  var::BlockGridLayout layout_;
  std::vector<BlockParams> blocks_;
  std::shared_ptr<const mech::MechanismStack> mech_ =
      std::make_shared<mech::MechanismStack>();
};

}  // namespace obd::core
