// Oxide-thickness variation modeling (Section II of the paper).
//
// Thickness decomposes as x = u0 + z_g + z_corr + z_eps (eq. 1): a die-to-die
// global shift, a spatially correlated intra-die component on a grid, and a
// per-device independent residual. The correlated structure is captured by a
// grid covariance matrix and re-expressed in PCA canonical form (eq. 2):
//
//   x = lambda_{i,0} + sum_j lambda_{i,j} z_j + lambda_r * eps
//
// with z_j independent standard normals shared across the chip and eps a
// per-device standard normal.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "chip/design.hpp"
#include "linalg/matrix.hpp"
#include "stats/rng.hpp"

namespace obd::var {

/// Variance budget for oxide thickness (Table II of the paper):
/// 3*sigma_total / nominal = 4%, split 50% global / 25% spatially
/// correlated / 25% independent (variance shares).
struct VariationBudget {
  double nominal = 2.2;               ///< nominal thickness u0 [nm]
  double three_sigma_fraction = 0.04; ///< 3*sigma_tot / u0
  double global_share = 0.50;        ///< sigma_g^2 / sigma_tot^2
  double spatial_share = 0.25;       ///< sigma_sp^2 / sigma_tot^2
  double independent_share = 0.25;   ///< sigma_eps^2 / sigma_tot^2

  [[nodiscard]] double sigma_total() const {
    return nominal * three_sigma_fraction / 3.0;
  }
  [[nodiscard]] double sigma_global() const;
  [[nodiscard]] double sigma_spatial() const;
  [[nodiscard]] double sigma_independent() const;

  /// Throws obd::Error unless shares are non-negative and sum to 1.
  void validate() const;
};

/// Regular g x g spatial-correlation grid over the die (Fig. 2).
class GridModel {
 public:
  GridModel(double die_width, double die_height, std::size_t cells_per_side);

  [[nodiscard]] std::size_t cells_per_side() const { return side_; }
  [[nodiscard]] std::size_t cell_count() const { return side_ * side_; }
  [[nodiscard]] double die_width() const { return width_; }
  [[nodiscard]] double die_height() const { return height_; }

  /// Grid index of the cell containing die point (x, y) (clamped).
  [[nodiscard]] std::size_t index_at(double x, double y) const;

  /// Cell rectangle for cell i.
  [[nodiscard]] chip::Rect cell_rect(std::size_t i) const;

  /// Euclidean center-to-center distance between cells i and j [mm].
  [[nodiscard]] double distance(std::size_t i, std::size_t j) const;

 private:
  double width_;
  double height_;
  std::size_t side_;
};

/// Valid (positive-semidefinite) spatial correlation function families,
/// per the general framework the paper cites for correlation modeling
/// (ref [38], Liu DAC'07). All are parameterized by a correlation length L.
enum class CorrelationKernel {
  kExponential,  ///< exp(-d/L) — the paper's Section V choice
  kGaussian,     ///< exp(-(d/L)^2) — smooth (infinitely differentiable)
  kMatern32,     ///< (1 + sqrt(3) d/L) exp(-sqrt(3) d/L)
  kSpherical,    ///< 1 - 1.5 (d/L) + 0.5 (d/L)^3 for d < L, else 0
};

/// Evaluates the chosen correlation kernel at distance d with length L.
double kernel_correlation(CorrelationKernel kernel, double d, double length);

/// Builds the n x n grid covariance of total *correlated* thickness
/// variation: C[i][j] = sigma_g^2 + sigma_sp^2 * rho(d_ij), where the
/// correlation length L = rho_dist * max(die dimensions) (the paper
/// normalizes rho_dist w.r.t. the chip dimensions; Section V uses
/// rho_dist in {0.25, 0.5, 0.75} with the exponential kernel). The global
/// component is folded in as a rank-one constant term so one PCA handles
/// both (the compatibility noted at the end of Section II).
la::Matrix build_covariance(
    const GridModel& grid, const VariationBudget& budget, double rho_dist,
    CorrelationKernel kernel = CorrelationKernel::kExponential);

/// Optional wafer-level systematic pattern (Section II, refs [21][23]):
/// a quadratic bowl/tilt added to the per-grid nominal thickness,
/// nominal_i += a*xn^2 + b*yn^2 + c*xn + d*yn with (xn, yn) in [-1, 1]
/// die-normalized coordinates.
struct WaferPattern {
  double bow_x = 0.0;   ///< quadratic coefficient along x [nm]
  double bow_y = 0.0;   ///< quadratic coefficient along y [nm]
  double tilt_x = 0.0;  ///< linear coefficient along x [nm]
  double tilt_y = 0.0;  ///< linear coefficient along y [nm]

  [[nodiscard]] bool empty() const {
    return bow_x == 0.0 && bow_y == 0.0 && tilt_x == 0.0 && tilt_y == 0.0;
  }
  [[nodiscard]] double offset(double xn, double yn) const {
    return bow_x * xn * xn + bow_y * yn * yn + tilt_x * xn + tilt_y * yn;
  }
};

/// PCA canonical form of the thickness model (eq. 2).
class CanonicalForm {
 public:
  /// nominal[i] = lambda_{i,0}; sensitivity(i, k) = lambda_{i,k};
  /// residual_sigma = lambda_r.
  CanonicalForm(la::Vector nominal, la::Matrix sensitivity,
                double residual_sigma);

  [[nodiscard]] std::size_t grid_count() const { return nominal_.size(); }
  [[nodiscard]] std::size_t pc_count() const { return sensitivity_.cols(); }
  [[nodiscard]] double residual_sigma() const { return residual_sigma_; }
  [[nodiscard]] double nominal(std::size_t grid) const {
    return nominal_[grid];
  }
  [[nodiscard]] double sensitivity(std::size_t grid, std::size_t pc) const {
    return sensitivity_(grid, pc);
  }
  [[nodiscard]] const la::Matrix& sensitivities() const {
    return sensitivity_;
  }

  /// Correlated part of the thickness in `grid` for principal components z.
  [[nodiscard]] double correlated_thickness(std::size_t grid,
                                            const la::Vector& z) const;

  /// Full device thickness: correlated part + lambda_r * eps.
  [[nodiscard]] double thickness(std::size_t grid, const la::Vector& z,
                                 double eps) const;

  /// Marginal standard deviation of the correlated part in `grid`
  /// (sqrt of sum of squared sensitivities).
  [[nodiscard]] double correlated_sigma(std::size_t grid) const;

  /// Draws z ~ N(0, I_pc_count).
  [[nodiscard]] la::Vector sample_z(stats::Rng& rng) const;

 private:
  la::Vector nominal_;
  la::Matrix sensitivity_;
  double residual_sigma_;
};

/// Builds the canonical form for a die: covariance -> eigendecomposition ->
/// sensitivities lambda_{i,k} = V_{ik} sqrt(eig_k). Principal components
/// with cumulative variance beyond `variance_capture` (in (0, 1]) are
/// truncated — the paper notes "the number of principal components (usually
/// fewer than hundreds) is much smaller than the number of devices".
CanonicalForm make_canonical_form(
    const GridModel& grid, const VariationBudget& budget, double rho_dist,
    double variance_capture = 0.999, const WaferPattern& pattern = {},
    CorrelationKernel kernel = CorrelationKernel::kExponential);

/// Device placement summary: for each design block, the share of its
/// devices falling in each correlation grid cell (devices are assumed
/// uniformly spread over the block rectangle). Entries are
/// (grid index, weight) with weights summing to 1 per block.
///
/// This single structure feeds both the analytic BLOD characterization
/// (eq. 22/24) and the Monte Carlo per-device sampler, guaranteeing that
/// the compared methods see the same layout.
struct BlockGridLayout {
  std::vector<std::vector<std::pair<std::size_t, double>>> weights;
};

BlockGridLayout assign_devices(const chip::Design& design,
                               const GridModel& grid);

}  // namespace obd::var
