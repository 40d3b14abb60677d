#include "variation/model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "linalg/eigen.hpp"

namespace obd::var {

double VariationBudget::sigma_global() const {
  return sigma_total() * std::sqrt(global_share);
}

double VariationBudget::sigma_spatial() const {
  return sigma_total() * std::sqrt(spatial_share);
}

double VariationBudget::sigma_independent() const {
  return sigma_total() * std::sqrt(independent_share);
}

void VariationBudget::validate() const {
  require(nominal > 0.0, "VariationBudget: nominal must be positive");
  require(three_sigma_fraction > 0.0,
          "VariationBudget: variation fraction must be positive");
  require(global_share >= 0.0 && spatial_share >= 0.0 &&
              independent_share >= 0.0,
          "VariationBudget: variance shares must be non-negative");
  const double sum = global_share + spatial_share + independent_share;
  require(std::fabs(sum - 1.0) < 1e-9,
          "VariationBudget: variance shares must sum to 1");
}

GridModel::GridModel(double die_width, double die_height,
                     std::size_t cells_per_side)
    : width_(die_width), height_(die_height), side_(cells_per_side) {
  require(die_width > 0.0 && die_height > 0.0, "GridModel: die size");
  require(cells_per_side > 0, "GridModel: need at least one cell");
}

std::size_t GridModel::index_at(double x, double y) const {
  const double fx = std::clamp(x / width_, 0.0, 1.0 - 1e-12);
  const double fy = std::clamp(y / height_, 0.0, 1.0 - 1e-12);
  const auto cx = static_cast<std::size_t>(fx * static_cast<double>(side_));
  const auto cy = static_cast<std::size_t>(fy * static_cast<double>(side_));
  return cy * side_ + cx;
}

chip::Rect GridModel::cell_rect(std::size_t i) const {
  require(i < cell_count(), "GridModel::cell_rect: index out of range");
  const double cw = width_ / static_cast<double>(side_);
  const double ch = height_ / static_cast<double>(side_);
  const std::size_t cx = i % side_;
  const std::size_t cy = i / side_;
  return {static_cast<double>(cx) * cw, static_cast<double>(cy) * ch, cw, ch};
}

double GridModel::distance(std::size_t i, std::size_t j) const {
  require(i < cell_count() && j < cell_count(),
          "GridModel::distance: index out of range");
  // Integer displacement times the cell pitch: the column/row differences
  // are exact in double, so the distance is translation-invariant — every
  // cell pair with the same (dx, dy) gets the bit-identical value. The
  // covariance builder's displacement table relies on this.
  const double cw = width_ / static_cast<double>(side_);
  const double ch = height_ / static_cast<double>(side_);
  const double dx =
      (static_cast<double>(i % side_) - static_cast<double>(j % side_)) * cw;
  const double dy =
      (static_cast<double>(i / side_) - static_cast<double>(j / side_)) * ch;
  return std::hypot(dx, dy);
}

double kernel_correlation(CorrelationKernel kernel, double d,
                          double length) {
  require(length > 0.0, "kernel_correlation: length must be positive");
  require(d >= 0.0, "kernel_correlation: distance must be non-negative");
  const double r = d / length;
  switch (kernel) {
    case CorrelationKernel::kExponential:
      return std::exp(-r);
    case CorrelationKernel::kGaussian:
      return std::exp(-r * r);
    case CorrelationKernel::kMatern32: {
      const double s = std::sqrt(3.0) * r;
      return (1.0 + s) * std::exp(-s);
    }
    case CorrelationKernel::kSpherical:
      if (r >= 1.0) return 0.0;
      return 1.0 - 1.5 * r + 0.5 * r * r * r;
  }
  throw Error("kernel_correlation: unknown kernel");
}

la::Matrix build_covariance(const GridModel& grid,
                            const VariationBudget& budget, double rho_dist,
                            CorrelationKernel kernel) {
  budget.validate();
  require(rho_dist > 0.0, "build_covariance: rho_dist must be positive");
  const double length =
      rho_dist * std::max(grid.die_width(), grid.die_height());
  const double vg = budget.sigma_global() * budget.sigma_global();
  const double vs = budget.sigma_spatial() * budget.sigma_spatial();
  const std::size_t n = grid.cell_count();
  const std::size_t side = grid.cells_per_side();

  // On the regular grid the correlation depends only on the absolute
  // integer displacement (|dx|, |dy|), so the kernel is evaluated once per
  // unique displacement — O(side^2) evaluations instead of n^2/2. Because
  // GridModel::distance is computed from the integer displacement, the
  // table entries are bit-identical to per-pair evaluation.
  const double cw = grid.die_width() / static_cast<double>(side);
  const double ch = grid.die_height() / static_cast<double>(side);
  std::vector<double> table(side * side);
  for (std::size_t dy = 0; dy < side; ++dy) {
    for (std::size_t dx = 0; dx < side; ++dx) {
      const double d = std::hypot(static_cast<double>(dx) * cw,
                                  static_cast<double>(dy) * ch);
      table[dy * side + dx] = vg + vs * kernel_correlation(kernel, d, length);
    }
  }

  la::Matrix c(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t xi = i % side;
    const std::size_t yi = i / side;
    for (std::size_t j = i; j < n; ++j) {
      const std::size_t dx = (j % side > xi) ? j % side - xi : xi - j % side;
      const std::size_t dy = (j / side > yi) ? j / side - yi : yi - j / side;
      const double cov = table[dy * side + dx];
      c(i, j) = cov;
      c(j, i) = cov;
    }
  }
  return c;
}

CanonicalForm::CanonicalForm(la::Vector nominal, la::Matrix sensitivity,
                             double residual_sigma)
    : nominal_(std::move(nominal)),
      sensitivity_(std::move(sensitivity)),
      residual_sigma_(residual_sigma) {
  require(!nominal_.empty(), "CanonicalForm: empty nominal vector");
  require(sensitivity_.rows() == nominal_.size(),
          "CanonicalForm: sensitivity row count must match grid count");
  require(residual_sigma_ >= 0.0,
          "CanonicalForm: residual sigma must be non-negative");
}

double CanonicalForm::correlated_thickness(std::size_t grid,
                                           const la::Vector& z) const {
  require(grid < grid_count(), "CanonicalForm: grid index out of range");
  require(z.size() == pc_count(), "CanonicalForm: z dimension mismatch");
  double x = nominal_[grid];
  const double* s = sensitivity_.row(grid);
  for (std::size_t k = 0; k < z.size(); ++k) x += s[k] * z[k];
  return x;
}

double CanonicalForm::thickness(std::size_t grid, const la::Vector& z,
                                double eps) const {
  return correlated_thickness(grid, z) + residual_sigma_ * eps;
}

double CanonicalForm::correlated_sigma(std::size_t grid) const {
  require(grid < grid_count(), "CanonicalForm: grid index out of range");
  const double* s = sensitivity_.row(grid);
  double v = 0.0;
  for (std::size_t k = 0; k < pc_count(); ++k) v += s[k] * s[k];
  return std::sqrt(v);
}

la::Vector CanonicalForm::sample_z(stats::Rng& rng) const {
  la::Vector z(pc_count());
  for (auto& zk : z) zk = rng.normal();
  return z;
}

CanonicalForm make_canonical_form(const GridModel& grid,
                                  const VariationBudget& budget,
                                  double rho_dist, double variance_capture,
                                  const WaferPattern& pattern,
                                  CorrelationKernel kernel) {
  require(variance_capture > 0.0 && variance_capture <= 1.0,
          "make_canonical_form: variance_capture must be in (0, 1]");
  la::Matrix cov = build_covariance(grid, budget, rho_dist, kernel);

  // Near-singular correlation matrices can stall the QL iteration. Retry
  // with an escalating diagonal ridge (which shifts the spectrum away from
  // the degenerate cluster) before giving up; each retry only perturbs the
  // per-cell variance by a relative ~1e-10..1e-4, far below the model's
  // own accuracy.
  const double mean_var = cov.trace() / static_cast<double>(cov.rows());
  la::EigenDecomposition eig;
  for (int attempt = 0;; ++attempt) {
    try {
      eig = la::eigen_symmetric(cov);
      break;
    } catch (const Error& e) {
      if (e.code() != ErrorCode::kNonconvergence || attempt >= 3) throw;
      const double ridge = mean_var * std::pow(1e3, attempt) * 1e-10;
      for (std::size_t i = 0; i < cov.rows(); ++i) cov(i, i) += ridge;
      std::ostringstream msg;
      msg << "make_canonical_form: eigensolve did not converge; retrying "
             "with diagonal ridge "
          << ridge;
      diagnostics().warn(fault::site::kEigen, msg.str());
    }
  }

  // Select the leading principal components capturing the requested share
  // of total variance. Eigenvalues are sorted descending; tiny negative
  // values from roundoff are clipped by the shared truncation rule.
  const std::size_t keep =
      la::leading_component_count(eig.values, variance_capture);
  require(keep > 0, "make_canonical_form: covariance has no variance");
  la::Matrix sens = la::principal_factor(eig, keep);

  const std::size_t n = grid.cell_count();
  la::Vector nominal(n, budget.nominal);
  if (!pattern.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      const chip::Rect r = grid.cell_rect(i);
      const double xn = 2.0 * r.center_x() / grid.die_width() - 1.0;
      const double yn = 2.0 * r.center_y() / grid.die_height() - 1.0;
      nominal[i] += pattern.offset(xn, yn);
    }
  }

  return CanonicalForm(std::move(nominal), std::move(sens),
                       budget.sigma_independent());
}

BlockGridLayout assign_devices(const chip::Design& design,
                               const GridModel& grid) {
  design.validate();
  BlockGridLayout layout;
  layout.weights.resize(design.blocks.size());
  const std::size_t side = grid.cells_per_side();
  const double cw = grid.die_width() / static_cast<double>(side);
  const double ch = grid.die_height() / static_cast<double>(side);
  // Conservative cell range for a coordinate interval [lo, hi): one cell of
  // slack on each end absorbs floating-point rounding of the division; the
  // exact overlap test below discards any zero-overlap cell, so the result
  // is identical to scanning every cell.
  const auto cell_range = [](double lo, double hi, double cell,
                             std::size_t count) {
    const double flo = std::floor(lo / cell) - 1.0;
    const double fhi = std::floor(hi / cell) + 1.0;
    const std::size_t first =
        (flo <= 0.0) ? 0 : std::min(count - 1, static_cast<std::size_t>(flo));
    const std::size_t last =
        (fhi <= 0.0) ? 0 : std::min(count - 1, static_cast<std::size_t>(fhi));
    return std::pair<std::size_t, std::size_t>{first, last};
  };
  for (std::size_t b = 0; b < design.blocks.size(); ++b) {
    const chip::Rect& rect = design.blocks[b].rect;
    const double area = rect.area();
    auto& entries = layout.weights[b];
    double sum = 0.0;
    // Only cells intersecting the block's bounding box can overlap it;
    // iterating rows-outer keeps the entries in ascending grid order, as
    // the full scan produced.
    const auto [cx_lo, cx_hi] =
        cell_range(rect.x, rect.x + rect.width, cw, side);
    const auto [cy_lo, cy_hi] =
        cell_range(rect.y, rect.y + rect.height, ch, side);
    for (std::size_t cy = cy_lo; cy <= cy_hi; ++cy) {
      for (std::size_t cx = cx_lo; cx <= cx_hi; ++cx) {
        const std::size_t g = cy * side + cx;
        const double ov = rect.overlap(grid.cell_rect(g));
        if (ov <= 0.0) continue;
        entries.emplace_back(g, ov / area);
        sum += ov / area;
      }
    }
    require(!entries.empty(),
            "assign_devices: block does not overlap any grid cell");
    // Renormalize against floating-point slack so weights sum to exactly 1.
    for (auto& [g, w] : entries) w /= sum;
  }
  return layout;
}

}  // namespace obd::var
