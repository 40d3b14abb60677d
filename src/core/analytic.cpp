#include "core/analytic.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/eigen.hpp"
#include "simd/kernels.hpp"
#include "stats/histogram.hpp"
#include "stats/sampling.hpp"

namespace obd::core {
namespace {

// Builds per-axis (value, weight) pairs for one marginal distribution under
// the requested quadrature.
template <typename Marginal>
void axis_nodes(const Marginal& marginal, const AnalyticOptions& options,
                double domain_lo, double domain_hi,
                std::vector<std::pair<double, double>>& out) {
  out.clear();
  const auto cells = options.cells;
  if (options.quadrature == Quadrature::kEqualProbability) {
    for (std::size_t i = 0; i < cells; ++i) {
      const double q = (static_cast<double>(i) + 0.5) /
                       static_cast<double>(cells);
      const double qc = std::clamp(q, options.tail_epsilon,
                                   1.0 - options.tail_epsilon);
      out.emplace_back(marginal.quantile(qc),
                       1.0 / static_cast<double>(cells));
    }
  } else {
    const double width = (domain_hi - domain_lo) / static_cast<double>(cells);
    for (std::size_t i = 0; i < cells; ++i) {
      const double x =
          domain_lo + (static_cast<double>(i) + 0.5) * width;
      out.emplace_back(x, marginal.pdf(x) * width);
    }
  }
}

}  // namespace

void uv_axes(const BlodMoments& blod, const AnalyticOptions& options,
             UvAxes& axes) {
  require(options.cells >= 2, "uv_axes: need at least 2 cells");
  const stats::Normal fu = blod.u_marginal();
  axis_nodes(fu, options, fu.mean() - options.u_domain_sigmas * fu.stddev(),
             fu.mean() + options.u_domain_sigmas * fu.stddev(), axes.u);

  if (blod.v_degenerate()) {
    // Single-grid block: v_j is the deterministic residual variance.
    axes.v.assign(1, {blod.v_mean(), 1.0});
  } else {
    const stats::ShiftedChiSquare fv = options.v_three_moment
                                           ? blod.v_marginal_three_moment()
                                           : blod.v_marginal();
    axis_nodes(fv, options, fv.shift(), fv.quantile(options.v_upper_quantile),
               axes.v);
    // The three-moment shift may dip below the physical support; clamp
    // so g(u, v) always sees a valid variance.
    for (auto& [v, w] : axes.v) v = std::max(v, 0.0);
  }
}

AnalyticAnalyzer::AnalyticAnalyzer(const ReliabilityProblem& problem,
                                   const AnalyticOptions& options)
    : problem_(&problem) {
  nodes_.resize(problem.blocks().size());
  UvAxes axes;
  for (std::size_t j = 0; j < problem.blocks().size(); ++j) {
    uv_axes(problem.blocks()[j].blod, options, axes);
    auto& list = nodes_[j];
    list.reserve(axes.u.size() * axes.v.size());
    for (const auto& [u, wu] : axes.u)
      for (const auto& [v, wv] : axes.v) list.push_back({u, v, wu * wv});
  }
}

double AnalyticAnalyzer::failure_probability(double t) const {
  return failure_from_nodes(problem_->blocks(), nodes_, t,
                            problem_->mechanisms());
}

double AnalyticAnalyzer::lifetime_at(double target) const {
  return lifetime_at_failure(
      [this](double t) { return failure_probability(t); }, target);
}

double AnalyticAnalyzer::block_failure(std::size_t j, double t) const {
  require(j < nodes_.size(), "AnalyticAnalyzer::block_failure: index");
  return block_failure_from_nodes(problem_->blocks()[j], nodes_[j], t);
}

StMcAnalyzer::StMcAnalyzer(const ReliabilityProblem& problem,
                           const StMcOptions& options)
    : problem_(&problem) {
  require(options.samples >= 100, "StMcAnalyzer: need >= 100 samples");
  require(options.histogram_bins >= 2, "StMcAnalyzer: need >= 2 bins");

  const var::CanonicalForm& canonical = problem.canonical();
  const auto& blocks = problem.blocks();
  const auto& layout = problem.layout();
  stats::Rng rng(options.seed);

  // Per-block (u, v) samples. Only each block's own joint distribution of
  // (u_j, v_j) enters the failure sum (the cross-block expectation is
  // linear, eq. 19-21), so each block is sampled independently from its
  // exact covariance Lambda_j Lambda_j^T in a block-local eigenbasis.
  // Within-block spread lives in the small eigenvalues, so the 99.99%
  // capture keeps most of them (L2 at grid 25: 296 of 325).
  //
  // With the block-local factor L (cells x keep), cell thicknesses are
  // t = n + L z for keep iid normals z, where n holds the cells' nominals.
  // u_j is linear and v_j quadratic in z (eq. 22-24): with device shares
  // w, centered nominals d = n - (w.n) and centered rows c_a = L_a - w^T L,
  //   u = w.n + (L^T w).z,
  //   spread = sum_a w_a (t_a - u)^2 = d^T W d + 2 (C^T W d).z + z^T Q z,
  // where W = diag(w) and Q = C^T W C = L^T (W - w w^T) L. Diagonalizing
  // Q = U diag(lambda) U^T once per block and reading each sample's keep
  // normals as y = U^T z (still iid N(0, 1)) makes a sample O(keep):
  //   u = w.n + alpha.y + (sigma_r / sqrt(m)) r,     alpha = U^T L^T w,
  //   v = sigma_r^2 + m/(m-1) max(0, d^T W d + beta.y + sum_i lambda_i
  //       y_i^2),                                     beta = 2 U^T C^T W d,
  // with r the residual normal. One quad_form_dots kernel call forms a
  // sample's three sums. The spread is taken around the correlated
  // block mean, as in BlodMoments::v_value, so the residual-mean draw
  // enters u only. Each sample draws its keep normals, then r, with one
  // Rng::fill_normal call.
  const std::size_t n_blocks = blocks.size();
  std::vector<std::vector<double>> u_samples(n_blocks);
  std::vector<std::vector<double>> v_samples(n_blocks);
  // Reserved before any block's set-up, so each block's temporaries reuse
  // one stretch of heap instead of leaving holes between sample buffers
  // (EV6 sign-off with 20k samples: peak RSS 19.2 MiB when reserving per
  // block, 17.8 MiB here). The normals buffer holds a sample's keep + 1
  // normals for any block, as keep never exceeds the block's cell count.
  std::size_t max_cells = 0;
  for (std::size_t j = 0; j < n_blocks; ++j) {
    u_samples[j].reserve(options.samples);
    v_samples[j].reserve(options.samples);
    max_cells = std::max(max_cells, layout.weights[j].size());
  }
  std::vector<double> normals(max_cells + 1);
  const simd::KernelTable& kt = simd::kernels();

  const std::size_t pc = canonical.pc_count();
  for (std::size_t j = 0; j < n_blocks; ++j) {
    const auto& weights = layout.weights[j];
    const std::size_t gcount = weights.size();

    // Block-local covariance C = Lambda_j Lambda_j^T over the block's grid
    // cells, from the same (possibly truncated) canonical model the other
    // methods use. Keep the components capturing 99.99% of the
    // block-local variance (at least one): L(a, k) = V(a, k) sqrt(lambda_k).
    // Scoped so the cells x pc gather and the covariance's decomposition
    // are freed before Q is formed.
    la::Matrix local;
    {
      la::Matrix lambda(gcount, pc);
      for (std::size_t a = 0; a < gcount; ++a)
        for (std::size_t k = 0; k < pc; ++k)
          lambda(a, k) = canonical.sensitivity(weights[a].first, k);
      const auto eig = la::eigen_symmetric(la::gram_aat(lambda));
      local = la::principal_factor(
          eig, std::max<std::size_t>(
                   1, la::leading_component_count(eig.values, 0.9999)));
    }
    const std::size_t keep = local.cols();

    // The spectral constants of the block's (u, v).
    double u_const = 0.0;
    la::Vector lw(keep, 0.0);  // L^T w
    for (std::size_t a = 0; a < gcount; ++a) {
      const double wa = weights[a].second;
      u_const += wa * canonical.nominal(weights[a].first);
      for (std::size_t k = 0; k < keep; ++k) lw[k] += wa * local(a, k);
    }
    double spread_const = 0.0;
    la::Vector alpha(keep, 0.0);
    la::Vector beta(keep, 0.0);
    la::Vector lambda_q;
    {
      // Row a of sqrt(W) C, stored as column a of a keep x gcount matrix
      // so Q = sum_a w_a c_a c_a^T is one Gram product.
      la::Matrix scaled_ct(keep, gcount);
      la::Vector cwd(keep, 0.0);  // C^T W d
      for (std::size_t a = 0; a < gcount; ++a) {
        const double wa = weights[a].second;
        const double da = canonical.nominal(weights[a].first) - u_const;
        spread_const += wa * da * da;
        const double root_w = std::sqrt(wa);
        for (std::size_t k = 0; k < keep; ++k) {
          const double c = local(a, k) - lw[k];
          scaled_ct(k, a) = root_w * c;
          cwd[k] += wa * da * c;
        }
      }
      local = la::Matrix();
      // Only lambda, alpha and beta are needed, so Q's eigenvectors are
      // never formed: the solve projects [L^T w, 2 C^T W d] directly.
      la::Matrix x(keep, 2);
      for (std::size_t k = 0; k < keep; ++k) {
        x(k, 0) = lw[k];
        x(k, 1) = 2.0 * cwd[k];
      }
      auto eig_q = la::eigen_symmetric_project(la::gram_aat(scaled_ct), x);
      for (std::size_t i = 0; i < keep; ++i) {
        alpha[i] = eig_q.projected(i, 0);
        beta[i] = eig_q.projected(i, 1);
      }
      lambda_q = std::move(eig_q.values);
    }

    const double m = static_cast<double>(blocks[j].blod.device_count());
    const double sr = canonical.residual_sigma();
    const double residual_scale = sr / std::sqrt(m);
    const double spread_scale = m / (m - 1.0);
    auto& us = u_samples[j];
    auto& vs = v_samples[j];
    std::vector<double> lhs;
    if (options.latin_hypercube)
      lhs = stats::latin_hypercube_normal(options.samples, keep, rng);

    for (std::size_t s = 0; s < options.samples; ++s) {
      const double* y = normals.data();
      if (options.latin_hypercube) {
        y = lhs.data() + s * keep;
        rng.fill_normal(normals.data() + keep, 1);
      } else {
        rng.fill_normal(normals.data(), keep + 1);
      }
      // dots = {alpha.y, beta.y, sum lambda_i y_i^2}.
      double dots[3];
      kt.quad_form_dots(alpha.data(), beta.data(), lambda_q.data(), y, keep,
                        dots);
      // Residual-mean term of eq. 22 (O(1/sqrt(m_j)), kept for fidelity).
      us.push_back(u_const + dots[0] + residual_scale * normals[keep]);
      vs.push_back(sr * sr +
                   spread_scale *
                       std::max(0.0, spread_const + dots[1] + dots[2]));
    }
  }

  nodes_.resize(n_blocks);
  for (std::size_t j = 0; j < n_blocks; ++j) {
    if (!options.use_histogram) {
      auto& list = nodes_[j];
      list.reserve(options.samples);
      const double w = 1.0 / static_cast<double>(options.samples);
      for (std::size_t s = 0; s < options.samples; ++s)
        list.push_back({u_samples[j][s], v_samples[j][s], w});
      continue;
    }
    // Numerical joint PDF: 2-D histogram over the sample cloud.
    auto [ulo_it, uhi_it] =
        std::minmax_element(u_samples[j].begin(), u_samples[j].end());
    auto [vlo_it, vhi_it] =
        std::minmax_element(v_samples[j].begin(), v_samples[j].end());
    const double upad = 1e-12 + 1e-9 * std::fabs(*uhi_it);
    const double vpad = 1e-12 + 1e-9 * std::fabs(*vhi_it);
    stats::Histogram2D h(*ulo_it - upad, *uhi_it + upad,
                         options.histogram_bins, *vlo_it - vpad,
                         *vhi_it + vpad, options.histogram_bins);
    for (std::size_t s = 0; s < options.samples; ++s)
      h.add(u_samples[j][s], v_samples[j][s]);

    auto& list = nodes_[j];
    for (std::size_t bi = 0; bi < h.xbins(); ++bi) {
      for (std::size_t bj = 0; bj < h.ybins(); ++bj) {
        const double p = h.probability(bi, bj);
        if (p <= 0.0) continue;
        list.push_back({h.x_center(bi), h.y_center(bj), p});
      }
    }
  }
}

double StMcAnalyzer::failure_probability(double t) const {
  return failure_from_nodes(problem_->blocks(), nodes_, t,
                            problem_->mechanisms());
}

double StMcAnalyzer::lifetime_at(double target) const {
  return lifetime_at_failure(
      [this](double t) { return failure_probability(t); }, target);
}

}  // namespace obd::core
