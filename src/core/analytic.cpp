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

AnalyticAnalyzer::AnalyticAnalyzer(const ReliabilityProblem& problem,
                                   const AnalyticOptions& options)
    : problem_(&problem) {
  require(options.cells >= 2, "AnalyticAnalyzer: need at least 2 cells");
  nodes_.resize(problem.blocks().size());

  std::vector<std::pair<double, double>> u_axis;
  std::vector<std::pair<double, double>> v_axis;
  for (std::size_t j = 0; j < problem.blocks().size(); ++j) {
    const BlodMoments& blod = problem.blocks()[j].blod;

    const stats::Normal fu = blod.u_marginal();
    axis_nodes(fu, options, fu.mean() - options.u_domain_sigmas * fu.stddev(),
               fu.mean() + options.u_domain_sigmas * fu.stddev(), u_axis);

    if (blod.v_degenerate()) {
      // Single-grid block: v_j is the deterministic residual variance.
      v_axis.assign(1, {blod.v_mean(), 1.0});
    } else {
      const stats::ShiftedChiSquare fv = options.v_three_moment
                                             ? blod.v_marginal_three_moment()
                                             : blod.v_marginal();
      axis_nodes(fv, options, fv.shift(),
                 fv.quantile(options.v_upper_quantile), v_axis);
      // The three-moment shift may dip below the physical support; clamp
      // so g(u, v) always sees a valid variance.
      for (auto& [v, w] : v_axis) v = std::max(v, 0.0);
    }

    auto& list = nodes_[j];
    list.reserve(u_axis.size() * v_axis.size());
    for (const auto& [u, wu] : u_axis)
      for (const auto& [v, wv] : v_axis) list.push_back({u, v, wu * wv});
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
  // linear, eq. 19-21), so each block's grid-thickness vector is sampled
  // independently from its exact covariance Lambda_j Lambda_j^T in a
  // block-local eigenbasis. Local correlation within a block is high, so a
  // handful of components per block captures the covariance — orders of
  // magnitude cheaper than a full-chip matvec per sample.
  //
  // Samples are drawn in batches of kBatch (the last batch is narrower,
  // nb < kBatch columns). A batch's cell thicknesses are one product
  // T(gcount x nb) += L(gcount x keep) * W(keep x nb), with column s of W
  // holding sample s's normals and each row of T starting at its cell's
  // nominal. The matmul kernel adds
  // round(L(a,k) * w_k) into T(a, s) in ascending k on every dispatch
  // level (kernels.hpp), which is the same operation sequence as a
  // per-sample loop acc = nominal; acc += L(a,k) * w_k, so every sample is
  // bit-identical to drawing and reducing them one at a time. (The kernel
  // skips L(a,k) == 0.0; adding a +-0 product changes the sum only when it
  // is exactly +-0, which a thickness starting at its nominal never is.)
  // W is filled column by column in sample order — each sample's keep
  // normals, then its residual normal — so the random stream is the one a
  // per-sample loop consumes. The batch turns a latency-bound dependent
  // chain per cell into independent vectorized row updates. Widths from
  // 16 to 256 columns time within noise of each other on the EV6 problem;
  // 64 keeps the per-batch buffers small.
  constexpr std::size_t kBatch = 64;
  const std::size_t n_blocks = blocks.size();
  std::vector<std::vector<double>> u_samples(n_blocks);
  std::vector<std::vector<double>> v_samples(n_blocks);

  const std::size_t pc = canonical.pc_count();
  for (std::size_t j = 0; j < n_blocks; ++j) {
    const auto& weights = layout.weights[j];
    const std::size_t gcount = weights.size();

    // Block-local covariance C = Lambda_j Lambda_j^T over the block's grid
    // cells, from the same (possibly truncated) canonical model the other
    // methods use. Gathering the block's sensitivity rows and forming the
    // Gram matrix with the shared rank-k helper keeps the inner products in
    // one cache-friendly kernel (identical summation order to the explicit
    // triple loop, so the samples are unchanged bit for bit).
    la::Matrix lambda(gcount, pc);
    for (std::size_t a = 0; a < gcount; ++a)
      for (std::size_t k = 0; k < pc; ++k)
        lambda(a, k) = canonical.sensitivity(weights[a].first, k);
    const la::Matrix cov = la::gram_aat(lambda);
    // Keep the components capturing 99.99% of the block-local variance
    // (at least one). Local factor L(a, k) = V(a, k) sqrt(lambda_k).
    const auto eig = la::eigen_symmetric(cov);
    const std::size_t keep = std::max<std::size_t>(
        1, la::leading_component_count(eig.values, 0.9999));
    const la::Matrix local = la::principal_factor(eig, keep);

    const double m = static_cast<double>(blocks[j].blod.device_count());
    const double sr = canonical.residual_sigma();
    // Each factor is evaluated first in its per-sample expression of eq.
    // 22, so hoisting it out of the loop is exact.
    const double residual_scale = sr / std::sqrt(m);
    const double spread_scale = m / (m - 1.0);
    auto& us = u_samples[j];
    auto& vs = v_samples[j];
    us.reserve(options.samples);
    vs.reserve(options.samples);
    std::vector<double> lhs;
    if (options.latin_hypercube)
      lhs = stats::latin_hypercube_normal(options.samples, keep, rng);

    std::vector<double> w(keep * kBatch);
    std::vector<double> t(gcount * kBatch);
    std::vector<double> residual(kBatch);
    for (std::size_t s0 = 0; s0 < options.samples; s0 += kBatch) {
      const std::size_t nb = std::min(kBatch, options.samples - s0);
      for (std::size_t b = 0; b < nb; ++b) {
        for (std::size_t k = 0; k < keep; ++k)
          w[k * nb + b] = options.latin_hypercube ? lhs[(s0 + b) * keep + k]
                                                  : rng.normal();
        residual[b] = rng.normal();
      }
      for (std::size_t a = 0; a < gcount; ++a)
        std::fill_n(t.begin() + a * nb, nb,
                    canonical.nominal(weights[a].first));
      simd::kernels().matmul(local.row(0), w.data(), t.data(), gcount, keep,
                             nb);
      for (std::size_t b = 0; b < nb; ++b) {
        double u = 0.0;
        for (std::size_t a = 0; a < gcount; ++a)
          u += weights[a].second * t[a * nb + b];
        // Residual-mean term of eq. 22 (O(1/sqrt(m_j)), kept for fidelity).
        u += residual_scale * residual[b];
        double spread = 0.0;
        for (std::size_t a = 0; a < gcount; ++a) {
          const double d = t[a * nb + b] - u;
          spread += weights[a].second * d * d;
        }
        us.push_back(u);
        vs.push_back(sr * sr + spread_scale * spread);
      }
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
