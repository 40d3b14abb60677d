// st_fast: the paper's fast statistical method (Section IV-D).
//
// The ensemble failure probability is the sum over blocks of a double
// integral of the conditional block failure against the product of the
// analytic marginals f_u (normal, eq. 22) and f_v (scaled chi-square,
// eq. 29-30) — the independence approximation of Section IV-C. The
// integration domain is discretized once at construction into (u, v) nodes;
// each reliability query is then O(N * l0^2) closed-form evaluations,
// matching the paper's complexity analysis.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/lifetime.hpp"
#include "core/problem.hpp"
#include "core/uv_nodes.hpp"

namespace obd::core {

/// Quadrature flavor for the marginal-product integral.
enum class Quadrature {
  /// The paper's scheme (Fig. 9): l0 x l0 equal-width subdomains of a
  /// truncated (u, v) rectangle, integrand sampled at subdomain centers and
  /// weighted by the PDF-product mass of the cell.
  kPaperMidpoint,
  /// Equal-probability-mass cells: nodes at marginal quantiles
  /// ((i + 0.5)/l0), each cell carrying exactly 1/l0^2 mass. Robust to the
  /// chi-square density singularity when the matched dof drops below 2.
  kEqualProbability,
};

struct AnalyticOptions {
  Quadrature quadrature = Quadrature::kEqualProbability;
  /// Use the skewness-matched (three-moment) chi-square for f_v instead of
  /// the paper's two-moment match (footnote 4's "more moments" refinement).
  bool v_three_moment = false;
  /// l0: subdomains (or quantile cells) per axis. The paper uses 10.
  std::size_t cells = 16;
  /// kPaperMidpoint u-domain half-width in sigmas of u_j.
  double u_domain_sigmas = 6.0;
  /// kPaperMidpoint v-domain upper edge quantile.
  double v_upper_quantile = 1.0 - 1.0e-9;
  /// kEqualProbability tail clipping: nodes span [eps, 1-eps] in
  /// probability.
  double tail_epsilon = 1.0e-9;
};

/// One block's st_fast quadrature axes: (value, weight) pairs along u and
/// along v. The block's nodes are their tensor product: node i * v.size()
/// + k is (u[i].first, v[k].first), weighted u[i].second * v[k].second.
struct UvAxes {
  std::vector<std::pair<double, double>> u;
  std::vector<std::pair<double, double>> v;
};

/// Fills `axes`, reusing its storage, with the axes of the block whose
/// moments are `blod`.
void uv_axes(const BlodMoments& blod, const AnalyticOptions& options,
             UvAxes& axes);

/// The fast analytic analyzer.
class AnalyticAnalyzer {
 public:
  explicit AnalyticAnalyzer(const ReliabilityProblem& problem,
                            const AnalyticOptions& options = {});

  /// Chip ensemble failure probability F(t) = 1 - R_c(t) (eq. 28).
  [[nodiscard]] double failure_probability(double t) const;

  /// R_c(t) (eq. 28).
  [[nodiscard]] double reliability(double t) const {
    return 1.0 - failure_probability(t);
  }

  /// t_req with F(t_req) = target (eq. 32).
  [[nodiscard]] double lifetime_at(double target) const;

  /// Failure contribution of block j at time t.
  [[nodiscard]] double block_failure(std::size_t j, double t) const;

  [[nodiscard]] const ReliabilityProblem& problem() const { return *problem_; }
  [[nodiscard]] const std::vector<std::vector<UvNode>>& nodes() const {
    return nodes_;
  }

 private:
  const ReliabilityProblem* problem_;  // non-owning; must outlive this
  std::vector<std::vector<UvNode>> nodes_;
};

/// st_MC: the statistical variant that constructs the joint PDF of
/// (u_j, v_j) numerically from Monte Carlo samples of the principal
/// components (Section V, method 2). More faithful to the joint dependence
/// than st_fast (no independence approximation). A sample draws one normal
/// per kept block-local component (the 99.99% capture keeps most of a
/// block's cells: 712 of EV6's 756 at grid 25) and, in the eigenbasis of
/// the block's quadratic form, costs O(kept components), never O(cells).
struct StMcOptions {
  std::size_t samples = 10000;       ///< per-block Monte Carlo sample count
  std::size_t histogram_bins = 64;   ///< per-axis bins of the joint histogram
  /// Draw each block's normals (its coordinates in the eigenbasis of the
  /// block's quadratic form) by Latin-hypercube stratification instead of
  /// plain iid sampling (lower variance at equal budget).
  bool latin_hypercube = false;
  /// When false, skip the histogram and average the conditional failure
  /// over raw samples directly (exact empirical joint distribution).
  bool use_histogram = true;
  std::uint64_t seed = 2024;
};

class StMcAnalyzer {
 public:
  explicit StMcAnalyzer(const ReliabilityProblem& problem,
                        const StMcOptions& options = {});

  [[nodiscard]] double failure_probability(double t) const;
  [[nodiscard]] double reliability(double t) const {
    return 1.0 - failure_probability(t);
  }
  [[nodiscard]] double lifetime_at(double target) const;

  [[nodiscard]] const ReliabilityProblem& problem() const { return *problem_; }
  [[nodiscard]] const std::vector<std::vector<UvNode>>& nodes() const {
    return nodes_;
  }

 private:
  const ReliabilityProblem* problem_;  // non-owning; must outlive this
  std::vector<std::vector<UvNode>> nodes_;
};

}  // namespace obd::core
