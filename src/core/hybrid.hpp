// Hybrid analytical/table look-up method (Section IV-E of the paper).
//
// The double integral of eq. (31) depends on t, alpha_j, and b_j only
// through the pair (ln(t/alpha_j), b_j). For a fixed design, each block's
// integral is precomputed once on an n_alpha x n_b grid over those indices
// (100 x 100 in the paper); any later query — any time stamp, any
// temperature/voltage profile, i.e., any (alpha_j, b_j) — is answered by
// bilinear interpolation. The tables depend only on each block's BLOD
// moments and area, i.e. on the variation stage of the problem (see
// core::variation_key), so problems that differ only in their operating
// point can share one set. This gives the further 2 orders of magnitude
// speedup of Table III and enables embedding "into a dynamic system for
// reliability monitoring that usually requires very fast response".
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "core/analytic.hpp"
#include "numeric/interp.hpp"

namespace obd::core {

struct HybridOptions {
  std::size_t n_gamma = 100;  ///< table indices along ln(t/alpha)
  std::size_t n_b = 100;      ///< table indices along b
  double gamma_lo = -60.0;    ///< ln(t/alpha) lower edge
  double gamma_hi = -2.0;     ///< ln(t/alpha) upper edge
  double b_lo = 0.30;         ///< b lower edge [1/nm]
  double b_hi = 1.00;         ///< b upper edge [1/nm]
  /// Interpolate the tabulated block-failure values in log space (more
  /// accurate; the failure contribution spans many decades across the gamma
  /// range). Set false for the paper-literal bilinear-on-values scheme.
  bool log_space = true;
  /// Quadrature used to fill the tables (same machinery as st_fast).
  AnalyticOptions integration{};
};

/// Precomputed per-design lookup evaluator.
class HybridEvaluator {
 public:
  /// Builds one lookup table per block. Construction cost is
  /// O(N * n_gamma * n_b * l0^2): each entry is an l0^2-node sum, filled
  /// one gamma row per call of the simd::KernelTable::hybrid_row kernel
  /// with its portable exp/expm1 (the same bits at every SIMD level,
  /// within 8 ULP of a libm fill), rows spread over the pool. On EV6
  /// (15 blocks, 100 x 100, 256 nodes) that is about 0.15 s on one
  /// AVX2 thread. Queries are O(N).
  explicit HybridEvaluator(const ReliabilityProblem& problem,
                           const HybridOptions& options = {});

  /// Binds a copy of `same_variation`'s tables to `problem`, which must
  /// share its variation stage (ReliabilityProblem::with_operating_point:
  /// same canonical form, block names and areas). The tables depend only
  /// on the BLOD moments and block areas, so the result is bit-identical
  /// to building them on `problem`, at the cost of a copy.
  HybridEvaluator(const ReliabilityProblem& problem,
                  const HybridEvaluator& same_variation);

  /// Failure probability at t with the problem's own (alpha_j, b_j).
  [[nodiscard]] double failure_probability(double t) const;

  /// Batched F(t) sweep over `ts` — the table-lookup counterpart of the
  /// MonteCarloAnalyzer batched-sweep API, and the entry point the serving
  /// layer coalesces same-fingerprint queries onto. Each point shares the
  /// single-point evaluation kernel, so the batch is bit-identical to
  /// calling failure_probability per point.
  [[nodiscard]] std::vector<double> failure_probabilities(
      std::span<const double> ts) const;

  [[nodiscard]] double reliability(double t) const {
    return 1.0 - failure_probability(t);
  }

  /// Failure probability at t under *different* per-block reliability
  /// parameters (e.g., a new temperature/voltage profile) — the hybrid
  /// method's reason to exist. Vectors align with problem().blocks().
  [[nodiscard]] double failure_probability_with(
      double t, const std::vector<double>& alphas,
      const std::vector<double>& bs) const;

  /// Batched counterpart of failure_probability_with (bit-identical to the
  /// per-point calls, one parameter validation for the whole sweep).
  [[nodiscard]] std::vector<double> failure_probabilities_with(
      std::span<const double> ts, const std::vector<double>& alphas,
      const std::vector<double>& bs) const;

  [[nodiscard]] double lifetime_at(double target) const;

  [[nodiscard]] const ReliabilityProblem& problem() const { return *problem_; }
  [[nodiscard]] const HybridOptions& options() const { return options_; }

  /// Serializes the precomputed tables (text, versioned). Together with
  /// load() this is the Section IV-E deployment story: compute the tables
  /// once at sign-off, ship them to the "dynamic system for reliability
  /// monitoring". Writes format version 2 ("obdrel-hybrid-lut 2"): tables
  /// filled by the hybrid_row kernel.
  void save(std::ostream& out) const;

  /// Restores an evaluator from a stream produced by save(). `problem`
  /// must be the same design (block count and areas are checked). Reads
  /// only version 2: a version-1 stream holds libm-filled tables, whose
  /// last bits differ, and is refused with Error(kInvalidInput) naming
  /// its version, so served replies never mix the two fills.
  static HybridEvaluator load(std::istream& in,
                              const ReliabilityProblem& problem);

  /// Single-block expected failure contribution at table indices
  /// (gamma = ln(t/alpha_j), b_j) — the raw eq. (31) value. Exposed for
  /// consumers that do their own per-block bookkeeping, e.g. the dynamic
  /// reliability manager's effective-age recursion.
  [[nodiscard]] double block_failure(std::size_t j, double gamma,
                                     double b) const {
    return block_failure_lookup(j, gamma, b);
  }

 private:
  /// Internal: build from deserialized state.
  HybridEvaluator(const ReliabilityProblem& problem, HybridOptions options,
                  std::vector<num::LookupTable2D> tables);
  [[nodiscard]] double block_failure_lookup(std::size_t j, double gamma,
                                            double b) const;

  const ReliabilityProblem* problem_;  // non-owning; must outlive this
  HybridOptions options_;
  std::vector<num::LookupTable2D> tables_;  // one per block
};

}  // namespace obd::core
