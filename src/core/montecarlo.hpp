// Full-chip Monte Carlo reference analysis.
//
// The validation baseline of Section V: per-device thickness sampling over
// sample chips, with the chip-conditional reliability evaluated exactly
// (eq. 11). For each sample chip we draw the principal components z, then
// every device's thickness lambda_{g,0} + lambda_g . z + lambda_r eps, and
// accumulate the per-block thickness population into a fine fixed-range
// histogram — a lossless-in-practice compression that lets R_c(t | x) be
// evaluated at any t without re-walking devices. The ensemble failure is
// the sample average of conditional failures. Complexity scales with the
// number of devices, which is precisely why Table III shows MC losing by
// orders of magnitude.
//
// Two algorithmic fast paths keep the reference usable at Table I scale:
//
// - DeviceSampling::kBinned replaces the O(devices) per-device normal draws
//   with O(bins) conditional-binomial draws of the histogram counts
//   themselves — the counts of a cell's devices across bins are exactly
//   multinomial with the Gaussian bin probabilities, so the binned sampler
//   draws from the same distribution (equivalence is pinned by chi-square
//   tests). The per-device path stays the default and the reference.
// - F(t) evaluation hoists the chip-invariant per-(t, block) exponential
//   factor tables out of the per-chip loop (EvalContext), and every
//   stored-chip query (F(t), its standard error, the k-th breakdown
//   probability) is one batched reduction that reuses one context across
//   all sweep points in a single cache-friendly pass over the chips.
//
// All population-sized loops (chip sampling at construction, the
// stored-chip reduction, failure-time simulation) run on the shared
// deterministic pool (common/parallel.hpp): fixed chunk boundaries and
// ordered reduction make every result bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.hpp"
#include "stats/rng.hpp"

namespace obd::core {

/// How MonteCarloAnalyzer turns a sample chip's grid thicknesses into
/// per-block histogram populations.
enum class DeviceSampling {
  /// One normal draw per device — the exact reference, O(devices) per chip.
  kPerDevice,
  /// Draw the bin counts directly: per grid cell, the device counts across
  /// histogram bins follow the multinomial induced by the Gaussian bin
  /// probabilities, sampled in O(bins) via conditional binomials. Same
  /// distribution as kPerDevice (not the same draws), orders of magnitude
  /// faster at Table I device counts.
  kBinned,
};

struct MonteCarloOptions {
  std::size_t chip_samples = 1000;    ///< sample chips (paper: 1000)
  std::size_t thickness_bins = 512;   ///< per-block histogram resolution
  double thickness_range_sigmas = 7.0;///< histogram half-width in sigma_tot
  std::uint64_t seed = 99;
  /// Worker-thread cap for this analyzer's loops: 0 (default) uses the
  /// shared pool at its configured width (--threads / OBDREL_THREADS /
  /// hardware_concurrency), 1 forces serial inline execution, N caps the
  /// pool at N threads for this analyzer. Each chip draws from its own
  /// seed-derived stream and reductions run over fixed chunk boundaries,
  /// so results are bit-identical for every setting.
  std::size_t threads = 0;
  /// Device-population sampler (see DeviceSampling). The binned fast path
  /// is opt-in; the default remains the exact per-device reference.
  DeviceSampling sampling = DeviceSampling::kPerDevice;
};

namespace detail {

/// Bins between exact re-anchors of the incremental exponential recurrence
/// below. Part of the numerical contract: changing it changes low-order
/// bits of every evaluated exponent.
inline constexpr std::size_t kReanchorInterval = 64;

/// Fills out[k] = exp(gb * (x_lo + (k + 0.5) * step)) for k in [0, bins).
/// Evaluated incrementally (p *= exp(gb * step)) with the running product
/// re-anchored by an exact exp every kReanchorInterval bins, bounding the
/// accumulated rounding drift of the pure recurrence (which grows linearly
/// in the bin count) to the drift across one interval.
void fill_bin_factors(double gb, double x_lo, double step, std::size_t bins,
                      std::vector<double>& out);

}  // namespace detail

class MonteCarloAnalyzer {
 public:
  /// Samples all chips up front (the expensive part; timed separately from
  /// queries by the benchmark harness).
  MonteCarloAnalyzer(const ReliabilityProblem& problem,
                     const MonteCarloOptions& options = {});

  /// Streaming factory for fleet-scale sweeps (src/fleet): builds the
  /// thickness axis but samples and stores no chips, so population size is
  /// unbounded by memory. Only accumulate_chip_range() (plus the fresh-draw
  /// sample_failure_times()) may be used on a streaming analyzer; the
  /// stored-sample queries throw kInvalidInput. options.chip_samples is
  /// ignored — the caller names chips by global index instead.
  [[nodiscard]] static MonteCarloAnalyzer streaming(
      const ReliabilityProblem& problem, const MonteCarloOptions& options = {});

  /// Partial sums of conditional failures over a contiguous range of global
  /// chip indices, for external (sharded / multi-process) reduction.
  struct RangePartial {
    std::uint64_t chips = 0;
    std::vector<double> sum_f;   ///< per sweep point, sum of F_chip
    std::vector<double> sum_f2;  ///< per sweep point, sum of F_chip^2
  };

  /// Evaluates chips [chip_begin, chip_end), each drawn from its own
  /// deterministic stream Rng::stream(seed, global_index) and discarded
  /// after evaluation. Strictly sequential in ascending chip order with
  /// ti-inner accumulation, so the result depends only on (problem,
  /// options, ts, range) — never on thread count, shard count, or how the
  /// caller partitions the population into ranges. This is the numerical
  /// contract the fleet layer's bit-identical recovery rests on.
  [[nodiscard]] RangePartial accumulate_chip_range(std::span<const double> ts,
                                                   std::uint64_t chip_begin,
                                                   std::uint64_t chip_end) const;

  /// Ensemble failure probability: mean over sample chips of the exact
  /// conditional chip failure 1 - R_c(t | x).
  [[nodiscard]] double failure_probability(double t) const;

  /// Batched F(t) sweep: failure_probability at every point of `ts` in one
  /// pass over the sample chips, with the chip-invariant per-(t, block)
  /// exponential tables built once. Bit-identical to calling
  /// failure_probability per point (both share the same evaluation kernel
  /// and chunk boundaries); the batched form is several times faster for
  /// multi-point sweeps because each chip's bin counts are streamed through
  /// the cache once per chunk instead of once per point.
  [[nodiscard]] std::vector<double> failure_probabilities(
      std::span<const double> ts) const;

  /// Standard error of failure_probability(t): sample standard deviation
  /// of the conditional failures over sqrt(chips). Lets benchmark tables
  /// report MC error bars instead of bare point estimates.
  [[nodiscard]] double failure_std_error(double t) const;

  /// Batched standard errors over a sweep (see failure_probabilities).
  [[nodiscard]] std::vector<double> failure_std_errors(
      std::span<const double> ts) const;

  [[nodiscard]] double reliability(double t) const {
    return 1.0 - failure_probability(t);
  }

  [[nodiscard]] double lifetime_at(double target) const;

  /// Ensemble probability that at least k breakdowns have occurred
  /// anywhere on the chip by time t: mean over sample chips of
  /// P(k, H_chip(t | x)) — the successive-breakdown extension (refs
  /// [28][30]; see core/multi_breakdown.hpp). k = 1 is
  /// failure_probability().
  [[nodiscard]] double kth_failure_probability(double t, std::size_t k) const;

  /// Batched k-th breakdown probabilities over a sweep.
  [[nodiscard]] std::vector<double> kth_failure_probabilities(
      std::span<const double> ts, std::size_t k) const;

  /// Lifetime at the target quantile of the k-th breakdown: the earned
  /// margin of designs that tolerate k-1 breakdowns.
  [[nodiscard]] double kth_lifetime_at(double target, std::size_t k) const;

  /// Simulates the failure time of `count` fresh sample chips (the Fig. 10
  /// "chip lifetime distribution" curve): per chip, draw all device
  /// thicknesses, then invert the conditional survivor function at an
  /// Exp(1) variate. Returned times are unsorted. The passed generator is
  /// advanced by one draw to derive the per-chip streams, so results are
  /// reproducible and independent of the thread count.
  [[nodiscard]] std::vector<double> sample_failure_times(std::size_t count,
                                                         stats::Rng& rng) const;

  [[nodiscard]] std::size_t chip_samples() const { return options_.chip_samples; }
  [[nodiscard]] const ReliabilityProblem& problem() const { return *problem_; }

  /// Fraction of drawn device thicknesses that fell outside the histogram
  /// range and were accounted at the range boundary instead of inside a
  /// bin. Construction emits an "mc.binning" diagnostic when this exceeds
  /// 1e-6 (widen thickness_range_sigmas if so).
  [[nodiscard]] double out_of_range_fraction() const {
    return out_of_range_fraction_;
  }

  /// One block's thickness population pooled across all sample chips: bin
  /// counts over the common axis plus under/overflow totals. Diagnostic
  /// view used by the sampling-equivalence tests (chi-square between the
  /// per-device and binned samplers runs on these pooled counts).
  struct PooledHistogram {
    std::vector<std::uint64_t> counts;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    double x_lo = 0.0;
    double x_step = 0.0;
  };
  [[nodiscard]] PooledHistogram pooled_thickness_histogram(
      std::size_t block) const;

 private:
  struct StreamingTag {};
  /// Axis-only construction backing streaming() and the sampling
  /// constructor: validates the options and builds the thickness axis;
  /// samples no chips.
  MonteCarloAnalyzer(StreamingTag, const ReliabilityProblem& problem,
                     const MonteCarloOptions& options);

  /// Per-chip compressed thickness population: per block, bin counts over
  /// the common thickness axis plus explicit under/overflow counts for
  /// samples beyond the axis, evaluated at the true range boundary rather
  /// than folded into the edge bins (which would bias the edge-bin mass
  /// toward the bin center).
  struct ChipSample {
    std::vector<std::vector<std::uint32_t>> block_bins;
    std::vector<std::uint32_t> underflow;  ///< per block, x < x_lo
    std::vector<std::uint32_t> overflow;   ///< per block, x >= x_hi
    /// Per block, the [nz_lo, nz_hi) bin range holding every nonzero
    /// count, nz_lo aligned down to the dot-kernel lane width. Evaluation
    /// dots only this range; the skipped zero bins would contribute
    /// exactly +0.0 per accumulator lane, so trimming is bit-neutral.
    std::vector<std::uint32_t> nz_lo;
    std::vector<std::uint32_t> nz_hi;
  };

  /// Chip-invariant evaluation tables for a batch of sweep points: per
  /// (t, block), the per-bin exponential factors plus the boundary factors
  /// for the under/overflow populations. Built once per sweep; chips then
  /// reduce to count-vector dot products against these tables.
  struct EvalContext {
    std::size_t nt = 0;
    std::size_t nblocks = 0;
    std::size_t bins = 0;
    std::vector<double> factors;  ///< [t][block][bin]
    std::vector<double> lo;       ///< [t][block] factor at x_lo
    std::vector<double> hi;       ///< [t][block] factor at x_hi
    std::vector<double> area;     ///< [block] per-device OBD area
  };

  [[nodiscard]] ChipSample sample_chip(stats::Rng& rng) const;

  /// Binned fast path for one grid cell: draws the multinomial bin counts
  /// of `count` devices at N(mu, sr^2) directly via conditional binomials.
  void sample_cell_binned(std::size_t count, double mu, double sr,
                          std::vector<std::uint32_t>& counts,
                          std::uint32_t& underflow, std::uint32_t& overflow,
                          stats::Rng& rng) const;

  [[nodiscard]] EvalContext build_eval_context(
      std::span<const double> ts) const;

  /// Stored-sample query preamble: rejects streaming analyzers and
  /// non-positive sweep points.
  void require_stored_query(std::span<const double> ts) const;

  /// The one reduction over the stored chips against a prebuilt context:
  /// `slots` partial sums, each chunk of kEvalChunk chips tiled by
  /// kEvalTile, calling term(acc, ti, h) for every (chip, ti) with the
  /// chip exponent h at sweep point ti. Each slot accumulates chips in
  /// ascending order and chunk partials fold in ascending chunk order, so
  /// the sums are bit-identical for any thread count.
  template <typename Term>
  [[nodiscard]] std::vector<double> reduce_chips(const EvalContext& ctx,
                                                 std::size_t slots,
                                                 Term term) const;

  /// One block's term of the chip exponent before the area weight: the
  /// count vector dotted against the block's factor row over its nonzero
  /// range, plus the under/overflow populations at the boundary factors.
  [[nodiscard]] static double block_sum(const ChipSample& chip,
                                        std::size_t j, const double* factors,
                                        double factor_lo, double factor_hi);

  /// Sum over blocks of A-weighted Weibull exponents for one chip:
  /// H(t) = sum_j a_j sum_bins count * exp(gamma_j b_j x_bin), with the
  /// under/overflow populations contributing at the axis boundaries.
  /// Shares block_sum with the batched path, so the scalar and batched
  /// evaluations are bit-identical.
  [[nodiscard]] double chip_exponent(const ChipSample& chip, double t) const;

  /// Batched-kernel evaluation of one chip at sweep point `ti` of `ctx`.
  [[nodiscard]] double chip_exponent_ctx(const ChipSample& chip,
                                         const EvalContext& ctx,
                                         std::size_t ti) const;

  const ReliabilityProblem* problem_;  // non-owning; must outlive this
  MonteCarloOptions options_;
  double x_lo_ = 0.0;   ///< histogram lower edge [nm]
  double x_step_ = 0.0; ///< bin width [nm]
  double x_hi_ = 0.0;   ///< histogram upper edge [nm]
  double out_of_range_fraction_ = 0.0;
  std::vector<ChipSample> chips_;
};

}  // namespace obd::core
