#include "core/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/lifetime.hpp"
#include "numeric/roots.hpp"
#include "simd/kernels.hpp"
#include "stats/sampling.hpp"
#include "stats/special.hpp"

namespace obd::core {
namespace {

// Fixed chunk sizes for the shared pool. Chunk boundaries (not the thread
// count) define the reduction order, so these are part of the numerical
// contract: changing them reorders floating-point sums.
constexpr std::size_t kSampleChunk = 8;    ///< chips per sampling task
constexpr std::size_t kEvalChunk = 64;     ///< chips per evaluation task
constexpr std::size_t kSimulateChunk = 4;  ///< chips per failure-time task

// Chips per cache tile inside one evaluation chunk of a batched sweep:
// each sweep point's factor rows are applied to this many chip histograms
// before moving to the next point, keeping the histograms L2-resident and
// the factor-table traffic per chunk proportional to chunk/kEvalTile
// instead of the chip count. Purely a blocking factor — the per-point
// accumulation order over chips is unchanged, so results do not depend on
// it.
constexpr std::size_t kEvalTile = 16;

// |z| beyond which normal_cdf is exactly 0 or 1 in double (erfc underflows
// near |z| ~ 38.5); bins whose edges lie past this window carry exactly
// zero probability and can be skipped without consuming randomness.
constexpr double kTailZ = 39.0;

// Core half-width of the binned sampler in residual sigmas: bins within
// kCoreZ sigma of the cell mean are drawn individually; the tails outside
// (still inside the representable kTailZ window) are grouped into a single
// binomial each and subdivided only when their count is nonzero. 5 sigma
// keeps the grouped-tail trigger probability per cell at ~n * 3e-7 while
// bounding the per-cell work to ~10 sigma worth of bins.
constexpr double kCoreZ = 5.0;

// Dot product of a count vector against a factor table with four fixed
// accumulator lanes, combined as (a0 + a2) + (a1 + a3). The structure is
// part of the determinism contract: the scalar and batched evaluation
// paths both call exactly this kernel, so their results are bit-identical
// — and the SIMD layer guarantees the same lane mapping at every dispatch
// level (see simd/kernels.hpp), so dispatch changes neither the sums nor
// the validity of the lane-aligned nonzero-range trimming below.
static_assert(simd::kDotLanes == 4,
              "nz_lo alignment in sample_chip assumes 4 accumulator lanes");
double dot_counts(const std::uint32_t* c, const double* e, std::size_t n) {
  return simd::kernels().dot_counts(c, e, n);
}

// Per-thread factor scratch for the scalar chip_exponent path, so Brent
// iterations inside sample_failure_times do not allocate per evaluation.
thread_local std::vector<double> scalar_factor_scratch;

}  // namespace

namespace detail {

void fill_bin_factors(double gb, double x_lo, double step, std::size_t bins,
                      std::vector<double>& out) {
  static_assert(kReanchorInterval == simd::kReanchorInterval,
                "re-anchor contract must match the SIMD kernel layer");
  out.resize(bins);
  simd::kernels().fill_bin_factors(gb, x_lo, step, bins, out.data());
}

}  // namespace detail

MonteCarloAnalyzer::MonteCarloAnalyzer(const ReliabilityProblem& problem,
                                       const MonteCarloOptions& options)
    : MonteCarloAnalyzer(StreamingTag{}, problem, options) {
  require(options.chip_samples >= 10,
          "MonteCarloAnalyzer: need at least 10 sample chips");

  // One independent stream per chip, derived by splitmix64-mixing
  // (seed, chip index) — see Rng::stream. Results are reproducible and
  // independent of the thread count.
  chips_.resize(options.chip_samples);
  par::parallel_for(
      0, options.chip_samples, kSampleChunk,
      [this](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          stats::Rng rng = stats::Rng::stream(options_.seed, s);
          chips_[s] = sample_chip(rng);
        }
      },
      options.threads);

  // Out-of-range accounting is aggregated serially after the parallel
  // sampling so the diagnostic (and any strict-mode throw) fires exactly
  // once, on the calling thread.
  std::uint64_t out_of_range = 0;
  for (const ChipSample& chip : chips_) {
    for (std::size_t j = 0; j < chip.underflow.size(); ++j)
      out_of_range += chip.underflow[j] + chip.overflow[j];
  }
  const double total = static_cast<double>(options.chip_samples) *
                       static_cast<double>(problem.design().total_devices());
  out_of_range_fraction_ =
      (total > 0.0) ? static_cast<double>(out_of_range) / total : 0.0;
  if (out_of_range_fraction_ > 1e-6) {
    std::ostringstream msg;
    msg << "thickness histogram range [" << x_lo_ << ", " << x_hi_
        << "] nm misses a fraction " << out_of_range_fraction_
        << " of device samples (accounted at the range boundary); widen "
           "thickness_range_sigmas";
    diagnostics().warn("mc.binning", msg.str());
  }
}

MonteCarloAnalyzer::MonteCarloAnalyzer(StreamingTag,
                                       const ReliabilityProblem& problem,
                                       const MonteCarloOptions& options)
    : problem_(&problem), options_(options) {
  require(!problem.mechanisms().has_redundancy(), ErrorCode::kInvalidInput,
          "MonteCarloAnalyzer: redundancy spare groups are not supported on "
          "the Monte Carlo path (use the analytic or hybrid evaluators)");
  require(options.thickness_bins >= 16,
          "MonteCarloAnalyzer: need at least 16 thickness bins");
  // Common thickness axis covering nominal spread plus range_sigmas of
  // total variation (wafer patterns can shift the per-grid nominal).
  const var::CanonicalForm& canonical = problem.canonical();
  double nom_lo = canonical.nominal(0);
  double nom_hi = canonical.nominal(0);
  for (std::size_t g = 1; g < canonical.grid_count(); ++g) {
    nom_lo = std::min(nom_lo, canonical.nominal(g));
    nom_hi = std::max(nom_hi, canonical.nominal(g));
  }
  const double half =
      options.thickness_range_sigmas * problem.budget().sigma_total();
  x_lo_ = nom_lo - half;
  x_step_ =
      (nom_hi + half - x_lo_) / static_cast<double>(options.thickness_bins);
  x_hi_ = x_lo_ + x_step_ * static_cast<double>(options.thickness_bins);
}

MonteCarloAnalyzer MonteCarloAnalyzer::streaming(
    const ReliabilityProblem& problem, const MonteCarloOptions& options) {
  return MonteCarloAnalyzer(StreamingTag{}, problem, options);
}

MonteCarloAnalyzer::RangePartial MonteCarloAnalyzer::accumulate_chip_range(
    std::span<const double> ts, std::uint64_t chip_begin,
    std::uint64_t chip_end) const {
  for (const double t : ts)
    require(t > 0.0, "MonteCarloAnalyzer: t must be positive");
  RangePartial out;
  out.chips = (chip_end > chip_begin) ? chip_end - chip_begin : 0;
  out.sum_f.assign(ts.size(), 0.0);
  out.sum_f2.assign(ts.size(), 0.0);
  if (ts.empty() || out.chips == 0) return out;
  const EvalContext ctx = build_eval_context(ts);
  const std::size_t nt = ts.size();
  // Sequential chip-outer / ti-inner accumulation: each chip is sampled
  // from its global-index stream, evaluated at every sweep point, and
  // discarded. No tiling, no threading — the caller owns parallelism at
  // range granularity, which is what keeps fleet results independent of
  // shard and thread counts.
  // With aging mechanisms enabled (and no redundancy — the constructor
  // rejects it here), the deterministic aging survival S(t) separates
  // from the sampled oxide term: per chip F' = 1 - (1 - F_oxide) S(t).
  const mech::MechanismStack& stack = problem_->mechanisms();
  std::vector<double> extra_s;
  if (stack.extra_count() > 0) {
    extra_s.resize(nt);
    for (std::size_t ti = 0; ti < nt; ++ti)
      extra_s[ti] = stack.extra_survival(ts[ti]);
  }
  for (std::uint64_t i = chip_begin; i < chip_end; ++i) {
    stats::Rng rng = stats::Rng::stream(options_.seed, i);
    const ChipSample chip = sample_chip(rng);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      double f = -std::expm1(-chip_exponent_ctx(chip, ctx, ti));
      if (!extra_s.empty()) f = 1.0 - (1.0 - f) * extra_s[ti];
      out.sum_f[ti] += f;
      out.sum_f2[ti] += f * f;
    }
  }
  return out;
}

void MonteCarloAnalyzer::sample_cell_binned(std::size_t count, double mu,
                                            double sr,
                                            std::vector<std::uint32_t>& counts,
                                            std::uint32_t& underflow,
                                            std::uint32_t& overflow,
                                            stats::Rng& rng) const {
  if (count == 0) return;
  const std::size_t bins = options_.thickness_bins;
  const double inv_step = 1.0 / x_step_;
  if (sr <= 0.0) {
    // Degenerate residual: every device sits exactly at mu.
    const double f = (mu - x_lo_) * inv_step;
    if (f < 0.0) {
      underflow += static_cast<std::uint32_t>(count);
    } else if (f >= static_cast<double>(bins)) {
      overflow += static_cast<std::uint32_t>(count);
    } else {
      counts[static_cast<std::size_t>(f)] +=
          static_cast<std::uint32_t>(count);
    }
    return;
  }

  // Window of bins whose Gaussian mass is representable in double; bins
  // outside have exactly-zero probability (both edge cdfs are exactly 0,
  // or exactly 1), so skipping them draws nothing and loses no mass. The
  // window is widened by one bin on each side, which swamps any rounding
  // in the index arithmetic.
  const double nbins = static_cast<double>(bins);
  const double c_lo =
      std::min((mu - kTailZ * sr - x_lo_) * inv_step, nbins);
  const double c_hi =
      std::min((mu + kTailZ * sr - x_lo_) * inv_step, nbins);
  const std::size_t ka =
      (c_lo <= 1.0) ? 0 : static_cast<std::size_t>(c_lo - 1.0);
  const std::size_t kb =
      (c_hi <= 0.0) ? 0
                    : std::min(bins, static_cast<std::size_t>(c_hi + 2.0));

  // Conditional-binomial multinomial sampling in fixed category order:
  // underflow, bins ascending, overflow as the remainder. Each category
  // draws Binomial(remaining, p_cat / p_remaining); the chain is exactly
  // the multinomial over all categories.
  std::uint64_t remaining = count;
  double prem = 1.0;
  const double inv_sr = 1.0 / sr;
  const auto edge_z = [&](std::size_t k) {
    return (x_lo_ + static_cast<double>(k) * x_step_ - mu) * inv_sr;
  };
  const auto take = [&](double pcat) -> std::uint64_t {
    if (remaining == 0 || pcat <= 0.0) return 0;
    std::uint64_t n;
    if (pcat >= prem) {
      n = remaining;  // conditional probability 1: no randomness to spend
    } else {
      n = stats::binomial_sample(remaining, pcat / prem, rng);
    }
    remaining -= n;
    prem -= pcat;
    return n;
  };

  // Distributes a grouped tail's total among its bins by the same
  // conditional-binomial chain, restricted to the group (multinomial
  // grouping: drawing the group total first and splitting it conditionally
  // is distribution-identical to drawing every bin in the flat chain).
  // Only runs in the rare event a tail group receives a nonzero count, so
  // its per-bin cdf evaluations do not affect the typical-case cost.
  const auto split_group = [&](std::size_t k_begin, std::size_t k_end,
                               std::uint64_t n_group, double cdf_begin,
                               double cdf_end) {
    std::uint64_t rem = n_group;
    double prem_local = cdf_end - cdf_begin;
    double local_prev = cdf_begin;
    for (std::size_t k = k_begin; k < k_end && rem > 0; ++k) {
      const double cdf_next = stats::normal_cdf(edge_z(k + 1));
      const double pcat = cdf_next - local_prev;
      local_prev = cdf_next;
      if (pcat <= 0.0) continue;
      std::uint64_t nk;
      if (pcat >= prem_local) {
        nk = rem;
      } else {
        nk = stats::binomial_sample(rem, pcat / prem_local, rng);
      }
      rem -= nk;
      prem_local -= pcat;
      counts[k] += static_cast<std::uint32_t>(nk);
    }
    // Roundoff residue (possible only when prem_local underflows before
    // the mass is spent): accounted in the group's last bin.
    if (rem > 0) counts[k_end - 1] += static_cast<std::uint32_t>(rem);
  };

  // Core window: bins within kCoreZ sigma of mu. The representable window
  // [ka, kb) spans hundreds of near-empty bins when sr covers many bins;
  // the prefix and suffix tails outside the core are drawn as one grouped
  // binomial each (exact, see split_group) so the per-cell cost is O(core
  // bins) rather than O(window bins). Index margins as for ka/kb.
  std::size_t k_core_lo = ka;
  std::size_t k_core_hi = kb;
  {
    const double w_lo =
        std::min((mu - kCoreZ * sr - x_lo_) * inv_step, nbins);
    const double w_hi =
        std::min((mu + kCoreZ * sr - x_lo_) * inv_step, nbins);
    if (w_lo > static_cast<double>(ka) + 1.0)
      k_core_lo = std::min(kb, static_cast<std::size_t>(w_lo - 1.0));
    if (w_hi >= 0.0) {
      const std::size_t cap =
          std::min(kb, static_cast<std::size_t>(w_hi + 2.0));
      k_core_hi = std::max(k_core_lo, cap);
    }
  }

  // Underflow mass below edge 0 — exactly 0 whenever any leading bin was
  // skipped (the skipped bins' edges already sit in the exact-zero tail).
  double cdf_prev =
      (ka == 0) ? stats::normal_cdf(edge_z(0)) : 0.0;
  underflow += static_cast<std::uint32_t>(take(cdf_prev));
  // Prefix tail [ka, k_core_lo) as one group.
  if (k_core_lo > ka && remaining > 0) {
    const double cdf_core = stats::normal_cdf(edge_z(k_core_lo));
    const std::uint64_t n_pre = take(cdf_core - cdf_prev);
    if (n_pre > 0) split_group(ka, k_core_lo, n_pre, cdf_prev, cdf_core);
    cdf_prev = cdf_core;
  }
  // Core bins, one conditional binomial each. The edge CDFs are computed
  // in small batches through the SIMD layer: at every dispatch level each
  // batch element is bit-identical to the lazy per-edge normal_cdf call
  // this replaces, and the RNG consumption order is unchanged, so the
  // results match the pre-batch sampler exactly. The tile bounds the
  // wasted lookahead when `remaining` is exhausted before the core ends
  // (cells often hold only a handful of devices).
  constexpr std::size_t kCdfTile = 8;
  double z_tile[kCdfTile];
  double cdf_tile[kCdfTile];
  std::size_t k = k_core_lo;
  while (k < k_core_hi && remaining > 0) {
    const std::size_t tile = std::min(kCdfTile, k_core_hi - k);
    for (std::size_t j = 0; j < tile; ++j) z_tile[j] = edge_z(k + 1 + j);
    stats::normal_cdf_batch(z_tile, tile, cdf_tile);
    for (std::size_t j = 0; j < tile && remaining > 0; ++j) {
      const double cdf_next = cdf_tile[j];
      counts[k + j] += static_cast<std::uint32_t>(take(cdf_next - cdf_prev));
      cdf_prev = cdf_next;
    }
    k += tile;
  }
  // Suffix tail [k_core_hi, kb) as one group.
  if (k_core_hi < kb && remaining > 0) {
    const double cdf_end = stats::normal_cdf(edge_z(kb));
    const std::uint64_t n_suf = take(cdf_end - cdf_prev);
    if (n_suf > 0) split_group(k_core_hi, kb, n_suf, cdf_prev, cdf_end);
  }
  // Remainder: mass at or above x_hi (bins beyond the window hold exactly
  // zero probability, so nothing is misattributed).
  overflow += static_cast<std::uint32_t>(remaining);
}

MonteCarloAnalyzer::ChipSample MonteCarloAnalyzer::sample_chip(
    stats::Rng& rng) const {
  const var::CanonicalForm& canonical = problem_->canonical();
  const auto& blocks = problem_->blocks();
  const auto& layout = problem_->layout();

  const la::Vector z = canonical.sample_z(rng);
  la::Vector t_grid = canonical.sensitivities().multiply(z);
  for (std::size_t g = 0; g < t_grid.size(); ++g)
    t_grid[g] += canonical.nominal(g);

  const double sr = canonical.residual_sigma();
  const std::size_t bins = options_.thickness_bins;
  const double inv_step = 1.0 / x_step_;

  ChipSample chip;
  chip.block_bins.resize(blocks.size());
  chip.underflow.assign(blocks.size(), 0);
  chip.overflow.assign(blocks.size(), 0);
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    auto& counts = chip.block_bins[j];
    counts.assign(bins, 0);
    const std::size_t m = problem_->design().blocks[j].device_count;
    const auto& weights = layout.weights[j];

    // Apportion the block's devices to its grid cells; the rounding
    // remainder lands on the final cell so totals are exact.
    std::size_t placed = 0;
    for (std::size_t e = 0; e < weights.size(); ++e) {
      const auto& [g, w] = weights[e];
      std::size_t count;
      if (e + 1 == weights.size()) {
        count = m - placed;
      } else {
        count = static_cast<std::size_t>(
            std::llround(w * static_cast<double>(m)));
        count = std::min(count, m - placed);
      }
      placed += count;
      const double mu = t_grid[g];
      if (options_.sampling == DeviceSampling::kBinned) {
        sample_cell_binned(count, mu, sr, counts, chip.underflow[j],
                           chip.overflow[j], rng);
        continue;
      }
      for (std::size_t i = 0; i < count; ++i) {
        const double x = mu + sr * rng.normal();
        const double f = (x - x_lo_) * inv_step;
        // Out-of-range samples are counted separately and later evaluated
        // at the true clamp boundary — folding them into the edge bins
        // would bias their contribution toward the bin centers.
        if (f < 0.0) {
          ++chip.underflow[j];
        } else if (f >= static_cast<double>(bins)) {
          ++chip.overflow[j];
        } else {
          ++counts[static_cast<std::size_t>(f)];
        }
      }
    }
  }

  // Nonzero bin range per block, with the lower edge aligned down to the
  // dot_counts lane width. The evaluation kernels dot only this range:
  // every skipped bin has count zero and would contribute exactly +0.0 to
  // its accumulator lane, so the trimmed dot is bit-identical to the full
  // one while skipping the (often long) empty tails.
  chip.nz_lo.assign(blocks.size(), 0);
  chip.nz_hi.assign(blocks.size(), 0);
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    const auto& counts = chip.block_bins[j];
    std::size_t lo = 0;
    while (lo < counts.size() && counts[lo] == 0) ++lo;
    std::size_t hi = counts.size();
    while (hi > lo && counts[hi - 1] == 0) --hi;
    chip.nz_lo[j] = static_cast<std::uint32_t>(lo & ~std::size_t{3});
    chip.nz_hi[j] = static_cast<std::uint32_t>(hi);
  }
  return chip;
}

MonteCarloAnalyzer::EvalContext MonteCarloAnalyzer::build_eval_context(
    std::span<const double> ts) const {
  const auto& blocks = problem_->blocks();
  EvalContext ctx;
  ctx.nt = ts.size();
  ctx.nblocks = blocks.size();
  ctx.bins = options_.thickness_bins;
  ctx.factors.resize(ctx.nt * ctx.nblocks * ctx.bins);
  ctx.lo.resize(ctx.nt * ctx.nblocks);
  ctx.hi.resize(ctx.nt * ctx.nblocks);
  ctx.area.resize(ctx.nblocks);
  for (std::size_t j = 0; j < ctx.nblocks; ++j)
    ctx.area[j] =
        blocks[j].area /
        static_cast<double>(problem_->design().blocks[j].device_count);

  std::vector<double> column;
  for (std::size_t ti = 0; ti < ctx.nt; ++ti) {
    for (std::size_t j = 0; j < ctx.nblocks; ++j) {
      const double gb = std::log(ts[ti] / blocks[j].alpha) * blocks[j].b;
      detail::fill_bin_factors(gb, x_lo_, x_step_, ctx.bins, column);
      std::copy(column.begin(), column.end(),
                ctx.factors.begin() +
                    static_cast<std::ptrdiff_t>((ti * ctx.nblocks + j) *
                                                ctx.bins));
      ctx.lo[ti * ctx.nblocks + j] = std::exp(gb * x_lo_);
      ctx.hi[ti * ctx.nblocks + j] = std::exp(gb * x_hi_);
    }
  }
  return ctx;
}

double MonteCarloAnalyzer::block_sum(const ChipSample& chip, std::size_t j,
                                     const double* factors, double factor_lo,
                                     double factor_hi) {
  const std::size_t lo = chip.nz_lo[j];
  const std::size_t hi = chip.nz_hi[j];
  double s =
      dot_counts(chip.block_bins[j].data() + lo, factors + lo, hi - lo);
  // Out-of-range populations contribute at the axis boundaries (their
  // clamp values), not at the edge-bin centers.
  if (chip.underflow[j] != 0)
    s += static_cast<double>(chip.underflow[j]) * factor_lo;
  if (chip.overflow[j] != 0)
    s += static_cast<double>(chip.overflow[j]) * factor_hi;
  return s;
}

double MonteCarloAnalyzer::chip_exponent_ctx(const ChipSample& chip,
                                             const EvalContext& ctx,
                                             std::size_t ti) const {
  double h = 0.0;
  for (std::size_t j = 0; j < ctx.nblocks; ++j) {
    const std::size_t row = ti * ctx.nblocks + j;
    h += ctx.area[j] * block_sum(chip, j, ctx.factors.data() + row * ctx.bins,
                                 ctx.lo[row], ctx.hi[row]);
  }
  return h;
}

double MonteCarloAnalyzer::chip_exponent(const ChipSample& chip,
                                         double t) const {
  // Scalar one-point evaluation with the same per-row values as
  // build_eval_context, so it is bit-identical to the batched path. The
  // table lives in a per-thread scratch: Brent iterations in
  // sample_failure_times evaluate this in a tight loop and must not
  // allocate.
  const auto& blocks = problem_->blocks();
  std::vector<double>& factors = scalar_factor_scratch;
  double h = 0.0;
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    const double gb = std::log(t / blocks[j].alpha) * blocks[j].b;
    detail::fill_bin_factors(gb, x_lo_, x_step_, options_.thickness_bins,
                             factors);
    const double per_device_area =
        blocks[j].area /
        static_cast<double>(problem_->design().blocks[j].device_count);
    h += per_device_area * block_sum(chip, j, factors.data(),
                                     std::exp(gb * x_lo_),
                                     std::exp(gb * x_hi_));
  }
  return h;
}

void MonteCarloAnalyzer::require_stored_query(
    std::span<const double> ts) const {
  require(!chips_.empty(), ErrorCode::kInvalidInput,
          "MonteCarloAnalyzer: stored-sample query on a streaming analyzer");
  for (const double t : ts)
    require(t > 0.0, "MonteCarloAnalyzer: t must be positive");
}

template <typename Term>
std::vector<double> MonteCarloAnalyzer::reduce_chips(const EvalContext& ctx,
                                                     std::size_t slots,
                                                     Term term) const {
  return par::parallel_reduce(
      0, chips_.size(), kEvalChunk, std::vector<double>(slots, 0.0),
      [&](std::size_t begin, std::size_t end) {
        std::vector<double> acc(slots, 0.0);
        // Chips are tiled so one sweep point's factor rows are reused
        // across a cache-resident group of chip histograms instead of
        // streaming the whole factor table once per chip. Each slot still
        // accumulates chips in ascending order, so the sums are
        // bit-identical to the untiled chip-outer loop.
        for (std::size_t tile = begin; tile < end; tile += kEvalTile) {
          const std::size_t tile_end = std::min(end, tile + kEvalTile);
          for (std::size_t ti = 0; ti < ctx.nt; ++ti)
            for (std::size_t i = tile; i < tile_end; ++i)
              term(acc, ti, chip_exponent_ctx(chips_[i], ctx, ti));
        }
        return acc;
      },
      [](std::vector<double> a, const std::vector<double>& b) {
        for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
        return a;
      },
      options_.threads);
}

std::vector<double> MonteCarloAnalyzer::failure_probabilities(
    std::span<const double> ts) const {
  require_stored_query(ts);
  if (ts.empty()) return {};
  const EvalContext ctx = build_eval_context(ts);
  std::vector<double> sums = reduce_chips(
      ctx, ts.size(), [](std::vector<double>& acc, std::size_t ti, double h) {
        acc[ti] += -std::expm1(-h);
      });
  for (double& s : sums) s /= static_cast<double>(chips_.size());
  // Aging mechanisms are deterministic at the blocks' default operating
  // points, so they fold in after the oxide ensemble mean:
  // E[1 - (1 - F_ox) S(t)] = 1 - (1 - E[F_ox]) S(t).
  const mech::MechanismStack& stack = problem_->mechanisms();
  if (stack.extra_count() > 0) {
    for (std::size_t ti = 0; ti < ts.size(); ++ti) {
      sums[ti] = std::clamp(
          1.0 - (1.0 - sums[ti]) * stack.extra_survival(ts[ti]), 0.0, 1.0);
    }
  }
  return sums;
}

double MonteCarloAnalyzer::failure_probability(double t) const {
  return failure_probabilities(std::span<const double>(&t, 1)).front();
}

std::vector<double> MonteCarloAnalyzer::failure_std_errors(
    std::span<const double> ts) const {
  require_stored_query(ts);
  if (ts.empty()) return {};
  const EvalContext ctx = build_eval_context(ts);
  const std::size_t nt = ts.size();
  // Slot layout: [0, nt) holds sums, [nt, 2 nt) sums of squares.
  const std::vector<double> m = reduce_chips(
      ctx, 2 * nt, [nt](std::vector<double>& acc, std::size_t ti, double h) {
        const double f = -std::expm1(-h);
        acc[ti] += f;
        acc[nt + ti] += f * f;
      });
  const double n = static_cast<double>(chips_.size());
  std::vector<double> out(nt);
  for (std::size_t ti = 0; ti < nt; ++ti) {
    const double var = std::max(
        0.0, (m[nt + ti] - m[ti] * m[ti] / n) / (n - 1.0));
    out[ti] = std::sqrt(var / n);
  }
  // The per-chip transform f' = 1 - (1 - f) S(t) is affine in f, so the
  // standard error scales by the deterministic aging survival S(t).
  const mech::MechanismStack& stack = problem_->mechanisms();
  if (stack.extra_count() > 0) {
    for (std::size_t ti = 0; ti < nt; ++ti)
      out[ti] *= stack.extra_survival(ts[ti]);
  }
  return out;
}

double MonteCarloAnalyzer::failure_std_error(double t) const {
  return failure_std_errors(std::span<const double>(&t, 1)).front();
}

double MonteCarloAnalyzer::lifetime_at(double target) const {
  return lifetime_at_failure(
      [this](double t) { return failure_probability(t); }, target);
}

std::vector<double> MonteCarloAnalyzer::kth_failure_probabilities(
    std::span<const double> ts, std::size_t k) const {
  require_stored_query(ts);
  require(k >= 1, "MonteCarloAnalyzer: k must be >= 1");
  if (k == 1) return failure_probabilities(ts);
  require(problem_->mechanisms().trivial(), ErrorCode::kInvalidInput,
          "MonteCarloAnalyzer: k-th breakdown order statistics count oxide "
          "breakdown events only; disable aging mechanisms for k > 1");
  if (ts.empty()) return {};
  const EvalContext ctx = build_eval_context(ts);
  std::vector<double> sums = reduce_chips(
      ctx, ts.size(), [k](std::vector<double>& acc, std::size_t ti, double h) {
        // Conditional on the thicknesses, breakdowns are a Poisson process
        // with mean h; P(N >= k) = P(k, h).
        acc[ti] += (h > 0.0) ? stats::gamma_p(static_cast<double>(k), h) : 0.0;
      });
  for (double& s : sums) s /= static_cast<double>(chips_.size());
  return sums;
}

double MonteCarloAnalyzer::kth_failure_probability(double t,
                                                   std::size_t k) const {
  return kth_failure_probabilities(std::span<const double>(&t, 1), k)
      .front();
}

double MonteCarloAnalyzer::kth_lifetime_at(double target,
                                           std::size_t k) const {
  return lifetime_at_failure(
      [this, k](double t) { return kth_failure_probability(t, k); }, target);
}

std::vector<double> MonteCarloAnalyzer::sample_failure_times(
    std::size_t count, stats::Rng& rng) const {
  // One draw from the caller's generator seeds the family of per-chip
  // streams, so the simulation is reproducible and thread-count invariant
  // while still depending on the caller's generator state.
  const std::uint64_t base = rng();
  const mech::MechanismStack& stack = problem_->mechanisms();
  std::vector<double> times(count);
  par::parallel_for(
      0, count, kSimulateChunk,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          stats::Rng chip_rng = stats::Rng::stream(base, i);
          const ChipSample chip = sample_chip(chip_rng);
          const double e = chip_rng.exponential();
          // Failure time: H(t) = e, inverted in log-time. H is monotone
          // increasing in t, spanning many decades — Brent with automatic
          // bracket expansion from a broad seed interval.
          const double s = num::brent_auto_bracket(
              [&](double log_t) {
                return chip_exponent(chip, std::exp(log_t)) - e;
              },
              std::log(1e6), std::log(1e12), 1e-9);
          double t_chip = std::exp(s);
          // Competing risks: draw each aging mechanism's per-block TTF by
          // inverse-CDF sampling and keep the earliest failure. The draws
          // happen after every oxide use of the chip stream, so the
          // default (no extras) consumes exactly the seed RNG sequence.
          for (const auto& mech : stack.extras()) {
            for (std::size_t j = 0; j < stack.block_count(); ++j) {
              const double t_m = mech->block_time_at(
                  j, chip_rng.uniform_positive(),
                  stack.default_conditions(j));
              if (t_m > 0.0) t_chip = std::min(t_chip, t_m);
            }
          }
          times[i] = t_chip;
        }
      },
      options_.threads);
  return times;
}

MonteCarloAnalyzer::PooledHistogram
MonteCarloAnalyzer::pooled_thickness_histogram(std::size_t block) const {
  require(block < problem_->blocks().size(),
          "MonteCarloAnalyzer: block index out of range");
  PooledHistogram h;
  h.counts.assign(options_.thickness_bins, 0);
  h.x_lo = x_lo_;
  h.x_step = x_step_;
  for (const ChipSample& chip : chips_) {
    const auto& counts = chip.block_bins[block];
    for (std::size_t k = 0; k < counts.size(); ++k) h.counts[k] += counts[k];
    h.underflow += chip.underflow[block];
    h.overflow += chip.overflow[block];
  }
  return h;
}

}  // namespace obd::core
