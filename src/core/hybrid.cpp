#include "core/hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/parallel.hpp"
#include "simd/kernels.hpp"

namespace obd::core {
namespace {

// Floor for log-space storage; exp(kLogFloor) underflows to a clean zero.
constexpr double kLogFloor = -745.0;

// .lut stream format version. Version 1 tables were filled with the
// host's libm exp/expm1; version 2 with hybrid_row's portable ones. The
// two differ in the last bits, so a version-1 file is never read.
constexpr int kLutVersion = 2;

// Gamma rows per pool task during construction. Each entry is an
// independent node sum, so any chunking yields identical tables.
constexpr std::size_t kFillRows = 4;

}  // namespace

HybridEvaluator::HybridEvaluator(const ReliabilityProblem& problem,
                                 const HybridOptions& options)
    : problem_(&problem), options_(options) {
  require(options.n_gamma >= 2 && options.n_b >= 2,
          "HybridEvaluator: table needs at least 2x2 indices");
  require(options.gamma_hi > options.gamma_lo,
          "HybridEvaluator: invalid gamma range");
  require(options.b_lo > 0.0 && options.b_hi > options.b_lo,
          "HybridEvaluator: invalid b range");

  // Reuse the st_fast (u, v) node machinery to fill the tables.
  const AnalyticAnalyzer integrator(problem, options.integration);
  const auto& blocks = problem.blocks();
  const auto fill_row = simd::kernels().hybrid_row;

  // Grid spacing must match LookupTable2D's own sampling (node ix maps to
  // xlo + ix * (xhi - xlo) / (nx - 1)).
  const double d_gamma = (options.gamma_hi - options.gamma_lo) /
                         static_cast<double>(options.n_gamma - 1);
  const double d_b =
      (options.b_hi - options.b_lo) / static_cast<double>(options.n_b - 1);

  tables_.reserve(blocks.size());
  std::vector<double> u, v, w;
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    const auto& node_list = integrator.nodes()[j];
    u.clear();
    v.clear();
    w.clear();
    for (const auto& n : node_list) {
      u.push_back(n.u);
      v.push_back(n.v);
      w.push_back(n.weight);
    }
    const double area = blocks[j].area;
    // One kernel call fills one gamma row (all b indices). Rows are
    // independent, so the fill parallelizes over them with bit-identical
    // tables for any thread count.
    std::vector<double> values(options.n_gamma * options.n_b);
    par::parallel_for(
        0, options.n_gamma, kFillRows,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t ig = begin; ig < end; ++ig) {
            double* row = values.data() + ig * options_.n_b;
            fill_row(u.data(), v.data(), w.data(), u.size(),
                     options_.gamma_lo + static_cast<double>(ig) * d_gamma,
                     options_.b_lo, d_b, area, options_.n_b, row);
            if (!options_.log_space) continue;
            for (std::size_t ib = 0; ib < options_.n_b; ++ib)
              row[ib] = (row[ib] > 0.0)
                            ? std::max(kLogFloor, std::log(row[ib]))
                            : kLogFloor;
          }
        });
    tables_.emplace_back(options.gamma_lo, options.gamma_hi, options.n_gamma,
                         options.b_lo, options.b_hi, options.n_b,
                         std::move(values));
  }
}

double HybridEvaluator::block_failure_lookup(std::size_t j, double gamma,
                                             double b) const {
  const double raw = tables_[j].at(gamma, b);
  return options_.log_space ? std::exp(raw) : std::max(0.0, raw);
}

double HybridEvaluator::failure_probability(double t) const {
  require(t > 0.0, "HybridEvaluator: t must be positive");
  // Weakest-link composition across blocks (eq. 7-8): the chip survives
  // only if every block does, so block failures combine through the
  // survival product, accumulated in log space for accuracy:
  // F = 1 - prod_j (1 - F_j) = -expm1(sum_j log1p(-F_j)). Summing the
  // F_j and clamping is only the first-order expansion and overestimates
  // F(t) at high failure levels. MechanismStack owns that fold and adds
  // the aging mechanisms (at each block's default operating point, the
  // same point the tables were built for) and any spare groups.
  const auto& blocks = problem_->blocks();
  thread_local std::vector<double> oxide_f;
  oxide_f.resize(blocks.size());
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    oxide_f[j] = std::min(
        1.0,
        block_failure_lookup(j, std::log(t / blocks[j].alpha), blocks[j].b));
  }
  return problem_->mechanisms().compose(oxide_f.data(), t);
}

std::vector<double> HybridEvaluator::failure_probabilities(
    std::span<const double> ts) const {
  std::vector<double> out;
  out.reserve(ts.size());
  // Points are independent lookups; reusing the single-point kernel keeps
  // the batch bit-identical to per-point calls for any sweep composition.
  for (const double t : ts) out.push_back(failure_probability(t));
  return out;
}

double HybridEvaluator::failure_probability_with(
    double t, const std::vector<double>& alphas,
    const std::vector<double>& bs) const {
  require(t > 0.0, "HybridEvaluator: t must be positive");
  const auto& blocks = problem_->blocks();
  require(alphas.size() == blocks.size() && bs.size() == blocks.size(),
          "HybridEvaluator: one (alpha, b) pair per block required");
  // Corner overrides replace the oxide (alpha, b) only; the aging
  // mechanisms keep their default per-block operating points (the DRM
  // rung path passes explicit conditions through compose_under itself).
  thread_local std::vector<double> oxide_f;
  oxide_f.resize(blocks.size());
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    require(alphas[j] > 0.0 && bs[j] > 0.0,
            "HybridEvaluator: alpha and b must be positive");
    oxide_f[j] = std::min(
        1.0, block_failure_lookup(j, std::log(t / alphas[j]), bs[j]));
  }
  return problem_->mechanisms().compose(oxide_f.data(), t);
}

std::vector<double> HybridEvaluator::failure_probabilities_with(
    std::span<const double> ts, const std::vector<double>& alphas,
    const std::vector<double>& bs) const {
  std::vector<double> out;
  out.reserve(ts.size());
  for (const double t : ts)
    out.push_back(failure_probability_with(t, alphas, bs));
  return out;
}

double HybridEvaluator::lifetime_at(double target) const {
  return lifetime_at_failure(
      [this](double t) { return failure_probability(t); }, target);
}

HybridEvaluator::HybridEvaluator(const ReliabilityProblem& problem,
                                 HybridOptions options,
                                 std::vector<num::LookupTable2D> tables)
    : problem_(&problem),
      options_(std::move(options)),
      tables_(std::move(tables)) {}

HybridEvaluator::HybridEvaluator(const ReliabilityProblem& problem,
                                 const HybridEvaluator& same_variation)
    : HybridEvaluator(problem, same_variation.options_,
                      same_variation.tables_) {
  const ReliabilityProblem& donor = same_variation.problem();
  require(&problem.canonical() == &donor.canonical(),
          "HybridEvaluator: tables can only be shared within one variation "
          "stage");
  require(problem.blocks().size() == tables_.size(),
          "HybridEvaluator: block count does not match the tables");
  for (std::size_t j = 0; j < tables_.size(); ++j) {
    const BlockParams& mine = problem.blocks()[j];
    const BlockParams& theirs = donor.blocks()[j];
    require(mine.name == theirs.name,
            "HybridEvaluator: block name mismatch at index " +
                std::to_string(j));
    require(std::fabs(mine.area - theirs.area) <=
                1e-9 * std::max(1.0, theirs.area),
            "HybridEvaluator: block area mismatch for '" + mine.name + "'");
  }
}

void HybridEvaluator::save(std::ostream& out) const {
  out << "obdrel-hybrid-lut " << kLutVersion << '\n';
  out << tables_.size() << ' ' << options_.n_gamma << ' ' << options_.n_b
      << ' ' << (options_.log_space ? 1 : 0) << '\n';
  out.precision(17);
  out << options_.gamma_lo << ' ' << options_.gamma_hi << ' '
      << options_.b_lo << ' ' << options_.b_hi << '\n';
  for (std::size_t j = 0; j < tables_.size(); ++j) {
    out << problem_->blocks()[j].name << ' ' << problem_->blocks()[j].area
        << '\n';
    const auto& values = tables_[j].values();
    for (std::size_t i = 0; i < values.size(); ++i)
      out << values[i] << ((i + 1) % 8 == 0 ? '\n' : ' ');
    out << '\n';
  }
  require(out.good(), ErrorCode::kIo, "HybridEvaluator::save: write failed");
}

HybridEvaluator HybridEvaluator::load(std::istream& in,
                                      const ReliabilityProblem& problem) {
  if (fault::should_fire(fault::site::kLutLoad))
    throw Error("HybridEvaluator::load: injected LUT corruption fault",
                ErrorCode::kIo);
  std::string magic;
  int version = 0;
  in >> magic >> version;
  require(in.good() && magic == "obdrel-hybrid-lut",
          ErrorCode::kInvalidInput,
          "HybridEvaluator::load: not an obdrel hybrid LUT stream");
  require(version == kLutVersion, ErrorCode::kInvalidInput,
          "HybridEvaluator::load: LUT format version " +
              std::to_string(version) + " is not supported (expected " +
              std::to_string(kLutVersion) +
              "; rebuild the tables with this build)");

  std::size_t n_blocks = 0;
  HybridOptions options;
  int log_space = 0;
  in >> n_blocks >> options.n_gamma >> options.n_b >> log_space;
  in >> options.gamma_lo >> options.gamma_hi >> options.b_lo >>
      options.b_hi;
  require(in.good(), ErrorCode::kInvalidInput,
          "HybridEvaluator::load: malformed header");
  options.log_space = (log_space != 0);
  require(n_blocks == problem.blocks().size(),
          ErrorCode::kInvalidInput,
          "HybridEvaluator::load: block count does not match the problem");
  // Bound the table dimensions before allocating: a corrupted header must
  // produce a typed error, not a multi-gigabyte allocation or bad_alloc.
  constexpr std::size_t kMaxTableIndices = 1u << 24;
  require(options.n_gamma >= 2 && options.n_b >= 2 &&
              options.n_gamma <= kMaxTableIndices &&
              options.n_b <= kMaxTableIndices &&
              options.n_gamma * options.n_b <= kMaxTableIndices,
          ErrorCode::kInvalidInput,
          "HybridEvaluator::load: implausible table dimensions " +
              std::to_string(options.n_gamma) + "x" +
              std::to_string(options.n_b));
  require(std::isfinite(options.gamma_lo) &&
              std::isfinite(options.gamma_hi) &&
              options.gamma_hi > options.gamma_lo &&
              std::isfinite(options.b_lo) && std::isfinite(options.b_hi) &&
              options.b_lo > 0.0 && options.b_hi > options.b_lo,
          ErrorCode::kInvalidInput,
          "HybridEvaluator::load: implausible table ranges");

  std::vector<num::LookupTable2D> tables;
  tables.reserve(n_blocks);
  for (std::size_t j = 0; j < n_blocks; ++j) {
    std::string name;
    double area = 0.0;
    in >> name >> area;
    require(in.good(), ErrorCode::kInvalidInput,
            "HybridEvaluator::load: truncated block header");
    require(name == problem.blocks()[j].name, ErrorCode::kInvalidInput,
            "HybridEvaluator::load: block name mismatch at index " +
                std::to_string(j));
    require(std::fabs(area - problem.blocks()[j].area) <=
                1e-9 * std::max(1.0, area),
            ErrorCode::kInvalidInput,
            "HybridEvaluator::load: block area mismatch for '" + name + "'");
    std::vector<double> values(options.n_gamma * options.n_b);
    for (auto& v : values) in >> v;
    require(in.good(), ErrorCode::kInvalidInput,
            "HybridEvaluator::load: truncated table data");
    tables.emplace_back(options.gamma_lo, options.gamma_hi, options.n_gamma,
                        options.b_lo, options.b_hi, options.n_b,
                        std::move(values));
  }
  return HybridEvaluator(problem, options, std::move(tables));
}

}  // namespace obd::core
