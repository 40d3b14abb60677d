#include "core/incremental.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace obd::core {

IncrementalEvaluator::IncrementalEvaluator(const HybridEvaluator& hybrid)
    : hybrid_(&hybrid), stack_(&hybrid.problem().mechanisms()) {}

void IncrementalEvaluator::refresh_row(const ChipState& state, std::size_t j,
                                       double t) {
  const double alpha = state.alphas()[j];
  const double b = state.bs()[j];
  // ChipState setters enforce positivity; this catches states built before
  // the invariant existed (or memory corruption) at the refreshed rows.
  require(alpha > 0.0 && b > 0.0,
          "IncrementalEvaluator: alpha and b must be positive");
  const double fj =
      std::min(1.0, hybrid_->block_failure(j, std::log(t / alpha), b));
  // Same ops as the from-scratch paths: the row is what compose_under
  // computes per block for the state's conditions.
  rows_[j] = stack_->block_log_survival(j, fj, t, state.conditions(j));
}

double IncrementalEvaluator::evaluate(ChipState& state, double t) {
  require(t > 0.0, "IncrementalEvaluator: t must be positive");
  require(&state.problem() == &hybrid_->problem(),
          "IncrementalEvaluator: state was built for a different problem");
  const std::size_t n = state.block_count();
  const std::uint64_t t_bits = std::bit_cast<std::uint64_t>(t);
  // Any doubt about the cache means a full rebuild: rows are only
  // reusable for the same state object, the same t bits, and a forward-
  // moving generation counter.
  const bool full = !valid_ || last_state_ != &state ||
                    t_bits != last_t_bits_ ||
                    state.generation() < last_generation_;
  ++stats_.evaluations;
  std::size_t refreshed = 0;
  if (full) {
    rows_.resize(n);
    for (std::size_t j = 0; j < n; ++j) refresh_row(state, j, t);
    refreshed = n;
    ++stats_.full_rebuilds;
  } else {
    state.for_each_dirty([&](std::size_t j) {
      refresh_row(state, j, t);
      ++refreshed;
    });
  }
  stats_.rows_refreshed += refreshed;
  stats_.last_dirty = refreshed;
  state.clear_dirty();
  last_state_ = &state;
  last_t_bits_ = t_bits;
  last_generation_ = state.generation();
  valid_ = true;

  // Full fixed-order reduction over all N rows — never over the dirty
  // subset — so the result cannot depend on the update history.
  return stack_->reduce_log_survival(rows_.data());
}

}  // namespace obd::core
