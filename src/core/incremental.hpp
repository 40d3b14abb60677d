// Incremental chip-failure recomputation over the hybrid lookup tables.
//
// The chip failure probability is a reduction over per-block terms that
// are each a pure function of (t, alpha_j, b_j, conditions_j). When a DRM
// step, a trace phase, or a serve override touches k of N blocks, the
// other N-k terms are unchanged — recomputing them is pure waste, and on
// realistic traces k << N (a thermal step moves a few hot blocks; a serve
// `set.*` override retargets one knob). The IncrementalEvaluator caches
// the per-block log-survival rows and refreshes only the rows a
// ChipState's dirty set names.
//
// Bit-identity is by construction, not by tolerance: each cached row is
// byte-identical to what a from-scratch evaluation would compute (same
// lookup, same ops), and the final reduction always folds all N rows in
// fixed ascending block order regardless of which ones were refreshed —
// composition order and reduction boundaries never depend on the dirty
// set. A full rebuild is forced whenever the cache could not be trusted:
// first use, a different ChipState object, a changed t (bit compare), or
// a generation that went backwards (state replaced in place).
#pragma once

#include <cstdint>
#include <vector>

#include "core/chip_state.hpp"
#include "core/hybrid.hpp"

namespace obd::core {

/// Counters for diagnostics (`step.dirty_blocks`) and the perf gates.
struct IncrementalStats {
  std::uint64_t evaluations = 0;    ///< evaluate() calls
  std::uint64_t full_rebuilds = 0;  ///< evaluations that refreshed all rows
  std::uint64_t rows_refreshed = 0; ///< total rows recomputed
  std::size_t last_dirty = 0;       ///< rows refreshed by the last evaluate()
};

/// Caches per-block log-survival rows over a HybridEvaluator and a
/// ChipState; refreshes dirty rows only. Owns the state's dirty set while
/// paired with it (single-consumer contract — see chip_state.hpp).
class IncrementalEvaluator {
 public:
  /// `hybrid` (and its problem) must outlive this evaluator.
  explicit IncrementalEvaluator(const HybridEvaluator& hybrid);

  /// Failure probability at `t` for the state's current parameters.
  /// Bit-identical to stack.compose_under(oxide_f, t, state conditions)
  /// for any history of partial updates. For a stack without aging
  /// mechanisms, or a state at the default conditions, that equals
  /// hybrid.failure_probability_with(t, alphas, bs). Consumes (clears)
  /// the state's dirty set.
  [[nodiscard]] double evaluate(ChipState& state, double t);

  [[nodiscard]] const IncrementalStats& stats() const { return stats_; }

 private:
  void refresh_row(const ChipState& state, std::size_t j, double t);

  const HybridEvaluator* hybrid_;          // non-owning
  const mech::MechanismStack* stack_;      // non-owning
  std::vector<double> rows_;               ///< per-block log-survival terms
  const ChipState* last_state_ = nullptr;
  std::uint64_t last_t_bits_ = 0;
  std::uint64_t last_generation_ = 0;
  bool valid_ = false;
  IncrementalStats stats_;
};

}  // namespace obd::core
