// Incremental-recomputation gate: dirty-block trace replay against the
// from-scratch sweep.
//
// The serving/DRM pattern this measures: a long trace of small state
// deltas (a thermal step moves a few hot blocks, a serve override
// retargets one knob) with the chip failure probability re-queried after
// every delta. The from-scratch path recomputes all N per-block terms per
// step; the incremental path (core/chip_state + core/incremental) refreshes
// only the k dirty rows and re-reduces. With k/N = 5% the arithmetic says
// ~N/k; the gate demands >= 3x end to end.
//
// The lap is the hybrid replay: HybridEvaluator::failure_probability_with
// per step vs IncrementalEvaluator::evaluate on a ChipState. Every step's
// incremental result must be bit-identical to the from-scratch call (same
// ops, fixed reduction order — see core/incremental.hpp). The >= 3x
// speedup gate rides on this lap (checked by CI via jq on the JSON; the
// in-bench exit code gates bit-identity).
//
// Results go to BENCH_incremental.json (in $OBDREL_CSV_DIR when set).
// Knobs: OBDREL_INC_BLOCKS (500), OBDREL_INC_STEPS (2000),
// OBDREL_INC_DIRTY_PCT (5), OBDREL_INC_LAPS (3).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chip/design.hpp"
#include "common/csv.hpp"
#include "common/stopwatch.hpp"
#include "core/chip_state.hpp"
#include "core/device_model.hpp"
#include "core/hybrid.hpp"
#include "core/incremental.hpp"
#include "core/problem.hpp"
#include "stats/rng.hpp"
#include "variation/model.hpp"

namespace {

volatile double g_sink = 0.0;  // keeps the optimizer honest across reps

struct Update {
  std::size_t block = 0;
  double alpha = 0.0;
  double b = 0.0;
};

}  // namespace

int main() {
  using namespace obd;
  const std::size_t n_blocks = bench::env_size("OBDREL_INC_BLOCKS", 500);
  const std::size_t steps = bench::env_size("OBDREL_INC_STEPS", 2000);
  const std::size_t dirty_pct = bench::env_size("OBDREL_INC_DIRTY_PCT", 5);
  const std::size_t laps = bench::env_size("OBDREL_INC_LAPS", 3);
  const std::size_t dirty_per_step =
      std::max<std::size_t>(1, n_blocks * dirty_pct / 100);

  const chip::Design design = chip::make_synthetic_design(
      "INC", {.devices = 2000000, .block_count = n_blocks, .die_width = 18.0,
              .die_height = 18.0, .seed = 7});
  std::vector<double> temps(design.blocks.size());
  for (std::size_t j = 0; j < temps.size(); ++j)
    temps[j] = 60.0 + 35.0 * design.blocks[j].activity;
  const core::AnalyticReliabilityModel model;
  const double vdd = 1.2;
  const auto problem = core::ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, vdd);

  core::HybridOptions hopts;
  hopts.n_gamma = 60;  // smaller tables: construction is not what we time
  hopts.n_b = 60;
  const core::HybridEvaluator lut(problem, hopts);
  const double t_query = 10.0 * bench::kYear;

  std::printf(
      "incremental trace replay: %zu blocks, %zu steps, %zu dirty/step "
      "(%zu%%), best of %zu lap(s)\n\n",
      problem.blocks().size(), steps, dirty_per_step, dirty_pct, laps);

  // One deterministic trace, shared by every lap and both paths: per step,
  // `dirty_per_step` blocks move to a new thermal operating point and get
  // the model's (alpha, b) there.
  const std::size_t n = problem.blocks().size();
  std::vector<std::vector<Update>> trace(steps);
  {
    stats::Rng rng(2026);
    std::vector<double> step_temps = temps;
    for (auto& step : trace) {
      step.reserve(dirty_per_step);
      for (std::size_t u = 0; u < dirty_per_step; ++u) {
        const std::size_t j = rng.below(n);
        step_temps[j] =
            std::clamp(step_temps[j] + rng.uniform(-8.0, 8.0), 45.0, 115.0);
        step.push_back(
            {j, model.alpha(step_temps[j], vdd), model.b(step_temps[j], vdd)});
      }
    }
  }

  // ------------------------------------------------- hybrid replay laps ----
  double seconds_full = 0.0;
  double seconds_incremental = 0.0;
  bool bit_identical = true;
  std::vector<double> full_results(steps);
  for (std::size_t lap = 0; lap < laps; ++lap) {
    // From-scratch path: apply the step's updates to plain vectors, then
    // re-evaluate all N blocks.
    std::vector<double> alphas(n), bs(n);
    for (std::size_t j = 0; j < n; ++j) {
      alphas[j] = problem.blocks()[j].alpha;
      bs[j] = problem.blocks()[j].b;
    }
    Stopwatch sw;
    for (std::size_t i = 0; i < steps; ++i) {
      for (const Update& u : trace[i]) {
        alphas[u.block] = u.alpha;
        bs[u.block] = u.b;
      }
      full_results[i] = lut.failure_probability_with(t_query, alphas, bs);
      g_sink = full_results[i];
    }
    const double lap_full = sw.seconds();

    // Incremental path: same updates through the dirty-tracking state;
    // only the k touched rows are recomputed per step.
    core::ChipState state(problem);
    core::IncrementalEvaluator inc(lut);
    sw.reset();
    for (std::size_t i = 0; i < steps; ++i) {
      for (const Update& u : trace[i])
        state.set_alpha_b(u.block, u.alpha, u.b);
      const double f = inc.evaluate(state, t_query);
      g_sink = f;
      if (std::bit_cast<std::uint64_t>(f) !=
          std::bit_cast<std::uint64_t>(full_results[i]))
        bit_identical = false;
    }
    const double lap_inc = sw.seconds();

    if (lap == 0 || lap_full < seconds_full) seconds_full = lap_full;
    if (lap == 0 || lap_inc < seconds_incremental) seconds_incremental = lap_inc;
  }
  const double speedup = seconds_full / seconds_incremental;
  std::printf("[hybrid replay] full %.4f s, incremental %.4f s (%.1fx), "
              "bitwise %s\n",
              seconds_full, seconds_incremental, speedup,
              bit_identical ? "IDENTICAL" : "DIFFER");

  const bool pass = bit_identical;
  std::printf("\nbit-identity gate %s (speedup %.1fx; >= 3x gated in CI)\n",
              pass ? "PASS" : "FAIL", speedup);

  std::string dir = csv_output_dir();
  const std::string path =
      (dir.empty() ? std::string{} : dir + "/") + "BENCH_incremental.json";
  std::ofstream out(path);
  out << "{\n"
      << "  \"blocks\": " << n << ",\n"
      << "  \"steps\": " << steps << ",\n"
      << "  \"dirty_per_step\": " << dirty_per_step << ",\n"
      << "  \"dirty_pct\": " << dirty_pct << ",\n"
      << "  \"seconds_full\": " << seconds_full << ",\n"
      << "  \"seconds_incremental\": " << seconds_incremental << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
      << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << "\n"
      << "}\n";
  std::printf("(wrote %s)\n", path.c_str());
  return pass ? 0 : 1;
}
