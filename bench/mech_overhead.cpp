// Overhead gate for the competing-risks mechanism stack.
//
// The multi-mechanism framework promises that the seed configuration
// (`mechanisms oxide`, no redundancy) costs nothing measurable: every
// evaluator composes F(t) through MechanismStack, whose fold over a stack
// with no aging mechanisms and no spare groups is the seed survival
// product plus one zero term per block. This bench holds that promise to
// numbers:
//
//   1. Bit-identity: the wired analytic F(t) sweep must be bit-identical
//      to an inline replica of the seed composition (per-block failures
//      folded through the log1p survival product).
//   2. Overhead: the wired oxide-only sweep must cost no more than
//      OBDREL_MECH_MAX_OVERHEAD_PCT (default 3%) over the seed replica,
//      best-of-N to shed scheduler noise. The two sides are timed in the
//      same laps, sweep by sweep in alternating order, so a slow stretch
//      on the host lands on both sides rather than on one.
//
// The aging laps are informational: the same sweep with NBTI enabled and
// with all four mechanisms shows what the non-trivial fold costs, and a
// sanity gate checks that adding mechanisms never lowers F(t).
//
// Results go to BENCH_mech.json (in $OBDREL_CSV_DIR when set); the exit
// code reflects the gates. Knobs: OBDREL_MECH_POINTS (sweep points,
// default 64), OBDREL_MECH_SWEEP_REPS (sweeps per lap, default 50),
// OBDREL_MECH_LAPS (best-of laps, default 7).
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
#include "common/parallel.hpp"
#include "common/stopwatch.hpp"
#include "core/analytic.hpp"
#include "mech/spec.hpp"
#include "variation/model.hpp"

namespace {

// Order-sensitive checksum over the exact bit patterns of a double stream
// (same scheme as hot_path_scaling): equal checksums iff every value is
// bit-identical and in the same order.
struct BitChecksum {
  std::uint64_t value = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  void add(double d) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(d);
    for (int i = 0; i < 8; ++i) {
      value ^= (bits >> (8 * i)) & 0xffu;
      value *= 0x100000001b3ull;  // FNV-1a prime
    }
  }
};

}  // namespace

int main() {
  using namespace obd;
  const std::size_t points = bench::env_size("OBDREL_MECH_POINTS", 64);
  const std::size_t sweep_reps =
      bench::env_size("OBDREL_MECH_SWEEP_REPS", 50);
  const std::size_t laps = bench::env_size("OBDREL_MECH_LAPS", 7);
  const double max_overhead_pct = static_cast<double>(
      bench::env_size("OBDREL_MECH_MAX_OVERHEAD_PCT", 3));

  par::set_threads(1);  // algorithmic comparison: no threading in any lap

  const chip::Design design = chip::make_synthetic_design(
      "MECH", {.devices = 200000, .block_count = 8, .die_width = 6.0,
               .die_height = 6.0, .seed = 29});
  const std::vector<double> temps{95.0, 70.0, 58.0, 82.0, 64.0, 75.0,
                                  88.0, 61.0};
  const core::AnalyticReliabilityModel model;

  core::ProblemOptions oxide_opts;
  const auto oxide = core::ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, 1.2, oxide_opts);

  core::ProblemOptions nbti_opts;
  nbti_opts.mechanisms.nbti = true;
  const auto nbti = core::ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, 1.2, nbti_opts);

  core::ProblemOptions all_opts;
  all_opts.mechanisms.nbti = true;
  all_opts.mechanisms.em = true;
  all_opts.mechanisms.hci = true;
  const auto all = core::ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, 1.2, all_opts);

  // Log-spaced sweep from 1 to 40 years.
  std::vector<double> ts;
  ts.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double frac =
        static_cast<double>(i) / static_cast<double>(points - 1);
    ts.push_back(bench::kYear * std::exp(std::log(1.0) +
                                         frac * std::log(40.0)));
  }

  const core::AnalyticAnalyzer an_oxide(oxide);
  const core::AnalyticAnalyzer an_nbti(nbti);
  const core::AnalyticAnalyzer an_all(all);

  // Seed replica: the exact composition the pre-mech evaluator ran —
  // per-block failures folded through the log1p survival product.
  const auto seed_replica = [&](double t) {
    double log_survival = 0.0;
    for (std::size_t j = 0; j < oxide.blocks().size(); ++j) {
      const double fj =
          std::clamp(an_oxide.block_failure(j, t), 0.0, 1.0);
      log_survival += std::log1p(-fj);
    }
    return std::clamp(-std::expm1(log_survival), 0.0, 1.0);
  };

  // One lap = `sweep_reps` full sweeps; best lap survives. The checksum is
  // folded into every lap so the compiler cannot dead-code the sweep.
  const auto time_lap = [&](auto&& eval, BitChecksum* sum) {
    double best = 1e300;
    for (std::size_t lap = 0; lap < laps; ++lap) {
      Stopwatch watch;
      for (std::size_t rep = 0; rep < sweep_reps; ++rep) {
        for (const double t : ts) sum->add(eval(t));
      }
      best = std::min(best, watch.seconds());
    }
    return best;
  };

  // The gated pair shares its laps: within a lap the replica and the
  // wired sweep alternate sweep by sweep, each sweep timed on its own and
  // summed into its side's lap time, and the side that runs first flips
  // every sweep. Both sides of a lap thus span the same stretch of wall
  // time, and a slow spell on the host lands on both.
  const auto wired = [&](double t) { return an_oxide.failure_probability(t); };
  const auto one_sweep = [&](auto&& eval, BitChecksum* sum) {
    Stopwatch watch;
    for (const double t : ts) sum->add(eval(t));
    return watch.seconds();
  };
  BitChecksum sum_replica;
  BitChecksum sum_wired;
  double t_replica = 1e300;
  double t_wired = 1e300;
  for (std::size_t lap = 0; lap < laps; ++lap) {
    double lap_replica = 0.0;
    double lap_wired = 0.0;
    for (std::size_t rep = 0; rep < sweep_reps; ++rep) {
      if ((lap + rep) % 2 == 0) {
        lap_replica += one_sweep(seed_replica, &sum_replica);
        lap_wired += one_sweep(wired, &sum_wired);
      } else {
        lap_wired += one_sweep(wired, &sum_wired);
        lap_replica += one_sweep(seed_replica, &sum_replica);
      }
    }
    t_replica = std::min(t_replica, lap_replica);
    t_wired = std::min(t_wired, lap_wired);
  }
  BitChecksum sum_nbti;
  const double t_nbti = time_lap(
      [&](double t) { return an_nbti.failure_probability(t); }, &sum_nbti);
  BitChecksum sum_all;
  const double t_all = time_lap(
      [&](double t) { return an_all.failure_probability(t); }, &sum_all);

  const bool bitwise = sum_replica.value == sum_wired.value;
  const double overhead_pct = 100.0 * (t_wired - t_replica) / t_replica;
  const bool overhead_ok = overhead_pct <= max_overhead_pct;

  // Sanity: competing risks only raise F(t).
  bool monotone = true;
  for (const double t : ts) {
    const double f_ox = an_oxide.failure_probability(t);
    if (an_nbti.failure_probability(t) < f_ox ||
        an_all.failure_probability(t) < f_ox) {
      monotone = false;
      break;
    }
  }

  par::set_threads(0);  // restore automatic width

  std::printf("mech stack overhead, %zu points x %zu sweeps, best of %zu\n",
              points, sweep_reps, laps);
  std::printf("  seed replica      %.6f s\n", t_replica);
  std::printf("  oxide-only wired  %.6f s  (%+.2f%%, gate <= %.1f%%) %s\n",
              t_wired, overhead_pct, max_overhead_pct,
              bitwise ? "bit-identical" : "VALUES DIFFER");
  std::printf("  + nbti            %.6f s  (%.2fx)\n", t_nbti,
              t_nbti / t_replica);
  std::printf("  + nbti+em+hci     %.6f s  (%.2fx)\n", t_all,
              t_all / t_replica);
  const bool pass = bitwise && overhead_ok && monotone;
  std::printf("\nmech gates %s\n", pass ? "PASS" : "FAIL");

  const std::string dir = csv_output_dir();
  const std::string path =
      (dir.empty() ? std::string{} : dir + "/") + "BENCH_mech.json";
  std::ofstream out(path);
  out << "{\n"
      << "  \"points\": " << points << ",\n"
      << "  \"sweep_reps\": " << sweep_reps << ",\n"
      << "  \"laps\": " << laps << ",\n"
      << "  \"seconds_seed_replica\": " << t_replica << ",\n"
      << "  \"seconds_oxide_wired\": " << t_wired << ",\n"
      << "  \"seconds_nbti\": " << t_nbti << ",\n"
      << "  \"seconds_all_mechanisms\": " << t_all << ",\n"
      << "  \"oxide_overhead_pct\": " << overhead_pct << ",\n"
      << "  \"max_overhead_pct\": " << max_overhead_pct << ",\n"
      << "  \"bitwise_identical\": " << (bitwise ? "true" : "false") << ",\n"
      << "  \"mechanisms_monotone\": " << (monotone ? "true" : "false")
      << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << "\n"
      << "}\n";
  std::printf("wrote %s\n", path.c_str());
  return pass ? 0 : 1;
}
