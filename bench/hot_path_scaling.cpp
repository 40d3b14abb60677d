// Before/after timings and exactness gates for the three dominant kernels:
//
//   1. Device sampling: per-device normal draws vs the binned
//      conditional-binomial sampler (DeviceSampling::kBinned) on a chip
//      with >= 10^6 devices. Gates: the two samplers place exactly the
//      same number of devices per block, and their ensemble failure
//      estimates agree within 6 combined standard errors.
//   2. F(t) sweep: one batched failure_probabilities() call over 64
//      points vs 64 per-point failure_probability() calls. Gate: the
//      batched sweep is bit-identical to the per-point path.
//   3. Covariance + PCA: per-pair kernel evaluation vs the
//      displacement-table build_covariance (gate: bit-identical), and the
//      time of the dense QL eigendecomposition (not gated).
//
// All sections run serially (par pool forced to one thread) so the
// reported speedups are algorithmic, not threading. Results are written to
// BENCH_hotpath.json (in $OBDREL_CSV_DIR when set); the exit code reflects
// the exactness gates only — speedups are reported for the acceptance
// tables but depend on the host. A knob the library rejects (say
// OBDREL_HOTPATH_CHIPS below the analyzer's minimum of 10) prints the
// error and exits with its obd::ErrorCode.
//
// Scaling knobs: OBDREL_HOTPATH_DEVICES (default 8000000),
// OBDREL_HOTPATH_CHIPS (default 10), OBDREL_HOTPATH_SWEEP_CHIPS
// (default 1500), OBDREL_HOTPATH_GRID (default 40 cells per side).
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
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/stopwatch.hpp"
#include "core/montecarlo.hpp"
#include "linalg/eigen.hpp"
#include "variation/model.hpp"

namespace {

// Order-sensitive checksum over the exact bit patterns of a double stream
// (same scheme as parallel_scaling): equal checksums iff every value is
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

int run() {
  using namespace obd;
  const std::size_t devices =
      bench::env_size("OBDREL_HOTPATH_DEVICES", 8000000);
  const std::size_t chips = bench::env_size("OBDREL_HOTPATH_CHIPS", 10);
  const std::size_t sweep_chips =
      bench::env_size("OBDREL_HOTPATH_SWEEP_CHIPS", 1500);
  const std::size_t grid_side = bench::env_size("OBDREL_HOTPATH_GRID", 40);

  par::set_threads(1);  // algorithmic comparison: no threading in any lap

  // ---------------------------------------------------------------- 1 ----
  const chip::Design design = chip::make_synthetic_design(
      "HOTPATH", {.devices = devices, .block_count = 10, .die_width = 8.0,
                  .die_height = 8.0, .seed = 13});
  const std::vector<double> temps(design.blocks.size(), 80.0);
  const auto problem = core::ReliabilityProblem::build(
      design, var::VariationBudget{}, core::AnalyticReliabilityModel{},
      temps, 1.2);

  std::printf("Hot-path kernels, %zu devices/chip, %zu sample chips.\n\n",
              devices, chips);

  Stopwatch sw;
  const core::MonteCarloAnalyzer mc_per_device(
      problem, {.chip_samples = chips,
                .sampling = core::DeviceSampling::kPerDevice});
  const double t_per_device = sw.seconds();
  sw.reset();
  const core::MonteCarloAnalyzer mc_binned(
      problem,
      {.chip_samples = chips, .sampling = core::DeviceSampling::kBinned});
  const double t_binned = sw.seconds();
  const double sampling_speedup = t_per_device / t_binned;

  // Exactness: both samplers apportion the same number of devices to every
  // block of every chip (the binned sampler distributes exact counts).
  bool counts_conserved = true;
  for (std::size_t j = 0; j < design.blocks.size(); ++j) {
    const auto ref = mc_per_device.pooled_thickness_histogram(j);
    const auto bin = mc_binned.pooled_thickness_histogram(j);
    std::uint64_t total_ref = ref.underflow + ref.overflow;
    std::uint64_t total_bin = bin.underflow + bin.overflow;
    for (std::uint64_t c : ref.counts) total_ref += c;
    for (std::uint64_t c : bin.counts) total_bin += c;
    if (total_ref != total_bin) counts_conserved = false;
  }

  // Statistical equivalence of the ensemble estimate at a mid-curve point.
  const double t_star = mc_per_device.lifetime_at(0.01);
  const double f_ref = mc_per_device.failure_probability(t_star);
  const double f_bin = mc_binned.failure_probability(t_star);
  const double se = std::hypot(mc_per_device.failure_std_error(t_star),
                               mc_binned.failure_std_error(t_star));
  const double f_delta_sigmas =
      (se > 0.0) ? std::abs(f_bin - f_ref) / se : 0.0;
  const bool sampling_equivalent =
      counts_conserved && (f_delta_sigmas <= 6.0);

  std::printf("[1] binned sampling: per-device %.3f s, binned %.3f s "
              "(%.1fx); counts %s, F delta %.2f sigma\n",
              t_per_device, t_binned, sampling_speedup,
              counts_conserved ? "conserved" : "NOT CONSERVED",
              f_delta_sigmas);

  // ---------------------------------------------------------------- 2 ----
  const chip::Design c3 = chip::make_benchmark(3);
  const std::vector<double> temps3(c3.blocks.size(), 80.0);
  const auto problem3 = core::ReliabilityProblem::build(
      c3, var::VariationBudget{}, core::AnalyticReliabilityModel{}, temps3,
      1.2);
  const core::MonteCarloAnalyzer mc_sweep(
      problem3, {.chip_samples = sweep_chips,
                 .sampling = core::DeviceSampling::kBinned});

  std::vector<double> ts;
  for (std::size_t i = 0; i < 64; ++i)
    ts.push_back(1e8 * std::pow(10.0, static_cast<double>(i) / 63.0));

  sw.reset();
  const std::vector<double> f_batched = mc_sweep.failure_probabilities(ts);
  const double t_sweep_batched = sw.seconds();

  // Exactness: batched sweep vs the per-point path, bit for bit.
  sw.reset();
  BitChecksum per_point_sum;
  for (double t : ts) per_point_sum.add(mc_sweep.failure_probability(t));
  const double t_sweep_per_point = sw.seconds();
  BitChecksum batched_sum;
  for (double f : f_batched) batched_sum.add(f);
  const bool sweep_bitwise = batched_sum.value == per_point_sum.value;

  std::printf("[2] 64-point F(t) sweep over %zu chips: batched %.3f s, "
              "per-point %.3f s; batched vs per-point %s\n",
              sweep_chips, t_sweep_batched, t_sweep_per_point,
              sweep_bitwise ? "IDENTICAL" : "DIFFER");

  // ---------------------------------------------------------------- 3 ----
  const var::GridModel grid(8.0, 8.0, grid_side);
  const var::VariationBudget budget;
  const double rho_dist = 0.5;
  const double length = rho_dist * 8.0;
  const std::size_t n = grid.cell_count();

  sw.reset();
  la::Matrix cov_pairwise(n, n);
  {
    const double vg = budget.sigma_global() * budget.sigma_global();
    const double vs = budget.sigma_spatial() * budget.sigma_spatial();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double c =
            vg + vs * var::kernel_correlation(
                          var::CorrelationKernel::kExponential,
                          grid.distance(i, j), length);
        cov_pairwise(i, j) = c;
        cov_pairwise(j, i) = c;
      }
    }
  }
  const double t_cov_pairwise = sw.seconds();

  sw.reset();
  const la::Matrix cov_table = var::build_covariance(grid, budget, rho_dist);
  const double t_cov_table = sw.seconds();
  const double cov_speedup = t_cov_pairwise / t_cov_table;

  BitChecksum pairwise_sum;
  BitChecksum table_sum;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      pairwise_sum.add(cov_pairwise(i, j));
      table_sum.add(cov_table(i, j));
    }
  }
  const bool cov_bitwise = pairwise_sum.value == table_sum.value;

  // Dense eigensolve of the Matern-3/2 covariance (the input this lap has
  // always timed, so seconds_eigen_full stays comparable across runs).
  const la::Matrix cov_smooth = var::build_covariance(
      grid, budget, rho_dist, var::CorrelationKernel::kMatern32);
  sw.reset();
  (void)la::eigen_symmetric(cov_smooth);
  const double t_eigen_full = sw.seconds();

  std::printf("[3] covariance %zux%zu: pairwise %.3f s, table %.3f s "
              "(%.1fx), %s; dense eigen %.3f s\n",
              n, n, t_cov_pairwise, t_cov_table, cov_speedup,
              cov_bitwise ? "IDENTICAL" : "DIFFER", t_eigen_full);

  par::set_threads(0);  // restore automatic width

  const bool pass = sampling_equivalent && sweep_bitwise && cov_bitwise;
  std::printf("\nexactness gates %s\n", pass ? "PASS" : "FAIL");

  std::string dir = csv_output_dir();
  const std::string path =
      (dir.empty() ? std::string{} : dir + "/") + "BENCH_hotpath.json";
  std::ofstream out(path);
  out << "{\n"
      << "  \"binned_sampling\": {\n"
      << "    \"devices_per_chip\": " << devices << ",\n"
      << "    \"chips\": " << chips << ",\n"
      << "    \"seconds_per_device\": " << t_per_device << ",\n"
      << "    \"seconds_binned\": " << t_binned << ",\n"
      << "    \"speedup\": " << sampling_speedup << ",\n"
      << "    \"counts_conserved\": " << (counts_conserved ? "true" : "false")
      << ",\n"
      << "    \"f_delta_sigmas\": " << f_delta_sigmas << ",\n"
      << "    \"pass\": " << (sampling_equivalent ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"batched_sweep\": {\n"
      << "    \"chips\": " << sweep_chips << ",\n"
      << "    \"points\": " << ts.size() << ",\n"
      << "    \"seconds_batched\": " << t_sweep_batched << ",\n"
      << "    \"seconds_per_point\": " << t_sweep_per_point << ",\n"
      << "    \"bitwise_identical_scalar_vs_batched\": "
      << (sweep_bitwise ? "true" : "false") << ",\n"
      << "    \"pass\": " << (sweep_bitwise ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"covariance_pca\": {\n"
      << "    \"grid_side\": " << grid_side << ",\n"
      << "    \"n\": " << n << ",\n"
      << "    \"seconds_pairwise\": " << t_cov_pairwise << ",\n"
      << "    \"seconds_table\": " << t_cov_table << ",\n"
      << "    \"covariance_speedup\": " << cov_speedup << ",\n"
      << "    \"covariance_bitwise_identical\": "
      << (cov_bitwise ? "true" : "false") << ",\n"
      << "    \"seconds_eigen_full\": " << t_eigen_full << ",\n"
      << "    \"pass\": " << (cov_bitwise ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::printf("(wrote %s)\n", path.c_str());
  return pass ? 0 : 1;
}

}  // namespace

int main() {
  try {
    return run();
  } catch (const obd::Error& e) {
    std::fprintf(stderr, "hot_path_scaling: %s\n", e.what());
    return static_cast<int>(e.code());
  }
}
