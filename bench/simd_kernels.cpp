// Scalar vs AVX2 timings and exactness gates for the dispatched SIMD
// kernel layer (src/simd). Each section times the scalar table against
// the AVX2 table on the same inputs and checks the contract from
// simd/kernels.hpp: every kernel with an AVX2 instantiation (dot_counts,
// matmul, gram_aat, clenshaw_batch, tql2_rotate, tred2_symv, tred2_rank2,
// tred2_reflect, hybrid_row, box_muller, quad_form_dots) must give the
// scalar table's bits (FNV checksum equality). fill_bin_factors,
// normal_cdf_batch and matvec have one implementation that both tables
// serve, so they have no lap.
//
// On top of the exactness gates, each lap gates the tier that "auto"
// dispatch serves for the kernel (simd::kernel_level, the AVX2 table
// wherever it can run): its measured time must stay within kAutoSlack of
// the fastest tier, i.e. the vector tier must still pay for itself over
// scalar per kernel. A vector-kernel regression fails the bench instead
// of silently serving a slower kernel. The tiers of a lap are timed
// alternately, batch by batch, and each keeps its fastest batch (kRounds
// batches per tier), so a slow spell on the host or an unlucky heap
// placement in one tier's run cannot flip the gate on its own; a lap's
// seconds are one batch's.
//
// Results go to BENCH_simd.json (in $OBDREL_CSV_DIR when set). The exit
// code reflects the exactness and auto-tier gates only; raw speedups are
// reported for the acceptance tables but depend on the host. Without
// AVX2 the vector laps are skipped and the gates pass vacuously
// (recorded as "avx2_available": false). Per-lap JSON holds the scalar
// and AVX2 seconds, the speedup, auto_tier, auto_margin and auto_pass.
//
// Scaling knob: OBDREL_SIMD_BENCH_SCALE multiplies every rep count
// (default 1; CI smoke uses the default).
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
#include "core/analytic.hpp"
#include "core/hybrid.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "stats/rng.hpp"

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

std::uint64_t checksum(const std::vector<double>& v) {
  BitChecksum cs;
  for (const double x : v) cs.add(x);
  return cs.value;
}

struct Lap {
  double seconds_scalar = 0.0;
  double seconds_avx2 = 0.0;
  double speedup = 0.0;  // scalar / avx2
  bool pass = true;      // the AVX2 tier, when available, met its gate
  obd::simd::Level auto_tier = obd::simd::Level::kScalar;  // what auto picks
  double auto_margin = 0.0;  // picked tier seconds / fastest tier seconds
  bool auto_pass = true;     // auto_margin <= kAutoSlack
};

// Timing slack for the auto-tier gate: the picked tier may trail the
// fastest measured tier by this factor before the gate fails (run-to-run
// jitter on a shared box is real).
constexpr double kAutoSlack = 1.25;

// Rounds per lap. Each round runs one batch per tier, the tiers in turn
// with the first one rotating, and a tier's time is its fastest round:
// a slow spell on the host lands on every tier alike instead of on
// whichever tier happened to be running.
constexpr std::size_t kRounds = 10;

// Gates that the tier "auto" serves for `id` is (within slack) the
// fastest one this run measured. Requires simd::configure("auto") to have
// run so kernel_level reports the auto tier.
void gate_auto(const char* name, Lap& lap, obd::simd::KernelId id,
               bool avx2) {
  lap.auto_tier = obd::simd::kernel_level(id);
  const double best =
      avx2 ? std::min(lap.seconds_scalar, lap.seconds_avx2)
           : lap.seconds_scalar;
  const double picked = lap.auto_tier == obd::simd::Level::kAvx2
                            ? lap.seconds_avx2
                            : lap.seconds_scalar;
  lap.auto_margin = best > 0.0 ? picked / best : 1.0;
  lap.auto_pass = lap.auto_margin <= kAutoSlack;
  std::printf("[%s] auto picks %s (%.2fx of fastest) %s\n", name,
              obd::simd::to_string(lap.auto_tier), lap.auto_margin,
              lap.auto_pass ? "PASS" : "FAIL");
}

volatile double g_sink = 0.0;  // keeps the optimizer honest across reps

// One lap of a bit-identical kernel: `run(table)` runs one batch of reps
// from a fixed start state and returns the final state, which the AVX2
// tier must reproduce bit for bit (checksum equality). Each available
// tier runs kRounds batches, interleaved with the other; its time is the
// fastest batch.
template <typename Run>
Lap bitwise_lap(const char* name, const std::string& shape, Run run,
                bool avx2) {
  using obd::simd::KernelTable;
  const KernelTable* tables[] = {&obd::simd::detail::kScalarKernels,
                                 &obd::simd::detail::kAvx2Kernels};
  const bool timed[] = {true, avx2};
  double best[] = {1e300, 1e300};
  std::vector<double> state[2];
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < 2; ++i) {
      const std::size_t tier = (round + i) % 2;
      if (!timed[tier]) continue;
      obd::Stopwatch sw;
      state[tier] = run(*tables[tier]);
      best[tier] = std::min(best[tier], sw.seconds());
    }
  }
  Lap lap;
  lap.seconds_scalar = best[0];
  if (avx2) {
    lap.seconds_avx2 = best[1];
    lap.speedup = lap.seconds_scalar / lap.seconds_avx2;
    lap.pass = checksum(state[0]) == checksum(state[1]);
  }
  std::printf("[%s] %s: scalar %.4f s, avx2 %.4f s (%.1fx), bitwise %s\n",
              name, shape.c_str(), lap.seconds_scalar, lap.seconds_avx2,
              lap.speedup, lap.pass ? "PASS" : "FAIL");
  return lap;
}

}  // namespace

int main() {
  using namespace obd;
  const std::size_t scale = bench::env_size("OBDREL_SIMD_BENCH_SCALE", 1);
  const bool avx2 = simd::can_use_avx2();

  std::printf("SIMD kernel layer: scalar vs AVX2 (avx2+fma %s), scale %zu\n\n",
              avx2 ? "available" : "UNAVAILABLE - laps skipped", scale);

  stats::Rng rng(2026);
  // Each lap's reps are split over kRounds batches per tier.
  const auto batch = [&](std::size_t reps) {
    return std::max<std::size_t>(1, reps * scale / kRounds);
  };

  // ------------------------------------------------------- dot_counts ----
  const std::size_t dot_n = 4096;
  std::vector<std::uint32_t> counts(dot_n);
  std::vector<double> factors(dot_n);
  for (std::size_t i = 0; i < dot_n; ++i) {
    counts[i] = static_cast<std::uint32_t>(rng.uniform() * 1e6);
    factors[i] = std::exp(-6.0 * rng.uniform());
  }
  Lap dot = bitwise_lap(
      "dot_counts", "n=" + std::to_string(dot_n) + " x 50000",
      [&](const simd::KernelTable& t) {
        double sum = 0.0;
        for (std::size_t r = 0; r < batch(50000); ++r)
          g_sink = sum = t.dot_counts(counts.data(), factors.data(), dot_n);
        return std::vector<double>{sum};
      },
      avx2);

  // ------------------------------------------------------ matmul (GEMM) ----
  const std::size_t mm = 96;
  std::vector<double> ma(mm * mm), mb(mm * mm);
  for (double& x : ma) x = rng.normal();
  for (double& x : mb) x = rng.normal();
  Lap gemm = bitwise_lap(
      "matmul", "96x96x96 x 200",
      [&](const simd::KernelTable& t) {
        std::vector<double> out(mm * mm);
        for (std::size_t r = 0; r < batch(200); ++r) {
          std::fill(out.begin(), out.end(), 0.0);
          t.matmul(ma.data(), mb.data(), out.data(), mm, mm, mm);
          g_sink = out[0];
        }
        return out;
      },
      avx2);

  // ---------------------------------------------------- gram_aat (SYRK) ----
  const std::size_t gn = 144, gk = 512;
  std::vector<double> ga(gn * gk);
  for (double& x : ga) x = rng.normal();
  Lap gram = bitwise_lap(
      "gram_aat", "144x512 x 100",
      [&](const simd::KernelTable& t) {
        std::vector<double> out(gn * gn);
        for (std::size_t r = 0; r < batch(100); ++r) {
          t.gram_aat(ga.data(), out.data(), gn, gk);
          g_sink = out[0];
        }
        return out;
      },
      avx2);

  // --------------------------------------------------- clenshaw_batch ----
  const std::size_t cn = 25, cm = 64;
  std::vector<double> coeffs(cn * cm);
  for (std::size_t k = 0; k < cn; ++k)
    for (std::size_t p = 0; p < cm; ++p)
      coeffs[k * cm + p] = rng.normal() / (1.0 + static_cast<double>(k * k));
  Lap clen = bitwise_lap(
      "clenshaw_batch", "n=25 m=64 x 100000",
      [&](const simd::KernelTable& t) {
        std::vector<double> out(cm);
        for (std::size_t r = 0; r < batch(100000); ++r) {
          t.clenshaw_batch(coeffs.data(), cn, cm, -0.37, out.data());
          g_sink = out[0];
        }
        return out;
      },
      avx2);

  // ------------------------------------------------ eigensolver kernels ----
  // Grid-32 row length. The rotation, rank-2 and reflection laps feed
  // each call's output into the next, so a bit that drifts in any call
  // carries into the final checksum.
  const std::size_t en = 1024;
  std::vector<double> rows(2 * en);
  for (double& x : rows) x = rng.normal();
  Lap rotate = bitwise_lap(
      "tql2_rotate", "n=" + std::to_string(en) + " x 100000",
      [&](const simd::KernelTable& t) {
        std::vector<double> z = rows;
        for (std::size_t r = 0; r < batch(100000); ++r)
          t.tql2_rotate(z.data(), z.data() + en, 0.6, -0.8, en);
        return z;
      },
      avx2);

  // An m x m lower triangle with u as row m, as tred2 calls the kernels.
  const std::size_t em = 256;
  std::vector<double> tri((em + 1) * en);
  for (double& x : tri) x = rng.normal();
  const double* tri_u = tri.data() + em * en;
  Lap symv = bitwise_lap(
      "tred2_symv", "m=" + std::to_string(em) + " x 4000",
      [&](const simd::KernelTable& t) {
        std::vector<double> e(em);
        for (std::size_t r = 0; r < batch(4000); ++r) {
          t.tred2_symv(tri.data(), en, tri_u, em, e.data());
          g_sink = e[0];
        }
        return e;
      },
      avx2);
  Lap rank2 = bitwise_lap(
      "tred2_rank2", "m=" + std::to_string(em) + " x 4000",
      [&](const simd::KernelTable& t) {
        std::vector<double> a = tri;
        std::vector<double> e(tri.begin(), tri.begin() + em);
        for (std::size_t r = 0; r < batch(4000); ++r)
          t.tred2_rank2(a.data(), en, a.data() + em * en, 1e-3, em,
                        e.data());
        a.insert(a.end(), e.begin(), e.end());
        return a;
      },
      avx2);
  // w = 2u / |u|^2 makes each call a Householder reflection, so repeated
  // calls stay bounded.
  double unorm = 0.0;
  for (std::size_t k = 0; k < em; ++k) unorm += tri_u[k] * tri_u[k];
  std::vector<double> refl_w(em);
  for (std::size_t k = 0; k < em; ++k) refl_w[k] = 2.0 * tri_u[k] / unorm;
  Lap reflect = bitwise_lap(
      "tred2_reflect", "m=" + std::to_string(em) + " x 2000",
      [&](const simd::KernelTable& t) {
        std::vector<double> a = tri;
        for (std::size_t r = 0; r < batch(2000); ++r)
          t.tred2_reflect(a.data(), en, em, a.data() + em * en,
                          refl_w.data(), em);
        return a;
      },
      avx2);

  // ------------------------------------------------------- hybrid_row ----
  // Every 5th gamma row of one block's default 100 x 100 table, on the
  // 16 x 16 (u, v) axes of a real problem's first block.
  const chip::Design design = chip::make_synthetic_design(
      "simd", {.devices = 30000, .block_count = 2, .seed = 5});
  core::ProblemOptions popts;
  popts.grid_cells_per_side = 8;
  const core::ReliabilityProblem problem = core::ReliabilityProblem::build(
      design, var::VariationBudget{}, core::AnalyticReliabilityModel{},
      {80.0, 60.0}, 1.2, popts);
  const core::HybridOptions hopts;
  core::UvAxes axes;
  core::uv_axes(problem.blocks()[0].blod, hopts.integration, axes);
  std::vector<double> nu, nwu, nv, nwv;
  for (const auto& [u, wu] : axes.u) {
    nu.push_back(u);
    nwu.push_back(wu);
  }
  for (const auto& [v, wv] : axes.v) {
    nv.push_back(v);
    nwv.push_back(wv);
  }
  const double area = problem.blocks()[0].area;
  const double d_gamma = (hopts.gamma_hi - hopts.gamma_lo) /
                         static_cast<double>(hopts.n_gamma - 1);
  const double d_b =
      (hopts.b_hi - hopts.b_lo) / static_cast<double>(hopts.n_b - 1);
  Lap hrow = bitwise_lap(
      "hybrid_row",
      std::to_string(hopts.n_gamma / 5) + " rows x " +
          std::to_string(hopts.n_b) + " entries x " +
          std::to_string(nu.size() * nv.size()) + " nodes x 10",
      [&](const simd::KernelTable& t) {
        std::vector<double> table(hopts.n_gamma * hopts.n_b);
        for (std::size_t r = 0; r < batch(10); ++r) {
          for (std::size_t ig = 0; ig < hopts.n_gamma; ig += 5)
            t.hybrid_row(nu.data(), nwu.data(), nu.size(), nv.data(),
                         nwv.data(), nv.size(),
                         hopts.gamma_lo + static_cast<double>(ig) * d_gamma,
                         hopts.b_lo, d_b, area, hopts.n_b,
                         table.data() + ig * hopts.n_b);
          g_sink = table[0];
        }
        return table;
      },
      avx2);

  // ------------------------------------------------------- box_muller ----
  // Rng::fill_normal's uniform pairs, 4096 per call.
  const std::size_t bm_n = 4096;
  std::vector<double> bm_u1(bm_n), bm_u2(bm_n);
  for (std::size_t p = 0; p < bm_n; ++p) {
    bm_u1[p] = rng.uniform_positive();
    bm_u2[p] = rng.uniform();
  }
  Lap boxm = bitwise_lap(
      "box_muller", "n=" + std::to_string(bm_n) + " pairs x 2000",
      [&](const simd::KernelTable& t) {
        std::vector<double> out(2 * bm_n);
        for (std::size_t r = 0; r < batch(2000); ++r) {
          t.box_muller(bm_u1.data(), bm_u2.data(), bm_n, out.data());
          g_sink = out[0];
        }
        return out;
      },
      avx2);

  // --------------------------------------------------- quad_form_dots ----
  // st_MC's per-sample sums at the EV6 L2 block's 296 kept components
  // (grid 25), cycling over 64 samples' normals.
  const std::size_t qf_n = 296, qf_samples = 64;
  std::vector<double> qf_alpha(qf_n), qf_beta(qf_n), qf_lambda(qf_n);
  std::vector<double> qf_y(qf_n * qf_samples);
  for (std::size_t i = 0; i < qf_n; ++i) {
    qf_alpha[i] = 1e-2 * rng.normal();
    qf_beta[i] = 1e-4 * rng.normal();
    qf_lambda[i] = 1e-4 * rng.uniform();
  }
  for (double& x : qf_y) x = rng.normal();
  Lap qform = bitwise_lap(
      "quad_form_dots", "n=" + std::to_string(qf_n) + " x 400000",
      [&](const simd::KernelTable& t) {
        std::vector<double> out(3 * qf_samples);
        for (std::size_t r = 0; r < batch(400000); ++r) {
          const std::size_t sample = r % qf_samples;
          t.quad_form_dots(qf_alpha.data(), qf_beta.data(), qf_lambda.data(),
                           qf_y.data() + sample * qf_n, qf_n,
                           out.data() + 3 * sample);
        }
        g_sink = out[0];
        return out;
      },
      avx2);

  // Per-kernel auto-tier gates against this run's own timings.
  std::printf("\n");
  simd::configure("auto");
  gate_auto("dot_counts", dot, simd::KernelId::kDotCounts, avx2);
  gate_auto("matmul", gemm, simd::KernelId::kMatmul, avx2);
  gate_auto("gram_aat", gram, simd::KernelId::kGramAat, avx2);
  gate_auto("clenshaw_batch", clen, simd::KernelId::kClenshawBatch, avx2);
  gate_auto("tql2_rotate", rotate, simd::KernelId::kTql2Rotate, avx2);
  gate_auto("tred2_symv", symv, simd::KernelId::kTred2Symv, avx2);
  gate_auto("tred2_rank2", rank2, simd::KernelId::kTred2Rank2, avx2);
  gate_auto("tred2_reflect", reflect, simd::KernelId::kTred2Reflect, avx2);
  gate_auto("hybrid_row", hrow, simd::KernelId::kHybridRow, avx2);
  gate_auto("box_muller", boxm, simd::KernelId::kBoxMuller, avx2);
  gate_auto("quad_form_dots", qform, simd::KernelId::kQuadFormDots, avx2);

  bool pass = true;
  for (const Lap* lap :
       {&dot, &gemm, &gram, &clen, &rotate, &symv, &rank2, &reflect, &hrow,
        &boxm, &qform})
    pass = pass && lap->pass && lap->auto_pass;
  std::printf("\nexactness + auto-tier gates %s\n", pass ? "PASS" : "FAIL");

  std::string dir = csv_output_dir();
  const std::string path =
      (dir.empty() ? std::string{} : dir + "/") + "BENCH_simd.json";
  std::ofstream out(path);
  auto emit = [&](const char* name, const Lap& lap, bool last = false) {
    out << "  \"" << name << "\": {\n"
        << "    \"seconds_scalar\": " << lap.seconds_scalar << ",\n"
        << "    \"seconds_avx2\": " << lap.seconds_avx2 << ",\n"
        << "    \"speedup\": " << lap.speedup << ",\n"
        << "    \"auto_tier\": \"" << simd::to_string(lap.auto_tier)
        << "\",\n"
        << "    \"auto_margin\": " << lap.auto_margin << ",\n"
        << "    \"auto_pass\": " << (lap.auto_pass ? "true" : "false")
        << ",\n"
        << "    \"pass\": " << (lap.pass ? "true" : "false") << "\n"
        << "  }" << (last ? "\n" : ",\n");
  };
  out << "{\n"
      << "  \"avx2_available\": " << (avx2 ? "true" : "false") << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << ",\n";
  emit("dot_counts", dot);
  emit("matmul", gemm);
  emit("gram_aat", gram);
  emit("clenshaw_batch", clen);
  emit("tql2_rotate", rotate);
  emit("tred2_symv", symv);
  emit("tred2_rank2", rank2);
  emit("tred2_reflect", reflect);
  emit("hybrid_row", hrow);
  emit("box_muller", boxm);
  emit("quad_form_dots", qform, true);
  out << "}\n";
  std::printf("(wrote %s)\n", path.c_str());
  return pass ? 0 : 1;
}
