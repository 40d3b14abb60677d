// Scalar vs AVX2 vs AVX-512 timings and exactness gates for the
// dispatched SIMD kernel layer (src/simd). Each section times the scalar
// reference table against the vector tables on the same inputs and checks
// the contract from simd/kernels.hpp (the same contract for both vector
// tiers):
//
//   fill_bin_factors  bounded relative drift (<= 1e-12 vs scalar)
//   dot_counts        bit-identical (FNV checksum equality)
//   normal_cdf_batch  bounded relative error (<= 1e-12 where > 1e-300)
//   matmul (GEMM)     bit-identical
//   gram_aat (SYRK)   bit-identical
//   clenshaw_batch    bit-identical (FNV checksum equality)
//   tql2_rotate, tred2_symv, tred2_rank2, tred2_reflect, hybrid_row
//                     bit-identical (FNV checksum equality)
//
// On top of the exactness gates, each lap gates the per-kernel tier that
// "auto" dispatch composes (simd::kernel_level): the picked tier's
// measured time must stay within kAutoSlack of the fastest available
// tier. That is what keeps the kAutoCap table in dispatch.cpp honest — a
// widest-tier regression (or a ratio flip on new hardware, e.g. the
// dot_counts AVX-512 fold overtaking AVX2) fails the bench instead of
// silently serving a slower kernel. The tiers of a lap are timed
// alternately, batch by batch, and each keeps its fastest batch (kRounds
// batches per tier), so a slow spell on the host or an unlucky heap
// placement in one tier's run cannot flip the gate on its own; a lap's
// seconds are one batch's.
//
// Results go to BENCH_simd.json (in $OBDREL_CSV_DIR when set). The exit
// code reflects the exactness and auto-tier gates only; raw speedups are
// reported for the acceptance tables but depend on the host. When a
// vector tier is unavailable its laps are skipped and the gates pass
// vacuously (recorded as "avx2_available" / "avx512_available": false).
// Per-lap JSON keeps the original scalar/AVX2 keys and adds
// seconds_avx512 / speedup_avx512 / auto_tier / auto_margin / auto_pass.
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

struct Lap {
  double seconds_scalar = 0.0;
  double seconds_avx2 = 0.0;
  double seconds_avx512 = 0.0;
  double speedup = 0.0;         // scalar / avx2
  double speedup_avx512 = 0.0;  // scalar / avx512
  bool pass = true;             // every available tier met its gate
  obd::simd::Level auto_tier = obd::simd::Level::kScalar;  // what auto picks
  double auto_margin = 0.0;  // picked tier seconds / fastest tier seconds
  bool auto_pass = true;     // auto_margin <= kAutoSlack
};

// Timing slack for the auto-tier gate: the picked tier may trail the
// fastest measured tier by this factor before the gate fails (run-to-run
// jitter on a shared box is real; the dot_counts AVX-512/AVX2 gap this
// gate exists to catch is ~1.6x).
constexpr double kAutoSlack = 1.25;

// Rounds per lap. Each round runs one batch per tier, the tiers in turn
// with the first one rotating, and a tier's time is its fastest round:
// a slow spell on the host lands on every tier alike instead of on
// whichever tier happened to be running.
constexpr std::size_t kRounds = 10;

double tier_seconds(const Lap& lap, obd::simd::Level level) {
  switch (level) {
    case obd::simd::Level::kAvx512:
      return lap.seconds_avx512;
    case obd::simd::Level::kAvx2:
      return lap.seconds_avx2;
    default:
      return lap.seconds_scalar;
  }
}

// Gates that the tier "auto" composes for `id` is (within slack) the
// fastest one this run measured. Requires simd::configure("auto") to have
// run so kernel_level reflects the composed table.
void gate_auto(const char* name, Lap& lap, obd::simd::KernelId id,
               bool avx2, bool avx512) {
  lap.auto_tier = obd::simd::kernel_level(id);
  double best = lap.seconds_scalar;
  if (avx2) best = std::min(best, lap.seconds_avx2);
  if (avx512) best = std::min(best, lap.seconds_avx512);
  const double picked = tier_seconds(lap, lap.auto_tier);
  lap.auto_margin = best > 0.0 ? picked / best : 1.0;
  lap.auto_pass = lap.auto_margin <= kAutoSlack;
  std::printf("[%s] auto picks %s (%.2fx of fastest) %s\n", name,
              obd::simd::to_string(lap.auto_tier), lap.auto_margin,
              lap.auto_pass ? "PASS" : "FAIL");
}

volatile double g_sink = 0.0;  // keeps the optimizer honest across reps

// One lap: `run(table)` runs one batch of reps from a fixed start state
// and returns the final state, and `agree(scalar, vector)` is the
// kernel's contract between the scalar state and a vector tier's. Every
// available tier runs kRounds batches, interleaved with the others; its
// time is the fastest batch. When the AVX-512 table serves the AVX2
// function (`avx512_is_avx2`), that tier is the same code: it gets the
// AVX2 timing instead of batches of its own, so host jitter between two
// runs of one function cannot fail the auto-tier gate.
template <typename Run, typename Agree>
Lap timed_lap(const char* name, const std::string& shape, const char* gate,
              Run run, Agree agree, bool avx2, bool avx512,
              bool avx512_is_avx2) {
  using obd::simd::KernelTable;
  const KernelTable* tables[] = {&obd::simd::detail::kScalarKernels,
                                 &obd::simd::detail::kAvx2Kernels,
                                 &obd::simd::detail::kAvx512Kernels};
  const bool timed[] = {true, avx2, avx512 && !avx512_is_avx2};
  double best[] = {1e300, 1e300, 1e300};
  std::vector<double> state[3];
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      const std::size_t tier = (round + i) % 3;
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
    lap.pass = lap.pass && agree(state[0], state[1]);
  }
  if (avx512) {
    lap.seconds_avx512 = avx512_is_avx2 ? best[1] : best[2];
    lap.speedup_avx512 = lap.seconds_scalar / lap.seconds_avx512;
    if (!avx512_is_avx2) lap.pass = lap.pass && agree(state[0], state[2]);
  }
  std::printf("[%s] %s: scalar %.4f s, avx2 %.4f s (%.1fx), avx512 %.4f s "
              "(%.1fx), %s %s\n",
              name, shape.c_str(), lap.seconds_scalar, lap.seconds_avx2,
              lap.speedup, lap.seconds_avx512, lap.speedup_avx512, gate,
              lap.pass ? "PASS" : "FAIL");
  return lap;
}

std::uint64_t checksum(const std::vector<double>& v) {
  BitChecksum cs;
  for (const double x : v) cs.add(x);
  return cs.value;
}

// A lap of a bit-identical kernel: every vector tier must reproduce the
// scalar state's bit checksum.
template <typename Run>
Lap bitwise_lap(const char* name, const std::string& shape, Run run,
                bool avx2, bool avx512, bool avx512_is_avx2) {
  return timed_lap(
      name, shape, "bitwise", run,
      [](const std::vector<double>& a, const std::vector<double>& b) {
        return checksum(a) == checksum(b);
      },
      avx2, avx512, avx512_is_avx2);
}

// Relative agreement within `tol` wherever the scalar value exceeds
// `floor` in magnitude.
auto within(double tol, double floor) {
  return [tol, floor](const std::vector<double>& a,
                      const std::vector<double>& b) {
    for (std::size_t i = 0; i < a.size(); ++i)
      if (std::abs(a[i]) > floor &&
          std::abs(b[i] - a[i]) > tol * std::abs(a[i]))
        return false;
    return a.size() == b.size();
  };
}

}  // namespace

int main() {
  using namespace obd;
  const std::size_t scale = bench::env_size("OBDREL_SIMD_BENCH_SCALE", 1);
  const bool avx2 = simd::can_use_avx2();
  const bool avx512 = simd::can_use_avx512();
  const auto& v = simd::detail::kAvx2Kernels;
  const auto& w = simd::detail::kAvx512Kernels;

  std::printf(
      "SIMD kernel layer: scalar vs AVX2 vs AVX-512 (avx2+fma %s, "
      "avx512f+dq %s), scale %zu\n\n",
      avx2 ? "available" : "UNAVAILABLE - laps skipped",
      avx512 ? "available" : "UNAVAILABLE - laps skipped", scale);

  stats::Rng rng(2026);
  // Each lap's reps are split over kRounds batches per tier.
  const auto batch = [&](std::size_t reps) {
    return std::max<std::size_t>(1, reps * scale / kRounds);
  };

  // ------------------------------------------------- fill_bin_factors ----
  const std::size_t bins = 512;
  Lap fill = timed_lap(
      "fill_bin_factors", std::to_string(bins) + " bins x 20000",
      "drift gate",
      [&](const simd::KernelTable& t) {
        std::vector<double> out(bins);
        for (std::size_t r = 0; r < batch(20000); ++r) {
          t.fill_bin_factors(-7.25, 1.8, 0.8 / 512.0, bins, out.data());
          g_sink = out[0];
        }
        return out;
      },
      within(1e-12, 0.0), avx2, avx512, false);

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
      avx2, avx512, false);

  // -------------------------------------------------- normal_cdf_batch ----
  const std::size_t cdf_n = 4096;
  std::vector<double> z(cdf_n);
  for (double& x : z) x = -20.0 + 40.0 * rng.uniform();
  Lap cdf = timed_lap(
      "normal_cdf_batch", "n=" + std::to_string(cdf_n) + " x 2000",
      "error gate",
      [&](const simd::KernelTable& t) {
        std::vector<double> out(cdf_n);
        for (std::size_t r = 0; r < batch(2000); ++r) {
          t.normal_cdf_batch(z.data(), cdf_n, out.data());
          g_sink = out[0];
        }
        return out;
      },
      within(1e-12, 1e-300), avx2, avx512, false);

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
      avx2, avx512, false);

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
      avx2, avx512, false);

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
      avx2, avx512, false);

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
      avx2, avx512, w.tql2_rotate == v.tql2_rotate);

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
      avx2, avx512, w.tred2_symv == v.tred2_symv);
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
      avx2, avx512, w.tred2_rank2 == v.tred2_rank2);
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
      avx2, avx512, w.tred2_reflect == v.tred2_reflect);

  // ------------------------------------------------------- hybrid_row ----
  // Every 5th gamma row of one block's default 100 x 100 table, with the
  // 256 (u, v) nodes of a real problem's first block.
  const chip::Design design = chip::make_synthetic_design(
      "simd", {.devices = 30000, .block_count = 2, .seed = 5});
  core::ProblemOptions popts;
  popts.grid_cells_per_side = 8;
  const core::ReliabilityProblem problem = core::ReliabilityProblem::build(
      design, var::VariationBudget{}, core::AnalyticReliabilityModel{},
      {80.0, 60.0}, 1.2, popts);
  const core::HybridOptions hopts;
  std::vector<double> nu, nv, nw;
  const core::AnalyticAnalyzer integrator(problem);
  for (const auto& node : integrator.nodes()[0]) {
    nu.push_back(node.u);
    nv.push_back(node.v);
    nw.push_back(node.weight);
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
          std::to_string(nu.size()) + " nodes x 10",
      [&](const simd::KernelTable& t) {
        std::vector<double> table(hopts.n_gamma * hopts.n_b);
        for (std::size_t r = 0; r < batch(10); ++r) {
          for (std::size_t ig = 0; ig < hopts.n_gamma; ig += 5)
            t.hybrid_row(nu.data(), nv.data(), nw.data(), nu.size(),
                         hopts.gamma_lo + static_cast<double>(ig) * d_gamma,
                         hopts.b_lo, d_b, area, hopts.n_b,
                         table.data() + ig * hopts.n_b);
          g_sink = table[0];
        }
        return table;
      },
      avx2, avx512, w.hybrid_row == v.hybrid_row);

  // Per-kernel auto-tier gates against this run's own timings.
  std::printf("\n");
  simd::configure("auto");
  gate_auto("fill_bin_factors", fill, simd::KernelId::kFillBinFactors, avx2,
            avx512);
  gate_auto("dot_counts", dot, simd::KernelId::kDotCounts, avx2, avx512);
  gate_auto("normal_cdf_batch", cdf, simd::KernelId::kNormalCdfBatch, avx2,
            avx512);
  gate_auto("matmul", gemm, simd::KernelId::kMatmul, avx2, avx512);
  gate_auto("gram_aat", gram, simd::KernelId::kGramAat, avx2, avx512);
  gate_auto("clenshaw_batch", clen, simd::KernelId::kClenshawBatch, avx2,
            avx512);
  gate_auto("tql2_rotate", rotate, simd::KernelId::kTql2Rotate, avx2,
            avx512);
  gate_auto("tred2_symv", symv, simd::KernelId::kTred2Symv, avx2, avx512);
  gate_auto("tred2_rank2", rank2, simd::KernelId::kTred2Rank2, avx2, avx512);
  gate_auto("tred2_reflect", reflect, simd::KernelId::kTred2Reflect, avx2,
            avx512);
  gate_auto("hybrid_row", hrow, simd::KernelId::kHybridRow, avx2, avx512);

  bool pass = true;
  for (const Lap* lap :
       {&fill, &dot, &cdf, &gemm, &gram, &clen, &rotate, &symv, &rank2,
        &reflect, &hrow})
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
        << "    \"seconds_avx512\": " << lap.seconds_avx512 << ",\n"
        << "    \"speedup\": " << lap.speedup << ",\n"
        << "    \"speedup_avx512\": " << lap.speedup_avx512 << ",\n"
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
      << "  \"avx512_available\": " << (avx512 ? "true" : "false") << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << ",\n";
  emit("fill_bin_factors", fill);
  emit("dot_counts", dot);
  emit("normal_cdf_batch", cdf);
  emit("matmul", gemm);
  emit("gram_aat", gram);
  emit("clenshaw_batch", clen);
  emit("tql2_rotate", rotate);
  emit("tred2_symv", symv);
  emit("tred2_rank2", rank2);
  emit("tred2_reflect", reflect);
  emit("hybrid_row", hrow, true);
  out << "}\n";
  std::printf("(wrote %s)\n", path.c_str());
  return pass ? 0 : 1;
}
