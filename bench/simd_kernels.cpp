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
//   tql2_rotate, tred2_symv, tred2_rank2, tred2_reflect
//                     bit-identical (FNV checksum equality)
//
// On top of the exactness gates, each lap gates the per-kernel tier that
// "auto" dispatch composes (simd::kernel_level): the picked tier's
// measured time must stay within kAutoSlack of the fastest available
// tier. That is what keeps the kAutoCap table in dispatch.cpp honest — a
// widest-tier regression (or a ratio flip on new hardware, e.g. the
// dot_counts AVX-512 fold overtaking AVX2) fails the bench instead of
// silently serving a slower kernel.
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
#include "common/csv.hpp"
#include "common/stopwatch.hpp"
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

// One lap of a bit-identical kernel: `run(table)` runs all reps from the
// same start state and returns the checksum of the final state, and every
// available vector tier must reproduce the scalar checksum. When the
// AVX-512 table serves the AVX2 function (`avx512_is_avx2`), that tier is
// the same code: it gets the AVX2 timing instead of a second run, so
// host jitter between two runs of one function cannot fail the auto-tier
// gate.
template <typename Run>
Lap bitwise_lap(const char* name, const std::string& shape, Run run,
                bool avx2, bool avx512, bool avx512_is_avx2) {
  Lap lap;
  obd::Stopwatch sw;
  const std::uint64_t cs_s = run(obd::simd::detail::kScalarKernels);
  lap.seconds_scalar = sw.seconds();
  if (avx2) {
    sw.reset();
    const std::uint64_t cs = run(obd::simd::detail::kAvx2Kernels);
    lap.seconds_avx2 = sw.seconds();
    lap.speedup = lap.seconds_scalar / lap.seconds_avx2;
    if (cs != cs_s) lap.pass = false;
  }
  if (avx512 && avx512_is_avx2) {
    lap.seconds_avx512 = lap.seconds_avx2;
    lap.speedup_avx512 = lap.speedup;
  } else if (avx512) {
    sw.reset();
    const std::uint64_t cs = run(obd::simd::detail::kAvx512Kernels);
    lap.seconds_avx512 = sw.seconds();
    lap.speedup_avx512 = lap.seconds_scalar / lap.seconds_avx512;
    if (cs != cs_s) lap.pass = false;
  }
  std::printf("[%s] %s: scalar %.3f s, avx2 %.3f s (%.1fx), avx512 %.3f s "
              "(%.1fx), bitwise %s\n",
              name, shape.c_str(), lap.seconds_scalar, lap.seconds_avx2,
              lap.speedup, lap.seconds_avx512, lap.speedup_avx512,
              lap.pass ? "IDENTICAL" : "DIFFER");
  return lap;
}

std::uint64_t checksum(const std::vector<double>& v) {
  BitChecksum cs;
  for (const double x : v) cs.add(x);
  return cs.value;
}

}  // namespace

int main() {
  using namespace obd;
  const std::size_t scale = bench::env_size("OBDREL_SIMD_BENCH_SCALE", 1);
  const bool avx2 = simd::can_use_avx2();
  const bool avx512 = simd::can_use_avx512();
  const auto& s = simd::detail::kScalarKernels;
  const auto& v = simd::detail::kAvx2Kernels;
  const auto& w = simd::detail::kAvx512Kernels;

  std::printf(
      "SIMD kernel layer: scalar vs AVX2 vs AVX-512 (avx2+fma %s, "
      "avx512f+dq %s), scale %zu\n\n",
      avx2 ? "available" : "UNAVAILABLE - laps skipped",
      avx512 ? "available" : "UNAVAILABLE - laps skipped", scale);

  stats::Rng rng(2026);

  // ------------------------------------------------- fill_bin_factors ----
  Lap fill;
  {
    const std::size_t bins = 512;
    const std::size_t reps = 20000 * scale;
    const double gb = -7.25, x_lo = 1.8, step = 0.8 / 512.0;
    std::vector<double> a(bins), b(bins), c(bins);
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) {
      s.fill_bin_factors(gb, x_lo, step, bins, a.data());
      g_sink = a[0];
    }
    fill.seconds_scalar = sw.seconds();
    if (avx2) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r) {
        v.fill_bin_factors(gb, x_lo, step, bins, b.data());
        g_sink = b[0];
      }
      fill.seconds_avx2 = sw.seconds();
      fill.speedup = fill.seconds_scalar / fill.seconds_avx2;
      for (std::size_t i = 0; i < bins; ++i)
        if (std::abs(b[i] - a[i]) / a[i] > 1e-12) fill.pass = false;
    }
    if (avx512) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r) {
        w.fill_bin_factors(gb, x_lo, step, bins, c.data());
        g_sink = c[0];
      }
      fill.seconds_avx512 = sw.seconds();
      fill.speedup_avx512 = fill.seconds_scalar / fill.seconds_avx512;
      for (std::size_t i = 0; i < bins; ++i)
        if (std::abs(c[i] - a[i]) / a[i] > 1e-12) fill.pass = false;
    }
    std::printf("[fill_bin_factors] %zu bins x %zu: scalar %.3f s, avx2 "
                "%.3f s (%.1fx), avx512 %.3f s (%.1fx), drift gate %s\n",
                bins, reps, fill.seconds_scalar, fill.seconds_avx2,
                fill.speedup, fill.seconds_avx512, fill.speedup_avx512,
                fill.pass ? "PASS" : "FAIL");
  }

  // ------------------------------------------------------- dot_counts ----
  Lap dot;
  {
    const std::size_t n = 4096;
    const std::size_t reps = 50000 * scale;
    std::vector<std::uint32_t> c(n);
    std::vector<double> e(n);
    for (std::size_t i = 0; i < n; ++i) {
      c[i] = static_cast<std::uint32_t>(rng.uniform() * 1e6);
      e[i] = std::exp(-6.0 * rng.uniform());
    }
    BitChecksum cs_s, cs_v, cs_w;
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r)
      g_sink = s.dot_counts(c.data(), e.data(), n);
    dot.seconds_scalar = sw.seconds();
    cs_s.add(s.dot_counts(c.data(), e.data(), n));
    if (avx2) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r)
        g_sink = v.dot_counts(c.data(), e.data(), n);
      dot.seconds_avx2 = sw.seconds();
      dot.speedup = dot.seconds_scalar / dot.seconds_avx2;
      cs_v.add(v.dot_counts(c.data(), e.data(), n));
      if (cs_s.value != cs_v.value) dot.pass = false;
    }
    if (avx512) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r)
        g_sink = w.dot_counts(c.data(), e.data(), n);
      dot.seconds_avx512 = sw.seconds();
      dot.speedup_avx512 = dot.seconds_scalar / dot.seconds_avx512;
      cs_w.add(w.dot_counts(c.data(), e.data(), n));
      if (cs_s.value != cs_w.value) dot.pass = false;
    }
    std::printf("[dot_counts] n=%zu x %zu: scalar %.3f s, avx2 %.3f s "
                "(%.1fx), avx512 %.3f s (%.1fx), bitwise %s\n",
                n, reps, dot.seconds_scalar, dot.seconds_avx2, dot.speedup,
                dot.seconds_avx512, dot.speedup_avx512,
                dot.pass ? "IDENTICAL" : "DIFFER");
  }

  // -------------------------------------------------- normal_cdf_batch ----
  Lap cdf;
  {
    const std::size_t n = 4096;
    const std::size_t reps = 2000 * scale;
    std::vector<double> z(n), a(n), b(n), c(n);
    for (std::size_t i = 0; i < n; ++i) z[i] = -20.0 + 40.0 * rng.uniform();
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) {
      s.normal_cdf_batch(z.data(), n, a.data());
      g_sink = a[0];
    }
    cdf.seconds_scalar = sw.seconds();
    if (avx2) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r) {
        v.normal_cdf_batch(z.data(), n, b.data());
        g_sink = b[0];
      }
      cdf.seconds_avx2 = sw.seconds();
      cdf.speedup = cdf.seconds_scalar / cdf.seconds_avx2;
      for (std::size_t i = 0; i < n; ++i)
        if (a[i] > 1e-300 && std::abs(b[i] - a[i]) / a[i] > 1e-12)
          cdf.pass = false;
    }
    if (avx512) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r) {
        w.normal_cdf_batch(z.data(), n, c.data());
        g_sink = c[0];
      }
      cdf.seconds_avx512 = sw.seconds();
      cdf.speedup_avx512 = cdf.seconds_scalar / cdf.seconds_avx512;
      for (std::size_t i = 0; i < n; ++i)
        if (a[i] > 1e-300 && std::abs(c[i] - a[i]) / a[i] > 1e-12)
          cdf.pass = false;
    }
    std::printf("[normal_cdf_batch] n=%zu x %zu: scalar %.3f s, avx2 %.3f "
                "s (%.1fx), avx512 %.3f s (%.1fx), error gate %s\n",
                n, reps, cdf.seconds_scalar, cdf.seconds_avx2, cdf.speedup,
                cdf.seconds_avx512, cdf.speedup_avx512,
                cdf.pass ? "PASS" : "FAIL");
  }

  // ------------------------------------------------------ matmul (GEMM) ----
  Lap gemm;
  {
    const std::size_t m = 96, k = 96, n = 96;
    const std::size_t reps = 200 * scale;
    std::vector<double> a(m * k), bm(k * n), os(m * n), ov(m * n), ow(m * n);
    for (double& x : a) x = rng.normal();
    for (double& x : bm) x = rng.normal();
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) {
      std::fill(os.begin(), os.end(), 0.0);
      s.matmul(a.data(), bm.data(), os.data(), m, k, n);
      g_sink = os[0];
    }
    gemm.seconds_scalar = sw.seconds();
    BitChecksum cs_s;
    for (std::size_t i = 0; i < m * n; ++i) cs_s.add(os[i]);
    if (avx2) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r) {
        std::fill(ov.begin(), ov.end(), 0.0);
        v.matmul(a.data(), bm.data(), ov.data(), m, k, n);
        g_sink = ov[0];
      }
      gemm.seconds_avx2 = sw.seconds();
      gemm.speedup = gemm.seconds_scalar / gemm.seconds_avx2;
      BitChecksum cs_v;
      for (std::size_t i = 0; i < m * n; ++i) cs_v.add(ov[i]);
      if (cs_s.value != cs_v.value) gemm.pass = false;
    }
    if (avx512) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r) {
        std::fill(ow.begin(), ow.end(), 0.0);
        w.matmul(a.data(), bm.data(), ow.data(), m, k, n);
        g_sink = ow[0];
      }
      gemm.seconds_avx512 = sw.seconds();
      gemm.speedup_avx512 = gemm.seconds_scalar / gemm.seconds_avx512;
      BitChecksum cs_w;
      for (std::size_t i = 0; i < m * n; ++i) cs_w.add(ow[i]);
      if (cs_s.value != cs_w.value) gemm.pass = false;
    }
    std::printf("[matmul] %zux%zux%zu x %zu: scalar %.3f s, avx2 %.3f s "
                "(%.1fx), avx512 %.3f s (%.1fx), bitwise %s\n",
                m, k, n, reps, gemm.seconds_scalar, gemm.seconds_avx2,
                gemm.speedup, gemm.seconds_avx512, gemm.speedup_avx512,
                gemm.pass ? "IDENTICAL" : "DIFFER");
  }

  // ---------------------------------------------------- gram_aat (SYRK) ----
  Lap gram;
  {
    const std::size_t n = 144, k = 512;
    const std::size_t reps = 100 * scale;
    std::vector<double> a(n * k), gs(n * n), gv(n * n), gw(n * n);
    for (double& x : a) x = rng.normal();
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) {
      s.gram_aat(a.data(), gs.data(), n, k);
      g_sink = gs[0];
    }
    gram.seconds_scalar = sw.seconds();
    BitChecksum cs_s;
    for (std::size_t i = 0; i < n * n; ++i) cs_s.add(gs[i]);
    if (avx2) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r) {
        v.gram_aat(a.data(), gv.data(), n, k);
        g_sink = gv[0];
      }
      gram.seconds_avx2 = sw.seconds();
      gram.speedup = gram.seconds_scalar / gram.seconds_avx2;
      BitChecksum cs_v;
      for (std::size_t i = 0; i < n * n; ++i) cs_v.add(gv[i]);
      if (cs_s.value != cs_v.value) gram.pass = false;
    }
    if (avx512) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r) {
        w.gram_aat(a.data(), gw.data(), n, k);
        g_sink = gw[0];
      }
      gram.seconds_avx512 = sw.seconds();
      gram.speedup_avx512 = gram.seconds_scalar / gram.seconds_avx512;
      BitChecksum cs_w;
      for (std::size_t i = 0; i < n * n; ++i) cs_w.add(gw[i]);
      if (cs_s.value != cs_w.value) gram.pass = false;
    }
    std::printf("[gram_aat] %zux%zu x %zu: scalar %.3f s, avx2 %.3f s "
                "(%.1fx), avx512 %.3f s (%.1fx), bitwise %s\n",
                n, k, reps, gram.seconds_scalar, gram.seconds_avx2,
                gram.speedup, gram.seconds_avx512, gram.speedup_avx512,
                gram.pass ? "IDENTICAL" : "DIFFER");
  }

  // --------------------------------------------------- clenshaw_batch ----
  Lap clen;
  {
    const std::size_t n = 25, m = 64;
    const std::size_t reps = 100000 * scale;
    std::vector<double> coeffs(n * m), os(m), ov(m), ow(m);
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t p = 0; p < m; ++p)
        coeffs[k * m + p] =
            rng.normal() / (1.0 + static_cast<double>(k * k));
    const double u = -0.37;
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) {
      s.clenshaw_batch(coeffs.data(), n, m, u, os.data());
      g_sink = os[0];
    }
    clen.seconds_scalar = sw.seconds();
    BitChecksum cs_s;
    for (std::size_t p = 0; p < m; ++p) cs_s.add(os[p]);
    if (avx2) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r) {
        v.clenshaw_batch(coeffs.data(), n, m, u, ov.data());
        g_sink = ov[0];
      }
      clen.seconds_avx2 = sw.seconds();
      clen.speedup = clen.seconds_scalar / clen.seconds_avx2;
      BitChecksum cs_v;
      for (std::size_t p = 0; p < m; ++p) cs_v.add(ov[p]);
      if (cs_s.value != cs_v.value) clen.pass = false;
    }
    if (avx512) {
      sw.reset();
      for (std::size_t r = 0; r < reps; ++r) {
        w.clenshaw_batch(coeffs.data(), n, m, u, ow.data());
        g_sink = ow[0];
      }
      clen.seconds_avx512 = sw.seconds();
      clen.speedup_avx512 = clen.seconds_scalar / clen.seconds_avx512;
      BitChecksum cs_w;
      for (std::size_t p = 0; p < m; ++p) cs_w.add(ow[p]);
      if (cs_s.value != cs_w.value) clen.pass = false;
    }
    std::printf("[clenshaw_batch] n=%zu m=%zu x %zu: scalar %.3f s, avx2 "
                "%.3f s (%.1fx), avx512 %.3f s (%.1fx), bitwise %s\n",
                n, m, reps, clen.seconds_scalar, clen.seconds_avx2,
                clen.speedup, clen.seconds_avx512, clen.speedup_avx512,
                clen.pass ? "IDENTICAL" : "DIFFER");
  }

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
        for (std::size_t r = 0; r < 100000 * scale; ++r)
          t.tql2_rotate(z.data(), z.data() + en, 0.6, -0.8, en);
        return checksum(z);
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
        for (std::size_t r = 0; r < 4000 * scale; ++r) {
          t.tred2_symv(tri.data(), en, tri_u, em, e.data());
          g_sink = e[0];
        }
        return checksum(e);
      },
      avx2, avx512, w.tred2_symv == v.tred2_symv);
  Lap rank2 = bitwise_lap(
      "tred2_rank2", "m=" + std::to_string(em) + " x 4000",
      [&](const simd::KernelTable& t) {
        std::vector<double> a = tri;
        std::vector<double> e(tri.begin(), tri.begin() + em);
        for (std::size_t r = 0; r < 4000 * scale; ++r)
          t.tred2_rank2(a.data(), en, a.data() + em * en, 1e-3, em,
                        e.data());
        return checksum(a) ^ checksum(e);
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
        for (std::size_t r = 0; r < 2000 * scale; ++r)
          t.tred2_reflect(a.data(), en, em, a.data() + em * en,
                          refl_w.data(), em);
        return checksum(a);
      },
      avx2, avx512, w.tred2_reflect == v.tred2_reflect);

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

  bool pass = true;
  for (const Lap* lap :
       {&fill, &dot, &cdf, &gemm, &gram, &clen, &rotate, &symv, &rank2,
        &reflect})
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
  emit("tred2_reflect", reflect, true);
  out << "}\n";
  std::printf("(wrote %s)\n", path.c_str());
  return pass ? 0 : 1;
}
