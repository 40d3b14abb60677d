// Tests for the runtime-dispatched SIMD kernel layer: dispatch/config
// parsing, the per-kernel exactness contracts of kernels.hpp (bit-identity
// or documented ULP bounds between the scalar and AVX2 tables), the
// red-black SOR sweep, and the warm-started thermal retries.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chip/design.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/parallel.hpp"
#include "core/montecarlo.hpp"
#include "core/problem.hpp"
#include "power/power.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"
#include "thermal/solver.hpp"
#include "variation/model.hpp"

namespace obd {
namespace {

// Restores the process-wide dispatch level (and the OBDREL_SIMD variable)
// on scope exit so tests that flip global state cannot leak into others.
struct DispatchGuard {
  simd::Level saved = simd::active_level();
  ~DispatchGuard() {
    unsetenv("OBDREL_SIMD");
    simd::set_level(saved);
  }
};

// ------------------------------------------------------------------------
// Dispatch configuration

TEST(SimdDispatch, ConfigureAcceptsTheFourLevels) {
  DispatchGuard guard;
  simd::configure("scalar");
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  // "auto" picks the widest tier the host/build can run.
  simd::configure("auto");
  EXPECT_EQ(simd::active_level(),
            simd::can_use_avx512()
                ? simd::Level::kAvx512
                : simd::can_use_avx2() ? simd::Level::kAvx2
                                       : simd::Level::kScalar);
  if (simd::can_use_avx2()) {
    simd::configure("avx2");
    EXPECT_EQ(simd::active_level(), simd::Level::kAvx2);
  } else {
    EXPECT_THROW(
        {
          try {
            simd::configure("avx2");
          } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::kConfig);
            throw;
          }
        },
        Error);
  }
  if (simd::can_use_avx512()) {
    simd::configure("avx512");
    EXPECT_EQ(simd::active_level(), simd::Level::kAvx512);
  } else {
    EXPECT_THROW(
        {
          try {
            simd::configure("avx512");
          } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::kConfig);
            throw;
          }
        },
        Error);
  }
}

TEST(SimdDispatch, ConfigureRejectsUnknownSpec) {
  DispatchGuard guard;
  const simd::Level before = simd::active_level();
  try {
    simd::configure("sse9");
    FAIL() << "configure accepted a bogus level";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
    EXPECT_NE(std::string(e.what()).find("sse9"), std::string::npos);
  }
  // A rejected spec must not change the active level.
  EXPECT_EQ(simd::active_level(), before);
}

TEST(SimdDispatch, EnvVariableParsesAndRejects) {
  DispatchGuard guard;
  setenv("OBDREL_SIMD", "scalar", 1);
  simd::init_from_env();
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);

  setenv("OBDREL_SIMD", "turbo", 1);
  try {
    simd::init_from_env();
    FAIL() << "init_from_env accepted a bogus level";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
    // The error must name the environment variable, not just the value.
    EXPECT_NE(std::string(e.what()).find("OBDREL_SIMD"), std::string::npos);
  }

  // Unset: keeps an explicit earlier choice instead of resetting to auto.
  unsetenv("OBDREL_SIMD");
  simd::configure("scalar");
  simd::init_from_env();
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
}

// ------------------------------------------------------------------------
// Kernel table equality: scalar vs each vector tier. The same contract
// suite runs against the AVX2 and the AVX-512 tables (parameterized);
// unavailable tiers skip with the host capability in the message.

class SimdKernelPair : public ::testing::TestWithParam<simd::Level> {
 protected:
  void SetUp() override {
    if (GetParam() == simd::Level::kAvx512) {
      if (!simd::can_use_avx512())
        GTEST_SKIP() << "AVX-512F/DQ unavailable on this host/build";
      v_ = simd::detail::kAvx512Kernels;
    } else {
      if (!simd::can_use_avx2())
        GTEST_SKIP() << "AVX2+FMA unavailable on this host/build";
      v_ = simd::detail::kAvx2Kernels;
    }
  }
  const simd::KernelTable& s_ = simd::detail::kScalarKernels;
  simd::KernelTable v_{};  ///< the vector table under test (copied pointers)
};

INSTANTIATE_TEST_SUITE_P(
    VectorTiers, SimdKernelPair,
    ::testing::Values(simd::Level::kAvx2, simd::Level::kAvx512),
    [](const ::testing::TestParamInfo<simd::Level>& info) {
      return std::string(simd::to_string(info.param));
    });

TEST_P(SimdKernelPair, DotCountsIsBitIdentical) {
  stats::Rng rng(101);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{31}, std::size_t{64}, std::size_t{1000},
        std::size_t{1001}, std::size_t{1002}, std::size_t{1003}}) {
    std::vector<std::uint32_t> c(n);
    std::vector<double> e(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix small counts with values near 2^32 - 1 to exercise the exact
      // uint32 -> double conversion in the vector path.
      c[i] = (i % 5 == 0) ? 4294967290u + static_cast<std::uint32_t>(i % 5)
                          : static_cast<std::uint32_t>(rng.uniform() * 1e6);
      e[i] = std::exp(-6.0 * rng.uniform());
    }
    const double a = s_.dot_counts(c.data(), e.data(), n);
    const double b = v_.dot_counts(c.data(), e.data(), n);
    EXPECT_EQ(a, b) << "n = " << n;
  }
}

TEST_P(SimdKernelPair, DotCountsMatchesFourLaneReference) {
  // Pin the documented lane structure itself, not just cross-level
  // agreement: lane l sums elements 4j + l, tail into lane 0, combined as
  // (a0 + a2) + (a1 + a3).
  const std::size_t n = 1003;
  std::vector<std::uint32_t> c(n);
  std::vector<double> e(n);
  stats::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = static_cast<std::uint32_t>(rng.uniform() * 1e9);
    e[i] = rng.normal();
  }
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    a0 += static_cast<double>(c[k]) * e[k];
    a1 += static_cast<double>(c[k + 1]) * e[k + 1];
    a2 += static_cast<double>(c[k + 2]) * e[k + 2];
    a3 += static_cast<double>(c[k + 3]) * e[k + 3];
  }
  for (; k < n; ++k) a0 += static_cast<double>(c[k]) * e[k];
  const double ref = (a0 + a2) + (a1 + a3);
  EXPECT_EQ(s_.dot_counts(c.data(), e.data(), n), ref);
  EXPECT_EQ(v_.dot_counts(c.data(), e.data(), n), ref);
}

TEST_P(SimdKernelPair, FillBinFactorsStaysNearScalarAndExactExp) {
  const double gb = -7.25;
  const double x_lo = 1.8;
  for (const std::size_t bins :
       {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{512}, std::size_t{1000}}) {
    const double step = 0.8 / static_cast<double>(std::max<std::size_t>(
                                  bins, std::size_t{2}));
    std::vector<double> a(bins);
    std::vector<double> b(bins);
    s_.fill_bin_factors(gb, x_lo, step, bins, a.data());
    v_.fill_bin_factors(gb, x_lo, step, bins, b.data());
    for (std::size_t i = 0; i < bins; ++i) {
      const double exact = std::exp(
          gb * (x_lo + (static_cast<double>(i) + 0.5) * step));
      EXPECT_LE(std::abs(b[i] - a[i]) / exact, 1e-12)
          << "bins " << bins << " bin " << i;
      // The vector recurrence has shorter rounding chains than the scalar
      // one, so it must track the exact exponential at least as tightly.
      EXPECT_LE(std::abs(b[i] - exact) / exact, 1e-13)
          << "bins " << bins << " bin " << i;
    }
  }
}

TEST_P(SimdKernelPair, NormalCdfBatchMatchesScalarReference) {
  std::vector<double> z;
  for (double x = -40.0; x <= 40.0; x += 0.0097) z.push_back(x);
  std::vector<double> a(z.size());
  std::vector<double> b(z.size());
  s_.normal_cdf_batch(z.data(), z.size(), a.data());
  v_.normal_cdf_batch(z.data(), z.size(), b.data());
  for (std::size_t i = 0; i < z.size(); ++i) {
    // The scalar batch must be bit-identical to stats::normal_cdf — the
    // binned sampler's scalar path relies on it for seed-stable draws.
    ASSERT_EQ(a[i], stats::normal_cdf(z[i])) << "z = " << z[i];
    if (a[i] > 1e-300 && a[i] < 1.0) {
      EXPECT_LE(std::abs(b[i] - a[i]) / a[i], 1e-12) << "z = " << z[i];
    }
  }
  // Saturation: the polynomial path must hit the limits exactly where the
  // scalar erfc underflows/rounds to them.
  const double far[] = {-45.0, -40.5, 40.5, 45.0};
  double sat[4];
  v_.normal_cdf_batch(far, 4, sat);
  EXPECT_EQ(sat[0], 0.0);
  EXPECT_EQ(sat[1], 0.0);
  EXPECT_EQ(sat[2], 1.0);
  EXPECT_EQ(sat[3], 1.0);
  // In-place evaluation (out == z) is part of the contract.
  std::vector<double> inplace = z;
  v_.normal_cdf_batch(inplace.data(), inplace.size(), inplace.data());
  for (std::size_t i = 0; i < z.size(); ++i)
    ASSERT_EQ(inplace[i], b[i]) << "z = " << z[i];
}

TEST_P(SimdKernelPair, MatmulBitIdenticalAcrossLevelsAndToNaiveLoop) {
  stats::Rng rng(31);
  stats::Rng start_rng(32);
  struct Shape {
    std::size_t m, k, n;
  };
  // The kernel accumulates into out (out += a*b in ascending k), so each
  // shape is checked from a zero-filled out and from non-zero per-row
  // start values, as the st_MC sampler calls it (each row starts at its
  // cell's nominal thickness). 325x296x64 is that sampler's batch shape on
  // the EV6 problem and crosses the 256-wide k tile.
  for (const Shape sh : {Shape{5, 7, 9}, Shape{17, 33, 8}, Shape{1, 300, 1},
                         Shape{48, 48, 48}, Shape{325, 296, 64}}) {
    std::vector<double> a(sh.m * sh.k);
    std::vector<double> b(sh.k * sh.n);
    for (double& x : a) x = rng.uniform() < 0.2 ? 0.0 : rng.normal();
    for (double& x : b) x = rng.normal();
    std::vector<double> row_starts(sh.m * sh.n);
    for (std::size_t i = 0; i < sh.m; ++i)
      std::fill_n(row_starts.begin() + i * sh.n, sh.n,
                  2.2 + 0.1 * start_rng.normal());
    for (const auto& start :
         {std::vector<double>(sh.m * sh.n, 0.0), row_starts}) {
      // Historical naive ikj loop with the a == 0.0 skip.
      std::vector<double> ref = start;
      for (std::size_t i = 0; i < sh.m; ++i)
        for (std::size_t kk = 0; kk < sh.k; ++kk) {
          const double av = a[i * sh.k + kk];
          if (av == 0.0) continue;
          for (std::size_t j = 0; j < sh.n; ++j)
            ref[i * sh.n + j] += av * b[kk * sh.n + j];
        }
      std::vector<double> outs = start;
      std::vector<double> outv = start;
      s_.matmul(a.data(), b.data(), outs.data(), sh.m, sh.k, sh.n);
      v_.matmul(a.data(), b.data(), outv.data(), sh.m, sh.k, sh.n);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(outs[i], ref[i]) << sh.m << "x" << sh.k << "x" << sh.n
                                   << " start " << start[i] << " element "
                                   << i;
        ASSERT_EQ(outv[i], ref[i]) << sh.m << "x" << sh.k << "x" << sh.n
                                   << " start " << start[i] << " element "
                                   << i;
      }
    }
  }
}

TEST_P(SimdKernelPair, GramAatBitIdentical) {
  stats::Rng rng(57);
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{9, 13},
                            {1, 5},
                            {25, 3},
                            {40, 40}}) {
    std::vector<double> a(n * k);
    for (double& x : a) x = rng.normal();
    std::vector<double> gs(n * n, -1.0);
    std::vector<double> gv(n * n, -1.0);
    s_.gram_aat(a.data(), gs.data(), n, k);
    v_.gram_aat(a.data(), gv.data(), n, k);
    for (std::size_t i = 0; i < n * n; ++i)
      ASSERT_EQ(gs[i], gv[i]) << n << "x" << k << " element " << i;
  }
}

TEST_P(SimdKernelPair, MatvecWithinDotProductRounding) {
  stats::Rng rng(93);
  const std::size_t rows = 37;
  const std::size_t cols = 101;
  std::vector<double> a(rows * cols);
  std::vector<double> x(cols);
  for (double& u : a) u = rng.normal();
  for (double& u : x) u = rng.normal();
  std::vector<double> ys(rows, 0.0);
  std::vector<double> yv(rows, 0.0);
  s_.matvec(a.data(), x.data(), ys.data(), rows, cols);
  v_.matvec(a.data(), x.data(), yv.data(), rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    // Scalar path: bit-identical to the historical single-chain loop.
    double ref = 0.0;
    double mag = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      ref += a[r * cols + c] * x[c];
      mag += std::abs(a[r * cols + c] * x[c]);
    }
    ASSERT_EQ(ys[r], ref) << "row " << r;
    EXPECT_LE(std::abs(yv[r] - ref), 1e-13 * std::max(mag, 1.0))
        << "row " << r;
  }
}

TEST_P(SimdKernelPair, ClenshawBatchBitIdenticalAndMatchesDirectSum) {
  stats::Rng rng(77);
  for (const std::size_t m :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{7}, std::size_t{8}, std::size_t{9},
        std::size_t{15}, std::size_t{16}, std::size_t{17}, std::size_t{19}}) {
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
          std::size_t{8}, std::size_t{13}, std::size_t{25}}) {
      std::vector<double> coeffs(n * m);
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t p = 0; p < m; ++p)
          coeffs[k * m + p] =
              rng.normal() / (1.0 + static_cast<double>(k * k));
      for (const double u : {-1.0, -0.73, 0.0, 0.31, 1.0}) {
        std::vector<double> outs(m, -1.0);
        std::vector<double> outv(m, -1.0);
        s_.clenshaw_batch(coeffs.data(), n, m, u, outs.data());
        v_.clenshaw_batch(coeffs.data(), n, m, u, outv.data());
        for (std::size_t p = 0; p < m; ++p) {
          // Bit-identical across tiers: lanes map to independent pencils,
          // so width never changes any rounding. The surrogate's
          // certified envelopes rest on this.
          ASSERT_EQ(outs[p], outv[p])
              << "m=" << m << " n=" << n << " u=" << u << " pencil " << p;
          // And the value is the Chebyshev sum it claims to be.
          double tk2 = 1.0, tk1 = u;
          double ref = coeffs[p];
          double mag = std::abs(coeffs[p]);
          if (n > 1) {
            ref += coeffs[m + p] * u;
            mag += std::abs(coeffs[m + p]);
          }
          for (std::size_t k = 2; k < n; ++k) {
            const double tk = 2.0 * u * tk1 - tk2;
            ref += coeffs[k * m + p] * tk;
            mag += std::abs(coeffs[k * m + p]);
            tk2 = tk1;
            tk1 = tk;
          }
          EXPECT_NEAR(outs[p], ref, 1e-12 * std::max(mag, 1.0))
              << "m=" << m << " n=" << n << " u=" << u << " pencil " << p;
        }
      }
    }
  }
  // n == 0 zero-fills regardless of the garbage in out.
  double out3[3] = {-1.0, -1.0, -1.0};
  v_.clenshaw_batch(nullptr, 0, 3, 0.5, out3);
  EXPECT_EQ(out3[0], 0.0);
  EXPECT_EQ(out3[1], 0.0);
  EXPECT_EQ(out3[2], 0.0);
}

// ------------------------------------------------------------------------
// Eigensolver kernels: bit-identical across levels AND to the tred2/tql2
// loops la::eigen_symmetric ran before they moved into the kernel table.

// Mostly normal values, with signed zeros, subnormals and magnitudes whose
// products land in the subnormal range mixed in.
double eigen_kernel_value(stats::Rng& rng) {
  const double p = rng.uniform();
  if (p < 0.08) return 0.0;
  if (p < 0.16) return -0.0;
  if (p < 0.24)
    return (rng.uniform() < 0.5 ? -0x1p-1060 : 0x1p-1060) *
           (1.0 + rng.uniform());
  if (p < 0.32) return 0x1p-520 * rng.normal();
  return rng.normal();
}

std::vector<double> eigen_kernel_values(stats::Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = eigen_kernel_value(rng);
  return v;
}

// Bitwise equality, so that -0.0 differs from 0.0.
void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
}

TEST_P(SimdKernelPair, Tql2RotateBitIdenticalToHistoricalLoop) {
  stats::Rng rng(211);
  const double angle = 0.7;
  const std::pair<double, double> cs[] = {
      {std::cos(angle), std::sin(angle)}, {0.6, -0.8}, {1.0, -0.0},
      {-0.0, 1.0}, {0x1p-600, 1.0}};
  for (std::size_t n = 0; n <= 19; ++n) {
    for (const auto& [c, s] : cs) {
      // Rows i and i + 1 of zt, as ql_implicit rotated them.
      std::vector<double> zt = eigen_kernel_values(rng, 2 * n);
      const auto at = [&](std::vector<double>& m, std::size_t r,
                          std::size_t k) -> double& { return m[r * n + k]; };
      std::vector<double> ref = zt;
      for (std::size_t k = 0; k < n; ++k) {
        const double f = at(ref, 1, k);
        at(ref, 1, k) = s * at(ref, 0, k) + c * f;
        at(ref, 0, k) = c * at(ref, 0, k) - s * f;
      }
      std::vector<double> zs = zt;
      std::vector<double> zv = zt;
      s_.tql2_rotate(zs.data(), zs.data() + n, c, s, n);
      v_.tql2_rotate(zv.data(), zv.data() + n, c, s, n);
      const std::string what = "n " + std::to_string(n);
      expect_same_bits(zs, ref, "scalar " + what);
      expect_same_bits(zv, ref, "vector " + what);
    }
  }
}

TEST_P(SimdKernelPair, Tred2SymvBitIdenticalToHistoricalLoop) {
  stats::Rng rng(223);
  for (std::size_t m = 0; m <= 21; ++m) {
    // Rows 0..m-1 hold the lower triangle, row m holds u (row i of the
    // reduction), with padding past each row as in a wider matrix.
    const std::size_t lda = m + 3;
    const std::vector<double> a = eigen_kernel_values(rng, (m + 1) * lda);
    const std::vector<double> e0 = eigen_kernel_values(rng, m);
    const auto at = [&](std::size_t r, std::size_t c) { return a[r * lda + c]; };
    const std::size_t i = m;
    std::vector<double> ref = e0;
    for (std::size_t k = 0; k < m; ++k) {
      double g = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        g += at(k, j) * at(i, j);
        ref[j] += at(k, j) * at(i, k);
      }
      ref[k] = g + at(k, k) * at(i, k);
    }
    std::vector<double> es = e0;
    std::vector<double> ev = e0;
    s_.tred2_symv(a.data(), lda, a.data() + i * lda, m, es.data());
    v_.tred2_symv(a.data(), lda, a.data() + i * lda, m, ev.data());
    expect_same_bits(es, ref, "scalar m " + std::to_string(m));
    expect_same_bits(ev, ref, "vector m " + std::to_string(m));
  }
}

TEST_P(SimdKernelPair, Tred2Rank2BitIdenticalToHistoricalLoop) {
  stats::Rng rng(227);
  for (std::size_t m = 0; m <= 19; ++m) {
    for (const double hh : {0.37, -0.0, 0x1p-530}) {
      const std::size_t lda = m + 2;
      const std::vector<double> a0 = eigen_kernel_values(rng, (m + 1) * lda);
      const std::vector<double> e0 = eigen_kernel_values(rng, m);
      const std::size_t i = m;
      std::vector<double> ref = a0;
      std::vector<double> eref = e0;
      const auto at = [&](std::size_t r, std::size_t c) -> double& {
        return ref[r * lda + c];
      };
      for (std::size_t j = 0; j < m; ++j) {
        const double f = at(i, j);
        double g = 0.0;
        eref[j] = g = eref[j] - hh * f;
        for (std::size_t k = 0; k <= j; ++k)
          at(j, k) -= f * eref[k] + g * at(i, k);
      }
      std::vector<double> as = a0, av = a0, es = e0, ev = e0;
      s_.tred2_rank2(as.data(), lda, as.data() + i * lda, hh, m, es.data());
      v_.tred2_rank2(av.data(), lda, av.data() + i * lda, hh, m, ev.data());
      const std::string what = "m " + std::to_string(m);
      expect_same_bits(as, ref, "scalar a " + what);
      expect_same_bits(es, eref, "scalar e " + what);
      expect_same_bits(av, ref, "vector a " + what);
      expect_same_bits(ev, eref, "vector e " + what);
    }
  }
}

TEST_P(SimdKernelPair, Tred2ReflectBitIdenticalToHistoricalLoop) {
  stats::Rng rng(229);
  // Rows 1..19 cover the 8-row and 4-row blocks and every leftover count.
  for (std::size_t rows = 1; rows <= 19; ++rows) {
    for (std::size_t len = 0; len <= 19; ++len) {
      // Rows 0..rows-1 are reflected; row `rows` holds u.
      const std::size_t lda = len + 1;
      const std::vector<double> a0 = eigen_kernel_values(rng, (rows + 1) * lda);
      const std::vector<double> w = eigen_kernel_values(rng, len);
      const std::size_t i = rows;
      std::vector<double> ref = a0;
      const auto at = [&](std::size_t r, std::size_t c) -> double& {
        return ref[r * lda + c];
      };
      for (std::size_t j = 0; j < rows; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k < len; ++k) g += at(i, k) * at(j, k);
        for (std::size_t k = 0; k < len; ++k) at(j, k) -= g * w[k];
      }
      std::vector<double> as = a0, av = a0;
      s_.tred2_reflect(as.data(), lda, rows, as.data() + i * lda, w.data(),
                       len);
      v_.tred2_reflect(av.data(), lda, rows, av.data() + i * lda, w.data(),
                       len);
      const std::string what =
          "rows " + std::to_string(rows) + " len " + std::to_string(len);
      expect_same_bits(as, ref, "scalar " + what);
      expect_same_bits(av, ref, "vector " + what);
    }
  }
}

// ------------------------------------------------------------------------
// hybrid_row: bit-identical across levels, every argument region included.

// One node whose exp argument is u (v = 0, gamma = 1), so each lane's
// entry is w * -expm1(-area * exp(b * u)) for its own b: underflow to 0,
// subnormal g, both sides of the expm1 branch points (|y| = 2^-54 and
// ln2/2 at area 1), overflow to +inf, infinities and NaN.
std::vector<double> hybrid_row_edge_arguments() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> us = {-1e4,   -800.0, -746.0, -745.2, -744.4, -740.0,
                            -720.0, -708.5, -708.3, -300.0, -60.0,  -20.0,
                            -1.0,   -0.5,   -1e-20, -0.0,   0.0,    1e-300,
                            0.5,    1.0,    3.0,    10.0,   100.0,  700.0,
                            709.78, 709.79, 710.0,  800.0,  1e4,    inf,
                            -inf,   nan};
  // exp(u) = 2^-54 and exp(u) = ln2/2: the lanes' spread in b puts
  // entries on both sides of each branch point.
  for (const double at : {std::log(0x1p-54), std::log(0.5 * std::log(2.0))})
    for (const double d : {-1e-12, -1e-15, 0.0, 1e-15, 1e-12})
      us.push_back(at * (1.0 + d));
  return us;
}

TEST_P(SimdKernelPair, HybridRowBitIdenticalAcrossLevels) {
  const auto run = [](const simd::KernelTable& t, const std::vector<double>& u,
                      const std::vector<double>& v,
                      const std::vector<double>& w, double gamma,
                      double b_lo, double d_b, double area, std::size_t n_b) {
    std::vector<double> out(n_b, -1.0);
    t.hybrid_row(u.data(), v.data(), w.data(), u.size(), gamma, b_lo, d_b,
                 area, n_b, out.data());
    return out;
  };
  const auto check = [&](const std::vector<double>& u,
                         const std::vector<double>& v,
                         const std::vector<double>& w, double gamma,
                         double b_lo, double d_b, double area,
                         std::size_t n_b, const std::string& what) {
    const auto want = run(s_, u, v, w, gamma, b_lo, d_b, area, n_b);
    expect_same_bits(run(v_, u, v, w, gamma, b_lo, d_b, area, n_b), want,
                     what);
    return want;
  };

  // Single nodes across every argument region, at two lane spreads in b.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double u : hybrid_row_edge_arguments()) {
    for (const double d_b : {0x1p-40, 0.05}) {
      for (const double area : {1.0, 1e-300, 1e300}) {
        for (std::size_t n_b = 1; n_b <= 19; ++n_b) {
          const std::string what = "u " + std::to_string(u) + " d_b " +
                                   std::to_string(d_b) + " area " +
                                   std::to_string(area) + " n_b " +
                                   std::to_string(n_b);
          const auto got =
              check({u}, {0.0}, {0.75}, 1.0, 1.0, d_b, area, n_b, what);
          if (std::isnan(u)) {
            EXPECT_TRUE(std::isnan(got[0])) << what;
          } else if (u >= 710.0 && area == 1.0) {
            EXPECT_EQ(got[0], 0.75) << what;  // exp overflows: a term of 1
          } else if (u <= -746.0) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got[0]), 0u) << what;
          }
        }
      }
    }
  }

  // Zero nodes sum to +0.0; NaN in a weight, gamma or area propagates.
  for (std::size_t n_b = 1; n_b <= 19; ++n_b) {
    const auto zero = check({}, {}, {}, -30.0, 0.3, 0.01, 2.0, n_b, "empty");
    for (const double z : zero) EXPECT_EQ(std::bit_cast<std::uint64_t>(z), 0u);
    for (const auto& [w, gamma, area] :
         {std::tuple{nan, -30.0, 2.0}, std::tuple{0.5, nan, 2.0},
          std::tuple{0.5, -30.0, nan}}) {
      const auto got =
          check({-0.2}, {0.01}, {w}, gamma, 0.3, 0.01, area, n_b, "nan");
      for (const double g : got) EXPECT_TRUE(std::isnan(g));
    }
  }

  // 256 nodes of the tables' own shape (gamma across the default box),
  // with edge arguments mixed in, over every tail length and a full row.
  stats::Rng rng(233);
  std::vector<double> u(256), v(256), w(256);
  for (std::size_t k = 0; k < 256; ++k) {
    u[k] = -5.0 + 0.5 * rng.normal();
    v[k] = 0.1 * rng.uniform();
    w[k] = rng.uniform() / 256.0;
  }
  const std::vector<double> edges = hybrid_row_edge_arguments();
  for (std::size_t k = 0; k < edges.size() - 1; ++k)  // all but the NaN
    u[7 * k % 256] = edges[k] / 10.0;
  for (const double gamma : {-60.0, -31.0, -2.0}) {
    for (const double area : {1.0, 3e4}) {
      for (std::size_t n_b = 1; n_b <= 19; ++n_b)
        check(u, v, w, gamma, 0.3, 0.7 / 99.0, area, n_b,
              "gamma " + std::to_string(gamma) + " n_b " +
                  std::to_string(n_b));
      check(u, v, w, gamma, 0.3, 0.7 / 99.0, area, 100, "full row");
    }
  }
}

// ------------------------------------------------------------------------
// Per-kernel tier composition under "auto" vs forced levels

TEST(SimdDispatch, AutoComposesPerKernelTiersButForcedLevelsAreWhole) {
  DispatchGuard guard;
  simd::configure("auto");
  const simd::Level widest = simd::active_level();
  if (widest == simd::Level::kAvx512) {
    // dot_counts is capped at AVX2 under auto: its AVX-512 fold is
    // load-bound and measures slower (see kAutoCap in dispatch.cpp and
    // the bench gate that keeps this ranking honest).
    EXPECT_EQ(simd::kernel_level(simd::KernelId::kDotCounts),
              simd::Level::kAvx2);
    EXPECT_EQ(simd::kernels().dot_counts,
              simd::detail::kAvx2Kernels.dot_counts);
    // The eigensolver kernels have no AVX-512 variant: both tables hold
    // the AVX2 one, and the cap reports it.
    EXPECT_EQ(simd::kernel_level(simd::KernelId::kTred2Reflect),
              simd::Level::kAvx2);
    EXPECT_EQ(simd::kernels().tred2_reflect,
              simd::detail::kAvx2Kernels.tred2_reflect);
    EXPECT_EQ(simd::detail::kAvx512Kernels.tql2_rotate,
              simd::detail::kAvx2Kernels.tql2_rotate);
    // So has hybrid_row.
    EXPECT_EQ(simd::kernel_level(simd::KernelId::kHybridRow),
              simd::Level::kAvx2);
    EXPECT_EQ(simd::kernels().hybrid_row,
              simd::detail::kAvx2Kernels.hybrid_row);
    EXPECT_EQ(simd::detail::kAvx512Kernels.hybrid_row,
              simd::detail::kAvx2Kernels.hybrid_row);
    // Every other kernel still runs the widest tier.
    EXPECT_EQ(simd::kernel_level(simd::KernelId::kClenshawBatch),
              simd::Level::kAvx512);
    EXPECT_EQ(simd::kernels().clenshaw_batch,
              simd::detail::kAvx512Kernels.clenshaw_batch);
    EXPECT_EQ(simd::kernels().matmul, simd::detail::kAvx512Kernels.matmul);
    EXPECT_EQ(simd::kernels().fill_bin_factors,
              simd::detail::kAvx512Kernels.fill_bin_factors);
  } else {
    // No tier exceeds its cap: composition is the identity.
    EXPECT_EQ(simd::kernel_level(simd::KernelId::kDotCounts), widest);
    EXPECT_EQ(simd::kernel_level(simd::KernelId::kClenshawBatch), widest);
  }
  // A forced level selects its whole uncomposed table, caps ignored —
  // forced runs must exercise exactly one tier.
  if (simd::can_use_avx512()) {
    simd::set_level(simd::Level::kAvx512);
    EXPECT_EQ(simd::kernel_level(simd::KernelId::kDotCounts),
              simd::Level::kAvx512);
    EXPECT_EQ(simd::kernels().dot_counts,
              simd::detail::kAvx512Kernels.dot_counts);
  }
  simd::set_level(simd::Level::kScalar);
  EXPECT_EQ(simd::kernel_level(simd::KernelId::kDotCounts),
            simd::Level::kScalar);
  EXPECT_EQ(simd::kernels().dot_counts,
            simd::detail::kScalarKernels.dot_counts);
}

// The simd.level stat names every kernel "auto" runs below the widest
// tier: dot_counts (capped), the eigensolver kernels and hybrid_row (no
// AVX-512 variant). Forced levels name none.
TEST(SimdDispatch, PublishedLevelNamesEveryKernelBelowTheWidestTier) {
  DispatchGuard guard;
  const auto published = [] {
    diagnostics().clear();
    simd::publish_level();
    const std::vector<Diagnostic> stats = diagnostics().stats();
    diagnostics().clear();
    return stats.size() == 1 && stats[0].site == "simd.level"
               ? stats[0].message
               : std::string("<missing>");
  };
  const std::string caps =
      std::string(simd::can_use_avx512() ? " (avx512f+dq available"
                                         : " (avx512f+dq unavailable") +
      (simd::can_use_avx2() ? ", avx2+fma available)"
                            : ", avx2+fma unavailable)");
  simd::configure("auto");
  const simd::Level widest = simd::active_level();
  if (widest == simd::Level::kAvx512)
    EXPECT_EQ(published(),
              "dispatch avx512, dot_counts=avx2, tql2_rotate=avx2, "
              "tred2_symv=avx2, tred2_rank2=avx2, tred2_reflect=avx2, "
              "hybrid_row=avx2" +
                  caps);
  else
    EXPECT_EQ(published(),
              std::string("dispatch ") + simd::to_string(widest) + caps);
  simd::set_level(simd::Level::kScalar);
  EXPECT_EQ(published(), "dispatch scalar" + caps);
}

// ------------------------------------------------------------------------
// Red-black SOR sweep

TEST(RedBlackSweep, MatchesLexicographicWithinSolverTolerance) {
  const chip::Design d = chip::make_ev6_design();
  const power::PowerMap map = power::estimate_power(d, {});
  thermal::ThermalParams tp;
  tp.resolution = 24;
  tp.tolerance = 1e-10;
  const auto lex = thermal::solve_thermal(d, map, tp);
  tp.sweep = thermal::SweepOrder::kRedBlack;
  const auto rb = thermal::solve_thermal(d, map, tp);
  ASSERT_EQ(lex.cell_temps_c.size(), rb.cell_temps_c.size());
  for (std::size_t i = 0; i < lex.cell_temps_c.size(); ++i)
    EXPECT_NEAR(rb.cell_temps_c[i], lex.cell_temps_c[i], 1e-5)
        << "cell " << i;
  for (std::size_t b = 0; b < lex.block_temps_c.size(); ++b)
    EXPECT_NEAR(rb.block_temps_c[b], lex.block_temps_c[b], 1e-5)
        << "block " << b;
}

TEST(RedBlackSweep, ThreadInvariant) {
  const chip::Design d = chip::make_ev6_design();
  const power::PowerMap map = power::estimate_power(d, {});
  thermal::ThermalParams tp;
  tp.resolution = 24;
  tp.sweep = thermal::SweepOrder::kRedBlack;
  par::set_threads(1);
  const auto serial = thermal::solve_thermal(d, map, tp);
  par::set_threads(3);
  const auto pooled = thermal::solve_thermal(d, map, tp);
  par::set_threads(0);
  ASSERT_EQ(serial.cell_temps_c.size(), pooled.cell_temps_c.size());
  for (std::size_t i = 0; i < serial.cell_temps_c.size(); ++i)
    ASSERT_EQ(serial.cell_temps_c[i], pooled.cell_temps_c[i])
        << "cell " << i;
}

// ------------------------------------------------------------------------
// Warm-started thermal retries

TEST(ThermalWarmStart, RetriesResumeFromThePartialIterate) {
  diagnostics().clear();
  fault::disarm();
  fault::arm("thermal.sor");  // first solve fails once, then recovers
  const chip::Design d = chip::make_ev6_design();
  thermal::ThermalParams tp;
  tp.resolution = 16;
  const auto profile = thermal::power_thermal_fixed_point(d, {}, tp, 2);
  fault::disarm();
  EXPECT_TRUE(profile.converged);
  // The damped retry must have resumed from the failed attempt's iterate
  // and said so through the non-degrading stat channel.
  bool saw_stat = false;
  for (const auto& s : diagnostics().stats())
    if (s.site == "thermal.warm_start") {
      saw_stat = true;
      EXPECT_NE(s.message.find("sweeps retained"), std::string::npos);
    }
  EXPECT_TRUE(saw_stat);
  diagnostics().clear();
}

TEST(ThermalWarmStart, SolveThermalHandsBackStateEvenOnFailure) {
  const chip::Design d = chip::make_ev6_design();
  const power::PowerMap map = power::estimate_power(d, {});
  thermal::ThermalParams tp;
  tp.resolution = 16;
  tp.max_iterations = 3;  // far too few: must throw kNonconvergence
  thermal::SorState state;
  try {
    (void)thermal::solve_thermal(d, map, tp, &state);
    FAIL() << "expected kNonconvergence";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonconvergence);
  }
  ASSERT_EQ(state.rise.size(), tp.resolution * tp.resolution);
  EXPECT_EQ(state.iterations, 3u);
  // Warm-starting from the partial iterate must cost fewer sweeps than a
  // cold solve with the same parameters.
  tp.max_iterations = 50000;
  thermal::SorState cold;
  (void)thermal::solve_thermal(d, map, tp, &cold);
  thermal::SorState warm = state;
  (void)thermal::solve_thermal(d, map, tp, &warm);
  EXPECT_LT(warm.iterations, cold.iterations);
}

// ------------------------------------------------------------------------
// End-to-end: Monte Carlo agreement across dispatch levels

TEST(SimdEndToEnd, BinnedMonteCarloAgreesAcrossDispatchLevels) {
  if (!simd::can_use_avx2())
    GTEST_SKIP() << "AVX2+FMA unavailable on this host/build";
  DispatchGuard guard;
  const chip::Design d = chip::make_synthetic_design(
      "SIMD", {.devices = 30000, .block_count = 4, .die_width = 5.0,
               .die_height = 5.0, .seed = 11});
  const std::vector<double> temps(d.blocks.size(), 80.0);
  core::ProblemOptions opts;
  opts.grid_cells_per_side = 8;
  const auto problem = core::ReliabilityProblem::build(
      d, var::VariationBudget{}, core::AnalyticReliabilityModel{}, temps,
      1.2, opts);

  simd::set_level(simd::Level::kScalar);
  const core::MonteCarloAnalyzer mc_scalar(
      problem,
      {.chip_samples = 40, .sampling = core::DeviceSampling::kBinned});
  const double t = mc_scalar.lifetime_at(0.01);
  const double f_scalar = mc_scalar.failure_probability(t);
  const double se = mc_scalar.failure_std_error(t);

  simd::set_level(simd::Level::kAvx2);
  const core::MonteCarloAnalyzer mc_avx2(
      problem,
      {.chip_samples = 40, .sampling = core::DeviceSampling::kBinned});
  const double f_avx2 = mc_avx2.failure_probability(t);

  // The bin-edge CDFs differ by ~1e-12 relative between levels, so the
  // binomial draws almost surely coincide; a generous statistical band
  // covers the astronomically rare draw flip without ever hiding a real
  // kernel bug.
  EXPECT_LE(std::abs(f_avx2 - f_scalar), std::max(6.0 * se, 1e-9));

  if (simd::can_use_avx512()) {
    simd::set_level(simd::Level::kAvx512);
    const core::MonteCarloAnalyzer mc_avx512(
        problem,
        {.chip_samples = 40, .sampling = core::DeviceSampling::kBinned});
    const double f_avx512 = mc_avx512.failure_probability(t);
    EXPECT_LE(std::abs(f_avx512 - f_scalar), std::max(6.0 * se, 1e-9));
  }
}

}  // namespace
}  // namespace obd
