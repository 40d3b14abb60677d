// Tests for the runtime-dispatched SIMD kernel layer: dispatch/config
// parsing, the per-kernel exactness contracts of kernels.hpp (bit-identity
// or documented ULP bounds between the scalar and AVX2 tables), the
// red-black SOR sweep, and the warm-started thermal retries.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
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
#include "core/analytic.hpp"
#include "core/montecarlo.hpp"
#include "core/problem.hpp"
#include "power/power.hpp"
#include "simd/dispatch.hpp"
#include "simd/hybrid_row.hpp"
#include "simd/kernels.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"
#include "thermal/solver.hpp"
#include "variation/model.hpp"
#include "ulp.hpp"

// Counts every plain operator new in this test binary, so a test can show
// that a kernel call allocates nothing. None of the three is inlined, so
// GCC never sees an inlined malloc reach a sized delete and warn
// (-Wmismatched-new-delete).
std::atomic<std::size_t> g_allocations{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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

TEST(SimdDispatch, ConfigureAcceptsTheThreeLevels) {
  DispatchGuard guard;
  simd::configure("scalar");
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  // "auto" picks the widest tier the host/build can run.
  simd::configure("auto");
  EXPECT_EQ(simd::active_level(), simd::can_use_avx2()
                                      ? simd::Level::kAvx2
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
}

// A rejection names every spec configure() accepts.
void expect_lists_accepted_levels(const std::string& message) {
  for (const char* level : {"'auto'", "'avx2'", "'scalar'"})
    EXPECT_NE(message.find(level), std::string::npos) << message;
}

TEST(SimdDispatch, ConfigureRejectsUnknownSpec) {
  DispatchGuard guard;
  const simd::Level before = simd::active_level();
  // "avx512" is not a level: there is no AVX-512 tier.
  for (const std::string spec : {"sse9", "avx512"}) {
    try {
      simd::configure(spec);
      FAIL() << "configure accepted a bogus level: " << spec;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kConfig);
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos);
      expect_lists_accepted_levels(e.what());
    }
    // A rejected spec must not change the active level.
    EXPECT_EQ(simd::active_level(), before);
  }
}

TEST(SimdDispatch, EnvVariableParsesAndRejects) {
  DispatchGuard guard;
  setenv("OBDREL_SIMD", "scalar", 1);
  simd::init_from_env();
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);

  for (const char* bad : {"turbo", "avx512"}) {
    setenv("OBDREL_SIMD", bad, 1);
    try {
      simd::init_from_env();
      FAIL() << "init_from_env accepted a bogus level: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kConfig);
      // The error must name the environment variable, not just the value.
      EXPECT_NE(std::string(e.what()).find("OBDREL_SIMD"),
                std::string::npos);
      expect_lists_accepted_levels(e.what());
    }
  }

  // Unset: keeps an explicit earlier choice instead of resetting to auto.
  unsetenv("OBDREL_SIMD");
  simd::configure("scalar");
  simd::init_from_env();
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
}

// ------------------------------------------------------------------------
// Kernel table equality: scalar vs the vector tier. The contract suite
// runs against the AVX2 table; a host without AVX2 skips with the
// capability in the message.

class SimdKernelPair : public ::testing::TestWithParam<simd::Level> {
 protected:
  void SetUp() override {
    if (!simd::can_use_avx2())
      GTEST_SKIP() << "AVX2+FMA unavailable on this host/build";
  }
  const simd::KernelTable& s_ = simd::detail::kScalarKernels;
  const simd::KernelTable& v_ = simd::detail::kAvx2Kernels;
};

INSTANTIATE_TEST_SUITE_P(
    VectorTiers, SimdKernelPair, ::testing::Values(simd::Level::kAvx2),
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
      // One implementation serves both tables.
      ASSERT_EQ(std::bit_cast<std::uint64_t>(b[i]),
                std::bit_cast<std::uint64_t>(a[i]))
          << "bins " << bins << " bin " << i;
      // The re-anchored recurrence tracks the exact exponential.
      EXPECT_LE(std::abs(a[i] - exact) / exact, 1e-13)
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
    // The batch must be bit-identical to stats::normal_cdf — the binned
    // sampler relies on it for seed-stable draws — and one implementation
    // serves both tables.
    ASSERT_EQ(a[i], stats::normal_cdf(z[i])) << "z = " << z[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(b[i]),
              std::bit_cast<std::uint64_t>(a[i]))
        << "z = " << z[i];
  }
  // Saturation: the limits come out exactly where erfc underflows/rounds
  // to them.
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
    // The historical triangle loop: one ascending-index single-chain dot
    // per upper-triangle entry, mirrored.
    std::vector<double> ref(n * n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i; j < n; ++j) {
        double s = 0.0;
        for (std::size_t c = 0; c < k; ++c) s += a[i * k + c] * a[j * k + c];
        ref[i * n + j] = s;
        ref[j * n + i] = s;
      }
    std::vector<double> gs(n * n, -1.0);
    std::vector<double> gv(n * n, -1.0);
    s_.gram_aat(a.data(), gs.data(), n, k);
    v_.gram_aat(a.data(), gv.data(), n, k);
    for (std::size_t i = 0; i < n * n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(gs[i]),
                std::bit_cast<std::uint64_t>(ref[i]))
          << "scalar " << n << "x" << k << " element " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(gv[i]),
                std::bit_cast<std::uint64_t>(ref[i]))
          << "vector " << n << "x" << k << " element " << i;
    }
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
    // Bit-identical to the historical single-chain loop, and one
    // implementation serves both tables.
    double ref = 0.0;
    for (std::size_t c = 0; c < cols; ++c) ref += a[r * cols + c] * x[c];
    ASSERT_EQ(ys[r], ref) << "row " << r;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(yv[r]),
              std::bit_cast<std::uint64_t>(ys[r]))
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
          // The contract's per-pencil sequence, every operation rounded on
          // its own: s = (2u)*b1; q = s - b2; b = c_k + q for k = n-1 .. 1,
          // then c_0 + (u*b1 - b2).
          double b1 = 0.0;
          double b2 = 0.0;
          for (std::size_t k = n - 1; k >= 1; --k) {
            const double s = (2.0 * u) * b1;
            const double q = s - b2;
            const double b = coeffs[k * m + p] + q;
            b2 = b1;
            b1 = b;
          }
          const double seq = coeffs[p] + (u * b1 - b2);
          // Bit-identical across tiers and to that sequence: lanes map to
          // independent pencils, so width never changes any rounding. The
          // surrogate's certified envelopes rest on this.
          ASSERT_EQ(std::bit_cast<std::uint64_t>(outs[p]),
                    std::bit_cast<std::uint64_t>(seq))
              << "scalar m=" << m << " n=" << n << " u=" << u << " pencil "
              << p;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(outv[p]),
                    std::bit_cast<std::uint64_t>(seq))
              << "vector m=" << m << " n=" << n << " u=" << u << " pencil "
              << p;
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

// Exp arguments across every region: with u = x, v = 0 and gamma = 1,
// each lane's entry is w * -expm1(-area * exp(b * x)) for its own b:
// underflow to 0, subnormal g, both sides of the expm1 branch points
// (|y| = 2^-54 and ln2/2 at area 1) and of the series threshold (|y| =
// 2^-10), overflow to +inf, infinities and NaN.
std::vector<double> hybrid_row_edge_arguments() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> us = {-1e4,   -800.0, -746.0, -745.2, -744.4, -740.0,
                            -720.0, -708.5, -708.3, -300.0, -60.0,  -20.0,
                            -1.0,   -0.5,   -1e-20, -0.0,   0.0,    1e-300,
                            0.5,    1.0,    3.0,    10.0,   100.0,  700.0,
                            709.78, 709.79, 710.0,  800.0,  1e4,    inf,
                            -inf,   nan};
  // exp(u) = 2^-54, exp(u) = ln2/2 and exp(u) = 2^-10: the lanes' spread
  // in b puts entries on both sides of each branch point.
  for (const double at : {std::log(0x1p-54), std::log(0.5 * std::log(2.0)),
                          std::log(simd::detail::kSeriesTau)})
    for (const double d : {-1e-12, -1e-15, 0.0, 1e-15, 1e-12})
      us.push_back(at * (1.0 + d));
  return us;
}

using HybridRowFn = decltype(simd::KernelTable::hybrid_row);

// Tensor-product axes: u values with their weights wu, v values with
// their weights wv; node (i, k) weighs wu[i] * wv[k].
struct HybridAxes {
  std::vector<double> u, wu, v, wv;
};

// One row over the axes `a`; entries the kernel leaves alone read -1.
std::vector<double> run_hybrid_row(HybridRowFn fn, const HybridAxes& a,
                                   double gamma, double b_lo, double d_b,
                                   double area, std::size_t n_b) {
  std::vector<double> out(n_b, -1.0);
  fn(a.u.data(), a.wu.data(), a.u.size(), a.v.data(), a.wv.data(),
     a.v.size(), gamma, b_lo, d_b, area, n_b, out.data());
  return out;
}

// Axes of the tables' own shape: u around -5 with spread 0.5, v in
// [0, 0.1), random weights on each axis whose products sum to about 1/4.
HybridAxes random_hybrid_axes(std::size_t nu, std::size_t nv,
                              std::uint64_t seed) {
  stats::Rng rng(seed);
  HybridAxes a;
  for (std::size_t i = 0; i < nu; ++i) {
    a.u.push_back(-5.0 + 0.5 * rng.normal());
    a.wu.push_back(rng.uniform() / static_cast<double>(nu));
  }
  for (std::size_t k = 0; k < nv; ++k) {
    a.v.push_back(0.1 * rng.uniform());
    a.wv.push_back(rng.uniform() / static_cast<double>(nv));
  }
  return a;
}

// A row whose lanes straddle the series threshold. With gamma = -2 and
// area 1, v holds 0 and negative values, so every lane's qmax is exactly
// area; u* puts lane 0 (b = 1) at P * qmax = tau * (1 + delta) and d_b
// steps each further lane down by a factor 1 - 2 * delta, so lane 1
// sits at tau * (1 - delta). `offsets` are added to u*: a negative
// offset raises P above tau for every lane, a positive one lowers it.
struct StraddleRow {
  HybridAxes axes;
  double gamma = -2.0, b_lo = 1.0, d_b = 0.0, area = 1.0;
};

StraddleRow straddle_row(double delta, const std::vector<double>& offsets,
                         std::uint64_t seed) {
  StraddleRow r;
  const double u_star =
      (std::log(simd::detail::kSeriesTau) + delta) / (r.gamma * r.b_lo);
  r.d_b = -2.0 * delta / (r.gamma * u_star);
  stats::Rng rng(seed);
  for (const double o : offsets) {
    r.axes.u.push_back(u_star + o);
    r.axes.wu.push_back(rng.uniform());
  }
  for (std::size_t k = 0; k < 9; ++k) {
    r.axes.v.push_back(k == 4 ? 0.0 : -2.0 * rng.uniform());
    r.axes.wv.push_back(rng.uniform());
  }
  return r;
}

// P_i * qmax of lane e in row i, from long-double exps of the arguments
// the kernel rounds (gb * u[i] and c * v[k]); the kernel's own exps are
// within an ULP or two of these.
long double row_test_value(const HybridAxes& a, std::size_t i, double gamma,
                           double b_lo, double d_b, double area,
                           std::size_t e) {
  const double b = b_lo + static_cast<double>(e) * d_b;
  const double c = (((0.5 * gamma) * gamma) * b) * b;
  long double qmax = 0.0L;
  for (const double v : a.v)
    qmax = std::max(qmax, std::fabs(static_cast<long double>(-area) *
                                    std::exp(static_cast<long double>(c * v))));
  return std::exp(static_cast<long double>((gamma * b) * a.u[i])) * qmax;
}

// Runs two hybrid_row implementations over every argument region and
// requires the same bits; `want_fn` is the reference.
void expect_hybrid_rows_agree(HybridRowFn want_fn, HybridRowFn got_fn) {
  const auto check = [&](const HybridAxes& a, double gamma, double b_lo,
                         double d_b, double area, std::size_t n_b,
                         const std::string& what) {
    const auto want = run_hybrid_row(want_fn, a, gamma, b_lo, d_b, area, n_b);
    expect_same_bits(run_hybrid_row(got_fn, a, gamma, b_lo, d_b, area, n_b),
                     want, what);
    return want;
  };

  // Single nodes across every argument region, through the u factor and
  // through the v factor (c = b^2 / 2 at gamma 1, so v = 2x gives about
  // b^2 x), at two lane spreads in b. Each also runs with a second v
  // value of weight 0 whose |Q| is at least about 5e21 * area, which
  // keeps every row with a finite P off the series path, so the expm1
  // branch points are crossed on the per-node path too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double x : hybrid_row_edge_arguments()) {
    for (const double d_b : {0x1p-40, 0.05}) {
      for (const double area : {1.0, 1e-300, 1e300}) {
        for (const bool per_node : {false, true}) {
          if (per_node && area != 1.0) continue;
          for (std::size_t n_b = 1; n_b <= 19; ++n_b) {
            const std::string what =
                "x " + std::to_string(x) + " d_b " + std::to_string(d_b) +
                " area " + std::to_string(area) + " per_node " +
                std::to_string(per_node) + " n_b " + std::to_string(n_b);
            HybridAxes via_u{{x}, {0.75}, {0.0}, {1.0}};
            HybridAxes via_v{{0.0}, {0.75}, {2.0 * x}, {1.0}};
            if (per_node) {
              for (HybridAxes* a : {&via_u, &via_v}) {
                a->v.push_back(100.0);
                a->wv.push_back(0.0);
              }
            }
            const auto got =
                check(via_u, 1.0, 1.0, d_b, area, n_b, "u " + what);
            if (std::isnan(x)) {
              EXPECT_TRUE(std::isnan(got[0])) << what;
            } else if (x >= 710.0 && area == 1.0) {
              EXPECT_EQ(got[0], 0.75) << what;  // exp overflows: a term of 1
            } else if (x <= -746.0) {
              EXPECT_EQ(std::bit_cast<std::uint64_t>(got[0]), 0u) << what;
            }
            const auto v_got =
                check(via_v, 1.0, 1.0, d_b, area, n_b, "v " + what);
            if (std::isnan(x)) {
              EXPECT_TRUE(std::isnan(v_got[0])) << what;
            }
          }
        }
      }
    }
  }

  // Zero nodes on either axis sum to +0.0; NaN in either weight, gamma,
  // area or either axis propagates, and so does an overflowing P_i
  // against an underflowing Q_k (inf * 0).
  for (std::size_t n_b = 1; n_b <= 19; ++n_b) {
    for (const auto& [u, v] :
         {std::pair<std::vector<double>, std::vector<double>>{{}, {}},
          {{-0.2, 0.1}, {}},
          {{}, {0.01}}}) {
      const HybridAxes a{u, std::vector<double>(u.size(), 0.5), v,
                         std::vector<double>(v.size(), 0.5)};
      const auto zero = check(a, -30.0, 0.3, 0.01, 2.0, n_b, "empty");
      for (const double z : zero)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(z), 0u);
    }
    // The series rows (u = 2: P = exp(-18 b) against |Q| near 2) and the
    // per-node rows (u = -0.2) both see each NaN.
    for (const double u : {-0.2, 2.0}) {
      for (const auto& [ux, vx, wu, wv, gamma, area] :
           {std::tuple{u, 0.01, nan, 0.5, -30.0, 2.0},
            std::tuple{u, 0.01, 0.5, nan, -30.0, 2.0},
            std::tuple{u, 0.01, 0.5, 0.5, nan, 2.0},
            std::tuple{u, 0.01, 0.5, 0.5, -30.0, nan},
            std::tuple{nan, 0.01, 0.5, 0.5, -30.0, 2.0},
            std::tuple{u, nan, 0.5, 0.5, -30.0, 2.0},
            std::tuple{1e4, -1e6, 0.5, 0.5, 1.0, 2.0}}) {
        const auto got = check({{ux}, {wu}, {vx}, {wv}}, gamma, 0.3, 0.01,
                               area, n_b, "nan");
        for (const double g : got) EXPECT_TRUE(std::isnan(g));
      }
    }
  }

  // Rows whose lanes straddle the series threshold at tau * (1 +- 1e-12),
  // with rows above and below it for every lane, over every tail length
  // of the 12-entry group.
  for (const double delta : {1e-12, 1e-9}) {
    const StraddleRow r =
        straddle_row(delta, {-2.0, -0.5, 0.0, 0.5, 2.0}, 41);
    ASSERT_GT(row_test_value(r.axes, 2, r.gamma, r.b_lo, r.d_b, r.area, 0),
              simd::detail::kSeriesTau * (1.0 + 0.5 * delta));
    ASSERT_LT(row_test_value(r.axes, 2, r.gamma, r.b_lo, r.d_b, r.area, 1),
              simd::detail::kSeriesTau * (1.0 - 0.5 * delta));
    for (std::size_t n_b = 1; n_b <= 25; ++n_b)
      check(r.axes, r.gamma, r.b_lo, r.d_b, r.area, n_b,
            "straddle delta " + std::to_string(delta) + " n_b " +
                std::to_string(n_b));
  }

  // Axes of the tables' own shape (gamma across the default box): square,
  // wide, tall and a single v value (a block whose v is deterministic),
  // with edge arguments mixed into u, over every tail length of the
  // 12-entry group and a full row.
  const std::vector<double> edges = hybrid_row_edge_arguments();
  for (const auto& [nu, nv] : {std::pair<std::size_t, std::size_t>{16, 16},
                               {40, 40},
                               {16, 1},
                               {7, 23},
                               {23, 7}}) {
    HybridAxes a = random_hybrid_axes(nu, nv, 233 + nu * 64 + nv);
    // Every edge but the NaN at nu = 40, else up to half of u.
    const std::size_t n_edges = edges.size() - 1;
    const std::size_t mixed = nu >= 40 ? n_edges : nu / 2;
    for (std::size_t k = 0; k < mixed; ++k)
      a.u[(7 * k) % nu] = edges[(5 * k) % n_edges] / 10.0;
    const std::string shape =
        "nu " + std::to_string(nu) + " nv " + std::to_string(nv);
    for (const double gamma : {-60.0, -31.0, -2.0}) {
      for (const double area : {1.0, 3e4}) {
        for (std::size_t n_b = 1; n_b <= 25; ++n_b)
          check(a, gamma, 0.3, 0.7 / 99.0, area, n_b,
                shape + " gamma " + std::to_string(gamma) + " n_b " +
                    std::to_string(n_b));
        check(a, gamma, 0.3, 0.7 / 99.0, area, 100, shape + " full row");
      }
    }
  }
}

TEST_P(SimdKernelPair, HybridRowBitIdenticalAcrossLevels) {
  expect_hybrid_rows_agree(s_.hybrid_row, v_.hybrid_row);
}

// The scalar table serves hybrid_row's FMA build where the CPU has FMA;
// this keeps the baseline build, which hosts without FMA run, pinned to
// it bit for bit.
TEST(ScalarHybridRow, FmaBuildBitIdenticalToBaselineBuild) {
  if (!simd::detail::has_fma_build())
    GTEST_SKIP() << "no FMA build of hybrid_row on this host/build";
  expect_hybrid_rows_agree(simd::detail::hybrid_row_baseline,
                           simd::detail::hybrid_row_fma);
}

// Every build of hybrid_row this host runs: the scalar baseline, its FMA
// build and the AVX2 one.
std::vector<HybridRowFn> hybrid_row_builds() {
  std::vector<HybridRowFn> fns = {simd::detail::hybrid_row_baseline};
  if (simd::detail::has_fma_build())
    fns.push_back(simd::detail::hybrid_row_fma);
  if (simd::can_use_avx2())
    fns.push_back(simd::detail::kAvx2Kernels.hybrid_row);
  return fns;
}

// hybrid_row.hpp's operations on one scalar lane, for the reference loop
// below: std::fma and std::nearbyint round as every level's operations
// do (the kernels' contract), so the portable exp/expm1 instantiated on
// them give the kernels' per-node values.
struct RefOps {
  using V = double;
  using M = bool;
  static constexpr std::size_t kWidth = 1;
  static V set1(double a) { return a; }
  static V mul(V a, V b) { return a * b; }
  static V sub(V a, V b) { return a - b; }
  static V abs(V a) { return std::fabs(a); }
  static V fma(V a, V b, V c) { return std::fma(a, b, c); }
  static V fnma(V a, V b, V c) { return std::fma(a, -b, c); }
  static V round_nearest(V a) { return std::nearbyint(a); }
  static V max(V a, V b) { return a > b ? a : b; }
  static V min(V a, V b) { return a < b ? a : b; }
  static V scale_pow2(V p, V nf) {
    const std::int32_t n = nf == nf ? static_cast<std::int32_t>(nf)
                                    : std::numeric_limits<std::int32_t>::min();
    const std::int32_t n1 = n >> 1;
    const auto pow2 = [](std::int32_t m) {
      return std::bit_cast<double>(
          static_cast<std::uint64_t>(static_cast<std::int64_t>(m) + 1023)
          << 52);
    };
    return (p * pow2(n1)) * pow2(n - n1);
  }
  static M lt(V a, V b) { return a < b; }
  static M gt(V a, V b) { return a > b; }
  static V select(M m, V a, V b) { return m ? a : b; }
  static bool any(M m) { return m; }
  static bool all(M m) { return m; }
};

// Entry e of a row as the plain per-node loop: from 0.0 in ascending
// n = i * nv + k, subtract (wu[i] * wv[k]) * expm1(P_i * Q_k).
double per_node_entry(const HybridAxes& a, double gamma, double b_lo,
                      double d_b, double area, std::size_t e) {
  const double b = b_lo + static_cast<double>(e) * d_b;
  const double gb = gamma * b;
  const double c = (((0.5 * gamma) * gamma) * b) * b;
  double fail = 0.0;
  for (std::size_t i = 0; i < a.u.size(); ++i) {
    const double p = simd::detail::exp_portable<RefOps>(gb * a.u[i]);
    for (std::size_t k = 0; k < a.v.size(); ++k) {
      const double q = -area * simd::detail::exp_portable<RefOps>(c * a.v[k]);
      double y[1] = {p * q};
      simd::detail::expm1_portable<RefOps, 1>(y);
      fail = fail - (a.wu[i] * a.wv[k]) * y[0];
    }
  }
  return fail;
}

// An entry none of whose u-rows takes the series is the per-node loop's
// value bit for bit, on every build: table-shaped axes, whose every row
// has P_i * qmax >= 1; the lane of a straddle row whose rows all sit at
// or above tau * (1 + delta); and rows below tau whose moments are out of
// range, with qmax about 1e70 (Q^5 overflows) or 1e-70 (below 2^-200).
TEST(HybridRowSeries, EntryWithoutSeriesRowEqualsPerNodeLoop) {
  const double tau = simd::detail::kSeriesTau;
  for (const HybridRowFn fn : hybrid_row_builds()) {
    for (const auto& [nu, nv] : {std::pair<std::size_t, std::size_t>{16, 16},
                                 {16, 1},
                                 {7, 23}}) {
      const HybridAxes a = random_hybrid_axes(nu, nv, 977 + nu + nv);
      for (const double gamma : {-60.0, -31.0, -2.0}) {
        for (const double area : {1.0, 3e4}) {
          const auto got = run_hybrid_row(fn, a, gamma, 0.3, 0.7 / 99.0,
                                          area, 100);
          for (std::size_t e = 0; e < 100; ++e) {
            for (std::size_t i = 0; i < nu; ++i)
              ASSERT_GE(row_test_value(a, i, gamma, 0.3, 0.7 / 99.0, area, e),
                        1.0L);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got[e]),
                      std::bit_cast<std::uint64_t>(per_node_entry(
                          a, gamma, 0.3, 0.7 / 99.0, area, e)))
                << "nu " << nu << " nv " << nv << " gamma " << gamma
                << " area " << area << " entry " << e;
          }
        }
      }
    }
    for (const double area : {1e70, 1e-70}) {
      // P_i * qmax about 1e-5 on every lane.
      const HybridAxes a{{std::log(1e-5 / area) / -2.0},
                         {0.5},
                         {0.0, -1.0},
                         {0.5, 0.25}};
      const auto got = run_hybrid_row(fn, a, -2.0, 1.0, 1e-4, area, 13);
      for (std::size_t e = 0; e < 13; ++e) {
        ASSERT_LT(row_test_value(a, 0, -2.0, 1.0, 1e-4, area, e),
                  0.5L * tau);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[e]),
                  std::bit_cast<std::uint64_t>(
                      per_node_entry(a, -2.0, 1.0, 1e-4, area, e)))
            << "area " << area << " entry " << e;
      }
    }
    for (const double delta : {1e-12, 1e-9}) {
      const StraddleRow r = straddle_row(delta, {-2.0, -0.5, 0.0}, 43);
      for (std::size_t i = 0; i < r.axes.u.size(); ++i)
        ASSERT_GT(row_test_value(r.axes, i, r.gamma, r.b_lo, r.d_b, r.area, 0),
                  tau * (1.0 + 0.5 * delta));
      for (std::size_t n_b = 1; n_b <= 13; ++n_b) {
        const auto got =
            run_hybrid_row(fn, r.axes, r.gamma, r.b_lo, r.d_b, r.area, n_b);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[0]),
                  std::bit_cast<std::uint64_t>(per_node_entry(
                      r.axes, r.gamma, r.b_lo, r.d_b, r.area, 0)))
            << "delta " << delta << " n_b " << n_b;
      }
    }
  }
}

// Series rows at |y| just under tau: per entry, the area is set so that
// the largest P_i * qmax of the entry's rows is tau * (1 - 1e-9), so every
// row takes the series and the largest |y| is at the threshold, where
// the truncation is largest (|y|^5 / 6! <= 2^-59.5 of |y|). Against the
// long-double sum of wu[i] * wv[k] * -expm1(y) over the same rounded exp
// arguments (gb * u[i] and c * v[k]), every entry is within (nu + nv +
// 8) * 2^-53 relative: the terms of the u sum, of each moment C_m and of
// the entry all share one sign, so each sum adds at most one rounding
// per term, and the exps, products and Horner steps add a few more.
// The series path runs: some entries differ from the per-node loop in
// their last bits.
TEST(HybridRowSeries, SeriesRowsWithinBoundOfLongDoubleExpm1Sum) {
  const double tau = simd::detail::kSeriesTau;
  for (const HybridRowFn fn : hybrid_row_builds()) {
    double worst_ratio = 0.0;
    std::size_t differ = 0;
    for (const auto& [nu, nv] : {std::pair<std::size_t, std::size_t>{16, 16},
                                 {40, 40},
                                 {16, 1},
                                 {7, 23}}) {
      const HybridAxes a = random_hybrid_axes(nu, nv, 1409 + nu * 64 + nv);
      const long double bound =
          static_cast<long double>(nu + nv + 8) * 0x1p-53L;
      for (const double gamma : {-60.0, -31.0, -2.0}) {
        for (std::size_t e = 0; e < 100; e += 9) {
          const double b = 0.3 + static_cast<double>(e) * (0.7 / 99.0);
          long double top = 0.0L;
          for (std::size_t i = 0; i < nu; ++i)
            top = std::max(top, row_test_value(a, i, gamma, b, 0.0, 1.0, 0));
          const double area =
              static_cast<double>(tau * (1.0 - 1e-9) / top);
          for (std::size_t i = 0; i < nu; ++i)
            ASSERT_LT(row_test_value(a, i, gamma, b, 0.0, area, 0),
                      tau * (1.0 - 0.5e-9));
          const double got = run_hybrid_row(fn, a, gamma, b, 0.0, area, 1)[0];
          const double gb = gamma * b;
          const double c = (((0.5 * gamma) * gamma) * b) * b;
          long double want = 0.0L;
          for (std::size_t i = 0; i < nu; ++i) {
            const long double p =
                std::exp(static_cast<long double>(gb * a.u[i]));
            for (std::size_t k = 0; k < nv; ++k) {
              const long double y = p * static_cast<long double>(-area) *
                                    std::exp(static_cast<long double>(c * a.v[k]));
              want -= static_cast<long double>(a.wu[i]) *
                      static_cast<long double>(a.wv[k]) * std::expm1(y);
            }
          }
          const long double rel = std::fabs(got - want) / want;
          EXPECT_LE(rel, bound) << "nu " << nu << " nv " << nv << " gamma "
                                << gamma << " entry " << e;
          worst_ratio =
              std::max(worst_ratio, static_cast<double>(rel / bound));
          differ += std::bit_cast<std::uint64_t>(got) !=
                    std::bit_cast<std::uint64_t>(
                        per_node_entry(a, gamma, b, 0.0, area, 0));
        }
      }
    }
    EXPECT_GT(differ, 0u);
    std::printf("series rows: worst error %.3f of the bound, %zu entries "
                "differ from the per-node loop\n",
                worst_ratio, differ);
  }
}

// st_fast's own axes (whose tensor product is exactly its node list),
// including a block whose v is deterministic (a single v value) and
// l0 = 40 per axis, give the same bits on every level; once a thread has
// filled one row at that size, further rows allocate nothing.
TEST(HybridRowAxes, StFastAxesBitIdenticalAcrossLevelsWithoutAllocation) {
  chip::Design d;
  d.name = "AXES";
  d.width = 4.0;
  d.height = 4.0;
  // "dot" lies inside one of the 2 mm grid cells, so its v collapses to
  // the residual variance.
  d.blocks.push_back({.name = "dot",
                      .rect = {0.2, 0.2, 0.6, 0.6},
                      .device_count = 2000});
  d.blocks.push_back({.name = "wide",
                      .rect = {0.0, 2.0, 4.0, 2.0},
                      .device_count = 20000});
  d.blocks.push_back({.name = "tall",
                      .rect = {1.0, 0.0, 2.0, 2.0},
                      .device_count = 10000});
  const std::vector<double> temps = {70.0, 85.0, 60.0};
  core::ProblemOptions opts;
  opts.grid_cells_per_side = 2;
  const auto problem = core::ReliabilityProblem::build(
      d, var::VariationBudget{}, core::AnalyticReliabilityModel{}, temps,
      1.2, opts);
  ASSERT_TRUE(problem.blocks()[0].blod.v_degenerate());

  const std::vector<HybridRowFn> fns = hybrid_row_builds();
  for (const std::size_t cells : {16u, 40u}) {
    for (const auto quadrature : {core::Quadrature::kEqualProbability,
                                  core::Quadrature::kPaperMidpoint}) {
      core::AnalyticOptions ao;
      ao.cells = cells;
      ao.quadrature = quadrature;
      const core::AnalyticAnalyzer integrator(problem, ao);
      core::UvAxes axes;
      for (std::size_t j = 0; j < problem.blocks().size(); ++j) {
        core::uv_axes(problem.blocks()[j].blod, ao, axes);
        const auto& nodes = integrator.nodes()[j];
        const std::size_t nv = axes.v.size();
        EXPECT_EQ(axes.u.size(), cells);
        EXPECT_EQ(nv, j == 0 ? 1u : cells);
        // st_fast's nodes are the axes' tensor product, bit for bit, and
        // each node weight is the product the kernel forms.
        ASSERT_EQ(nodes.size(), axes.u.size() * nv);
        HybridAxes a;
        for (const auto& [x, wx] : axes.u) {
          a.u.push_back(x);
          a.wu.push_back(wx);
        }
        for (const auto& [x, wx] : axes.v) {
          a.v.push_back(x);
          a.wv.push_back(wx);
        }
        for (std::size_t n = 0; n < nodes.size(); ++n) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(nodes[n].u),
                    std::bit_cast<std::uint64_t>(a.u[n / nv]));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(nodes[n].v),
                    std::bit_cast<std::uint64_t>(a.v[n % nv]));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(nodes[n].weight),
                    std::bit_cast<std::uint64_t>(a.wu[n / nv] *
                                                 a.wv[n % nv]));
        }
        const double area = problem.blocks()[j].area;
        for (const double gamma : {-60.0, -20.0, -2.0}) {
          for (const std::size_t n_b : {100u, 13u}) {
            const std::string what = "cells " + std::to_string(cells) +
                                     " block " + std::to_string(j) +
                                     " gamma " + std::to_string(gamma) +
                                     " n_b " + std::to_string(n_b);
            const auto want =
                run_hybrid_row(fns[0], a, gamma, 0.3, 0.7 / 99.0, area, n_b);
            std::vector<double> out(n_b);
            for (const HybridRowFn fn : fns) {
              fn(a.u.data(), a.wu.data(), a.u.size(), a.v.data(),
                 a.wv.data(), nv, gamma, 0.3, 0.7 / 99.0, area, n_b,
                 out.data());
              const std::size_t before = g_allocations.load();
              fn(a.u.data(), a.wu.data(), a.u.size(), a.v.data(),
                 a.wv.data(), nv, gamma, 0.3, 0.7 / 99.0, area, n_b,
                 out.data());
              EXPECT_EQ(g_allocations.load(), before) << what;
              expect_same_bits(out, want, what);
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------------------
// box_muller

// Uniform pairs that stress the transform: u1 = 1 (log exactly 0) and
// u1 = 2^-53 (the smallest uniform_positive()), and u2 at 0 and on both
// sides of the zeros of cos and sin (theta near pi/2, pi and 3 pi/2),
// crossed with each other and with interior values.
std::pair<std::vector<double>, std::vector<double>> box_muller_edge_pairs() {
  std::vector<double> u1s = {1.0, 1.0 - 0x1p-53, 1.0 - 0x1p-40, 0.5,
                             0.1, 1e-5,          0x1p-52,       0x1p-53};
  std::vector<double> u2s = {0.0, 0x1p-53, 0x1p-20, 0.125, 1.0 - 0x1p-53};
  for (const double at : {0.25, 0.5, 0.75})
    for (int k = -4; k <= 4; ++k) u2s.push_back(at + k * 0x1p-53);
  for (const double at : {0.25, 0.5, 0.75})
    for (const double d : {-1e-9, 1e-9, -1e-4, 1e-4}) u2s.push_back(at + d);
  std::vector<double> u1;
  std::vector<double> u2;
  for (const double a : u1s)
    for (const double b : u2s) {
      u1.push_back(a);
      u2.push_back(b);
    }
  return {u1, u2};
}

using BoxMullerFn = decltype(simd::KernelTable::box_muller);

std::vector<double> run_box_muller(BoxMullerFn fn, const std::vector<double>& u1,
                                   const std::vector<double>& u2,
                                   std::size_t n) {
  std::vector<double> out(2 * n + 3, -1.0);
  fn(u1.data(), u2.data(), n, out.data());
  // Nothing past the 2n outputs is written.
  for (std::size_t i = 2 * n; i < out.size(); ++i) EXPECT_EQ(out[i], -1.0);
  out.resize(2 * n);
  return out;
}

// Runs two box_muller implementations over the edge pairs at every length
// up to 19 (every vector tail) and over 4096 random pairs, and requires
// the same bits; `want_fn` is the reference.
void expect_box_mullers_agree(BoxMullerFn want_fn, BoxMullerFn got_fn) {
  const auto [e1, e2] = box_muller_edge_pairs();
  for (std::size_t n = 0; n <= 19; ++n)
    expect_same_bits(run_box_muller(got_fn, e1, e2, n),
                     run_box_muller(want_fn, e1, e2, n),
                     "n " + std::to_string(n));
  expect_same_bits(run_box_muller(got_fn, e1, e2, e1.size()),
                   run_box_muller(want_fn, e1, e2, e1.size()), "edges");
  stats::Rng rng(241);
  std::vector<double> u1(4096);
  std::vector<double> u2(4096);
  for (std::size_t p = 0; p < u1.size(); ++p) {
    u1[p] = rng.uniform_positive();
    u2[p] = rng.uniform();
  }
  expect_same_bits(run_box_muller(got_fn, u1, u2, u1.size()),
                   run_box_muller(want_fn, u1, u2, u1.size()), "random");
}

TEST_P(SimdKernelPair, BoxMullerBitIdenticalAcrossLevels) {
  expect_box_mullers_agree(s_.box_muller, v_.box_muller);
}

TEST(ScalarBoxMuller, FmaBuildBitIdenticalToBaselineBuild) {
  if (!simd::detail::has_fma_build())
    GTEST_SKIP() << "no FMA build of box_muller on this host/build";
  expect_box_mullers_agree(simd::detail::box_muller_baseline,
                           simd::detail::box_muller_fma);
}

// The error budget of box_muller at the active level: every normal within
// 8 ULP of Rng::normal()'s libm transform of the same uniforms, over the
// edge pairs and 2^20 random pairs.
TEST(BoxMuller, WithinEightUlpOfLibmTransform) {
  constexpr std::uint64_t kBudgetUlps = 8;
  auto [u1, u2] = box_muller_edge_pairs();
  stats::Rng rng(251);
  for (std::size_t p = 0; p < (std::size_t{1} << 20); ++p) {
    u1.push_back(rng.uniform_positive());
    u2.push_back(rng.uniform());
  }
  std::vector<double> got(2 * u1.size());
  simd::kernels().box_muller(u1.data(), u2.data(), u1.size(), got.data());
  std::uint64_t worst = 0;
  for (std::size_t p = 0; p < u1.size(); ++p) {
    const double r = std::sqrt(-2.0 * std::log(u1[p]));
    const double theta = 2.0 * M_PI * u2[p];
    const double want[2] = {r * std::cos(theta), r * std::sin(theta)};
    for (std::size_t h = 0; h < 2; ++h) {
      const std::uint64_t ulps = testing_ulp::ulp_distance(got[2 * p + h], want[h]);
      worst = std::max(worst, ulps);
      ASSERT_LE(ulps, kBudgetUlps)
          << "u1 " << u1[p] << " u2 " << u2[p] << (h == 0 ? " cos" : " sin")
          << ": " << got[2 * p + h] << " vs " << want[h];
    }
  }
  RecordProperty("worst_ulps", static_cast<int>(worst));
}

// ------------------------------------------------------------------------
// quad_form_dots: st_MC's three per-sample sums in dot_counts' lanes.

// The lane contract written out: lane l sums elements 4j + l in ascending
// j, each product rounded before the add and lambda*y rounded before its
// product with y, the tail goes into lane 0, and the lanes combine as
// (a0 + a2) + (a1 + a3).
std::vector<double> quad_form_reference(const std::vector<double>& alpha,
                                        const std::vector<double>& beta,
                                        const std::vector<double>& lambda,
                                        const std::vector<double>& y) {
  const std::size_t n = y.size();
  const std::size_t body = n - n % 4;
  double acc[3][4] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lane = i < body ? i % 4 : 0;
    const double pa = alpha[i] * y[i];
    const double pb = beta[i] * y[i];
    const double ly = lambda[i] * y[i];
    const double pq = ly * y[i];
    acc[0][lane] += pa;
    acc[1][lane] += pb;
    acc[2][lane] += pq;
  }
  std::vector<double> out;
  for (const auto& a : acc) out.push_back((a[0] + a[2]) + (a[1] + a[3]));
  return out;
}

using QuadFormDotsFn = decltype(simd::KernelTable::quad_form_dots);

std::vector<double> run_quad_form_dots(QuadFormDotsFn fn,
                                       const std::vector<double>& alpha,
                                       const std::vector<double>& beta,
                                       const std::vector<double>& lambda,
                                       const std::vector<double>& y) {
  std::vector<double> out(4, -1.0);
  fn(alpha.data(), beta.data(), lambda.data(), y.data(), y.size(),
     out.data());
  EXPECT_EQ(out[3], -1.0) << "wrote past out[2]";
  out.resize(3);
  return out;
}

// Same bits, or NaN on both sides: which NaN an IEEE sum returns depends
// on operand order, which the contract does not fix.
void expect_same_sums(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << what << " sum " << i;
      continue;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " sum " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST_P(SimdKernelPair, QuadFormDotsBitIdenticalAcrossLevels) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  stats::Rng rng(263);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 19; ++n) lengths.push_back(n);
  for (const std::size_t n : {64u, 296u, 325u}) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    // Variant 0 is finite; 1 puts a NaN in y, 2 +inf in alpha and -inf in
    // beta, 3 +inf in lambda and -inf in y, each in the tail or the body.
    for (std::size_t variant = 0; variant < 4; ++variant) {
      if (variant > 0 && n == 0) continue;
      auto alpha = eigen_kernel_values(rng, n);
      auto beta = eigen_kernel_values(rng, n);
      auto lambda = eigen_kernel_values(rng, n);
      auto y = eigen_kernel_values(rng, n);
      const std::size_t at = (7 * variant + n / 2) %
                             std::max<std::size_t>(1, n);
      if (variant == 1) y[at] = nan;
      if (variant == 2) {
        alpha[at] = inf;
        beta[n - 1 - at] = -inf;
      }
      if (variant == 3) {
        lambda[at] = inf;
        y[n - 1 - at] = -inf;
      }
      const std::string what =
          "n " + std::to_string(n) + " variant " + std::to_string(variant);
      const auto want = quad_form_reference(alpha, beta, lambda, y);
      expect_same_sums(run_quad_form_dots(s_.quad_form_dots, alpha, beta,
                                          lambda, y),
                       want, "scalar " + what);
      expect_same_sums(run_quad_form_dots(v_.quad_form_dots, alpha, beta,
                                          lambda, y),
                       want, "vector " + what);
    }
  }
}

// Against the exact sums (long double), each result is within the
// contract's (n/4 + 6) * 2^-53 * sum |terms|, at the active level, on
// normal inputs of both signs (cancellation) and on the lengths st_MC
// runs (EV6 blocks keep up to 296 components at grid 25).
TEST(QuadFormDots, WithinFourLaneBoundOfLongDoubleSum) {
  stats::Rng rng(269);
  for (const std::size_t n : {1u, 3u, 4u, 7u, 64u, 296u, 325u, 4099u}) {
    std::vector<double> alpha(n), beta(n), lambda(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      alpha[i] = rng.normal();
      beta[i] = 1e-3 * rng.normal();
      lambda[i] = std::ldexp(rng.uniform(), -static_cast<int>(i % 40));
      y[i] = rng.normal();
    }
    double out[3];
    simd::kernels().quad_form_dots(alpha.data(), beta.data(), lambda.data(),
                                   y.data(), n, out);
    long double exact[3] = {};
    long double mass[3] = {};
    for (std::size_t i = 0; i < n; ++i) {
      const long double yi = y[i];
      const long double terms[3] = {alpha[i] * yi, beta[i] * yi,
                                    lambda[i] * yi * yi};
      for (std::size_t s = 0; s < 3; ++s) {
        exact[s] += terms[s];
        mass[s] += std::fabs(terms[s]);
      }
    }
    const long double budget =
        (static_cast<long double>(n / 4) + 6.0L) * 0x1p-53L;
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_LE(std::fabs(out[s] - exact[s]), budget * mass[s])
          << "n " << n << " sum " << s;
  }
}

// ------------------------------------------------------------------------
// Whole-table dispatch: every level serves one table

TEST(SimdDispatch, AutoServesTheWidestTableAndForcedLevelsTheirOwn) {
  DispatchGuard guard;
  const auto expect_whole = [](simd::Level level,
                               const simd::KernelTable& table) {
    EXPECT_EQ(simd::active_level(), level);
    for (int id = 0; id <= static_cast<int>(simd::KernelId::kQuadFormDots);
         ++id)
      EXPECT_EQ(simd::kernel_level(static_cast<simd::KernelId>(id)), level)
          << "kernel " << id;
    // Spot-check the table kernels() serves, first to last member.
    EXPECT_EQ(simd::kernels().fill_bin_factors, table.fill_bin_factors);
    EXPECT_EQ(simd::kernels().dot_counts, table.dot_counts);
    EXPECT_EQ(simd::kernels().matmul, table.matmul);
    EXPECT_EQ(simd::kernels().tred2_reflect, table.tred2_reflect);
    EXPECT_EQ(simd::kernels().hybrid_row, table.hybrid_row);
    EXPECT_EQ(simd::kernels().box_muller, table.box_muller);
    EXPECT_EQ(simd::kernels().quad_form_dots, table.quad_form_dots);
  };
  simd::configure("auto");
  if (simd::can_use_avx2()) {
    expect_whole(simd::Level::kAvx2, simd::detail::kAvx2Kernels);
    simd::set_level(simd::Level::kAvx2);
    expect_whole(simd::Level::kAvx2, simd::detail::kAvx2Kernels);
  } else {
    expect_whole(simd::Level::kScalar, simd::detail::kScalarKernels);
  }
  simd::set_level(simd::Level::kScalar);
  expect_whole(simd::Level::kScalar, simd::detail::kScalarKernels);
}

// The simd.level stat names the active tier and whether the host/build
// can run AVX2.
TEST(SimdDispatch, PublishedLevelNamesTheTierAndAvx2Support) {
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
  const std::string caps = simd::can_use_avx2()
                               ? " (avx2+fma available)"
                               : " (avx2+fma unavailable)";
  simd::configure("auto");
  EXPECT_EQ(published(), std::string("dispatch ") +
                             simd::to_string(simd::active_level()) + caps);
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

  simd::set_level(simd::Level::kAvx2);
  const core::MonteCarloAnalyzer mc_avx2(
      problem,
      {.chip_samples = 40, .sampling = core::DeviceSampling::kBinned});
  const double f_avx2 = mc_avx2.failure_probability(t);

  // The binned sampler's kernels are one implementation or bit-identical
  // across levels, so the draws and the answer are the same bits.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(f_avx2),
            std::bit_cast<std::uint64_t>(f_scalar));
}

}  // namespace
}  // namespace obd
