#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "simd/kernels.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "ulp.hpp"

namespace obd::stats {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformPositiveNeverZero) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.uniform_positive(), 0.0);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, NormalMomentsMatchStandardNormal) {
  Rng rng(21);
  RunningStats s;
  double m3 = 0.0;
  double m4 = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s.add(x);
    m3 += x * x * x;
    m4 += x * x * x * x;
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.variance(), 1.0, 0.02);
  EXPECT_NEAR(m3 / n, 0.0, 0.03);   // skewness
  EXPECT_NEAR(m4 / n, 3.0, 0.08);   // kurtosis
}

TEST(Rng, NormalWithMeanAndSigma) {
  Rng rng(33);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(2.2, 0.03));
  EXPECT_NEAR(s.mean(), 2.2, 0.001);
  EXPECT_NEAR(s.stddev(), 0.03, 0.001);
}

// fill_normal against n calls of normal() on a twin generator: every
// normal within box_muller's 8-ULP budget of libm's, and both generators
// left at the same raw state with the same cached half.
void expect_fill_matches_normal_calls(Rng& filled, Rng& called,
                                      std::size_t n) {
  std::vector<double> out(n);
  filled.fill_normal(out.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double want = called.normal();
    EXPECT_LE(testing_ulp::ulp_distance(out[i], want), 8u)
        << "n " << n << " normal " << i << ": " << out[i] << " vs " << want;
  }
}

void expect_same_state(Rng& a, Rng& b, const std::string& what) {
  EXPECT_LE(testing_ulp::ulp_distance(a.normal(), b.normal()), 8u) << what;
  EXPECT_EQ(a(), b()) << what;
}

TEST(Rng, FillNormalMatchesNormalCallsForOddAndEvenN) {
  for (const std::size_t n :
       {0, 1, 2, 3, 4, 7, 8, 9, 47, 48, 127, 128, 129, 130, 300}) {
    Rng filled(61);
    Rng called(61);
    expect_fill_matches_normal_calls(filled, called, n);
    expect_same_state(filled, called, "n " + std::to_string(n));
  }
}

TEST(Rng, FillNormalMixesWithNormal) {
  Rng mixed(67);
  Rng called(67);
  for (const std::size_t n : {3, 0, 1, 1, 4, 5, 129, 2, 130, 7}) {
    expect_fill_matches_normal_calls(mixed, called, n);
    const double want = called.normal();
    EXPECT_LE(testing_ulp::ulp_distance(mixed.normal(), want), 8u)
        << "after n " << n;
  }
  expect_same_state(mixed, called, "end");
}

// The pairs are exactly box_muller's over normal()'s uniforms, cos first,
// and an odd fill caches the last pair's sin bit for bit.
TEST(Rng, FillNormalIsTheBoxMullerKernelOverNormalsUniforms) {
  constexpr std::size_t kPairs = 70;
  Rng uniforms(71);
  double u1[kPairs];
  double u2[kPairs];
  for (std::size_t p = 0; p < kPairs; ++p) {
    u1[p] = uniforms.uniform_positive();
    u2[p] = uniforms.uniform();
  }
  double want[2 * kPairs];
  simd::kernels().box_muller(u1, u2, kPairs, want);

  Rng filled(71);
  double got[2 * kPairs];
  filled.fill_normal(got, 2 * kPairs - 1);
  got[2 * kPairs - 1] = filled.normal();
  for (std::size_t i = 0; i < 2 * kPairs; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "normal " << i;
  EXPECT_EQ(filled(), uniforms());
}

TEST(Rng, ExponentialMeanIsOne) {
  Rng rng(8);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential());
  EXPECT_NEAR(s.mean(), 1.0, 0.02);
  EXPECT_NEAR(s.variance(), 1.0, 0.05);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(7), 7u);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  int counts[5] = {0, 0, 0, 0, 0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(5)];
  for (int c : counts) EXPECT_NEAR(c, n / 5, n / 100);
}

TEST(Rng, SplitProducesDecorrelatedStream) {
  Rng a(55);
  Rng b = a.split();
  RunningStats corr;
  double sum_ab = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double xa = a.uniform() - 0.5;
    const double xb = b.uniform() - 0.5;
    sum_ab += xa * xb;
  }
  EXPECT_NEAR(sum_ab / n, 0.0, 0.002);
}

TEST(Rng, StreamIsDeterministic) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsDifferAcrossIndicesAndSeeds) {
  Rng a = Rng::stream(42, 0);
  Rng b = Rng::stream(42, 1);
  Rng c = Rng::stream(43, 0);
  int equal_ab = 0;
  int equal_ac = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t xa = a();
    if (xa == b()) ++equal_ab;
    if (xa == c()) ++equal_ac;
  }
  EXPECT_LT(equal_ab, 3);
  EXPECT_LT(equal_ac, 3);
}

TEST(Rng, AdjacentStreamsArePairwiseDecorrelated) {
  // Regression for the affine-derived seeding (seed + GOLDEN * (s + 1)):
  // consecutive splitmix64 states made chip s+1's xoshiro state words
  // overlap chip s's, correlating "independent" per-chip streams. The
  // splitmix-mixed Rng::stream derivation must show no pairwise sample
  // correlation between any nearby stream indices.
  const int n = 50000;
  for (std::uint64_t s = 0; s < 8; ++s) {
    for (std::uint64_t d = 1; d <= 4; ++d) {
      Rng a = Rng::stream(2026, s);
      Rng b = Rng::stream(2026, s + d);
      double sum_ab = 0.0;
      for (int i = 0; i < n; ++i)
        sum_ab += (a.uniform() - 0.5) * (b.uniform() - 0.5);
      // Var of the product mean is (1/12)^2 / n; 4 sigma ~ 0.0015.
      EXPECT_NEAR(sum_ab / n, 0.0, 0.0015)
          << "streams " << s << " and " << s + d;
    }
  }
}

TEST(RunningStats, WelfordMatchesBatch) {
  Rng rng(77);
  std::vector<double> xs;
  RunningStats s;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    xs.push_back(x);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), mean(xs), 1e-10);
  EXPECT_NEAR(s.variance(), variance(xs), 1e-8);
  EXPECT_EQ(s.count(), 1000u);
}

TEST(Descriptive, QuantileInterpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
}

TEST(Descriptive, EmpiricalCdf) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(empirical_cdf(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(empirical_cdf(xs, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(empirical_cdf(xs, 9.0), 1.0);
}

}  // namespace
}  // namespace obd::stats
