#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "stats/rng.hpp"
#include "variation/model.hpp"

namespace obd::la {
namespace {

TEST(Matrix, IdentityAndIndexing) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_EQ(i3.rows(), 3u);
  EXPECT_EQ(i3.cols(), 3u);
  EXPECT_DOUBLE_EQ(i3(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(i3.trace(), 3.0);
}

TEST(Matrix, MatrixVectorMultiply) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const Vector y = a.multiply({1.0, 1.0, 1.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  EXPECT_THROW(a.multiply({1.0}), obd::Error);
}

TEST(Matrix, MatrixMatrixMultiplyAndTranspose) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const Matrix ata = a.transposed().matmul(a);
  EXPECT_EQ(ata.rows(), 3u);
  EXPECT_EQ(ata.cols(), 3u);
  EXPECT_DOUBLE_EQ(ata(0, 0), 17.0);
  EXPECT_DOUBLE_EQ(ata(1, 2), 36.0);
  EXPECT_LE(ata.max_asymmetry(), 0.0);
}

TEST(Matrix, FrobeniusEqualsTraceOfSquareForSymmetric) {
  Matrix s(2, 2);
  s(0, 0) = 2; s(0, 1) = 1; s(1, 0) = 1; s(1, 1) = 3;
  const Matrix s2 = s.matmul(s);
  EXPECT_NEAR(s.frobenius_squared(), s2.trace(), 1e-12);
}

TEST(Dot, BasicsAndErrors) {
  EXPECT_DOUBLE_EQ(dot({1, 2}, {3, 4}), 11.0);
  EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), obd::Error);
}

TEST(EigenSymmetric, DiagonalMatrix) {
  Matrix d(3, 3);
  d(0, 0) = 1.0; d(1, 1) = 5.0; d(2, 2) = 3.0;
  const auto eig = eigen_symmetric(d);
  EXPECT_NEAR(eig.values[0], 5.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-12);
}

TEST(EigenSymmetric, Known2x2) {
  // [[2, 1], [1, 2]]: eigenvalues 3 and 1.
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 2;
  const auto eig = eigen_symmetric(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(eig.vectors(0, 0)), std::sqrt(0.5), 1e-12);
}

TEST(EigenSymmetric, ReconstructsRandomSymmetricMatrix) {
  stats::Rng rng(42);
  const std::size_t n = 20;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  const auto eig = eigen_symmetric(a);
  // A = V diag(w) V^T reconstruction.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        s += eig.vectors(i, k) * eig.values[k] * eig.vectors(j, k);
      EXPECT_NEAR(s, a(i, j), 1e-9) << "entry " << i << "," << j;
    }
  }
}

TEST(EigenSymmetric, EigenvectorsAreOrthonormal) {
  stats::Rng rng(7);
  const std::size_t n = 15;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  const auto eig = eigen_symmetric(a);
  for (std::size_t k1 = 0; k1 < n; ++k1) {
    for (std::size_t k2 = k1; k2 < n; ++k2) {
      double s = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        s += eig.vectors(i, k1) * eig.vectors(i, k2);
      EXPECT_NEAR(s, (k1 == k2) ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(EigenSymmetric, EigenvalueSumEqualsTrace) {
  stats::Rng rng(3);
  const std::size_t n = 30;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  const auto eig = eigen_symmetric(a);
  double sum = 0.0;
  for (double w : eig.values) sum += w;
  EXPECT_NEAR(sum, a.trace(), 1e-9);
}

TEST(EigenSymmetric, RejectsAsymmetric) {
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = -1.0;
  EXPECT_THROW(eigen_symmetric(a), obd::Error);
}

TEST(EigenSymmetric, HandlesSizeOne) {
  Matrix a(1, 1);
  a(0, 0) = 4.2;
  const auto eig = eigen_symmetric(a);
  EXPECT_DOUBLE_EQ(eig.values[0], 4.2);
  EXPECT_DOUBLE_EQ(eig.vectors(0, 0), 1.0);
}

// FNV-1a over the bit patterns of the eigenvalues and then every row of
// the eigenvectors: two decompositions share a digest only if they agree
// bit for bit.
std::uint64_t eigen_digest(const EigenDecomposition& eig) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const double* p, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &p[i], sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  };
  mix(eig.values.data(), eig.values.size());
  for (std::size_t r = 0; r < eig.vectors.rows(); ++r)
    mix(eig.vectors.row(r), eig.vectors.cols());
  return h;
}

// The dense solver's results are pinned to the EISPACK tred2/tql2 order of
// floating-point operations: a loop-order change may move memory traffic,
// never a bit. The digests were recorded from the column-order port.
TEST(EigenSymmetric, GoldenDigestsOfGridCovariances) {
  const struct {
    std::size_t side;
    std::uint64_t digest;
  } cases[] = {{8, 0x30814b36e483315cull}, {16, 0xd7937310c434e4b0ull}, {25, 0xb383994246ca84e1ull}};
  for (const auto& c : cases) {
    const var::GridModel grid(10.0, 10.0, c.side);
    const Matrix cov = var::build_covariance(grid, var::VariationBudget{}, 0.5);
    EXPECT_EQ(eigen_digest(eigen_symmetric(cov)), c.digest)
        << "grid side " << c.side;
  }
}

TEST(EigenSymmetric, GoldenDigestOfSplittingBlockDiagonal) {
  // Blocks {0}, {1..3}, {4..7}: the exact zero subdiagonals split the QL
  // iteration at e[m], and the tiny scales drive a rotation to r == 0.
  const double lower[8][8] = {
      {0x1p-452},
      {0.0, -0x1p-332},
      {0.0, -0x1p-315, -0x1p-306},
      {0.0, 0.0, 0x1p-381, 0x1p-427},
      {0.0, 0.0, 0.0, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.0, 0x1p-711, -0x1p-800},
      {0.0, 0.0, 0.0, 0.0, 0.0, -0x1p-751, -0x1p-957},
      {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0x1p-188, -0x1p-864}};
  Matrix a(8, 8);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j <= i; ++j) a(i, j) = a(j, i) = lower[i][j];
  EXPECT_EQ(eigen_digest(eigen_symmetric(a)), 0xe9cd472433705bd1ull);
}

TEST(EigenSymmetric, GoldenDigestsOfSmallestSizes) {
  Matrix one(1, 1);
  one(0, 0) = -0.75;
  EXPECT_EQ(eigen_digest(eigen_symmetric(one)), 0x9b5753b00c83878dull);
  Matrix two(2, 2);
  two(0, 0) = 2.0;
  two(0, 1) = two(1, 0) = 0.5;
  two(1, 1) = -1.0;
  EXPECT_EQ(eigen_digest(eigen_symmetric(two)), 0x580261c9534052f1ull);
}

// Seeded random symmetric matrix with entries uniform in [-1, 1).
Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      a(i, j) = a(j, i) = rng.uniform(-1.0, 1.0);
  return a;
}

// Sizes 2..17 cover every remainder of the solver's vector widths and row
// blocks; 100 covers several full blocks at once. Recorded from the scalar
// tred2/tql2 loops, so any reordering of a rounding shows here.
TEST(EigenSymmetric, GoldenDigestsOfRandomSymmetric) {
  const std::uint64_t digests[] = {
      0x0be898a9eb4dc1a7ull, 0xbd6410877d3f68d4ull, 0x7fcfc7a0aabc2e51ull,
      0xcfadfc805f5f0773ull, 0xdcb9bb69b185bd0full, 0xdd9b73f9a08585b0ull,
      0x6829a8e29efa2753ull, 0x8a9169b45e1d1280ull, 0x7a6767e7dac36625ull,
      0xfeb573449adcdb7full, 0x27eb8b7782c2024eull, 0x31ee5a03cb3e14e8ull,
      0x412067faf2b33e13ull, 0xdd8e4d0ab5695874ull, 0xe47ad8e4fb025487ull,
      0x0fab6d82ab031400ull};
  for (std::size_t n = 2; n <= 17; ++n) {
    const std::uint64_t d =
        eigen_digest(eigen_symmetric(random_symmetric(n, 1000 + n)));
    EXPECT_EQ(d, digests[n - 2]) << "n = " << n << std::hex << ": 0x" << d;
  }
  const std::uint64_t d100 =
      eigen_digest(eigen_symmetric(random_symmetric(100, 1100)));
  EXPECT_EQ(d100, 0xf228acea5c420ca0ull) << std::hex << "0x" << d100;
}

// Grid 32 (n = 1024) is the covariance size of the fine-grid sign-off.
TEST(EigenSymmetric, GoldenDigestOfGrid32Covariance) {
  const var::GridModel grid(10.0, 10.0, 32);
  const Matrix cov = var::build_covariance(grid, var::VariationBudget{}, 0.5);
  const std::uint64_t d = eigen_digest(eigen_symmetric(cov));
  EXPECT_EQ(d, 0x56ea344dd2298ef0ull) << std::hex << "0x" << d;
}

TEST(Cholesky, FactorsAndSolves) {
  // SPD matrix A = L0 L0^T for a known L0.
  Matrix a(3, 3);
  a(0, 0) = 4;  a(0, 1) = 2;  a(0, 2) = 2;
  a(1, 0) = 2;  a(1, 1) = 5;  a(1, 2) = 3;
  a(2, 0) = 2;  a(2, 1) = 3;  a(2, 2) = 6;
  const Matrix l = cholesky_lower(a);
  // L L^T == A.
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < 3; ++k) s += l(i, k) * l(j, k);
      EXPECT_NEAR(s, a(i, j), 1e-12);
    }
  // Solve A x = b.
  const Vector x = cholesky_solve(l, {8.0, 10.0, 11.0});
  const Vector b = a.multiply(x);
  EXPECT_NEAR(b[0], 8.0, 1e-10);
  EXPECT_NEAR(b[1], 10.0, 1e-10);
  EXPECT_NEAR(b[2], 11.0, 1e-10);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0; a(1, 0) = 2.0; a(1, 1) = 1.0;
  EXPECT_THROW(cholesky_lower(a), obd::Error);
  // Jitter can rescue near-PSD matrices.
  EXPECT_NO_THROW(cholesky_lower(a, 1.5));
}

}  // namespace
}  // namespace obd::la
