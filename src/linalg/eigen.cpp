#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/fault_injection.hpp"
#include "simd/kernels.hpp"

namespace obd::la {
namespace {

// Householder reduction of a real symmetric matrix to tridiagonal form
// (EISPACK tred2). On return `a` holds the transpose of the accumulated
// orthogonal transform Q, `d` the diagonal, and `e` the subdiagonal (e[0]
// unused).
//
// Every element sees the floating-point operations of tred2 in tred2's
// order; only the loop nesting differs, so that the inner loops walk rows
// of the row-major matrix instead of stride-n columns. Keeping Q^T instead
// of Q is what turns the accumulation into row sweeps. The O(n^3) loop
// nests run through the dispatched kernels, which keep that order bit for
// bit at every SIMD level (simd/kernels.hpp).
void tridiagonalize(Matrix& a, Vector& d, Vector& e,
                    const simd::KernelTable& kt) {
  const std::size_t n = a.rows();
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        // e[j] = (A u)_j / h from the stored lower triangle, read by rows:
        // row k supplies the k' <= k dot of e[k] and the term k of every
        // e[j] with j < k, so each e[j] still sums in ascending k.
        kt.tred2_symv(a.row(0), n, a.row(i), i, e.data());
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          e[j] /= h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        kt.tred2_rank2(a.row(0), n, a.row(i), hh, i, e.data());
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Accumulate the transforms into the leading block, which holds Q^T:
  // Q(k, j) -= (u . Q(:, j)) u_k / h becomes a dot and an axpy on row j.
  Vector w(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && d[i] != 0.0) {
      for (std::size_t k = 0; k < i; ++k) w[k] = a(i, k) / d[i];
      kt.tred2_reflect(a.row(0), n, i, a.row(i), w.data(), i);
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    if (i > 0) {
      for (std::size_t j = 0; j < i; ++j) {
        a(j, i) = 0.0;
        a(i, j) = 0.0;
      }
    }
  }
}

double hypot2(double a, double b) { return std::hypot(a, b); }

// Implicit-shift QL iteration on a symmetric tridiagonal matrix (EISPACK
// tql2). `d` holds the diagonal, `e` the subdiagonal; eigenvectors are
// accumulated into the rows of `zt` (which should enter holding the
// tridiagonalizing Q^T), so each rotation updates two contiguous rows.
void ql_implicit(Vector& d, Vector& e, Matrix& zt,
                 const simd::KernelTable& kt) {
  const std::size_t n = d.size();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  for (std::size_t l = 0; l < n; ++l) {
    int iterations = 0;
    std::size_t m = l;
    for (;;) {
      // Find a small subdiagonal element to split the problem.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-300 ||
            std::fabs(e[m]) <= std::numeric_limits<double>::epsilon() * dd)
          break;
      }
      if (m == l) break;
      require(++iterations <= 50, ErrorCode::kNonconvergence,
              "eigen_symmetric: QL iteration failed to converge");

      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = hypot2(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::fabs(r) : -std::fabs(r)));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      for (std::size_t i = m; i-- > l;) {
        double f = s * e[i];
        const double b = c * e[i];
        r = hypot2(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          d[i + 1] -= p;
          e[m] = 0.0;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        kt.tql2_rotate(zt.row(i), zt.row(i + 1), c, s, n);
      }
      if (r == 0.0 && m > l + 1) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
}

}  // namespace

EigenDecomposition eigen_symmetric(const Matrix& a) {
  require(a.rows() == a.cols(), "eigen_symmetric: matrix must be square");
  require(!a.empty(), "eigen_symmetric: matrix must be non-empty");
  if (fault::should_fire(fault::site::kEigen))
    throw Error("eigen_symmetric: injected QL nonconvergence fault",
                ErrorCode::kNonconvergence);
  // Allow tiny floating-point asymmetry from covariance construction.
  const double scale =
      std::max(1.0, std::sqrt(a.frobenius_squared() /
                              static_cast<double>(a.rows() * a.cols())));
  require(a.max_asymmetry() <= 1e-9 * scale,
          "eigen_symmetric: matrix is not symmetric");

  const std::size_t n = a.rows();
  Matrix zt = a;
  // Symmetrize exactly so the reduction sees a clean input.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r + 1; c < n; ++c) {
      const double v = 0.5 * (zt(r, c) + zt(c, r));
      zt(r, c) = v;
      zt(c, r) = v;
    }

  Vector d(n, 0.0);
  Vector e(n, 0.0);
  if (n == 1) {
    d[0] = zt(0, 0);
    zt(0, 0) = 1.0;
  } else {
    const simd::KernelTable& kt = simd::kernels();
    tridiagonalize(zt, d, e, kt);
    ql_implicit(d, e, zt, kt);
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return d[i] > d[j]; });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = d[order[k]];
    for (std::size_t r = 0; r < n; ++r) out.vectors(r, k) = zt(order[k], r);
  }
  return out;
}

std::size_t leading_component_count(const Vector& values_descending,
                                    double variance_share,
                                    double total_variance) {
  std::size_t keep = 0;
  double captured = 0.0;
  while (keep < values_descending.size() &&
         captured < variance_share * total_variance &&
         values_descending[keep] > 0.0) {
    captured += values_descending[keep];
    ++keep;
  }
  return keep;
}

std::size_t leading_component_count(const Vector& values_descending,
                                    double variance_share) {
  double total = 0.0;
  for (double v : values_descending) total += std::max(0.0, v);
  return leading_component_count(values_descending, variance_share, total);
}

Matrix principal_factor(const EigenDecomposition& eig, std::size_t keep) {
  require(keep <= eig.values.size() && keep <= eig.vectors.cols(),
          "principal_factor: keep exceeds available eigenpairs");
  const std::size_t n = eig.vectors.rows();
  Matrix factor(n, keep);
  for (std::size_t k = 0; k < keep; ++k) {
    const double s = std::sqrt(std::max(0.0, eig.values[k]));
    for (std::size_t i = 0; i < n; ++i) factor(i, k) = eig.vectors(i, k) * s;
  }
  return factor;
}

namespace {

// Deterministic local generator for subspace seeding (splitmix64). linalg
// must not depend on stats, and the iteration only needs directions that
// are generic w.r.t. the eigenbasis, not statistical quality.
std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double seed_coordinate(std::uint64_t& state) {
  return static_cast<double>(splitmix64_next(state) >> 11) * 0x1.0p-53 - 0.5;
}

// Modified Gram-Schmidt orthonormalization of the columns of x. Columns
// that collapse numerically (the seed happened to lie in the span of the
// previous ones) are re-seeded from the deterministic stream and retried.
void orthonormalize_columns(Matrix& x, std::uint64_t& state) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  for (std::size_t c = 0; c < p; ++c) {
    for (int attempt = 0;; ++attempt) {
      for (std::size_t prev = 0; prev < c; ++prev) {
        double proj = 0.0;
        for (std::size_t r = 0; r < n; ++r) proj += x(r, prev) * x(r, c);
        for (std::size_t r = 0; r < n; ++r) x(r, c) -= proj * x(r, prev);
      }
      double nrm = 0.0;
      for (std::size_t r = 0; r < n; ++r) nrm += x(r, c) * x(r, c);
      nrm = std::sqrt(nrm);
      if (nrm > 1e-12) {
        const double inv = 1.0 / nrm;
        for (std::size_t r = 0; r < n; ++r) x(r, c) *= inv;
        break;
      }
      require(attempt < 8, ErrorCode::kNonconvergence,
              "eigen_symmetric_truncated: cannot orthonormalize subspace");
      for (std::size_t r = 0; r < n; ++r) x(r, c) = seed_coordinate(state);
    }
  }
}

// Dense reference decomposition truncated by the shared capture rule.
EigenDecomposition dense_truncated(const Matrix& a, double variance_capture) {
  EigenDecomposition full = eigen_symmetric(a);
  const std::size_t keep = std::max<std::size_t>(
      1, leading_component_count(full.values, variance_capture));
  EigenDecomposition out;
  out.values.assign(full.values.begin(),
                    full.values.begin() + static_cast<std::ptrdiff_t>(keep));
  out.vectors = Matrix(full.vectors.rows(), keep);
  for (std::size_t k = 0; k < keep; ++k)
    for (std::size_t r = 0; r < full.vectors.rows(); ++r)
      out.vectors(r, k) = full.vectors(r, k);
  return out;
}

}  // namespace

EigenDecomposition eigen_symmetric_truncated(
    const Matrix& a, double variance_capture,
    const TruncatedEigenOptions& options) {
  require(a.rows() == a.cols(),
          "eigen_symmetric_truncated: matrix must be square");
  require(!a.empty(), "eigen_symmetric_truncated: matrix must be non-empty");
  require(variance_capture > 0.0 && variance_capture <= 1.0,
          "eigen_symmetric_truncated: variance_capture must be in (0, 1]");
  const std::size_t n = a.rows();

  // Total variance = trace(A) with negative diagonal clipped; for the PSD
  // covariance inputs this solver targets, the clipped trace equals the
  // clipped eigenvalue sum the dense path uses.
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += std::max(0.0, a(i, i));

  // Small problems: the dense path is already cheap and unconditionally
  // robust. Same for a requested capture so close to 1 that the subspace
  // would have to span most of the spectrum anyway.
  if (n <= 2 * std::max<std::size_t>(options.initial_block, 8))
    return dense_truncated(a, variance_capture);

  std::uint64_t state = 0x0bdc0ffee1234567ull ^ (0x9E3779B97F4A7C15ull * n);
  std::size_t p =
      std::clamp<std::size_t>(options.initial_block, options.guard + 2, n);

  Matrix x(n, p);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < p; ++c) x(r, c) = seed_coordinate(state);
  orthonormalize_columns(x, state);

  Vector prev_ritz;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Power step + Rayleigh-Ritz: Z = A X, H = X^T Z, rotate into the Ritz
    // basis, re-orthonormalize.
    const Matrix z = a.matmul(x);
    Matrix h(p, p);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = i; j < p; ++j) {
        double s = 0.0;
        for (std::size_t r = 0; r < n; ++r) s += x(r, i) * z(r, j);
        h(i, j) = s;
        h(j, i) = s;
      }
    }
    EigenDecomposition ritz;
    try {
      ritz = eigen_symmetric(h);
    } catch (const Error& e) {
      if (e.code() != ErrorCode::kNonconvergence) throw;
      return dense_truncated(a, variance_capture);
    }
    x = z.matmul(ritz.vectors);
    orthonormalize_columns(x, state);

    const std::size_t keep =
        leading_component_count(ritz.values, variance_capture, total);

    // The subspace must cover the kept set plus a guard band of extra
    // columns (the trailing Ritz pairs are the least converged). Grow
    // geometrically; once the block approaches the full dimension the
    // dense path is cheaper and exact.
    if (keep == 0 || keep + options.guard > p) {
      const std::size_t want =
          std::max(keep + options.guard + 1, 2 * p);
      if (want >= n / 2 + 1) return dense_truncated(a, variance_capture);
      Matrix grown(n, want);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < p; ++c) grown(r, c) = x(r, c);
        for (std::size_t c = p; c < want; ++c)
          grown(r, c) = seed_coordinate(state);
      }
      x = std::move(grown);
      orthonormalize_columns(x, state);
      p = want;
      prev_ritz.clear();
      continue;
    }

    // Converged when the kept Ritz values have stabilized...
    const double scale = std::max(std::fabs(ritz.values[0]), 1e-300);
    bool stable = prev_ritz.size() >= keep;
    for (std::size_t k = 0; stable && k < keep; ++k)
      stable = std::fabs(ritz.values[k] - prev_ritz[k]) <=
               options.tolerance * scale;
    prev_ritz = ritz.values;
    if (!stable) continue;

    // ...and the residuals ||A v - lambda v|| confirm genuine eigenpairs
    // (stabilization alone can be fooled by slow geometric convergence).
    const Matrix ax = a.matmul(x);
    bool accurate = true;
    for (std::size_t k = 0; accurate && k < keep; ++k) {
      double r2 = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        const double res = ax(r, k) - ritz.values[k] * x(r, k);
        r2 += res * res;
      }
      accurate = std::sqrt(r2) <= options.residual_tolerance * scale;
    }
    if (!accurate) continue;

    EigenDecomposition out;
    out.values.assign(ritz.values.begin(),
                      ritz.values.begin() + static_cast<std::ptrdiff_t>(keep));
    out.vectors = Matrix(n, keep);
    for (std::size_t k = 0; k < keep; ++k)
      for (std::size_t r = 0; r < n; ++r) out.vectors(r, k) = x(r, k);
    return out;
  }
  // Ran out of sweeps (clustered spectrum): the dense path settles it.
  return dense_truncated(a, variance_capture);
}

}  // namespace obd::la
