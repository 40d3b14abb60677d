#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "simd/kernels.hpp"

namespace obd::la {
namespace {

// Householder reduction of a real symmetric matrix to tridiagonal form
// (the first half of EISPACK tred2). On return row i of `a` holds the
// reflector P_i = I - u u^T / d[i] in its entries [0, i) (d[i] == 0: no
// reflection), the lower triangle's diagonal holds the tridiagonal's
// diagonal, and `e` the subdiagonal (e[0] unused). The reduction is
// T = Q^T A Q with Q^T = P_1 P_2 ... P_(n-1).
//
// Every element sees the floating-point operations of tred2 in tred2's
// order; only the loop nesting differs, so that the inner loops walk rows
// of the row-major matrix instead of stride-n columns. The O(n^3) loop
// nests run through the dispatched kernels, which keep that order bit for
// bit at every SIMD level (simd/kernels.hpp).
void householder_reduce(Matrix& a, Vector& d, Vector& e,
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
}

// The second half of tred2: accumulates the reflectors into Q^T in place
// and moves the tridiagonal's diagonal into `d`. Keeping Q^T instead of Q
// turns Q(k, j) -= (u . Q(:, j)) u_k / h into a dot and an axpy on row j.
// Row i's diagonal entry is read before any reflection can touch it.
void accumulate_transform(Matrix& a, Vector& d, const simd::KernelTable& kt) {
  const std::size_t n = a.rows();
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

// Q^T X in place of X (n x k): the stored reflectors applied in reverse
// order, P_(n-1) first. Per reflector and column, g = u . x(:, c) in
// ascending index, then x(j, c) -= g * (u_j / h), the accumulation's
// arithmetic on a k-column right-hand side. Then moves the diagonal into
// `d` as accumulate_transform does.
void project_transform(const Matrix& a, Vector& d, Matrix& x) {
  const std::size_t n = a.rows();
  const std::size_t k = x.cols();
  Vector g(k, 0.0);
  for (std::size_t i = n - 1; i >= 1; --i) {
    if (d[i] == 0.0) continue;
    const double* u = a.row(i);
    std::fill(g.begin(), g.end(), 0.0);
    for (std::size_t j = 0; j < i; ++j) {
      const double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) g[c] += u[j] * xj[c];
    }
    for (std::size_t j = 0; j < i; ++j) {
      const double wj = u[j] / d[i];
      double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) xj[c] -= g[c] * wj;
    }
  }
  for (std::size_t i = 0; i < n; ++i) d[i] = a(i, i);
}

double hypot2(double a, double b) { return std::hypot(a, b); }

// Implicit-shift QL iteration on a symmetric tridiagonal matrix (EISPACK
// tql2). `d` holds the diagonal, `e` the subdiagonal; the rotations are
// applied to the rows of `zt` (n x k), so each one updates two contiguous
// rows of k entries. Entering with the tridiagonalizing Q^T leaves the
// eigenvectors in the rows; entering with Q^T X leaves their projections
// U^T X. The eigenvalues never depend on `zt`.
void ql_implicit(Vector& d, Vector& e, Matrix& zt,
                 const simd::KernelTable& kt) {
  const std::size_t n = d.size();
  const std::size_t k = zt.cols();
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
        kt.tql2_rotate(zt.row(i), zt.row(i + 1), c, s, k);
      }
      if (r == 0.0 && m > l + 1) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
}

// The checked, exactly symmetrized copy of `a` that both entry points
// reduce. `who` names the caller in the errors.
Matrix symmetrized(const Matrix& a, const char* who) {
  const auto check = [who](bool ok, const char* what) {
    if (!ok) throw Error(std::string(who) + ": " + what);
  };
  check(a.rows() == a.cols(), "matrix must be square");
  check(!a.empty(), "matrix must be non-empty");
  if (fault::should_fire(fault::site::kEigen))
    throw Error(std::string(who) + ": injected QL nonconvergence fault",
                ErrorCode::kNonconvergence);
  // Allow tiny floating-point asymmetry from covariance construction.
  const double scale =
      std::max(1.0, std::sqrt(a.frobenius_squared() /
                              static_cast<double>(a.rows() * a.cols())));
  check(a.max_asymmetry() <= 1e-9 * scale, "matrix is not symmetric");

  const std::size_t n = a.rows();
  Matrix sym = a;
  // Symmetrize exactly so the reduction sees a clean input.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r + 1; c < n; ++c) {
      const double v = 0.5 * (sym(r, c) + sym(c, r));
      sym(r, c) = v;
      sym(c, r) = v;
    }
  return sym;
}

// Indices of `d` by descending value.
std::vector<std::size_t> descending_order(const Vector& d) {
  std::vector<std::size_t> order(d.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return d[i] > d[j]; });
  return order;
}

}  // namespace

EigenDecomposition eigen_symmetric(const Matrix& a) {
  Matrix zt = symmetrized(a, "eigen_symmetric");
  const std::size_t n = zt.rows();
  Vector d(n, 0.0);
  Vector e(n, 0.0);
  const simd::KernelTable& kt = simd::kernels();
  householder_reduce(zt, d, e, kt);
  accumulate_transform(zt, d, kt);
  ql_implicit(d, e, zt, kt);

  const std::vector<std::size_t> order = descending_order(d);
  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = d[order[k]];
    for (std::size_t r = 0; r < n; ++r) out.vectors(r, k) = zt(order[k], r);
  }
  return out;
}

EigenProjection eigen_symmetric_project(const Matrix& a, const Matrix& x) {
  Matrix reflectors = symmetrized(a, "eigen_symmetric_project");
  const std::size_t n = reflectors.rows();
  require(x.rows() == n, "eigen_symmetric_project: x must have n rows");
  Vector d(n, 0.0);
  Vector e(n, 0.0);
  Matrix y = x;
  const simd::KernelTable& kt = simd::kernels();
  householder_reduce(reflectors, d, e, kt);
  project_transform(reflectors, d, y);
  ql_implicit(d, e, y, kt);

  const std::vector<std::size_t> order = descending_order(d);
  EigenProjection out;
  out.values.resize(n);
  out.projected = Matrix(n, y.cols());
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = d[order[k]];
    std::copy_n(y.row(order[k]), y.cols(), out.projected.row(k));
  }
  return out;
}

std::size_t leading_component_count(const Vector& values_descending,
                                    double variance_share) {
  double total = 0.0;
  for (double v : values_descending) total += std::max(0.0, v);
  std::size_t keep = 0;
  double captured = 0.0;
  while (keep < values_descending.size() &&
         captured < variance_share * total &&
         values_descending[keep] > 0.0) {
    captured += values_descending[keep];
    ++keep;
  }
  return keep;
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

}  // namespace obd::la
