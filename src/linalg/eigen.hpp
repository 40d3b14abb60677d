// Symmetric eigendecomposition.
//
// Principal component analysis of the grid covariance matrix (Section II,
// eq. 2 of the paper) reduces to an eigendecomposition of a real symmetric
// matrix. We implement the classic dense path: Householder reduction to
// tridiagonal form followed by the implicit-shift QL iteration, O(n^3) and
// robust. The loops walk contiguous rows of the row-major matrix (the
// reduction keeps Q^T, so QL rotates rows), yet every element goes through
// the floating-point operations of EISPACK tred2/tql2 in their order: the
// result is bit-identical to the textbook column-order port.
//
// When `variance_capture < 1` only the leading principal components are
// consumed, so eigen_symmetric_truncated offers a blocked subspace-iteration
// path that converges just those components in O(n^2 p) per sweep — the
// dense decomposition remains the reference (and the fallback whenever the
// iteration struggles).
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace obd::la {

/// Result of a symmetric eigendecomposition A = V diag(values) V^T.
struct EigenDecomposition {
  /// Eigenvalues sorted in descending order.
  Vector values;
  /// Column k of `vectors` is the unit eigenvector for values[k].
  Matrix vectors;
};

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// Throws obd::Error if `a` is not square, is materially asymmetric, or if
/// the QL iteration fails to converge (pathological input).
EigenDecomposition eigen_symmetric(const Matrix& a);

/// Number of leading components whose (roundoff-clipped) eigenvalues reach
/// `variance_share` of `total_variance`: counts while the running sum is
/// below the target and the next eigenvalue is positive. This is the single
/// truncation rule shared by the PCA canonical form, the st_MC block-local
/// factorizations, and the truncated eigensolver. May return 0 (for a
/// spectrum with no positive mass) — callers decide whether that is an
/// error or clamps to 1.
std::size_t leading_component_count(const Vector& values_descending,
                                    double variance_share,
                                    double total_variance);

/// Overload computing the total as the clipped sum of `values_descending`
/// itself (correct when the vector holds the full spectrum).
std::size_t leading_component_count(const Vector& values_descending,
                                    double variance_share);

/// Principal factor of the leading `keep` eigenpairs: column k is
/// vectors(:, k) * sqrt(max(0, values[k])), so factor * factor^T
/// reconstructs the rank-`keep` approximation of the decomposed matrix.
Matrix principal_factor(const EigenDecomposition& eig, std::size_t keep);

/// Knobs of the truncated eigensolver. Defaults suit covariance matrices
/// with decaying spectra (the only intended input class).
struct TruncatedEigenOptions {
  std::size_t initial_block = 16;    ///< starting subspace width
  std::size_t guard = 4;             ///< oversampling columns beyond the kept set
  std::size_t max_iterations = 500;  ///< sweeps before falling back to dense
  double tolerance = 1e-12;          ///< relative Ritz-value stabilization
  double residual_tolerance = 1e-9;  ///< relative ||A v - lambda v|| acceptance
};

/// Leading principal components of a symmetric positive-semidefinite
/// matrix: returns exactly the eigenpairs that capture `variance_capture`
/// of trace(A) (per leading_component_count), converged by blocked subspace
/// iteration with Rayleigh-Ritz extraction. The subspace grows
/// geometrically until it covers the requested capture plus a guard band;
/// small problems, near-full captures, and non-converging iterations fall
/// back to the dense QL path (truncated to the same rule), so the result is
/// always usable. Eigenvector signs are arbitrary, as with any
/// eigendecomposition.
EigenDecomposition eigen_symmetric_truncated(
    const Matrix& a, double variance_capture,
    const TruncatedEigenOptions& options = {});

}  // namespace obd::la
