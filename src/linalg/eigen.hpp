// Symmetric eigendecomposition.
//
// Principal component analysis of the grid covariance matrix (Section II,
// eq. 2 of the paper) reduces to an eigendecomposition of a real symmetric
// matrix. We implement the classic dense path: Householder reduction to
// tridiagonal form followed by the implicit-shift QL iteration, O(n^3) and
// robust. The loops walk contiguous rows of the row-major matrix (the
// reduction keeps Q^T, so QL rotates rows), yet every element goes through
// the floating-point operations of EISPACK tred2/tql2 in their order: the
// result is bit-identical to the textbook column-order port. It is the
// only eigensolver: the PCA canonical form and st_MC's block-local PCA
// both decompose the full matrix and truncate by leading_component_count.
// eigen_symmetric_project shares its reduction and QL iteration for
// callers that need the eigenvalues and a few projections but not the
// eigenvectors themselves.
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

/// Eigenvalues of a symmetric matrix A = U diag(values) U^T with the
/// projections U^T X of the columns of X, without forming U.
struct EigenProjection {
  /// Eigenvalues sorted in descending order.
  Vector values;
  /// U^T X (n x k): row r holds the projections onto the unit eigenvector
  /// of values[r].
  Matrix projected;
};

/// Computes the eigenvalues of `a`, bit-identical to
/// eigen_symmetric(a).values, and U^T x for an n x k matrix `x` (k may be
/// 0). The Householder reflectors go to x in place of an accumulated
/// transform and the QL rotations act on k entries per row instead of n,
/// so the cost is the reduction's 4n^3/3 flops plus O(n^2 k) instead of
/// the full solve's ~9n^3. U^T x agrees with eigen_symmetric(a).vectors^T
/// x to rounding: both apply the same reflectors and rotations, so every
/// eigenvector keeps its sign, but the products associate differently.
/// Same errors (and the same linalg.eigen fault site) as eigen_symmetric,
/// plus x.rows() != a.rows().
EigenProjection eigen_symmetric_project(const Matrix& a, const Matrix& x);

/// Number of leading components whose eigenvalues reach `variance_share`
/// of the spectrum's total, the sum of `values_descending` with roundoff
/// negatives clipped to 0: counts while the running sum is below the
/// target and the next eigenvalue is positive. This is the single
/// truncation rule shared by the PCA canonical form and the st_MC
/// block-local factorizations. May return 0 (for a spectrum with no
/// positive mass) — callers decide whether that is an error or clamps to 1.
std::size_t leading_component_count(const Vector& values_descending,
                                    double variance_share);

/// Principal factor of the leading `keep` eigenpairs: column k is
/// vectors(:, k) * sqrt(max(0, values[k])), so factor * factor^T
/// reconstructs the rank-`keep` approximation of the decomposed matrix.
Matrix principal_factor(const EigenDecomposition& eig, std::size_t keep);

}  // namespace obd::la
