// Dense row-major matrix and small vector helpers.
//
// The spatial-correlation machinery (Section II of the paper) needs only
// dense symmetric matrices of moderate size (the n x n grid covariance,
// n <= ~1000), so a simple contiguous row-major container is sufficient and
// cache-friendly.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace obd::la {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix initialized to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Creates a square identity matrix of dimension n.
  static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Pointer to the first element of row r (contiguous cols() doubles).
  [[nodiscard]] double* row(std::size_t r) { return data_.data() + r * cols_; }
  [[nodiscard]] const double* row(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  /// y = A * x. Requires x.size() == cols(). Runs the SIMD layer's
  /// matvec, one implementation at every dispatch level: each row is the
  /// historical single-accumulator ascending-index dot, bit for bit.
  [[nodiscard]] Vector multiply(const Vector& x) const;

  /// Returns A^T.
  [[nodiscard]] Matrix transposed() const;

  /// Returns A * B. Requires cols() == B.rows(). Runs on the dispatched
  /// k-tiled SIMD kernel; results are bit-identical to the historical
  /// naive ikj loop at every dispatch level (per output element the
  /// contributions still accumulate in ascending k, each product rounded
  /// before its add, zero A entries skipped) — only the cache behavior
  /// and instruction mix change.
  [[nodiscard]] Matrix matmul(const Matrix& other) const;

  /// Sum of diagonal entries. Requires a square matrix.
  [[nodiscard]] double trace() const;

  /// Frobenius norm squared: sum of squares of all entries. For a symmetric
  /// matrix this equals trace(A^2), which the chi-square moment matching of
  /// eq. (30) needs.
  [[nodiscard]] double frobenius_squared() const;

  /// Maximum absolute asymmetry |A(i,j) - A(j,i)|; 0 for exactly symmetric.
  [[nodiscard]] double max_asymmetry() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Symmetric rank-k product G = A A^T (rows x rows). Each entry is the
/// ascending-index dot product of two rows of A, so replacing a hand-rolled
/// triple loop with this helper is bit-identical. Only the upper triangle
/// is computed; the lower is mirrored.
Matrix gram_aat(const Matrix& a);

/// Dot product of two equally sized vectors.
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm(const Vector& a);

}  // namespace obd::la
