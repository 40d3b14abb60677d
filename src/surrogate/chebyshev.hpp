// Chebyshev tensor-grid interpolation on Chebyshev–Gauss–Lobatto nodes.
//
// A ChebTensor is a dense tensor-product interpolant
//     p(x) = sum_k c_{k0..k_{D-1}} prod_a T_{k_a}(u_a(x_a))
// fit by sampling a function at the CGL node tensor and running the
// cosine-transform coefficient recovery axis by axis (exact interpolation
// at the nodes). Evaluation contracts one axis at a time — slowest axis
// first — through the SIMD kernel table's clenshaw_batch, whose
// bit-identity contract (kernels.hpp) makes every evaluation identical
// across scalar/AVX2 dispatch: the surrogate layer's certificate
// therefore holds at any tier.
//
// Coefficient layout: axis 0 fastest,
//     idx = i0 + n0 * (i1 + n1 * (i2 + ...)).
// Axis 0 is the "pencil" axis of contract_tail(): contracting every other
// axis once leaves a 1-D Chebyshev pencil in axis 0 that sweeps (e.g.
// many time stamps at one operating corner) evaluate in O(n0) each.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace obd::surrogate {

/// One tensor axis: n Chebyshev–Gauss–Lobatto nodes over [lo, hi].
struct ChebAxis {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t n = 1;  ///< node count (= degree + 1); n == 1 pins the center

  /// Node i in [lo, hi]. Nodes run hi -> lo (u = cos(pi i / (n-1))
  /// descends from +1); a single-node axis sits at the center.
  [[nodiscard]] double node(std::size_t i) const;
  /// Maps x in [lo, hi] onto u in [-1, 1] (no clamping — domain
  /// enforcement is the caller's certificate logic).
  [[nodiscard]] double to_unit(double x) const;
  [[nodiscard]] bool contains(double x) const { return x >= lo && x <= hi; }
  /// Midpoint i (in node space) of the n-1 inter-node gaps — the held-out
  /// certification grid. A single-node axis has one midpoint: the center.
  [[nodiscard]] double midpoint(std::size_t i) const;
  [[nodiscard]] std::size_t midpoint_count() const {
    return n > 1 ? n - 1 : 1;
  }
};

class ChebTensor {
 public:
  ChebTensor() = default;
  /// Deserialization constructor; `coeffs.size()` must equal the product
  /// of the axis node counts.
  ChebTensor(std::vector<ChebAxis> axes, std::vector<double> coeffs);

  /// Fits by sampling `fn` at every tensor node — axis-0 index innermost,
  /// so a caller whose tail coordinates are expensive to apply (an
  /// operating corner) can cache work across the axis-0 sweep — then
  /// recovering coefficients with the CGL cosine transform per axis.
  static ChebTensor fit(std::vector<ChebAxis> axes,
                        const std::function<double(const double*)>& fn);

  [[nodiscard]] const std::vector<ChebAxis>& axes() const { return axes_; }
  [[nodiscard]] const std::vector<double>& coefficients() const {
    return coeffs_;
  }

  /// Interpolant value at x (one coordinate per axis). Allocates its own
  /// scratch, so concurrent calls on one tensor are safe.
  [[nodiscard]] double eval(const double* x) const;

  /// Contracts every axis but axis 0 at x_tail = (x_1, ..., x_{D-1}),
  /// returning the axis-0 Chebyshev pencil (n0 coefficients).
  [[nodiscard]] std::vector<double> contract_tail(const double* x_tail) const;

  /// Evaluates a contract_tail() pencil at axis-0 coordinate x0. The
  /// pointer variant reads `n` coefficients from `pencil` (for pencils
  /// packed into a larger plan buffer).
  [[nodiscard]] double eval_pencil(const std::vector<double>& pencil,
                                   double x0) const;
  [[nodiscard]] double eval_pencil_at(const double* pencil, std::size_t n,
                                      double x0) const;

 private:
  std::vector<ChebAxis> axes_;
  std::vector<double> coeffs_;
};

}  // namespace obd::surrogate
