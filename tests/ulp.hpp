// Distance in units in the last place between two finite doubles, shared
// by the tests that hold a kernel to a ULP budget.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace obd::testing_ulp {

// Maps doubles onto integers in value order, with +0 and -0 both at 0, so
// the distance counts the doubles between a and b and treats the zeros as
// one point.
inline std::uint64_t ulp_distance(double a, double b) {
  const auto ordered = [](double d) {
    const auto i = std::bit_cast<std::int64_t>(d);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t ia = ordered(a);
  const std::int64_t ib = ordered(b);
  return ia > ib ? static_cast<std::uint64_t>(ia - ib)
                 : static_cast<std::uint64_t>(ib - ia);
}

}  // namespace obd::testing_ulp
