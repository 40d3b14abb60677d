#include "core/closed_form.hpp"

#include <cmath>

#include "common/error.hpp"

namespace obd::core {

GExponent g_exponent(double t, double alpha, double b) {
  require(t > 0.0 && alpha > 0.0 && b > 0.0,
          "g_closed_form: t, alpha, b must be positive");
  const double gamma = std::log(t / alpha);
  return {.lin = gamma * b, .quad = 0.5 * gamma * gamma * b * b};
}

double g_closed_form(double t, double alpha, double b, double u, double v) {
  return g_from_exponent(g_exponent(t, alpha, b), u, v);
}

double device_reliability(double t, double alpha, double b, double thickness,
                          double area) {
  require(t >= 0.0, "device_reliability: t must be non-negative");
  if (t == 0.0) return 1.0;
  const double gamma = std::log(t / alpha);
  return std::exp(-area * std::exp(gamma * b * thickness));
}

double block_conditional_failure(const BlockParams& block, double t, double u,
                                 double v) {
  return -std::expm1(-block.area * g_closed_form(t, block.alpha, block.b, u, v));
}

double conditional_chip_failure(const std::vector<BlockParams>& blocks,
                                double t, const std::vector<double>& u,
                                const std::vector<double>& v) {
  require(u.size() == blocks.size() && v.size() == blocks.size(),
          "conditional_chip_failure: one (u, v) pair per block required");
  double exponent = 0.0;
  for (std::size_t j = 0; j < blocks.size(); ++j)
    exponent +=
        blocks[j].area * g_closed_form(t, blocks[j].alpha, blocks[j].b, u[j], v[j]);
  return -std::expm1(-exponent);
}

}  // namespace obd::core
