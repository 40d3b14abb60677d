#include "core/uv_nodes.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace obd::core {

double block_failure_from_nodes(const BlockParams& block,
                                const std::vector<UvNode>& nodes, double t) {
  if (nodes.empty()) return 0.0;
  // Same terms as block_conditional_failure, with g's logarithm taken once
  // per block rather than once per node.
  const GExponent e = g_exponent(t, block.alpha, block.b);
  double f = 0.0;
  for (const auto& n : nodes)
    f += n.weight * -std::expm1(-block.area * g_from_exponent(e, n.u, n.v));
  return f;
}

double failure_from_nodes(const std::vector<BlockParams>& blocks,
                          const std::vector<std::vector<UvNode>>& nodes,
                          double t) {
  require(nodes.size() == blocks.size(),
          "failure_from_nodes: one node list per block required");
  // Weakest-link composition (eq. 7-8): block failures combine through
  // the survival product 1 - prod_j (1 - F_j), accumulated in log space.
  // Summing the F_j is only the first-order expansion and overestimates
  // F(t) once individual block failures stop being small.
  double log_survival = 0.0;
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    const double fj = std::clamp(
        block_failure_from_nodes(blocks[j], nodes[j], t), 0.0, 1.0);
    log_survival += std::log1p(-fj);
  }
  return std::clamp(-std::expm1(log_survival), 0.0, 1.0);
}

double failure_from_nodes(const std::vector<BlockParams>& blocks,
                          const std::vector<std::vector<UvNode>>& nodes,
                          double t, const mech::MechanismStack& stack) {
  if (stack.trivial()) return failure_from_nodes(blocks, nodes, t);
  require(nodes.size() == blocks.size(),
          "failure_from_nodes: one node list per block required");
  thread_local std::vector<double> oxide_f;
  oxide_f.resize(blocks.size());
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    oxide_f[j] = std::clamp(
        block_failure_from_nodes(blocks[j], nodes[j], t), 0.0, 1.0);
  }
  return stack.compose(oxide_f.data(), t);
}

}  // namespace obd::core
