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
                          double t, const mech::MechanismStack& stack) {
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
