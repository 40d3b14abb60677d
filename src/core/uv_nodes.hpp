// Shared evaluation kernel for the statistical methods.
//
// Both st_fast (analytic marginals, eq. 28) and st_MC (numerical joint PDF)
// reduce each block's ensemble integral to a weighted sum over (u, v)
// evaluation nodes:
//
//   E[1 - exp(-A_j g(u_j, v_j))] ~ sum_n w_n (1 - exp(-A_j g(u_n, v_n)))
//
// st_fast derives the nodes/weights from quadrature over the marginal PDFs;
// st_MC derives them from the bins of a sampled joint histogram. The node
// lists depend only on the process variation model — not on t — so they are
// built once per problem and reused across reliability queries.
#pragma once

#include <vector>

#include "core/closed_form.hpp"
#include "core/problem.hpp"

namespace obd::core {

/// One (u, v) evaluation node with its probability weight.
struct UvNode {
  double u = 0.0;
  double v = 0.0;
  double weight = 0.0;
};

/// Chip failure probability at time t from per-block node lists. Each
/// block's oxide failure is F_j = sum_n w_n (1 - exp(-A_j g)); the stack
/// composes them across blocks in survival space (weakest link, eq. 7-8),
/// F(t) = 1 - prod_j (1 - F_j), together with its aging mechanisms and
/// spare groups. (Per-block marginals suffice by the independence step of
/// eq. 19-21; the survival product keeps F(t) exact at high failure levels
/// where the first-order sum-of-blocks approximation overestimates.)
double failure_from_nodes(const std::vector<BlockParams>& blocks,
                          const std::vector<std::vector<UvNode>>& nodes,
                          double t, const mech::MechanismStack& stack);

/// Failure contribution of a single block from its node list.
double block_failure_from_nodes(const BlockParams& block,
                                const std::vector<UvNode>& nodes, double t);

}  // namespace obd::core
