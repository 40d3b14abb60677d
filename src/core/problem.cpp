#include "core/problem.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace obd::core {

ReliabilityProblem ReliabilityProblem::build(
    const chip::Design& design, const var::VariationBudget& budget,
    const DeviceReliabilityModel& model,
    const std::vector<double>& block_temps_c, double vdd,
    const ProblemOptions& options) {
  design.validate();
  budget.validate();
  require(block_temps_c.size() == design.blocks.size(),
          "ReliabilityProblem: one temperature per block required");
  require(vdd > 0.0, "ReliabilityProblem: vdd must be positive");
  require(options.grid_cells_per_side > 0,
          "ReliabilityProblem: grid resolution must be positive");

  ReliabilityProblem p;
  p.design_ = design;
  p.budget_ = budget;
  p.options_ = options;
  p.grid_ = std::make_shared<const var::GridModel>(
      design.width, design.height, options.grid_cells_per_side);
  switch (options.structure) {
    case CorrelationStructure::kGridExponential:
      p.canonical_ = std::make_shared<const var::CanonicalForm>(
          var::make_canonical_form(*p.grid_, budget, options.rho_dist,
                                   options.variance_capture, options.pattern,
                                   options.kernel));
      break;
    case CorrelationStructure::kQuadTree:
      p.canonical_ = std::make_shared<const var::CanonicalForm>(
          var::make_quadtree_canonical(*p.grid_, budget, options.quadtree,
                                       options.pattern));
      break;
  }
  p.layout_ = var::assign_devices(design, *p.grid_);

  p.blocks_.reserve(design.blocks.size());
  for (std::size_t j = 0; j < design.blocks.size(); ++j) {
    const auto& blk = design.blocks[j];
    // alpha, b and temp_c are the operating-point stage's to fill.
    p.blocks_.push_back({.name = blk.name,
                         .area = blk.obd_area(),
                         .blod = BlodMoments(*p.canonical_,
                                             p.layout_.weights[j],
                                             blk.device_count)});
  }
  return with_operating_point(std::move(p), model, block_temps_c, vdd,
                              options.mechanisms);
}

ReliabilityProblem ReliabilityProblem::with_operating_point(
    ReliabilityProblem p, const DeviceReliabilityModel& model,
    const std::vector<double>& block_temps_c, double vdd,
    const mech::MechanismSpec& mechanisms) {
  const chip::Design& design = p.design_;
  require(block_temps_c.size() == design.blocks.size(),
          "ReliabilityProblem: one temperature per block required");
  require(vdd > 0.0, "ReliabilityProblem: vdd must be positive");

  p.options_.mechanisms = mechanisms;
  p.vdd_ = vdd;
  for (std::size_t j = 0; j < design.blocks.size(); ++j) {
    BlockParams& bp = p.blocks_[j];
    bp.alpha = model.alpha(block_temps_c[j], vdd);
    bp.b = model.b(block_temps_c[j], vdd);
    bp.temp_c = block_temps_c[j];
    require(bp.alpha > 0.0 && bp.b > 0.0,
            "ReliabilityProblem: invalid device model output");
  }

  // Resolve the mechanism/redundancy spec once against this design: per
  // block, aging mechanisms see the block temperature, the chip supply,
  // and the design's mean switching activity as default conditions.
  std::vector<std::string> names;
  std::vector<mech::OperatingConditions> conditions;
  names.reserve(design.blocks.size());
  conditions.reserve(design.blocks.size());
  for (std::size_t j = 0; j < design.blocks.size(); ++j) {
    names.push_back(design.blocks[j].name);
    conditions.push_back(
        {block_temps_c[j], vdd, design.blocks[j].activity});
  }
  p.mech_ = std::make_shared<const mech::MechanismStack>(
      mechanisms, names, std::move(conditions));
  return p;
}

double ReliabilityProblem::worst_temp_c() const {
  double worst = blocks_.front().temp_c;
  for (const auto& b : blocks_) worst = std::max(worst, b.temp_c);
  return worst;
}

double ReliabilityProblem::min_thickness() const {
  return budget_.nominal - 3.0 * budget_.sigma_total();
}

}  // namespace obd::core
