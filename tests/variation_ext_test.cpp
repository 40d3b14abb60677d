// Tests for the variation-model extensions: quad-tree correlation and
// measurement-driven covariance extraction.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/blod.hpp"
#include "linalg/eigen.hpp"
#include "stats/descriptive.hpp"
#include "variation/extraction.hpp"
#include "variation/quadtree.hpp"

namespace obd::var {
namespace {

TEST(QuadTree, RegionCountsAndIndexing) {
  EXPECT_EQ(quadtree_regions_at(0), 1u);
  EXPECT_EQ(quadtree_regions_at(1), 4u);
  EXPECT_EQ(quadtree_regions_at(3), 64u);
  // Level-1 quadrants of a 10x10 die.
  EXPECT_EQ(quadtree_region_index(1.0, 1.0, 10.0, 10.0, 1), 0u);
  EXPECT_EQ(quadtree_region_index(9.0, 1.0, 10.0, 10.0, 1), 1u);
  EXPECT_EQ(quadtree_region_index(1.0, 9.0, 10.0, 10.0, 1), 2u);
  EXPECT_EQ(quadtree_region_index(9.0, 9.0, 10.0, 10.0, 1), 3u);
  // Clamping.
  EXPECT_EQ(quadtree_region_index(-5.0, -5.0, 10.0, 10.0, 2), 0u);
  EXPECT_EQ(quadtree_region_index(50.0, 50.0, 10.0, 10.0, 1), 3u);
}

TEST(QuadTree, CanonicalPreservesMarginalVariance) {
  const VariationBudget budget;
  const GridModel grid(10.0, 10.0, 8);
  const CanonicalForm cf = make_quadtree_canonical(grid, budget);
  const double expected = budget.sigma_global() * budget.sigma_global() +
                          budget.sigma_spatial() * budget.sigma_spatial();
  for (std::size_t g = 0; g < grid.cell_count(); ++g) {
    const double s = cf.correlated_sigma(g);
    EXPECT_NEAR(s * s, expected, 1e-12) << "grid " << g;
  }
  EXPECT_DOUBLE_EQ(cf.residual_sigma(), budget.sigma_independent());
  // Component count: 1 + 4 + 16 + 64 + 256.
  EXPECT_EQ(cf.pc_count(), 341u);
}

TEST(QuadTree, SampledCorrelationMatchesModel) {
  const VariationBudget budget;
  const GridModel grid(8.0, 8.0, 8);
  const CanonicalForm cf = make_quadtree_canonical(grid, budget, {.levels = 3, .level_weights = {}});
  stats::Rng rng(5);
  // Two cells in the same level-3 region correlate fully; opposite corners
  // correlate only through the global component.
  const std::size_t near_a = grid.index_at(0.2, 0.2);
  const std::size_t near_b = grid.index_at(0.8, 0.8);
  const std::size_t far = grid.index_at(7.8, 7.8);
  double caa = 0.0, cab = 0.0, caf = 0.0, va = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const la::Vector z = cf.sample_z(rng);
    const double xa = cf.correlated_thickness(near_a, z) - budget.nominal;
    const double xb = cf.correlated_thickness(near_b, z) - budget.nominal;
    const double xf = cf.correlated_thickness(far, z) - budget.nominal;
    va += xa * xa;
    caa += xa * xa;
    cab += xa * xb;
    caf += xa * xf;
  }
  const double rho_ab = cab / caa;
  const double rho_af = caf / caa;
  EXPECT_NEAR(rho_ab,
              quadtree_correlation(0.2, 0.2, 0.8, 0.8, 8.0, 8.0, budget,
                                   {.levels = 3, .level_weights = {}}),
              0.02);
  EXPECT_NEAR(rho_af,
              quadtree_correlation(0.2, 0.2, 7.8, 7.8, 8.0, 8.0, budget,
                                   {.levels = 3, .level_weights = {}}),
              0.02);
  EXPECT_GT(rho_ab, rho_af);
  // Opposite corners share only the global 50% of variance.
  EXPECT_NEAR(rho_af, 0.5 / 0.75, 0.02);
}

TEST(QuadTree, CorrelationIsMonotoneInSharedLevels) {
  const VariationBudget budget;
  double prev = 1.1;
  // Walk away from the origin: correlation must be non-increasing.
  for (double x : {0.3, 1.2, 2.6, 5.1, 9.9}) {
    const double rho =
        quadtree_correlation(0.1, 0.1, x, 0.1, 10.0, 10.0, budget);
    EXPECT_LE(rho, prev + 1e-12);
    prev = rho;
  }
}

TEST(QuadTree, CustomLevelWeightsAndErrors) {
  const VariationBudget budget;
  const GridModel grid(10.0, 10.0, 4);
  QuadTreeOptions opt;
  opt.levels = 2;
  opt.level_weights = {1.0, 3.0};
  const CanonicalForm cf = make_quadtree_canonical(grid, budget, opt);
  EXPECT_EQ(cf.pc_count(), 1u + 4u + 16u);

  opt.level_weights = {1.0};  // wrong size
  EXPECT_THROW(make_quadtree_canonical(grid, budget, opt), obd::Error);
  opt.level_weights = {0.0, 0.0};
  EXPECT_THROW(make_quadtree_canonical(grid, budget, opt), obd::Error);
}

TEST(Extraction, RoundTripRecoversModel) {
  // Simulate a campaign from a known model and re-extract it.
  const VariationBudget budget;  // Table II: 50/25/25 split
  const GridModel grid(10.0, 10.0, 20);
  const double rho_true = 0.5;
  const CanonicalForm cf = make_canonical_form(grid, budget, rho_true, 1.0);
  stats::Rng rng(11);
  const MeasurementSet data = simulate_measurements(cf, grid, 400, 80, rng);

  const ExtractionResult r = extract_correlation(data);
  EXPECT_NEAR(r.nominal, budget.nominal, 0.01);
  EXPECT_NEAR(r.sigma_global, budget.sigma_global(),
              0.2 * budget.sigma_global());
  EXPECT_NEAR(r.sigma_spatial, budget.sigma_spatial(),
              0.3 * budget.sigma_spatial());
  EXPECT_NEAR(r.sigma_independent, budget.sigma_independent(),
              0.2 * budget.sigma_independent());
  // Correlation length within a factor band (distance binning is coarse).
  EXPECT_GT(r.rho_dist, 0.2);
  EXPECT_LT(r.rho_dist, 1.1);

  // The reconstructed budget is valid and close in total variance.
  const VariationBudget back = r.to_budget();
  EXPECT_NO_THROW(back.validate());
  EXPECT_NEAR(back.sigma_total(), budget.sigma_total(),
              0.15 * budget.sigma_total());
}

TEST(Extraction, CorrelationCurveDecreases) {
  const VariationBudget budget;
  const GridModel grid(10.0, 10.0, 20);
  const CanonicalForm cf = make_canonical_form(grid, budget, 0.4, 1.0);
  stats::Rng rng(12);
  const MeasurementSet data = simulate_measurements(cf, grid, 300, 60, rng);
  const ExtractionResult r = extract_correlation(data);
  ASSERT_GE(r.correlation_curve.size(), 3u);
  // First bin near 1, last bin well below.
  EXPECT_GT(r.correlation_curve.front().second, 0.5);
  EXPECT_LT(r.correlation_curve.back().second,
            r.correlation_curve.front().second);
}

TEST(Extraction, RejectsDegenerateInput) {
  MeasurementSet tiny;
  tiny.die_width = 10.0;
  tiny.die_height = 10.0;
  tiny.sites = {{1.0, 1.0}, {2.0, 2.0}};
  tiny.thickness = la::Matrix(5, 2, 2.2);
  EXPECT_THROW(extract_correlation(tiny), obd::Error);  // too few chips

  MeasurementSet colocated;
  colocated.die_width = 10.0;
  colocated.die_height = 10.0;
  colocated.sites.assign(5, {1.0, 1.0});
  colocated.thickness = la::Matrix(20, 5, 2.2);
  EXPECT_THROW(extract_correlation(colocated), obd::Error);
}

TEST(ProjectToPsd, ClipsNegativeEigenvalues) {
  la::Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0; a(1, 0) = 2.0; a(1, 1) = 1.0;  // eigs 3, -1
  const la::Matrix p = project_to_psd(a);
  const auto eig = la::eigen_symmetric(p);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 0.0, 1e-10);
  // PSD matrices pass through unchanged.
  la::Matrix spd(2, 2);
  spd(0, 0) = 2.0; spd(0, 1) = 1.0; spd(1, 0) = 1.0; spd(1, 1) = 2.0;
  const la::Matrix q = project_to_psd(spd);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(q(i, j), spd(i, j), 1e-10);
}

TEST(ProjectToPsd, FloorLiftsSpectrum) {
  la::Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0; a(1, 0) = 2.0; a(1, 1) = 1.0;
  const la::Matrix p = project_to_psd(a, 0.5);
  const auto eig = la::eigen_symmetric(p);
  EXPECT_GE(eig.values[1], 0.5 - 1e-12);
}

TEST(QuadTreeEndToEnd, BlodWorksOnQuadtreeCanonical) {
  // The BLOD machinery must compose with the alternative correlation
  // structure unchanged.
  const VariationBudget budget;
  const GridModel grid(10.0, 10.0, 8);
  const CanonicalForm cf = make_quadtree_canonical(grid, budget);

  chip::Design d;
  d.name = "qt";
  d.width = 10.0;
  d.height = 10.0;
  d.blocks.push_back(
      {"b", {0, 0, 5, 5}, 20000, 1.0, chip::UnitKind::kLogic, 0.5});
  const BlockGridLayout layout = assign_devices(d, grid);

  core::BlodMoments blod(cf, layout.weights[0], 20000);
  stats::Rng rng(13);
  stats::RunningStats su;
  stats::RunningStats sv;
  for (int i = 0; i < 50000; ++i) {
    const la::Vector z = cf.sample_z(rng);
    su.add(blod.u_value(z));
    sv.add(blod.v_value(z));
  }
  EXPECT_NEAR(su.mean(), blod.u_nominal(), 1e-3);
  EXPECT_NEAR(sv.mean(), blod.v_mean(), 0.02 * blod.v_mean());
}

}  // namespace
}  // namespace obd::var
