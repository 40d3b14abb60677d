#include <gtest/gtest.h>

#include <cmath>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "core/device_model.hpp"

namespace obd::core {
namespace {

TEST(AnalyticModel, ReferencePointReproduced) {
  const AnalyticReliabilityModel m;
  const auto& p = m.params();
  EXPECT_NEAR(m.alpha(p.temp_ref_c, p.vdd_ref), p.alpha_ref,
              1e-6 * p.alpha_ref);
  EXPECT_NEAR(m.b(p.temp_ref_c, p.vdd_ref), p.b_ref, 1e-12);
}

TEST(AnalyticModel, HotterMeansShorterLife) {
  const AnalyticReliabilityModel m;
  double prev = m.alpha(25.0, 1.2);
  for (double t : {45.0, 65.0, 85.0, 105.0, 125.0}) {
    const double a = m.alpha(t, 1.2);
    EXPECT_LT(a, prev) << "T=" << t;
    prev = a;
  }
}

TEST(AnalyticModel, TemperatureAccelerationOrderOfMagnitude) {
  // Section I: a ~30 C on-chip temperature difference can change device
  // reliability by about an order of magnitude.
  const AnalyticReliabilityModel m;
  const double ratio = m.alpha(70.0, 1.2) / m.alpha(100.0, 1.2);
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 100.0);
}

TEST(AnalyticModel, VoltageAcceleration) {
  const AnalyticReliabilityModel m;
  // Higher Vdd -> shorter life, exponentially.
  const double a12 = m.alpha(100.0, 1.2);
  const double a13 = m.alpha(100.0, 1.3);
  EXPECT_NEAR(a13 / a12, std::exp(-12.0 * 0.1), 1e-9);
}

TEST(AnalyticModel, WeibullSlopeInPhysicalRange) {
  // For x0 = 2.2 nm the chip-level Weibull slope beta = b * x0 should sit
  // in the ~1-2 range reported for ultra-thin oxides.
  const AnalyticReliabilityModel m;
  for (double t : {45.0, 65.0, 85.0, 105.0}) {
    const double beta = m.b(t, 1.2) * 2.2;
    EXPECT_GT(beta, 1.0) << "T=" << t;
    EXPECT_LT(beta, 2.2) << "T=" << t;
  }
}

TEST(AnalyticModel, BSlopeDecreasesWithTemperatureAndClamps) {
  const AnalyticReliabilityModel m;
  EXPECT_GT(m.b(45.0, 1.2), m.b(100.0, 1.2));
  // Far beyond any physical temperature the floor engages.
  EXPECT_DOUBLE_EQ(m.b(1e4, 1.2), m.params().b_floor);
}

TEST(AnalyticModel, RejectsNonPhysicalInput) {
  const AnalyticReliabilityModel m;
  EXPECT_THROW((void)m.alpha(-300.0, 1.2), obd::Error);
  AnalyticModelParams bad;
  bad.alpha_ref = -1.0;
  EXPECT_THROW(AnalyticReliabilityModel{bad}, obd::Error);
}

TEST(TabulatedModel, InterpolatesBetweenRows) {
  const TabulatedReliabilityModel m(
      {{25.0, 1e18, 0.70}, {75.0, 1e17, 0.66}, {125.0, 1e16, 0.62}});
  // At a row: exact.
  EXPECT_NEAR(m.alpha(75.0, 1.2), 1e17, 1e3);
  EXPECT_NEAR(m.b(75.0, 1.2), 0.66, 1e-12);
  // Halfway (log-space for alpha, linear for b).
  EXPECT_NEAR(m.alpha(50.0, 1.2), std::sqrt(1e18 * 1e17), 1e12);
  EXPECT_NEAR(m.b(100.0, 1.2), 0.64, 1e-12);
  // Clamped beyond the table.
  EXPECT_NEAR(m.alpha(0.0, 1.2) / 1e18, 1.0, 1e-12);
  EXPECT_NEAR(m.b(200.0, 1.2), 0.62, 1e-12);
}

TEST(TabulatedModel, FromModelTracksAnalyticWithinInterpolationError) {
  const AnalyticReliabilityModel analytic;
  std::vector<double> temps;
  for (double t = 25.0; t <= 125.0; t += 5.0) temps.push_back(t);
  const auto table = TabulatedReliabilityModel::from_model(analytic, temps);
  for (double t = 27.5; t < 120.0; t += 10.0) {
    EXPECT_NEAR(table.alpha(t, 1.2) / analytic.alpha(t, 1.2), 1.0, 0.01)
        << "T=" << t;
    EXPECT_NEAR(table.b(t, 1.2), analytic.b(t, 1.2), 1e-3);
  }
  // Voltage acceleration carried over.
  EXPECT_NEAR(table.alpha(60.0, 1.3) / table.alpha(60.0, 1.2),
              std::exp(-1.2), 1e-9);
}

TEST(TabulatedModel, WarnsOnceWhenClampingBeyondTheTable) {
  // Out-of-range lookups clamp silently per call (alpha/b are hot-path),
  // but the first one records a device.table_extrapolate diagnostic naming
  // the offending temperature and the table range — once per model, not
  // once per call (a 10^6-chip sweep must not emit 10^6 warnings).
  auto& diag = obd::diagnostics();
  const std::size_t before = diag.count("device.table_extrapolate");
  const TabulatedReliabilityModel m(
      {{25.0, 1e18, 0.70}, {75.0, 1e17, 0.66}, {125.0, 1e16, 0.62}});
  // In-range calls never warn.
  (void)m.alpha(50.0, 1.2);
  (void)m.b(100.0, 1.2);
  EXPECT_EQ(diag.count("device.table_extrapolate"), before);
  // First clamp warns; repeats (either accessor, either side) stay silent.
  (void)m.alpha(180.0, 1.2);
  EXPECT_EQ(diag.count("device.table_extrapolate"), before + 1);
  (void)m.alpha(180.0, 1.2);
  (void)m.b(5.0, 1.2);
  (void)m.b(300.0, 1.2);
  EXPECT_EQ(diag.count("device.table_extrapolate"), before + 1);
  // Copies share the one-shot flag (from_model returns by value), so a
  // copied model does not re-arm the warning.
  const TabulatedReliabilityModel copy = m;
  (void)copy.alpha(500.0, 1.2);
  EXPECT_EQ(diag.count("device.table_extrapolate"), before + 1);
  // A fresh model is a fresh diagnostic.
  const TabulatedReliabilityModel other(
      {{25.0, 1e18, 0.70}, {75.0, 1e17, 0.66}});
  (void)other.alpha(90.0, 1.2);
  EXPECT_EQ(diag.count("device.table_extrapolate"), before + 2);
}

TEST(TabulatedModel, RejectsMalformedTables) {
  EXPECT_THROW(TabulatedReliabilityModel({{25.0, 1e18, 0.7}}), obd::Error);
  EXPECT_THROW(TabulatedReliabilityModel(
                   {{25.0, 1e18, 0.7}, {20.0, 1e17, 0.66}}),
               obd::Error);
  EXPECT_THROW(TabulatedReliabilityModel(
                   {{25.0, -1e18, 0.7}, {75.0, 1e17, 0.66}}),
               obd::Error);
}

}  // namespace
}  // namespace obd::core
