// google-benchmark microbenchmarks for the library's hot kernels: the PCA
// eigensolve, the closed-form g(u, v), per-query costs of each analysis
// method, and the Monte Carlo per-chip sampling that dominates the
// reference flow.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "chip/design.hpp"
#include "common/checkpoint.hpp"
#include "common/fault_injection.hpp"
#include "core/analytic.hpp"
#include "core/hybrid.hpp"
#include "core/montecarlo.hpp"
#include "linalg/eigen.hpp"
#include "stats/special.hpp"
#include "variation/model.hpp"

namespace {

using namespace obd;

const core::ReliabilityProblem& shared_problem() {
  static const core::ReliabilityProblem problem = [] {
    const chip::Design design = chip::make_benchmark(2);  // C2, 80K devices
    const core::AnalyticReliabilityModel model;
    std::vector<double> temps;
    for (std::size_t j = 0; j < design.blocks.size(); ++j)
      temps.push_back(60.0 + 4.0 * static_cast<double>(j));
    return core::ReliabilityProblem::build(design, var::VariationBudget{},
                                           model, temps, 1.2);
  }();
  return problem;
}

void BM_EigenSymmetric(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const var::VariationBudget budget;
  const var::GridModel grid(10.0, 10.0, n);
  const la::Matrix cov = var::build_covariance(grid, budget, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::eigen_symmetric(cov));
  }
  state.SetLabel(std::to_string(n * n) + "x" + std::to_string(n * n));
}
BENCHMARK(BM_EigenSymmetric)->Arg(10)->Arg(15)->Arg(20)->Arg(25)
    ->Arg(31)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_GClosedForm(benchmark::State& state) {
  double t = 1e8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::g_closed_form(t, 1e17, 0.64, 2.2, 2.5e-4));
    t += 1.0;
  }
}
BENCHMARK(BM_GClosedForm);

void BM_NormalQuantile(benchmark::State& state) {
  double p = 0.0001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::normal_quantile(p));
    p += 1e-7;
    if (p >= 1.0) p = 0.0001;
  }
}
BENCHMARK(BM_NormalQuantile);

void BM_GammaP(benchmark::State& state) {
  double x = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::gamma_p(2.5, x));
    x += 0.001;
    if (x > 20.0) x = 0.01;
  }
}
BENCHMARK(BM_GammaP);

void BM_StFastQuery(benchmark::State& state) {
  const core::AnalyticAnalyzer fast(shared_problem());
  double t = 2e8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast.failure_probability(t));
    t += 1.0;
  }
  state.SetLabel("per failure_probability() call");
}
BENCHMARK(BM_StFastQuery)->Unit(benchmark::kMicrosecond);

void BM_HybridQuery(benchmark::State& state) {
  const core::HybridEvaluator hybrid(shared_problem());
  double t = 2e8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hybrid.failure_probability(t));
    t += 1.0;
  }
  state.SetLabel("per failure_probability() call");
}
BENCHMARK(BM_HybridQuery)->Unit(benchmark::kMicrosecond);

void BM_StFastConstruction(benchmark::State& state) {
  for (auto _ : state) {
    const core::AnalyticAnalyzer fast(shared_problem());
    benchmark::DoNotOptimize(fast.failure_probability(2e8));
  }
  state.SetLabel("node build + one query");
}
BENCHMARK(BM_StFastConstruction)->Unit(benchmark::kMillisecond);

void BM_StMcConstruction(benchmark::State& state) {
  for (auto _ : state) {
    const core::StMcAnalyzer st_mc(shared_problem(), {.samples = 20000});
    benchmark::DoNotOptimize(st_mc.failure_probability(2e8));
  }
  state.SetLabel("20000 samples per block + one query");
}
BENCHMARK(BM_StMcConstruction)->Unit(benchmark::kMillisecond);

void BM_MonteCarloChipSampling(benchmark::State& state) {
  const auto chips = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const core::MonteCarloAnalyzer mc(shared_problem(),
                                      {.chip_samples = chips, .seed = 1});
    benchmark::DoNotOptimize(mc.failure_probability(2e8));
  }
  state.SetLabel(std::to_string(chips) + " chips x 80K devices");
}
BENCHMARK(BM_MonteCarloChipSampling)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);

// Cost of a disarmed fault-injection check: the sites live on hot paths
// (SOR sweeps, quadrature, factorizations), so this must stay at a single
// relaxed atomic load — compare against BM_GClosedForm-scale kernels to
// confirm the <2% overhead budget.
void BM_FaultCheckDisarmed(benchmark::State& state) {
  fault::disarm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::should_fire(fault::site::kThermalSor));
  }
  state.SetLabel("disarmed should_fire()");
}
BENCHMARK(BM_FaultCheckDisarmed);

// The same kernel guarded by a disarmed check: the pair quantifies the
// injected overhead on a representative hot-path unit of work.
void BM_GClosedFormWithFaultCheck(benchmark::State& state) {
  fault::disarm();
  double t = 1e8;
  for (auto _ : state) {
    if (fault::should_fire(fault::site::kQuadrature)) state.SkipWithError(
        "disarmed site fired");
    benchmark::DoNotOptimize(
        core::g_closed_form(t, 1e17, 0.64, 2.2, 2.5e-4));
    t += 1.0;
  }
}
BENCHMARK(BM_GClosedFormWithFaultCheck);

// Durability-layer overhead: the DRM runtime pays one journal append per
// control step and one atomic snapshot per checkpoint_every steps. Both
// must stay far below a control interval (which is wall-clock *months*) —
// these pin the actual cost so regressions are visible.
const std::string& bench_dir() {
  static const std::string dir = [] {
    char tmpl[] = "/tmp/obdrel-bench-XXXXXX";
    const char* d = ::mkdtemp(tmpl);
    return std::string(d != nullptr ? d : "/tmp");
  }();
  return dir;
}

void BM_Crc32(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckpt::crc32(payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(256)->Arg(4096);

void BM_SnapshotWriteAtomic(benchmark::State& state) {
  // ~1 KB payload: the scale of a DrmRuntime snapshot (a few dozen
  // hexfloat doubles plus the header fields).
  const std::string payload(1024, 'd');
  const std::string path = bench_dir() + "/bench.snap";
  for (auto _ : state) {
    ckpt::write_snapshot_atomic(path, 1, payload);
  }
  state.SetLabel("1 KiB payload: temp + fsync + rename");
}
BENCHMARK(BM_SnapshotWriteAtomic)->Unit(benchmark::kMicrosecond);

void BM_JournalAppend(benchmark::State& state) {
  const bool sync = state.range(0) != 0;
  // ~200 B record: one DRM step (sample, decision, per-block damage).
  const std::string record(200, 'r');
  ckpt::JournalWriter writer(bench_dir() + "/bench.log",
                             /*truncate=*/true);
  for (auto _ : state) {
    writer.append(record);
    if (sync) writer.sync();
  }
  state.SetLabel(sync ? "append + fsync (durable step)"
                      : "append only (OS-buffered floor)");
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_CanonicalSampleAndGridEval(benchmark::State& state) {
  const auto& problem = shared_problem();
  stats::Rng rng(3);
  for (auto _ : state) {
    const la::Vector z = problem.canonical().sample_z(rng);
    benchmark::DoNotOptimize(
        problem.canonical().sensitivities().multiply(z));
  }
  state.SetLabel("one chip's correlated grid thicknesses");
}
BENCHMARK(BM_CanonicalSampleAndGridEval)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
