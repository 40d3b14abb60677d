// Tests for the shared deterministic pool (common/parallel.hpp) and the
// thread-count invariance of every analyzer that runs on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chip/design.hpp"
#include "common/diagnostics.hpp"
#include "common/parallel.hpp"
#include "core/analytic.hpp"
#include "core/hybrid.hpp"
#include "core/montecarlo.hpp"
#include "stats/rng.hpp"

namespace obd {
namespace {

// Every test leaves the pool back at the automatic width so suites can run
// in any order.
struct PoolGuard {
  ~PoolGuard() { par::set_threads(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  PoolGuard guard;
  for (std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    par::set_threads(width);
    const std::size_t n = 1237;  // deliberately not a chunk multiple
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    par::parallel_for(0, n, 17, [&](std::size_t b, std::size_t e) {
      ASSERT_LT(b, e);
      ASSERT_LE(e, n);
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " width " << width;
  }
}

TEST(ParallelFor, HandlesEmptyAndDegenerateRanges) {
  PoolGuard guard;
  int calls = 0;
  par::parallel_for(5, 5, 4, [&](std::size_t, std::size_t) { ++calls; });
  par::parallel_for(7, 3, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // chunk = 0 is treated as 1, not a division crash.
  par::parallel_for(0, 3, 0, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(e, b + 1);
    ++calls;
  });
  EXPECT_EQ(calls, 3);
}

TEST(ParallelFor, PropagatesBodyExceptions) {
  PoolGuard guard;
  par::set_threads(4);
  EXPECT_THROW(
      par::parallel_for(0, 100, 1,
                        [](std::size_t b, std::size_t) {
                          if (b == 37) throw std::runtime_error("chunk 37");
                        }),
      std::runtime_error);
  // The pool must remain usable after a throwing region.
  std::atomic<int> sum{0};
  par::parallel_for(0, 10, 1,
                    [&](std::size_t b, std::size_t) { sum.fetch_add(int(b)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelFor, NestedRegionsRunInline) {
  PoolGuard guard;
  par::set_threads(4);
  std::atomic<int> total{0};
  par::parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    // A worker thread re-entering the pool must not deadlock waiting for
    // itself; nested regions execute inline on the current thread.
    par::parallel_for(0, 4, 1,
                      [&](std::size_t, std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelReduce, MatchesSerialSumBitExactly) {
  PoolGuard guard;
  const std::size_t n = 10007;
  auto map = [](std::size_t b, std::size_t e) {
    double s = 0.0;
    for (std::size_t i = b; i < e; ++i)
      s += 1.0 / static_cast<double>(i + 1);
    return s;
  };
  auto plus = [](double a, double b) { return a + b; };

  par::set_threads(1);
  const double serial = par::parallel_reduce(0, n, 64, 0.0, map, plus);
  for (std::size_t width : {std::size_t{2}, std::size_t{7}}) {
    par::set_threads(width);
    const double parallel = par::parallel_reduce(0, n, 64, 0.0, map, plus);
    // Bit-identical, not just close: fixed chunk boundaries + ordered fold.
    EXPECT_EQ(serial, parallel) << "width " << width;
  }
}

TEST(ParallelPool, SetThreadsShutdownAndReuse) {
  PoolGuard guard;
  // Repeated reconfiguration + shutdown must never wedge or drop work.
  for (int round = 0; round < 5; ++round) {
    for (std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{2}}) {
      par::set_threads(width);
      EXPECT_EQ(par::thread_count(), width);
      std::atomic<std::uint64_t> sum{0};
      par::parallel_for(0, 100, 9, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) sum.fetch_add(i);
      });
      EXPECT_EQ(sum.load(), 4950u);
      par::shutdown();  // next region restarts the pool lazily
    }
  }
}

TEST(ParallelPool, StatsCountRegionsAndChunks) {
  PoolGuard guard;
  par::set_threads(2);
  par::reset_stats();
  par::parallel_for(0, 100, 10, [](std::size_t, std::size_t) {});
  par::parallel_for(0, 5, 10, [](std::size_t, std::size_t) {});  // inline
  const par::PoolStats s = par::stats();
  EXPECT_EQ(s.regions, 2u);
  EXPECT_EQ(s.inline_regions, 1u);
  EXPECT_EQ(s.chunks, 11u);

  diagnostics().clear();
  par::publish_stats();
  EXPECT_EQ(diagnostics().stats().size(), 1u);
  EXPECT_FALSE(diagnostics().degraded());  // stats never degrade
  diagnostics().clear();

  par::reset_stats();
  diagnostics().clear();
  par::publish_stats();  // nothing ran since reset: no entry
  EXPECT_TRUE(diagnostics().stats().empty());
}

TEST(ParallelPool, ManyShortRegionsNeverOutliveTheirWorkers) {
  // The region lives on the caller's stack. A worker's last touch of it
  // (dropping `active` and notifying) must finish before the caller can
  // observe zero and return, or the worker locks a dead region's mutex.
  // Thousands of near-empty 2-chunk regions keep that window hot; TSan
  // reports the race if it reopens.
  PoolGuard guard;
  par::set_threads(4);
  constexpr std::uint64_t kRegions = 20000;
  std::atomic<std::uint64_t> sum{0};
  for (std::uint64_t r = 0; r < kRegions; ++r)
    par::parallel_for(0, 2, 1, [&](std::size_t b, std::size_t) {
      sum.fetch_add(b + 1, std::memory_order_relaxed);
    });
  EXPECT_EQ(sum.load(), 3 * kRegions);
}

// Thread-count invariance of the analyzers: the ISSUE's determinism
// contract, pinned bit-exactly. A small but non-degenerate problem keeps
// the suite fast.
class ParallelInvarianceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = new chip::Design(chip::make_synthetic_design(
        "PAR", {.devices = 12000, .block_count = 5, .die_width = 5.0,
                .die_height = 5.0, .seed = 31}));
    temps_ = new std::vector<double>{88.0, 66.0, 73.0, 59.0, 81.0};
    core::ProblemOptions opts;
    opts.grid_cells_per_side = 8;
    problem_ = new core::ReliabilityProblem(core::ReliabilityProblem::build(
        *design_, var::VariationBudget{}, core::AnalyticReliabilityModel{},
        *temps_, 1.2, opts));
  }
  static void TearDownTestSuite() {
    delete problem_;
    delete temps_;
    delete design_;
    problem_ = nullptr;
    temps_ = nullptr;
    design_ = nullptr;
    par::set_threads(0);
  }

  static std::vector<std::size_t> widths() {
    return {1, 2, 7, std::max<std::size_t>(
                         1, std::thread::hardware_concurrency())};
  }

  static chip::Design* design_;
  static std::vector<double>* temps_;
  static core::ReliabilityProblem* problem_;
};

chip::Design* ParallelInvarianceFixture::design_ = nullptr;
std::vector<double>* ParallelInvarianceFixture::temps_ = nullptr;
core::ReliabilityProblem* ParallelInvarianceFixture::problem_ = nullptr;

TEST_F(ParallelInvarianceFixture, MonteCarloResultsAreBitIdentical) {
  PoolGuard guard;
  std::vector<double> reference;
  for (const std::size_t width : widths()) {
    par::set_threads(width);
    core::MonteCarloOptions opts;
    opts.chip_samples = 60;
    const core::MonteCarloAnalyzer mc(*problem_, opts);
    std::vector<double> got;
    for (double t : {5e7, 2e8, 1e9}) {
      got.push_back(mc.failure_probability(t));
      got.push_back(mc.failure_std_error(t));
      got.push_back(mc.kth_failure_probability(t, 2));
    }
    stats::Rng rng(7);
    for (double t : mc.sample_failure_times(16, rng)) got.push_back(t);
    if (reference.empty()) {
      reference = got;
      for (double v : reference) EXPECT_TRUE(std::isfinite(v));
    } else {
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], reference[i])
            << "value " << i << " at width " << width;
    }
  }
}

TEST_F(ParallelInvarianceFixture, BatchedSweepsAreBitIdenticalAcrossWidths) {
  PoolGuard guard;
  std::vector<double> ts;
  for (double t = 4e7; t < 3e9; t *= 2.1) ts.push_back(t);
  std::vector<double> reference;
  for (const std::size_t width : widths()) {
    par::set_threads(width);
    core::MonteCarloOptions opts;
    opts.chip_samples = 60;
    const core::MonteCarloAnalyzer mc(*problem_, opts);
    std::vector<double> got;
    for (double v : mc.failure_probabilities(ts)) got.push_back(v);
    for (double v : mc.failure_std_errors(ts)) got.push_back(v);
    for (double v : mc.kth_failure_probabilities(ts, 2)) got.push_back(v);
    if (reference.empty()) {
      reference = got;
      for (double v : reference) EXPECT_TRUE(std::isfinite(v));
    } else {
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], reference[i])
            << "value " << i << " at width " << width;
    }
  }
}

TEST_F(ParallelInvarianceFixture, BinnedSamplerIsBitIdenticalAcrossWidths) {
  PoolGuard guard;
  std::vector<double> reference;
  for (const std::size_t width : widths()) {
    par::set_threads(width);
    core::MonteCarloOptions opts;
    opts.chip_samples = 40;
    opts.sampling = core::DeviceSampling::kBinned;
    const core::MonteCarloAnalyzer mc(*problem_, opts);
    std::vector<double> got;
    for (double t : {5e7, 2e8, 1e9}) {
      got.push_back(mc.failure_probability(t));
      got.push_back(mc.failure_std_error(t));
    }
    if (reference.empty()) {
      reference = got;
    } else {
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], reference[i])
            << "value " << i << " at width " << width;
    }
  }
}

TEST_F(ParallelInvarianceFixture, PerAnalyzerThreadCapIsInvariantToo) {
  PoolGuard guard;
  par::set_threads(4);
  std::vector<double> reference;
  // options.threads caps the pool per analyzer; every cap must reproduce
  // the same bits as the serial run.
  for (const std::size_t cap : {std::size_t{1}, std::size_t{3}, std::size_t{0}}) {
    core::MonteCarloOptions opts;
    opts.chip_samples = 40;
    opts.threads = cap;
    const core::MonteCarloAnalyzer mc(*problem_, opts);
    std::vector<double> got;
    for (double t : {1e8, 6e8}) {
      got.push_back(mc.failure_probability(t));
      got.push_back(mc.failure_std_error(t));
    }
    if (reference.empty()) {
      reference = got;
    } else {
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], reference[i]) << "value " << i << " cap " << cap;
    }
  }
}

TEST_F(ParallelInvarianceFixture, HybridTablesAreBitIdentical) {
  PoolGuard guard;
  std::vector<double> reference;
  std::string reference_tables;
  for (const std::size_t width : widths()) {
    par::set_threads(width);
    const core::HybridEvaluator hybrid(*problem_);
    std::vector<double> got;
    for (double t : {5e7, 2e8, 1e9, 5e9})
      got.push_back(hybrid.failure_probability(t));
    // save() prints every entry at 17 digits: equal text, equal bits.
    std::ostringstream tables;
    hybrid.save(tables);
    if (reference.empty()) {
      reference = got;
      reference_tables = tables.str();
    } else {
      EXPECT_EQ(tables.str(), reference_tables) << "width " << width;
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], reference[i])
            << "value " << i << " at width " << width;
    }
  }
}

}  // namespace
}  // namespace obd
