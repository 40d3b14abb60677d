// Incremental recomputation engine: ChipState dirty tracking, the
// IncrementalEvaluator's bit-identity contract, the step arena, and the
// cached canonical/fingerprint renderings.
//
// The load-bearing property here is bit-identity: any random sequence of
// partial updates followed by an evaluation must produce exactly the bits
// a from-scratch rebuild produces, at every SIMD dispatch level and
// thread count. Tolerances would hide ordering bugs (a reduction that
// folds dirty rows first, say), so every comparison below is on bit
// patterns.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "chip/design.hpp"
#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/chip_state.hpp"
#include "core/device_model.hpp"
#include "core/hybrid.hpp"
#include "core/incremental.hpp"
#include "core/problem.hpp"
#include "mech/spec.hpp"
#include "simd/dispatch.hpp"
#include "stats/rng.hpp"
#include "variation/model.hpp"

namespace obd {
namespace {

constexpr double kYear = 365.25 * 24.0 * 3600.0;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Restores the process-wide dispatch level and pool width on scope exit so
// the sweep over (level, threads) pairs cannot leak into other tests.
struct GlobalsGuard {
  simd::Level saved = simd::active_level();
  ~GlobalsGuard() {
    simd::set_level(saved);
    par::set_threads(0);
  }
};

// One synthetic design built twice: the seed-equivalent oxide-only spec
// (trivial stack — the hot path) and all four mechanisms (non-trivial
// stack — rows carry aging terms that depend on the operating
// conditions). 70 blocks so the dirty bitmask spans two words and has a
// ragged tail.
class IncrementalFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = new chip::Design(chip::make_synthetic_design(
        "INC", {.devices = 30000, .block_count = 70, .die_width = 8.0,
                .die_height = 8.0, .seed = 41}));
    model_ = new core::AnalyticReliabilityModel();
    temps_ = new std::vector<double>(design_->blocks.size());
    for (std::size_t j = 0; j < temps_->size(); ++j)
      (*temps_)[j] = 55.0 + 40.0 * design_->blocks[j].activity;
    core::ProblemOptions opts;
    opts.grid_cells_per_side = 10;
    oxide_ = new core::ReliabilityProblem(core::ReliabilityProblem::build(
        *design_, var::VariationBudget{}, *model_, *temps_, 1.2, opts));
    core::ProblemOptions all_opts = opts;
    all_opts.mechanisms.nbti = true;
    all_opts.mechanisms.em = true;
    all_opts.mechanisms.hci = true;
    all_ = new core::ReliabilityProblem(core::ReliabilityProblem::build(
        *design_, var::VariationBudget{}, *model_, *temps_, 1.2, all_opts));
    core::HybridOptions hopts;
    hopts.n_gamma = 40;
    hopts.n_b = 40;
    lut_oxide_ = new core::HybridEvaluator(*oxide_, hopts);
    lut_all_ = new core::HybridEvaluator(*all_, hopts);
  }
  static void TearDownTestSuite() {
    delete lut_all_;
    delete lut_oxide_;
    delete all_;
    delete oxide_;
    delete temps_;
    delete model_;
    delete design_;
  }

  static chip::Design* design_;
  static core::AnalyticReliabilityModel* model_;
  static std::vector<double>* temps_;
  static core::ReliabilityProblem* oxide_;
  static core::ReliabilityProblem* all_;
  static core::HybridEvaluator* lut_oxide_;
  static core::HybridEvaluator* lut_all_;
};

chip::Design* IncrementalFixture::design_ = nullptr;
core::AnalyticReliabilityModel* IncrementalFixture::model_ = nullptr;
std::vector<double>* IncrementalFixture::temps_ = nullptr;
core::ReliabilityProblem* IncrementalFixture::oxide_ = nullptr;
core::ReliabilityProblem* IncrementalFixture::all_ = nullptr;
core::HybridEvaluator* IncrementalFixture::lut_oxide_ = nullptr;
core::HybridEvaluator* IncrementalFixture::lut_all_ = nullptr;

// ------------------------------------------------------------------------
// ChipState dirty tracking

TEST_F(IncrementalFixture, StateSnapshotsProblemAndStartsAllDirty) {
  core::ChipState state(*oxide_);
  const auto& blocks = oxide_->blocks();
  ASSERT_EQ(state.block_count(), blocks.size());
  EXPECT_EQ(state.dirty_count(), blocks.size());
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    EXPECT_TRUE(same_bits(state.alphas()[j], blocks[j].alpha));
    EXPECT_TRUE(same_bits(state.bs()[j], blocks[j].b));
    EXPECT_TRUE(state.dirty(j));
  }
  EXPECT_EQ(state.vdd(), 1.2);
}

TEST_F(IncrementalFixture, SettersAreBitComparingNoOps) {
  core::ChipState state(*oxide_);
  state.clear_dirty();
  const std::uint64_t gen = state.generation();

  // Writing back the stored bits: no dirty bit, no generation bump.
  state.set_alpha_b(3, state.alphas()[3], state.bs()[3]);
  state.set_temp_c(3, state.temps_c()[3]);
  state.set_activity(3, state.activities()[3]);
  state.set_vdd(state.vdd());
  EXPECT_EQ(state.dirty_count(), 0u);
  EXPECT_EQ(state.generation(), gen);

  // A real change dirties exactly that block and bumps the generation.
  state.set_alpha_b(3, state.alphas()[3] * 1.5, state.bs()[3]);
  EXPECT_EQ(state.dirty_count(), 1u);
  EXPECT_TRUE(state.dirty(3));
  EXPECT_GT(state.generation(), gen);
}

TEST_F(IncrementalFixture, VddChangeDirtiesEveryBlock) {
  core::ChipState state(*all_);
  state.clear_dirty();
  state.set_vdd(1.15);
  EXPECT_EQ(state.dirty_count(), state.block_count());
}

TEST_F(IncrementalFixture, TailWordMaskingKeepsDirtyCountExact) {
  // 70 blocks = one full word + a 6-bit tail; mark_all_dirty must not set
  // the 58 padding bits.
  core::ChipState state(*oxide_);
  state.clear_dirty();
  state.mark_all_dirty();
  EXPECT_EQ(state.dirty_count(), 70u);
}

TEST_F(IncrementalFixture, ForEachDirtyVisitsAscendingAcrossWords) {
  core::ChipState state(*oxide_);
  state.clear_dirty();
  for (std::size_t j : {std::size_t{69}, std::size_t{3}, std::size_t{64}})
    state.set_alpha_b(j, state.alphas()[j] * 1.01, state.bs()[j]);
  std::vector<std::size_t> visited;
  state.for_each_dirty([&](std::size_t j) { visited.push_back(j); });
  EXPECT_EQ(visited, (std::vector<std::size_t>{3, 64, 69}));
}

TEST_F(IncrementalFixture, SettersValidate) {
  core::ChipState state(*oxide_);
  EXPECT_THROW(state.set_alpha_b(0, -1.0, 0.5), Error);
  EXPECT_THROW(state.set_alpha_b(0, 1.0e14, 0.0), Error);
  EXPECT_THROW(state.set_alpha_b(state.block_count(), 1.0e14, 0.5), Error);
  EXPECT_THROW(state.set_vdd(0.0), Error);
}

// ------------------------------------------------------------------------
// IncrementalEvaluator bit-identity

TEST_F(IncrementalFixture, ColdEvaluationMatchesFromScratch) {
  core::ChipState state(*oxide_);
  core::IncrementalEvaluator inc(*lut_oxide_);
  const double t = 8.0 * kYear;
  const double f = inc.evaluate(state, t);
  EXPECT_TRUE(same_bits(f, lut_oxide_->failure_probability(t)));
  EXPECT_EQ(inc.stats().full_rebuilds, 1u);
  EXPECT_EQ(state.dirty_count(), 0u);
}

TEST_F(IncrementalFixture, RejectsStateFromAnotherProblem) {
  core::ChipState state(*all_);
  core::IncrementalEvaluator inc(*lut_oxide_);
  EXPECT_THROW((void)inc.evaluate(state, kYear), Error);
}

TEST_F(IncrementalFixture, PartialUpdateRefreshesOnlyDirtyRows) {
  core::ChipState state(*oxide_);
  core::IncrementalEvaluator inc(*lut_oxide_);
  const double t = 8.0 * kYear;
  (void)inc.evaluate(state, t);
  state.set_alpha_b(5, state.alphas()[5] * 0.9, state.bs()[5]);
  state.set_alpha_b(66, state.alphas()[66] * 1.1, state.bs()[66]);
  (void)inc.evaluate(state, t);
  EXPECT_EQ(inc.stats().evaluations, 2u);
  EXPECT_EQ(inc.stats().full_rebuilds, 1u);
  EXPECT_EQ(inc.stats().last_dirty, 2u);
}

TEST_F(IncrementalFixture, ChangedTimeForcesFullRebuild) {
  core::ChipState state(*oxide_);
  core::IncrementalEvaluator inc(*lut_oxide_);
  (void)inc.evaluate(state, 8.0 * kYear);
  (void)inc.evaluate(state, 9.0 * kYear);
  EXPECT_EQ(inc.stats().full_rebuilds, 2u);
}

TEST_F(IncrementalFixture, SwitchingStatesForcesFullRebuild) {
  core::ChipState a(*oxide_), b(*oxide_);
  core::IncrementalEvaluator inc(*lut_oxide_);
  const double t = 8.0 * kYear;
  const double fa = inc.evaluate(a, t);
  b.set_alpha_b(0, b.alphas()[0] * 2.0, b.bs()[0]);
  (void)inc.evaluate(b, t);
  EXPECT_EQ(inc.stats().full_rebuilds, 2u);
  // Back to a (unchanged): another object switch, another full rebuild,
  // and the result is reproduced exactly.
  EXPECT_TRUE(same_bits(inc.evaluate(a, t), fa));
}

// The tentpole property: any random sequence of partial updates followed
// by an evaluation is bit-identical to a from-scratch rebuild — on the
// trivial and non-trivial stacks, at every available SIMD level, with a
// 1-wide and a 7-wide pool.
TEST_F(IncrementalFixture, RandomUpdateSequencesBitIdenticalToRebuild) {
  GlobalsGuard guard;
  std::vector<simd::Level> levels{simd::Level::kScalar};
  if (simd::can_use_avx2()) levels.push_back(simd::Level::kAvx2);

  for (const simd::Level level : levels) {
    simd::set_level(level);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{7}}) {
      par::set_threads(threads);
      for (const bool trivial : {true, false}) {
        const core::ReliabilityProblem& problem = trivial ? *oxide_ : *all_;
        const core::HybridEvaluator& lut = trivial ? *lut_oxide_ : *lut_all_;
        const std::size_t n = problem.blocks().size();

        core::ChipState state(problem);
        core::IncrementalEvaluator inc(lut);
        stats::Rng rng(7000 + 17 * static_cast<std::uint64_t>(level) +
                       threads + (trivial ? 0 : 1));
        double t = 8.0 * kYear;
        for (int step = 0; step < 40; ++step) {
          const std::size_t k = rng.below(6);
          for (std::size_t u = 0; u < k; ++u) {
            const std::size_t j = rng.below(n);
            switch (rng.below(4)) {
              case 0:
                state.set_alpha_b(j,
                                  state.alphas()[j] * rng.uniform(0.7, 1.4),
                                  state.bs()[j]);
                break;
              case 1:
                state.set_alpha_b(
                    j, state.alphas()[j],
                    std::clamp(state.bs()[j] * rng.uniform(0.9, 1.1), 0.31,
                               0.99));
                break;
              case 2:
                state.set_temp_c(j, rng.uniform(50.0, 110.0));
                break;
              default:
                state.set_activity(j, rng.uniform(0.05, 0.95));
                break;
            }
          }
          if (step % 11 == 10) state.set_vdd(rng.uniform(1.1, 1.3));
          if (step % 7 == 6) t = rng.uniform(2.0, 12.0) * kYear;

          const double f_inc = inc.evaluate(state, t);

          // Reference 1: the from-scratch hybrid sweep on the same
          // parameters.
          if (trivial) {
            const std::vector<double> alphas(state.alphas().begin(),
                                             state.alphas().end());
            const std::vector<double> bs(state.bs().begin(),
                                         state.bs().end());
            ASSERT_TRUE(
                same_bits(f_inc, lut.failure_probability_with(t, alphas, bs)))
                << "trivial step " << step << " level " << static_cast<int>(level)
                << " threads " << threads;
          } else {
            std::vector<double> oxide_f(n);
            std::vector<mech::OperatingConditions> conditions(n);
            for (std::size_t j = 0; j < n; ++j) {
              oxide_f[j] = std::min(
                  1.0, lut.block_failure(
                           j, std::log(t / state.alphas()[j]), state.bs()[j]));
              conditions[j] = state.conditions(j);
            }
            ASSERT_TRUE(same_bits(
                f_inc, problem.mechanisms().compose_under(oxide_f.data(), t,
                                                          conditions)))
                << "non-trivial step " << step << " level "
                << static_cast<int>(level) << " threads " << threads;
          }

          // Reference 2: a fresh evaluator over the same state (all rows
          // rebuilt) agrees bit for bit.
          core::ChipState rebuilt(problem);
          for (std::size_t j = 0; j < n; ++j) {
            rebuilt.set_alpha_b(j, state.alphas()[j], state.bs()[j]);
            rebuilt.set_temp_c(j, state.temps_c()[j]);
            rebuilt.set_activity(j, state.activities()[j]);
          }
          rebuilt.set_vdd(state.vdd());
          core::IncrementalEvaluator fresh(lut);
          ASSERT_TRUE(same_bits(f_inc, fresh.evaluate(rebuilt, t)))
              << "rebuild step " << step;
        }
        EXPECT_GT(inc.stats().evaluations, 0u);
        EXPECT_GT(inc.stats().full_rebuilds, 0u);  // t changes force some
      }
    }
  }
}

// ------------------------------------------------------------------------
// Step arena

TEST(Arena, MakeSpanIsZeroInitializedAndAligned) {
  Arena arena(256);
  const std::span<double> s = arena.make_span<double>(17);
  ASSERT_EQ(s.size(), 17u);
  for (const double x : s) EXPECT_EQ(x, 0.0);
  void* p = arena.allocate(64, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
}

TEST(Arena, FrameReleaseRestoresUsage) {
  Arena arena(1024);
  const std::size_t before = arena.used();
  {
    ArenaFrame frame(arena);
    (void)frame.arena().make_span<double>(32);
    EXPECT_GT(arena.used(), before);
    {
      ArenaFrame nested(arena);  // frames nest LIFO
      (void)nested.arena().make_span<int>(100);
    }
  }
  EXPECT_EQ(arena.used(), before);
}

TEST(Arena, GrowsBeyondInitialChunkAndKeepsSpansValid) {
  Arena arena(128);  // force chunk growth immediately
  std::vector<std::span<double>> spans;
  for (int i = 0; i < 8; ++i) {
    spans.push_back(arena.make_span<double>(64));
    for (std::size_t k = 0; k < spans.back().size(); ++k)
      spans.back()[k] = i * 1000.0 + static_cast<double>(k);
  }
  for (int i = 0; i < 8; ++i)
    for (std::size_t k = 0; k < spans[i].size(); ++k)
      ASSERT_EQ(spans[i][k], i * 1000.0 + static_cast<double>(k));
  EXPECT_GE(arena.high_water(), 8u * 64u * sizeof(double));
}

TEST(Arena, StatsAreCumulative) {
  const ArenaStats before = arena_stats();
  {
    ArenaFrame frame;  // thread-local step arena
    (void)frame.arena().make_span<double>(256);
  }
  const ArenaStats after = arena_stats();
  EXPECT_GT(after.allocations, before.allocations);
  EXPECT_GE(after.bytes, before.bytes + 256 * sizeof(double));
}

// ------------------------------------------------------------------------
// Cached canonical rendering (the cached value equals a fresh
// recomputation)

TEST_F(IncrementalFixture, CachedCanonicalEqualsRecomputed) {
  EXPECT_EQ(oxide_->mechanism_canonical(),
            oxide_->mechanisms().spec().canonical());
  EXPECT_EQ(all_->mechanism_canonical(),
            all_->mechanisms().spec().canonical());
  EXPECT_NE(oxide_->mechanism_canonical(), all_->mechanism_canonical());
}

}  // namespace
}  // namespace obd
