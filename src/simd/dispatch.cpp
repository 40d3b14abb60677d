#include "simd/dispatch.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <iterator>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "simd/kernels.hpp"

namespace obd::simd {
namespace {

// -1 = not yet resolved; otherwise a Level value. Resolution is lazy so
// library users who never touch dispatch still get "auto".
std::atomic<int> g_level{-1};

// True when the level was requested explicitly (configure("avx512"),
// OBDREL_SIMD=<level>, set_level) rather than resolved by "auto". A
// forced level selects its whole uncomposed kernel table; only "auto"
// applies the per-kernel caps below.
std::atomic<bool> g_forced{false};

Level resolve_auto() {
  if (can_use_avx512()) return Level::kAvx512;
  return can_use_avx2() ? Level::kAvx2 : Level::kScalar;
}

void store(Level level, bool forced) {
  g_forced.store(forced, std::memory_order_relaxed);
  g_level.store(static_cast<int>(level), std::memory_order_release);
}

// Per-kernel ceiling applied under "auto", indexed by KernelId, with the
// kernel's name for the simd.level stat. Wider is not always faster:
// BENCH_simd.json measures the dot_counts AVX-512 variant *slower* than
// AVX2 (0.068s vs 0.043s on the bench workload) — the kernel is
// load-bound and the fold of each 512-bit product back into the four
// 256-bit accumulator lanes costs two extracts plus two adds per eight
// elements, which AVX2 simply doesn't pay. The eigensolver kernels and
// hybrid_row have no AVX-512 variant (that table serves the AVX2 ones),
// so their cap names the tier that actually runs. Every other kernel wins
// at the widest tier. bench/simd_kernels.cpp gates that the tier `auto` picks
// per kernel stays within tolerance of the fastest measured tier, so a
// regression here (or a ratio flip on new hardware) fails the bench.
struct AutoCap {
  const char* kernel;
  Level cap;
};
constexpr AutoCap kAutoCap[] = {
    {"fill_bin_factors", Level::kAvx512},
    {"dot_counts", Level::kAvx2},  // see above
    {"normal_cdf_batch", Level::kAvx512},
    {"matmul", Level::kAvx512},
    {"matvec", Level::kAvx512},
    {"gram_aat", Level::kAvx512},
    {"clenshaw_batch", Level::kAvx512},
    {"tql2_rotate", Level::kAvx2},
    {"tred2_symv", Level::kAvx2},
    {"tred2_rank2", Level::kAvx2},
    {"tred2_reflect", Level::kAvx2},
    {"hybrid_row", Level::kAvx2},
};
static_assert(std::size(kAutoCap) ==
              static_cast<std::size_t>(KernelId::kHybridRow) + 1);

// Whole-level table, guarded by what is compiled in (the alias tables are
// scalar copies on non-ISA builds, but going through the macros keeps the
// dead references out entirely).
const KernelTable& level_table(Level level) {
#if defined(OBDREL_HAVE_AVX512)
  if (level == Level::kAvx512) return detail::kAvx512Kernels;
#endif
#if defined(OBDREL_HAVE_AVX2)
  if (level == Level::kAvx2) return detail::kAvx2Kernels;
#endif
  (void)level;
  return detail::kScalarKernels;
}

Level capped(Level widest, KernelId id) {
  const Level cap = kAutoCap[static_cast<int>(id)].cap;
  return static_cast<int>(cap) < static_cast<int>(widest) ? cap : widest;
}

KernelTable compose_auto(Level widest) {
  KernelTable t;
  t.fill_bin_factors =
      level_table(capped(widest, KernelId::kFillBinFactors)).fill_bin_factors;
  t.dot_counts = level_table(capped(widest, KernelId::kDotCounts)).dot_counts;
  t.normal_cdf_batch =
      level_table(capped(widest, KernelId::kNormalCdfBatch)).normal_cdf_batch;
  t.matmul = level_table(capped(widest, KernelId::kMatmul)).matmul;
  t.matvec = level_table(capped(widest, KernelId::kMatvec)).matvec;
  t.gram_aat = level_table(capped(widest, KernelId::kGramAat)).gram_aat;
  t.clenshaw_batch =
      level_table(capped(widest, KernelId::kClenshawBatch)).clenshaw_batch;
  t.tql2_rotate =
      level_table(capped(widest, KernelId::kTql2Rotate)).tql2_rotate;
  t.tred2_symv = level_table(capped(widest, KernelId::kTred2Symv)).tred2_symv;
  t.tred2_rank2 =
      level_table(capped(widest, KernelId::kTred2Rank2)).tred2_rank2;
  t.tred2_reflect =
      level_table(capped(widest, KernelId::kTred2Reflect)).tred2_reflect;
  t.hybrid_row = level_table(capped(widest, KernelId::kHybridRow)).hybrid_row;
  return t;
}

// Composed per-kernel tables for "auto", one per resolved widest level.
// Function-local statics: initialized on first kernels() call, long after
// every table TU's static initialization, so the composition never copies
// a not-yet-initialized alias table.
const KernelTable& auto_table(Level widest) {
  static const KernelTable tables[3] = {compose_auto(Level::kScalar),
                                        compose_auto(Level::kAvx2),
                                        compose_auto(Level::kAvx512)};
  return tables[static_cast<int>(widest)];
}

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::kAvx512:
      return "avx512";
    case Level::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

bool can_use_avx2() {
#if defined(OBDREL_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool can_use_avx512() {
#if defined(OBDREL_HAVE_AVX512) && (defined(__GNUC__) || defined(__clang__))
  // The AVX-512 table serves the AVX2 eigensolver kernels too.
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") && can_use_avx2();
#else
  return false;
#endif
}

Level active_level() {
  const int l = g_level.load(std::memory_order_acquire);
  if (l >= 0) return static_cast<Level>(l);
  init_from_env();
  return static_cast<Level>(g_level.load(std::memory_order_acquire));
}

void configure(const std::string& spec) {
  if (spec == "auto") {
    store(resolve_auto(), /*forced=*/false);
    return;
  }
  if (spec == "scalar") {
    store(Level::kScalar, /*forced=*/true);
    return;
  }
  if (spec == "avx2") {
    if (!can_use_avx2())
      throw Error(
          "simd level 'avx2' requested but unavailable (CPU lacks AVX2/FMA "
          "or the build disabled OBDREL_ENABLE_AVX2); use 'auto' or "
          "'scalar'",
          ErrorCode::kConfig);
    store(Level::kAvx2, /*forced=*/true);
    return;
  }
  if (spec == "avx512") {
    if (!can_use_avx512())
      throw Error(
          "simd level 'avx512' requested but unavailable (CPU lacks "
          "AVX-512F/DQ or the build disabled OBDREL_ENABLE_AVX512); use "
          "'auto', 'avx2' or 'scalar'",
          ErrorCode::kConfig);
    store(Level::kAvx512, /*forced=*/true);
    return;
  }
  throw Error("simd must be 'auto', 'avx512', 'avx2' or 'scalar', got '" +
                  spec + "'",
              ErrorCode::kConfig);
}

void init_from_env() {
  const char* env = std::getenv("OBDREL_SIMD");
  if (env == nullptr || *env == '\0') {
    // Do not override an explicit configure()/set_level() choice.
    if (g_level.load(std::memory_order_acquire) < 0)
      store(resolve_auto(), /*forced=*/false);
    return;
  }
  try {
    configure(env);
  } catch (const Error& e) {
    throw Error(std::string("OBDREL_SIMD: ") + e.what(), ErrorCode::kConfig);
  }
}

void set_level(Level level) {
  if (level == Level::kAvx2 && !can_use_avx2())
    throw Error("simd: AVX2 kernels unavailable on this host/build",
                ErrorCode::kConfig);
  if (level == Level::kAvx512 && !can_use_avx512())
    throw Error("simd: AVX-512 kernels unavailable on this host/build",
                ErrorCode::kConfig);
  store(level, /*forced=*/true);
}

Level kernel_level(KernelId id) {
  const Level widest = active_level();
  if (g_forced.load(std::memory_order_relaxed)) return widest;
  return capped(widest, id);
}

void publish_level() {
  const Level level = active_level();
  std::string line = std::string("dispatch ") + to_string(level);
  if (!g_forced.load(std::memory_order_relaxed)) {
    // Name the kernels "auto" pulled below the widest tier, so the stat
    // line shows the effective per-kernel selection, not just the level.
    for (std::size_t id = 0; id < std::size(kAutoCap); ++id) {
      const Level tier = capped(level, static_cast<KernelId>(id));
      if (tier != level)
        line += std::string(", ") + kAutoCap[id].kernel + "=" +
                to_string(tier);
    }
  }
  std::string caps = " (";
  caps += can_use_avx512() ? "avx512f+dq available" : "avx512f+dq unavailable";
  caps += can_use_avx2() ? ", avx2+fma available)" : ", avx2+fma unavailable)";
  diagnostics().stat("simd.level", line + caps);
}

const KernelTable& kernels() {
  const Level level = active_level();
  if (g_forced.load(std::memory_order_relaxed)) return level_table(level);
  return auto_table(level);
}

}  // namespace obd::simd
