// Runtime ISA dispatch for the SIMD kernel layer.
//
// The dispatch level is a single process-wide decision, resolved in
// priority order from: configure() (the `simd` config key), the
// OBDREL_SIMD environment variable, and CPU auto-detection. "auto" picks
// AVX2+FMA when it is both compiled in (OBDREL_ENABLE_AVX2, default on)
// and reported by the CPU; anything else falls back to the scalar table.
// Every kernel gives the same bits at every level (kernels.hpp), so the
// level changes speed only. Every level, "auto" included, serves its
// whole kernel table; fill_bin_factors, normal_cdf_batch and matvec are
// one implementation that both tables hold.
//
// Requesting "avx2" explicitly on a host (or build) that cannot run it is
// a configuration error (ErrorCode::kConfig), mirroring how the CLI
// rejects bad `device_sampling` values; "scalar" always works.
#pragma once

#include <string>

namespace obd::simd {

enum class Level {
  kScalar,  ///< one lane per kernel step, baseline ISA
  kAvx2,    ///< AVX2 + FMA kernels (per-file -mavx2 -mfma)
};

/// Kernel identities, in KernelTable member order. Used by kernel_level()
/// to report the tier serving each kernel.
enum class KernelId {
  kFillBinFactors,
  kDotCounts,
  kNormalCdfBatch,
  kMatmul,
  kMatvec,
  kGramAat,
  kClenshawBatch,
  kTql2Rotate,
  kTred2Symv,
  kTred2Rank2,
  kTred2Reflect,
  kHybridRow,
  kBoxMuller,
  kQuadFormDots,
};

/// "scalar" or "avx2".
const char* to_string(Level level);

/// True when the AVX2 kernels are compiled in AND the CPU supports
/// AVX2 + FMA. False on non-x86 builds or with OBDREL_ENABLE_AVX2=OFF.
bool can_use_avx2();

/// The active dispatch level. Lazily initialized from OBDREL_SIMD
/// ("auto" when unset) on first use; a bad OBDREL_SIMD value throws
/// Error(kConfig) from whichever call initializes first — call
/// init_from_env() early to surface that at startup.
Level active_level();

/// Parses and applies a level spec: "auto" | "avx2" | "scalar". Throws
/// Error(kConfig) for unknown specs and for "avx2" where the host/build
/// cannot run it.
void configure(const std::string& spec);

/// Applies $OBDREL_SIMD (no-op when unset/empty). Same validation as
/// configure(). The CLI calls this before dispatching any command so a
/// bad value fails with the config exit code everywhere.
void init_from_env();

/// Forces a level directly (tests). Throws Error(kConfig) for vector
/// levels the host/build cannot run.
void set_level(Level level);

/// The tier whose implementation kernels() currently returns for `id`.
/// Every kernel runs at the active level.
[[nodiscard]] Level kernel_level(KernelId id);

/// Records the active level as a non-degrading "simd.level" stat in
/// obd::diagnostics(), next to the parallel.pool entry.
void publish_level();

}  // namespace obd::simd
