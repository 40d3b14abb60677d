// Runtime ISA dispatch for the SIMD kernel layer.
//
// The dispatch level is a single process-wide decision, resolved in
// priority order from: configure() (the `simd` config key), the
// OBDREL_SIMD environment variable, and CPU auto-detection. "auto" picks
// the widest tier that is both compiled in and reported by the CPU:
// AVX-512F/DQ first (OBDREL_ENABLE_AVX512, default on), then AVX2+FMA
// (OBDREL_ENABLE_AVX2, default on); anything else falls back to the
// scalar reference kernels, which are bit-identical to the loops they
// replaced.
//
// Under "auto" the *table* composition is per kernel, not per level: a
// kernel whose widest variant measures slower than a narrower one (see
// kAutoCap in dispatch.cpp — today dot_counts, whose AVX-512 fold is
// load-bound and loses to AVX2) is capped at the faster tier, and so is a
// kernel with no variant of that width (the eigensolver kernels and
// hybrid_row, whose AVX-512 entries are the AVX2 ones); every other
// kernel still gets the widest variant. active_level() continues to
// report the widest resolved tier (that is what "auto" selected);
// kernel_level() reports the tier actually serving one kernel. An
// explicit level — configure("avx512"), OBDREL_SIMD=<level>, or
// set_level() — is forced: the whole uncomposed table of that level is
// used, caps ignored, so forced runs exercise exactly one tier.
//
// Requesting "avx512" or "avx2" explicitly on a host (or build) that
// cannot run it is a configuration error (ErrorCode::kConfig), mirroring
// how the CLI rejects bad `device_sampling` values; "scalar" always
// works.
#pragma once

#include <string>

namespace obd::simd {

enum class Level {
  kScalar,  ///< portable reference kernels, baseline ISA
  kAvx2,    ///< AVX2 + FMA kernels (per-file -mavx2 -mfma)
  kAvx512,  ///< AVX-512F/DQ kernels (per-file -mavx512f -mavx512dq)
};

/// Kernel identities, in KernelTable member order. Used by kernel_level()
/// and the bench gates that pin the per-kernel auto selection.
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
};

/// "scalar", "avx2" or "avx512".
const char* to_string(Level level);

/// True when the AVX2 kernels are compiled in AND the CPU supports
/// AVX2 + FMA. False on non-x86 builds or with OBDREL_ENABLE_AVX2=OFF.
bool can_use_avx2();

/// True when the AVX-512 kernels are compiled in AND the CPU supports
/// AVX-512F + AVX-512DQ, and can_use_avx2() holds (the AVX-512 table
/// serves the AVX2 eigensolver and hybrid_row kernels). False on non-x86
/// builds or with OBDREL_ENABLE_AVX512=OFF.
bool can_use_avx512();

/// The active dispatch level. Lazily initialized from OBDREL_SIMD
/// ("auto" when unset) on first use; a bad OBDREL_SIMD value throws
/// Error(kConfig) from whichever call initializes first — call
/// init_from_env() early to surface that at startup.
Level active_level();

/// Parses and applies a level spec: "auto" | "avx512" | "avx2" |
/// "scalar". Throws Error(kConfig) for unknown specs and for explicit
/// vector levels the host/build cannot run.
void configure(const std::string& spec);

/// Applies $OBDREL_SIMD (no-op when unset/empty). Same validation as
/// configure(). The CLI calls this before dispatching any command so a
/// bad value fails with the config exit code everywhere.
void init_from_env();

/// Forces a level directly (tests). Throws Error(kConfig) for vector
/// levels the host/build cannot run.
void set_level(Level level);

/// The tier whose implementation kernels() currently returns for `id`:
/// the forced level when one is in effect, otherwise
/// min(active_level(), per-kernel auto cap).
[[nodiscard]] Level kernel_level(KernelId id);

/// Records the active level as a non-degrading "simd.level" stat in
/// obd::diagnostics(), next to the parallel.pool entry.
void publish_level();

}  // namespace obd::simd
