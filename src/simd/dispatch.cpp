#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "simd/kernels.hpp"

namespace obd::simd {
namespace {

// -1 = not yet resolved; otherwise a Level value. Resolution is lazy so
// library users who never touch dispatch still get "auto".
std::atomic<int> g_level{-1};

Level resolve_auto() {
  return can_use_avx2() ? Level::kAvx2 : Level::kScalar;
}

void store(Level level) {
  g_level.store(static_cast<int>(level), std::memory_order_release);
}

}  // namespace

const char* to_string(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

bool can_use_avx2() {
#if defined(OBDREL_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
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
    store(resolve_auto());
    return;
  }
  if (spec == "scalar") {
    store(Level::kScalar);
    return;
  }
  if (spec == "avx2") {
    if (!can_use_avx2())
      throw Error(
          "simd level 'avx2' requested but unavailable (CPU lacks AVX2/FMA "
          "or the build disabled OBDREL_ENABLE_AVX2); use 'auto' or "
          "'scalar'",
          ErrorCode::kConfig);
    store(Level::kAvx2);
    return;
  }
  throw Error(
      "simd must be 'auto', 'avx2' or 'scalar', got '" + spec + "'",
      ErrorCode::kConfig);
}

void init_from_env() {
  const char* env = std::getenv("OBDREL_SIMD");
  if (env == nullptr || *env == '\0') {
    // Do not override an explicit configure()/set_level() choice.
    if (g_level.load(std::memory_order_acquire) < 0) store(resolve_auto());
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
  store(level);
}

Level kernel_level(KernelId) { return active_level(); }

void publish_level() {
  diagnostics().stat(
      "simd.level",
      std::string("dispatch ") + to_string(active_level()) +
          (can_use_avx2() ? " (avx2+fma available)"
                          : " (avx2+fma unavailable)"));
}

const KernelTable& kernels() {
#if defined(OBDREL_HAVE_AVX2)
  if (active_level() == Level::kAvx2) return detail::kAvx2Kernels;
#endif
  return detail::kScalarKernels;
}

}  // namespace obd::simd
