// Pseudo-random number generation.
//
// All stochastic components of the library (Monte Carlo reference flows,
// thickness samplers, device failure-time sampling) draw from this RNG so
// experiments are reproducible from a single seed. The generator is
// xoshiro256++ (Blackman & Vigna): tiny state, excellent statistical quality,
// and much faster than std::mt19937_64 — the full-chip Monte Carlo reference
// draws close to a billion variates per run.
#pragma once

#include <cstddef>
#include <cstdint>

namespace obd::stats {

/// xoshiro256++ uniform random bit generator with Gaussian helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator deterministically via splitmix64 over `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit value (satisfies UniformRandomBitGenerator).
  result_type operator()();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform();

  /// Uniform double in (0, 1] — safe as an argument to log().
  double uniform_positive();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal variate by Box–Muller with libm: per pair, u1 =
  /// uniform_positive() then u2 = uniform(), r = sqrt(-2 log u1) and
  /// theta = (2 pi) u2; returns r cos(theta) and caches r sin(theta) for
  /// the next normal drawn.
  double normal();

  /// Fills out[0, n) with the normals that n calls of normal() would
  /// return: the same uniforms in the same order and pairing, cos before
  /// sin, and the cached half carried in and out (odd n leaves a sin
  /// cached, so fill_normal and normal() may be mixed freely). The
  /// transform is simd::KernelTable::box_muller, whose portable log and
  /// sin/cos put each normal within 8 ULP of normal()'s, with the same
  /// bits at every SIMD level.
  void fill_normal(double* out, std::size_t n);

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Standard exponential variate (rate 1).
  double exponential();

  /// Uniform integer in [0, n), unbiased (0 for n = 0).
  std::uint64_t below(std::uint64_t n);

  /// Returns an independent generator stream (jump via reseeding with the
  /// current state mixed through splitmix64). Useful for parallel fan-out.
  Rng split();

  /// Deterministic independent stream `stream` of a seed: both words are
  /// whitened through splitmix64 before combining, so nearby (seed, stream)
  /// pairs yield decorrelated generators. This is how per-chip Monte Carlo
  /// streams are derived — unlike seeding with `seed + c * stream`, whose
  /// affinely-related seeds make consecutive chips share three of their
  /// four xoshiro state words (the constructor fills state with
  /// splitmix64(seed + k * GOLDEN) for k = 1..4).
  static Rng stream(std::uint64_t seed, std::uint64_t stream);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace obd::stats
