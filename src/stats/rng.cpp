#include "stats/rng.hpp"

#include <algorithm>
#include <cmath>

#include "simd/kernels.hpp"

namespace obd::stats {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform_positive() { return 1.0 - uniform(); }

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller: two uniforms -> two independent standard normals.
  const double u1 = uniform_positive();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

void Rng::fill_normal(double* out, std::size_t n) {
  std::size_t i = 0;
  if (n > 0 && has_cached_normal_) {
    out[i++] = cached_normal_;
    has_cached_normal_ = false;
  }
  // Pairs per kernel call. A chunk ending in an odd normal goes through
  // a buffer so its last sin half can be cached.
  constexpr std::size_t kChunk = 64;
  double u1[kChunk];
  double u2[kChunk];
  double odd[2 * kChunk];
  const simd::KernelTable& kernels = simd::kernels();
  while (i < n) {
    const std::size_t pairs = std::min(kChunk, (n - i + 1) / 2);
    for (std::size_t p = 0; p < pairs; ++p) {
      u1[p] = uniform_positive();
      u2[p] = uniform();
    }
    if (2 * pairs <= n - i) {
      kernels.box_muller(u1, u2, pairs, out + i);
      i += 2 * pairs;
    } else {
      kernels.box_muller(u1, u2, pairs, odd);
      std::copy_n(odd, 2 * pairs - 1, out + i);
      i = n;
      cached_normal_ = odd[2 * pairs - 1];
      has_cached_normal_ = true;
    }
  }
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential() { return -std::log(uniform_positive()); }

std::uint64_t Rng::below(std::uint64_t n) {
  // Rejection below threshold = 2^64 mod n, then modulo: the accepted
  // range [threshold, 2^64) holds a whole number of copies of [0, n), so
  // the result is exactly uniform.
  if (n == 0) return 0;
  const std::uint64_t threshold = (~n + 1) % n;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

Rng Rng::split() {
  std::uint64_t mix = (*this)();
  return Rng(splitmix64(mix));
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream) {
  // Whiten the base seed once, fold the stream index in, and mix again.
  // splitmix64 is a bijection of its (incremented) state, so distinct
  // stream indices always produce distinct derived seeds.
  std::uint64_t state = seed;
  const std::uint64_t whitened = splitmix64(state);
  std::uint64_t derived = whitened ^ (stream + 0x9E3779B97F4A7C15ull);
  return Rng(splitmix64(derived));
}

}  // namespace obd::stats
