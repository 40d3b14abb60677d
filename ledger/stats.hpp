// Sample statistics, strict argument parsing and process metrics for the
// pipeline ledger.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace ledger {

/// Median and quartiles of a sample. The quartiles follow Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method), so the
/// numbers here match what compare_ledger.py computes from run records.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

inline Summary summarize(std::vector<double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  s.median = (n % 2 == 1) ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  if (n == 1) {
    s.q1 = s.q3 = xs[0];
    return s;
  }
  // Exclusive method, step for step as CPython writes it: cut point i of
  // 4 sits at rank i * (n + 1) / 4, clamped to [1, n - 1] and linearly
  // inter- (or, after clamping, extra-) polated from its two neighbours.
  const auto cut = [&](long long i) {
    const long long len = static_cast<long long>(n);
    const long long m = len + 1;
    const long long j = std::clamp(i * m / 4, 1LL, len - 1);
    const long long delta = i * m - j * 4;
    return (xs[j - 1] * static_cast<double>(4 - delta) +
            xs[j] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

/// Nearest-rank percentile: the smallest sample with at least p percent
/// of the sample at or below it (0 for an empty sample).
inline double nearest_rank(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * n)), 1, xs.size());
  return xs[rank - 1];
}

/// Peak resident set size of this process so far [MiB].
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

/// Parses `text` as a whole unsigned decimal integer in [lo, hi]. Signs,
/// exponents, blanks, trailing characters and out-of-range values are
/// rejected with a message naming `what`, and the process exits with
/// code 2 (a usage error), so a typo never silently runs another
/// workload size or seed.
inline std::uint64_t parse_count_or_exit(const char* what,
                                         const std::string& text,
                                         std::uint64_t lo,
                                         std::uint64_t hi) {
  const bool digits_only =
      !text.empty() && text.size() <= 20 &&
      std::all_of(text.begin(), text.end(),
                  [](unsigned char c) { return c >= '0' && c <= '9'; });
  if (digits_only) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == 0 && *end == '\0' && v >= lo && v <= hi) return v;
  }
  std::fprintf(stderr,
               "pipeline_ledger: %s must be a whole number in [%llu, %llu], "
               "got '%s'\n",
               what, static_cast<unsigned long long>(lo),
               static_cast<unsigned long long>(hi), text.c_str());
  std::exit(2);
}

}  // namespace ledger
