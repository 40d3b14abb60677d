// Serving-path latency and throughput.
//
// Drives the `obdrel serve` query engine in-process (no socket: the bench
// measures the answer path, not loopback I/O) over a small fingerprint
// population:
//
//   1. cold builds — the price a cache miss pays. The fingerprints differ
//      only in ambient_c, so the first pays the full problem and table
//      build and the rest only the thermal stage plus a copy of its
//      tables (they share its variation stage),
//   2. steady-state latency — single-query round trips through
//      parse -> cache hit -> batched table evaluation, reported as
//      p50/p99 microseconds,
//   3. throughput — batched evaluation at the daemon's default batch
//      size, reported as queries/s,
//   4. cache effectiveness — the hit rate over the steady-state phase.
//      The acceptance gate is >= 90%: with a warmed cache and a
//      fingerprint population that fits the byte budget, the serving path
//      must be answering from memory, not rebuilding tables.
//
// Results go to BENCH_serve.json in the working directory (or
// $OBDREL_CSV_DIR). Scaling knobs: OBDREL_SERVE_QUERIES (default 2000),
// OBDREL_SERVE_FINGERPRINTS (default 4), OBDREL_SERVE_TABLE_N
// (default 48, the gamma-grid side of each cached table).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/stopwatch.hpp"
#include "serve/engine.hpp"

namespace {

obd::serve::PendingQuery make_query(const std::string& id, double t,
                                    std::size_t fingerprint_k) {
  std::string line = "id=" + id + " t=" + std::to_string(t);
  if (fingerprint_k > 0)
    line += " set.ambient_c=" +
            std::to_string(45.0 + 5.0 * static_cast<double>(fingerprint_k));
  obd::serve::PendingQuery q;
  q.request = obd::serve::parse_request(line);
  q.arrival = std::chrono::steady_clock::now();
  return q;
}

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(i, xs.size() - 1)];
}

}  // namespace

int main() {
  using namespace obd;
  const std::size_t queries = bench::env_size("OBDREL_SERVE_QUERIES", 2000);
  const std::size_t fps = bench::env_size("OBDREL_SERVE_FINGERPRINTS", 4);
  const std::size_t table_n = bench::env_size("OBDREL_SERVE_TABLE_N", 48);

  Config cfg;
  cfg.set("design", "c1");
  cfg.set("grid", "8");
  cfg.set("serve_n_gamma", std::to_string(table_n));
  cfg.set("serve_n_b", std::to_string(table_n / 2));

  serve::EngineOptions eo;
  eo.n_gamma = table_n;
  eo.n_b = table_n / 2;
  serve::QueryEngine engine(cfg, eo);

  const double ts[] = {1.0 * bench::kYear,  2.0 * bench::kYear,
                       5.0 * bench::kYear,  7.0 * bench::kYear,
                       10.0 * bench::kYear, 15.0 * bench::kYear,
                       20.0 * bench::kYear, 30.0 * bench::kYear};
  const std::size_t n_ts = sizeof ts / sizeof ts[0];

  std::printf("Serve latency bench: %zu queries over %zu fingerprints, "
              "%zux%zu tables.\n\n",
              queries, fps, table_n, table_n / 2);

  // 1. Cold builds: first touch of each fingerprint. The first fills its
  // tables; the others share its variation stage and copy them.
  Stopwatch cold_sw;
  for (std::size_t k = 0; k < fps; ++k)
    (void)engine.evaluate({make_query("warm", ts[0], k)});
  const double cold_s = cold_sw.seconds();
  std::printf("cold builds:    %8.2f s  (%.3f s per fingerprint)\n", cold_s,
              cold_s / static_cast<double>(fps));

  // 2. Steady-state single-query latency percentiles.
  std::vector<double> lat_us;
  lat_us.reserve(queries);
  Stopwatch run_sw;
  for (std::size_t i = 0; i < queries; ++i) {
    const auto q =
        make_query("q" + std::to_string(i), ts[i % n_ts], i % fps);
    Stopwatch one;
    const auto replies = engine.evaluate({q});
    lat_us.push_back(one.seconds() * 1.0e6);
    if (replies.size() != 1 ||
        replies[0].find(" ok=1 ") == std::string::npos) {
      std::fprintf(stderr, "unexpected reply: %s\n",
                   replies.empty() ? "<none>" : replies[0].c_str());
      return 1;
    }
  }
  const double single_s = run_sw.seconds();
  const double p50 = percentile(lat_us, 0.50);
  const double p99 = percentile(lat_us, 0.99);
  std::printf("hit latency:    p50 %.1f us, p99 %.1f us\n", p50, p99);

  // 3. Batched throughput at the daemon's default batch size.
  const std::size_t batch_size = 64;
  std::vector<serve::PendingQuery> batch;
  Stopwatch batch_sw;
  std::size_t batched = 0;
  for (std::size_t i = 0; i < queries; ++i) {
    batch.push_back(
        make_query("b" + std::to_string(i), ts[i % n_ts], i % fps));
    if (batch.size() == batch_size || i + 1 == queries) {
      batched += engine.evaluate(batch).size();
      batch.clear();
    }
  }
  const double batch_s = batch_sw.seconds();
  const double qps = static_cast<double>(batched) / batch_s;
  std::printf("throughput:     %.0f queries/s batched "
              "(%.0f single-query)\n",
              qps, static_cast<double>(queries) / single_s);

  // 4. Hit rate over the whole run (the warmup misses are the only ones
  // a healthy cache should ever take).
  const auto& st = engine.cache().stats();
  const double total =
      static_cast<double>(st.hits + st.disk_hits + st.misses);
  const double hit_rate =
      total > 0.0
          ? static_cast<double>(st.hits + st.disk_hits) / total
          : 0.0;
  const bool hit_ok = hit_rate >= 0.90;
  std::printf("cache hit rate: %.1f%% (gate 90%%)%s\n", 100.0 * hit_rate,
              hit_ok ? "" : "  FAILED");

  const std::string dir = csv_output_dir();
  const std::string path =
      (dir.empty() ? std::string{} : dir + "/") + "BENCH_serve.json";
  std::ofstream out(path);
  out << "{\n  \"queries\": " << queries << ",\n"
      << "  \"fingerprints\": " << fps << ",\n"
      << "  \"table_n_gamma\": " << table_n << ",\n"
      << "  \"cold_build_seconds\": " << cold_s << ",\n"
      << "  \"p50_us\": " << p50 << ",\n"
      << "  \"p99_us\": " << p99 << ",\n"
      << "  \"qps_batched\": " << qps << ",\n"
      << "  \"qps_single\": " << static_cast<double>(queries) / single_s
      << ",\n  \"cache_hits\": " << st.hits << ",\n"
      << "  \"cache_misses\": " << st.misses << ",\n"
      << "  \"hit_rate\": " << hit_rate << ",\n"
      << "  \"pass\": " << (hit_ok ? "true" : "false") << "\n}\n";
  std::printf("(wrote %s)\n", path.c_str());
  return hit_ok ? 0 : 1;
}
