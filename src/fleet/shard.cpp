#include "fleet/shard.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/checkpoint.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/parallel.hpp"

namespace obd::fleet {
namespace {

// Exact round-trip formatting for doubles (hex floats survive text I/O
// bit-for-bit) — same convention as the DRM checkpoint schema.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// Strict token parsers: return false on any malformed field.
bool parse_u64(const std::string& tok, std::uint64_t* out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 0);
  if (errno != 0 || end != tok.c_str() + tok.size()) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_hex_u64(const std::string& tok, std::uint64_t* out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 16);
  if (errno != 0 || end != tok.c_str() + tok.size()) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_f64(const std::string& tok, double* out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(tok.c_str(), &end);
  if (errno == ERANGE || end != tok.c_str() + tok.size()) return false;
  *out = v;
  return true;
}

std::string shard_file(const std::string& dir, std::uint64_t shard,
                       const char* suffix) {
  return dir + "/shard-" + std::to_string(shard) + suffix;
}

const char* sampling_name(core::DeviceSampling s) {
  return s == core::DeviceSampling::kBinned ? "binned" : "per_device";
}

}  // namespace

std::uint64_t fleet_fingerprint(const FleetSpec& spec) {
  std::ostringstream os;
  os << "fleet v" << kShardSchemaVersion << "\nchips " << spec.chips
     << "\nchunk " << kChunkChips << "\nseed " << spec.seed << "\nbins "
     << spec.thickness_bins << "\nsampling " << sampling_name(spec.sampling)
     << "\nts " << spec.ts.size();
  for (const double t : spec.ts) os << ' ' << fmt_double(t);
  os << "\nkey " << spec.problem_key << "\n";
  return ckpt::fnv1a64(os.str());
}

std::uint64_t chunk_count(const FleetSpec& spec) {
  return (spec.chips + kChunkChips - 1) / kChunkChips;
}

std::uint64_t chunk_chip_begin(const FleetSpec& spec, std::uint64_t c) {
  (void)spec;
  return c * kChunkChips;
}

std::uint64_t chunk_chip_end(const FleetSpec& spec, std::uint64_t c) {
  return std::min(spec.chips, (c + 1) * kChunkChips);
}

std::vector<ChunkRange> partition_chunks(std::uint64_t total_chunks,
                                         std::uint64_t shards) {
  require(shards >= 1, ErrorCode::kInvalidInput,
          "partition_chunks: need at least one shard");
  std::vector<ChunkRange> out(shards);
  const std::uint64_t base = total_chunks / shards;
  const std::uint64_t extra = total_chunks % shards;
  std::uint64_t begin = 0;
  for (std::uint64_t k = 0; k < shards; ++k) {
    const std::uint64_t size = base + (k < extra ? 1 : 0);
    out[k] = ChunkRange{begin, begin + size};
    begin += size;
  }
  return out;
}

std::string encode_chunk_record(std::uint64_t fingerprint,
                                const ChunkResult& r) {
  std::ostringstream os;
  os << "chunk " << r.chunk << " chips " << r.chips << " fp "
     << ckpt::hex_u64(fingerprint) << " nt " << r.sum_f.size();
  for (const double v : r.sum_f) os << ' ' << fmt_double(v);
  for (const double v : r.sum_f2) os << ' ' << fmt_double(v);
  return os.str();
}

bool decode_chunk_record(const std::string& payload, std::uint64_t fingerprint,
                         std::size_t nt, ChunkResult* out) {
  if (fault::should_fire(fault::site::kFleetShardCrc)) return false;
  std::istringstream is(payload);
  std::string kw, tok;
  ChunkResult r;
  std::uint64_t fp = 0;
  std::uint64_t rec_nt = 0;
  if (!(is >> kw >> tok) || kw != "chunk" || !parse_u64(tok, &r.chunk))
    return false;
  if (!(is >> kw >> tok) || kw != "chips" || !parse_u64(tok, &r.chips))
    return false;
  if (!(is >> kw >> tok) || kw != "fp" || !parse_hex_u64(tok, &fp))
    return false;
  if (!(is >> kw >> tok) || kw != "nt" || !parse_u64(tok, &rec_nt))
    return false;
  if (fp != fingerprint || rec_nt != nt) return false;
  r.sum_f.resize(nt);
  r.sum_f2.resize(nt);
  for (double& v : r.sum_f)
    if (!(is >> tok) || !parse_f64(tok, &v)) return false;
  for (double& v : r.sum_f2)
    if (!(is >> tok) || !parse_f64(tok, &v)) return false;
  if (is >> tok) return false;  // trailing garbage
  *out = std::move(r);
  return true;
}

std::string journal_path(const std::string& dir, std::uint64_t shard) {
  return shard_file(dir, shard, ".journal");
}
std::string done_path(const std::string& dir, std::uint64_t shard) {
  return shard_file(dir, shard, ".done");
}
std::string heartbeat_path(const std::string& dir, std::uint64_t shard) {
  return shard_file(dir, shard, ".hb");
}
std::string log_path(const std::string& dir, std::uint64_t shard) {
  return shard_file(dir, shard, ".log");
}

bool write_heartbeat(const std::string& path, const Heartbeat& hb) {
  if (fault::should_fire(fault::site::kFleetHeartbeat)) return false;
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const int n = std::fprintf(f, "hb %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
                             hb.pid, hb.counter, hb.chunks_done);
  const bool ok = (n > 0) && (std::fclose(f) == 0);
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<Heartbeat> read_heartbeat(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return std::nullopt;
  Heartbeat hb;
  const int n = std::fscanf(f, "hb %" SCNu64 " %" SCNu64 " %" SCNu64, &hb.pid,
                            &hb.counter, &hb.chunks_done);
  std::fclose(f);
  if (n != 3) return std::nullopt;
  return hb;
}

namespace {

// Validates a decoded record against the spec's chunk geometry.
bool chunk_geometry_ok(const FleetSpec& spec, const ChunkResult& r) {
  return r.chunk < chunk_count(spec) &&
         r.chips == chunk_chip_end(spec, r.chunk) -
                        chunk_chip_begin(spec, r.chunk);
}

}  // namespace

std::map<std::uint64_t, ChunkResult> load_shard_chunks(const std::string& dir,
                                                       std::uint64_t shard,
                                                       const FleetSpec& spec) {
  const std::uint64_t fp = fleet_fingerprint(spec);
  const std::size_t nt = spec.ts.size();
  std::map<std::uint64_t, ChunkResult> out;

  // The done snapshot is authoritative when it decodes in full — it was
  // written atomically after the shard finished. Any defect (foreign
  // fingerprint, torn line, injected fleet.shard_crc) demotes the reader
  // to the journal, whose per-record CRC frames tolerate partial damage.
  try {
    const ckpt::Snapshot snap = ckpt::read_snapshot(done_path(dir, shard));
    if (snap.version == kShardSchemaVersion) {
      std::map<std::uint64_t, ChunkResult> done;
      bool ok = true;
      std::istringstream is(snap.payload);
      std::string line;
      while (ok && std::getline(is, line)) {
        if (line.empty()) continue;
        ChunkResult r;
        ok = decode_chunk_record(line, fp, nt, &r) &&
             chunk_geometry_ok(spec, r);
        if (ok) done[r.chunk] = std::move(r);
      }
      if (ok && !done.empty()) return done;
    }
  } catch (const Error&) {
    // Missing or corrupt snapshot: fall through to the journal.
  }

  const ckpt::JournalReadResult jr = ckpt::read_journal(journal_path(dir, shard));
  for (const std::string& rec : jr.records) {
    ChunkResult r;
    if (decode_chunk_record(rec, fp, nt, &r) && chunk_geometry_ok(spec, r))
      out[r.chunk] = std::move(r);
  }
  return out;
}

void run_worker(const core::ReliabilityProblem& problem, const FleetSpec& spec,
                const WorkerOptions& opts) {
  require(opts.shards >= 1 && opts.shard < opts.shards,
          ErrorCode::kInvalidInput, "run_worker: shard index out of range");
  require(!spec.ts.empty(), ErrorCode::kInvalidInput,
          "run_worker: empty sweep");
  const std::uint64_t fp = fleet_fingerprint(spec);
  const ChunkRange range =
      partition_chunks(chunk_count(spec), opts.shards)[opts.shard];

  // A SIGKILLed predecessor of this shard leaves `shard-<k>.hb.tmp`
  // behind. Sweep only this shard's prefix: sibling workers own theirs
  // and may be mid-write right now.
  ckpt::sweep_stale_tmp(opts.dir,
                        "shard-" + std::to_string(opts.shard) + ".",
                        "fleet");

  // Resume: every usable record for a chunk in this shard's range is kept;
  // pending chunks are recomputed. Foreign/corrupt records are invisible
  // here and to every other reader, so there is nothing to repair.
  std::map<std::uint64_t, ChunkResult> completed;
  for (auto& [c, r] : load_shard_chunks(opts.dir, opts.shard, spec))
    if (c >= range.begin && c < range.end) completed[c] = std::move(r);
  std::vector<std::uint64_t> pending;
  for (std::uint64_t c = range.begin; c < range.end; ++c)
    if (completed.find(c) == completed.end()) pending.push_back(c);

  // Heartbeat beacon. Failures do not stop the sweep — the journal, not
  // the heartbeat, carries the durable state.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> chunks_done{completed.size()};
  std::atomic<std::uint64_t> beat_failures{0};
  const std::string hb_path = heartbeat_path(opts.dir, opts.shard);
  const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
  std::thread beat([&] {
    std::uint64_t counter = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!write_heartbeat(hb_path, Heartbeat{pid, ++counter,
                                              chunks_done.load()}))
        beat_failures.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts.heartbeat_ms));
    }
  });

  core::MonteCarloOptions mco;
  mco.thickness_bins = spec.thickness_bins;
  mco.seed = spec.seed;
  mco.sampling = spec.sampling;
  const core::MonteCarloAnalyzer mc =
      core::MonteCarloAnalyzer::streaming(problem, mco);

  // One pool task per chunk: the thread count can regroup *which* worker
  // thread computes a chunk but never how a chunk accumulates internally.
  // Journal appends are serialized; each record is synced before the chunk
  // counts as done, so a SIGKILL at any instant loses at most in-flight
  // chunks, never recorded ones.
  std::mutex mu;
  ckpt::JournalWriter journal(journal_path(opts.dir, opts.shard),
                              /*truncate=*/completed.empty());
  par::parallel_for(0, pending.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::uint64_t c = pending[i];
      ChunkResult r;
      r.chunk = c;
      core::MonteCarloAnalyzer::RangePartial p = mc.accumulate_chip_range(
          spec.ts, chunk_chip_begin(spec, c), chunk_chip_end(spec, c));
      r.chips = p.chips;
      r.sum_f = std::move(p.sum_f);
      r.sum_f2 = std::move(p.sum_f2);
      const std::lock_guard<std::mutex> lock(mu);
      journal.append(encode_chunk_record(fp, r));
      if (opts.sync_journal) journal.sync();
      completed[c] = std::move(r);
      chunks_done.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Publish the complete record set atomically. The done file is a pure
  // cache of the journal — supervisors fall back transparently.
  std::ostringstream payload;
  for (std::uint64_t c = range.begin; c < range.end; ++c) {
    const auto it = completed.find(c);
    require(it != completed.end(), "run_worker: chunk missing after sweep");
    payload << encode_chunk_record(fp, it->second) << '\n';
  }
  ckpt::write_snapshot_atomic(done_path(opts.dir, opts.shard),
                              kShardSchemaVersion, payload.str());

  stop.store(true, std::memory_order_relaxed);
  beat.join();
  if (beat_failures.load() > 0)
    diagnostics().warn("fleet.heartbeat",
                       "shard " + std::to_string(opts.shard) + ": " +
                           std::to_string(beat_failures.load()) +
                           " heartbeat write(s) failed; liveness watchdog "
                           "may restart this worker spuriously");
}

FleetReport merge_chunks(const FleetSpec& spec,
                         const std::map<std::uint64_t, ChunkResult>& chunks) {
  const std::size_t nt = spec.ts.size();
  FleetReport rep;
  rep.total_chips = spec.chips;
  rep.ts = spec.ts;
  rep.failure.assign(nt, 0.0);
  rep.std_error.assign(nt, 0.0);
  std::vector<double> sum(nt, 0.0);
  std::vector<double> sum2(nt, 0.0);
  // std::map iterates in ascending chunk order — the merge order is a
  // property of the chunk set, not of which shard produced which chunk.
  for (const auto& [c, r] : chunks) {
    rep.covered_chips += r.chips;
    for (std::size_t ti = 0; ti < nt; ++ti) {
      sum[ti] += r.sum_f[ti];
      sum2[ti] += r.sum_f2[ti];
    }
  }
  rep.missing_chunks = chunk_count(spec) - chunks.size();
  const double n = static_cast<double>(rep.covered_chips);
  for (std::size_t ti = 0; ti < nt; ++ti) {
    if (rep.covered_chips == 0) {
      rep.failure[ti] = std::numeric_limits<double>::quiet_NaN();
      rep.std_error[ti] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    rep.failure[ti] = sum[ti] / n;
    const double var =
        (rep.covered_chips < 2)
            ? 0.0
            : std::max(0.0, (sum2[ti] - sum[ti] * sum[ti] / n) / (n - 1.0));
    rep.std_error[ti] = std::sqrt(var / n);
  }
  return rep;
}

std::string render_report(const FleetReport& report) {
  std::ostringstream os;
  char buf[96];
  os << "# obdrel fleet report\n";
  os << "chips " << report.total_chips << '\n';
  os << "covered " << report.covered_chips << '\n';
  os << "missing_chunks " << report.missing_chunks << '\n';
  os << "points " << report.ts.size() << '\n';
  os << "t_seconds,failure_probability,std_error\n";
  for (std::size_t ti = 0; ti < report.ts.size(); ++ti) {
    std::snprintf(buf, sizeof buf, "%.17g,%.17g,%.17g\n", report.ts[ti],
                  report.failure[ti], report.std_error[ti]);
    os << buf;
  }
  return os.str();
}

}  // namespace obd::fleet
