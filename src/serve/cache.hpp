// Durable table cache for the reliability query daemon.
//
// `obdrel serve` answers F(t)/lifetime queries keyed by a (thermal
// profile, process corner, config) fingerprint; the paper's Section IV-E
// hybrid lookup tables are exactly the per-fingerprint artifact that makes
// each answer cheap, so the cache stores one fully built evaluation
// context (ReliabilityProblem + HybridEvaluator) per fingerprint, with the
// problem's variation key (core::variation_key) beside its full key.
// Entries with equal variation keys share one canonical form; each holds
// its own copy of the tables, whose values are equal.
//
//   - Memory tier: LRU with a byte budget. Each entry is charged its
//     tables, plus its canonical form when it owns one (built without a
//     donor, see entry_bytes). Inserting over budget evicts the
//     least-recently-used entries; an evicted entry's tables are first
//     written back to the disk tier (when enabled) so the work is
//     demoted, not destroyed. A resident entry also donates its variation
//     stage to a cold fingerprint with the same variation key
//     (find_donor); that sharing is memory-only, and the disk tier stays
//     keyed by the full key.
//   - Disk tier: one CRC-framed snapshot per fingerprint written through
//     the common/checkpoint atomic writer (temp + fsync + rename), so a
//     SIGKILL mid-write leaves either the previous file or a stale `.tmp`
//     — never a torn readable entry. A corrupt or foreign file is
//     detected, quarantined (renamed `*.quarantined`), reported via a
//     `serve.cache_corrupt` diagnostic, and recomputed — never trusted,
//     never a crash.
//
// Fault sites: `serve.cache_read` simulates disk-tier corruption,
// `serve.cache_evict` simulates a failed write-back during eviction (the
// entry is dropped with a diagnostic; the next miss recomputes it).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/hybrid.hpp"
#include "core/problem.hpp"

namespace obd::serve {

/// FNV-1a 64-bit fingerprint of a canonical problem-key string.
[[nodiscard]] std::uint64_t fingerprint(const std::string& key);

/// Disk-tier file for fingerprint `fp` under `dir`
/// (`<dir>/<fp-hex>.lut`).
[[nodiscard]] std::string cache_file_path(const std::string& dir,
                                          std::uint64_t fp);

/// Persisted surrogate model for fingerprint `fp` under `dir`
/// (`<dir>/<fp-hex>.cheb`); written and read through the same CRC frame
/// as the table tier, so corruption quarantines and refits.
[[nodiscard]] std::string surrogate_file_path(const std::string& dir,
                                              std::uint64_t fp);

/// Writes one disk-tier entry: a CRC-framed snapshot whose payload is the
/// canonical key line followed by the serialized hybrid tables. Returns
/// false (after a `serve.cache_evict` diagnostic) instead of throwing when
/// the write fails — table loss is recomputable, a crashed daemon is not.
/// Injectable via the `serve.cache_evict` site.
bool write_cache_file(const std::string& path, const std::string& key,
                      const std::string& table_text);

/// Reads and CRC-verifies a disk-tier entry, returning the serialized
/// table text. A missing file returns nullopt silently (a plain miss). A
/// corrupt file or one whose embedded key differs from `expected_key`
/// (foreign state) is quarantined to `path + ".quarantined"`, reported via
/// a `serve.cache_corrupt` diagnostic, and returns nullopt so the caller
/// recomputes. Injectable via the `serve.cache_read` site. When
/// `quarantined` is non-null it is set to whether this call quarantined
/// the file (distinguishes corruption from a plain miss).
[[nodiscard]] std::optional<std::string> read_cache_file(
    const std::string& path, const std::string& expected_key,
    bool* quarantined = nullptr);

/// One cached evaluation context. The problem is heap-held so the
/// evaluator's non-owning pointer survives moves of the entry.
struct CacheEntry {
  std::string key;              ///< canonical problem key
  std::uint64_t fp = 0;         ///< fingerprint(key)
  std::string variation_key;    ///< core::variation_key of the problem
  /// Assigned by TableCache::insert from a counter: distinct for every
  /// insertion, so it tells a rebuilt entry from the one it replaced.
  std::uint64_t serial = 0;
  std::unique_ptr<core::ReliabilityProblem> problem;
  std::unique_ptr<core::HybridEvaluator> hybrid;
  std::size_t bytes = 0;        ///< budget charge (table-dominated estimate)
  bool on_disk = false;         ///< disk tier already holds this entry
};

/// Estimated resident bytes of an entry with the given table shape plus
/// the canonical form it owns: `canonical_bytes` is canonical_bytes() of
/// its problem when it was built without a donor, and 0 when it shares a
/// donor's. The fixed overhead covers the rest of the problem skeleton.
[[nodiscard]] std::size_t entry_bytes(std::size_t blocks, std::size_t n_gamma,
                                      std::size_t n_b,
                                      std::size_t canonical_bytes);

/// Bytes held by a canonical form's nominal vector and sensitivity matrix.
[[nodiscard]] std::size_t canonical_bytes(const var::CanonicalForm& form);

struct CacheOptions {
  std::size_t byte_budget = std::size_t{256} << 20;  ///< memory tier budget
  std::string dir;  ///< disk tier directory; empty disables the tier
};

struct CacheStats {
  std::uint64_t hits = 0;        ///< memory-tier hits
  std::uint64_t disk_hits = 0;   ///< disk-tier loads
  std::uint64_t misses = 0;      ///< cold computes
  std::uint64_t evictions = 0;   ///< entries demoted out of memory
  std::uint64_t corrupt = 0;     ///< quarantined disk files
  std::uint64_t write_failures = 0;  ///< failed disk write-backs
  /// Cold fingerprints whose variation stage came from a resident entry.
  std::uint64_t shared_builds = 0;
};

/// LRU table cache with byte-budget eviction and the durable disk tier.
/// Single-threaded by design: the serving worker owns it exclusively.
class TableCache {
 public:
  /// Creates the cache; when the disk tier is enabled the directory is
  /// created if missing and stale `*.tmp` files from a killed writer are
  /// swept (logged via the `serve.stale_tmp` diagnostic stat).
  explicit TableCache(CacheOptions options);

  /// Memory-tier lookup; a hit is promoted to most-recently-used. A
  /// resident entry under `fp` whose key is not `key` (a fingerprint
  /// collision) is a miss.
  [[nodiscard]] CacheEntry* find(std::uint64_t fp, const std::string& key);

  /// A resident entry with this variation key, or nullptr; a found donor
  /// counts as a shared build. The scan promotes nothing, so the LRU order
  /// is unchanged.
  [[nodiscard]] const CacheEntry* find_donor(const std::string& variation_key);

  /// Disk-tier lookup: loads and validates the tables against the freshly
  /// built `problem` (block names/areas must match — a foreign file is
  /// quarantined exactly like a corrupt one). Returns nullopt on miss or
  /// quarantine.
  [[nodiscard]] std::optional<core::HybridEvaluator> load_disk(
      std::uint64_t fp, const std::string& key,
      const core::ReliabilityProblem& problem);

  /// Inserts (or replaces) an entry, assigns its serial, and evicts
  /// least-recently-used entries until the budget holds again. Eviction
  /// writes the victim back to the disk tier first (unless it is already
  /// there); a failed write-back drops the entry with a diagnostic.
  /// Returns the resident entry.
  CacheEntry* insert(CacheEntry entry);

  /// Writes every memory-tier entry not yet on disk to the disk tier (the
  /// graceful-drain flush). Returns false when any write failed.
  bool flush();

  /// Counts a cold compute (neither tier had the fingerprint).
  void record_miss() { ++stats_.misses; }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t entries() const { return lru_.size(); }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] const CacheOptions& options() const { return options_; }

  /// Serializes an evaluator's tables (the disk-tier payload body).
  [[nodiscard]] static std::string serialize(
      const core::HybridEvaluator& hybrid);

 private:
  void evict_to_budget();
  bool demote(CacheEntry& entry);  ///< write-back if needed; updates stats

  CacheOptions options_;
  std::list<CacheEntry> lru_;  ///< front = most recently used
  std::map<std::uint64_t, std::list<CacheEntry>::iterator> index_;
  std::size_t bytes_ = 0;
  std::uint64_t next_serial_ = 1;
  CacheStats stats_;
};

}  // namespace obd::serve
