#include "serve/cache.hpp"

#include <filesystem>
#include <sstream>
#include <utility>

#include "common/checkpoint.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"

namespace obd::serve {
namespace {

namespace fs = std::filesystem;

/// Disk-tier snapshot schema version (payload = key line + LUT text).
constexpr std::uint32_t kCacheVersion = 1;

/// Fixed per-entry overhead charged on top of the table bytes: the
/// problem's canonical form, layout, and node lists are small next to the
/// tables but not free.
constexpr std::size_t kEntryOverhead = std::size_t{64} << 10;

/// Moves a bad cache file aside so it is kept for post-mortem but never
/// re-read; a failed rename falls back to removal (the file must not be
/// picked up again either way).
void quarantine(const std::string& path) {
  std::error_code ec;
  fs::rename(path, path + ".quarantined", ec);
  if (ec) fs::remove(path, ec);
}

}  // namespace

std::uint64_t fingerprint(const std::string& key) {
  return ckpt::fnv1a64(key);
}

std::string cache_file_path(const std::string& dir, std::uint64_t fp) {
  std::ostringstream name;
  name << std::hex << fp;
  return dir + "/" + name.str() + ".lut";
}

std::string surrogate_file_path(const std::string& dir, std::uint64_t fp) {
  std::ostringstream name;
  name << std::hex << fp;
  return dir + "/" + name.str() + ".cheb";
}

bool write_cache_file(const std::string& path, const std::string& key,
                      const std::string& table_text) {
  try {
    if (fault::should_fire(fault::site::kServeCacheEvict))
      throw Error("serve: injected cache write-back failure on '" + path +
                      "'",
                  ErrorCode::kIo);
    ckpt::write_snapshot_atomic(path, kCacheVersion, key + "\n" + table_text);
    return true;
  } catch (const Error& e) {
    // Table loss is recomputable; a crashed daemon is not. Record the
    // degradation and keep serving.
    diagnostics().warn("serve.cache_evict",
                       "disk cache write-back failed, entry dropped: " +
                           std::string(e.what()));
    return false;
  }
}

std::optional<std::string> read_cache_file(const std::string& path,
                                           const std::string& expected_key,
                                           bool* quarantined) {
  if (quarantined != nullptr) *quarantined = false;
  std::error_code ec;
  if (!fs::exists(path, ec)) return std::nullopt;  // plain miss

  std::string reason;
  std::string payload;
  try {
    if (fault::should_fire(fault::site::kServeCacheRead))
      throw Error("injected disk-cache corruption", ErrorCode::kInvalidInput);
    payload = ckpt::read_snapshot(path).payload;
  } catch (const Error& e) {
    reason = e.what();
  }
  if (reason.empty()) {
    const std::size_t eol = payload.find('\n');
    const std::string key =
        (eol == std::string::npos) ? payload : payload.substr(0, eol);
    if (eol == std::string::npos) {
      reason = "payload has no key line";
    } else if (key != expected_key) {
      // Foreign state: a file from another config/corner landed under our
      // fingerprint (collision or operator error). Never trust it.
      reason = "embedded key '" + key + "' does not match this query";
    } else {
      return payload.substr(eol + 1);
    }
  }
  quarantine(path);
  if (quarantined != nullptr) *quarantined = true;
  diagnostics().warn("serve.cache_corrupt",
                     "quarantined disk cache entry '" + path +
                         "', recomputing: " + reason);
  return std::nullopt;
}

std::size_t entry_bytes(std::size_t blocks, std::size_t n_gamma,
                        std::size_t n_b) {
  return blocks * n_gamma * n_b * sizeof(double) + kEntryOverhead;
}

TableCache::TableCache(CacheOptions options) : options_(std::move(options)) {
  if (!options_.dir.empty()) {
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    // A SIGKILL mid-write-back leaves `<fp>.lut.tmp` behind; readers never
    // open temp files, so sweeping at startup is safe and keeps the tier
    // from leaking one orphan per crash.
    ckpt::sweep_stale_tmp(options_.dir, "", "serve");
  }
}

CacheEntry* TableCache::find(std::uint64_t fp, const std::string& key) {
  const auto it = index_.find(fp);
  if (it == index_.end() || it->second->key != key) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return &*it->second;
}

const CacheEntry* TableCache::find_donor(const std::string& variation_key) {
  for (const CacheEntry& entry : lru_) {
    if (entry.variation_key != variation_key) continue;
    ++stats_.shared_builds;
    return &entry;
  }
  return nullptr;
}

std::optional<core::HybridEvaluator> TableCache::load_disk(
    std::uint64_t fp, const std::string& key,
    const core::ReliabilityProblem& problem) {
  if (options_.dir.empty()) return std::nullopt;
  const std::string path = cache_file_path(options_.dir, fp);
  bool quarantined = false;
  const auto text = read_cache_file(path, key, &quarantined);
  if (quarantined) ++stats_.corrupt;
  if (!text) return std::nullopt;
  try {
    std::istringstream in(*text);
    auto hybrid = core::HybridEvaluator::load(in, problem);
    ++stats_.disk_hits;
    return hybrid;
  } catch (const Error& e) {
    // The frame's CRC was fine but the tables do not decode against this
    // problem — same treatment as corruption: quarantine and recompute.
    ++stats_.corrupt;
    quarantine(path);
    diagnostics().warn("serve.cache_corrupt",
                       "quarantined undecodable disk cache entry '" + path +
                           "', recomputing: " + std::string(e.what()));
    return std::nullopt;
  }
}

CacheEntry* TableCache::insert(CacheEntry entry) {
  const auto it = index_.find(entry.fp);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  bytes_ += entry.bytes;
  entry.serial = next_serial_++;
  lru_.push_front(std::move(entry));
  index_[lru_.front().fp] = lru_.begin();
  evict_to_budget();
  return &lru_.front();
}

bool TableCache::flush() {
  bool ok = true;
  for (auto& entry : lru_) ok = demote(entry) && ok;
  return ok;
}

std::string TableCache::serialize(const core::HybridEvaluator& hybrid) {
  std::ostringstream out;
  hybrid.save(out);
  return out.str();
}

void TableCache::evict_to_budget() {
  // The most-recently-used entry always stays resident even when it alone
  // exceeds the budget — evicting the entry being served would thrash.
  while (bytes_ > options_.byte_budget && lru_.size() > 1) {
    CacheEntry& victim = lru_.back();
    demote(victim);  // failure already recorded; drop the entry regardless
    bytes_ -= victim.bytes;
    index_.erase(victim.fp);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

bool TableCache::demote(CacheEntry& entry) {
  if (entry.on_disk || options_.dir.empty()) return true;
  const std::string path = cache_file_path(options_.dir, entry.fp);
  if (!write_cache_file(path, entry.key, serialize(*entry.hybrid))) {
    ++stats_.write_failures;
    return false;
  }
  entry.on_disk = true;
  return true;
}

}  // namespace obd::serve
