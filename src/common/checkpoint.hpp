// Durable-state primitives: crash-safe snapshots and an append-only
// journal.
//
// A long-running reliability monitor must survive its own process dying —
// kill -9, power loss, OOM — without losing the damage state it has
// accumulated, because a restarted controller that believes the chip is
// fresh will overspend the end-of-life failure budget. Two primitives
// square that circle:
//
//   - Snapshots: a versioned, CRC32-checked record written atomically via
//     the classic temp-file + fsync + rename protocol. A reader sees either
//     the previous snapshot or the new one, never a torn mixture.
//   - Journal: an append-only record stream with a per-record CRC32 frame.
//     A crash mid-append leaves a torn tail; the reader returns every
//     record up to the first corrupt/truncated frame and flags the tail
//     instead of failing the whole file.
//
// Both are generic over their payload (opaque bytes); drm::DrmRuntime
// layers its own schema on top. Fault-injection sites `checkpoint.write`,
// `checkpoint.crc`, `journal.append`, and `journal.replay` simulate torn
// writes, bit rot, full disks, and mid-record corruption deterministically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace obd::ckpt {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size);
[[nodiscard]] std::uint32_t crc32(const std::string& data);

/// FNV-1a 64-bit hash of `data`: the fingerprint behind DRM checkpoints,
/// fleet shard records and serve disk-cache file names.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& data);

/// `v` as 16 zero-padded lowercase hex digits, the on-disk form of a
/// fingerprint in DRM checkpoints and fleet shard records.
[[nodiscard]] std::string hex_u64(std::uint64_t v);

/// A decoded snapshot: schema version (caller-defined) plus payload bytes.
struct Snapshot {
  std::uint32_t version = 0;
  std::string payload;
};

/// Atomically replaces `path` with a snapshot record: the bytes are written
/// to `path + ".tmp"`, fsync'd, then rename()d over `path` (and the parent
/// directory fsync'd, best-effort). On any failure — including the injected
/// `checkpoint.write` torn write, which leaves a partial temp file behind
/// exactly like a crash mid-write would — the previous contents of `path`
/// are untouched and Error(kIo) is thrown.
void write_snapshot_atomic(const std::string& path, std::uint32_t version,
                           const std::string& payload);

/// Reads and verifies a snapshot written by write_snapshot_atomic().
/// Throws Error(kIo) when the file cannot be opened and
/// Error(kInvalidInput) when the header is malformed, the payload is
/// truncated, or the CRC does not match (also injectable via the
/// `checkpoint.crc` site). Version skew is *not* an error here — the
/// caller owns the schema and decides what versions it can decode.
[[nodiscard]] Snapshot read_snapshot(const std::string& path);

/// Append-only journal writer. Each record is framed as
/// `rec <size> <crc32-hex>\n<payload>\n`; the frame is what makes torn
/// tails detectable on replay.
class JournalWriter {
 public:
  /// Opens `path` for appending (`truncate` starts a fresh journal).
  /// Throws Error(kIo) on failure.
  JournalWriter(const std::string& path, bool truncate);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one record and flushes it to the OS. Throws Error(kIo) when
  /// the write fails (also injectable via the `journal.append` site); the
  /// journal is then in an unknown-but-detectable state — the next replay
  /// simply stops at the torn record.
  void append(const std::string& payload);

  /// fsync()s the journal file — the record is durable once this returns.
  void sync();

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t records_written() const { return records_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::size_t records_ = 0;
};

/// Result of scanning a journal file.
struct JournalReadResult {
  std::vector<std::string> records;  ///< every intact record, in order
  /// False when scanning stopped early at a truncated or corrupt frame
  /// (the expected signature of a crash mid-append or of bit rot).
  bool clean_tail = true;
  std::string tail_error;  ///< why scanning stopped, when !clean_tail
};

/// Reads every intact record of `path`. A missing file is an empty, clean
/// journal (the common cold-start case). Corruption never throws: the
/// damaged tail is dropped and reported via `clean_tail`/`tail_error`
/// (injectable via the `journal.replay` site).
[[nodiscard]] JournalReadResult read_journal(const std::string& path);

/// Removes every stale `*.tmp` file a killed process's in-flight atomic
/// writes left in `dir` (restricted to file names starting with `prefix`
/// when non-empty — concurrent writers owning other prefixes are then
/// untouched). Temp files are write-side artifacts only: no reader ever
/// opens one, so sweeping is always safe at startup before any writer is
/// live, and letting them accumulate forever is pure leakage. Emits one
/// `<site>.stale_tmp` diagnostic stat naming the swept count when anything
/// was removed. A missing directory sweeps nothing. Returns the number of
/// files removed.
std::size_t sweep_stale_tmp(const std::string& dir, const std::string& prefix,
                            const std::string& site);

}  // namespace obd::ckpt
