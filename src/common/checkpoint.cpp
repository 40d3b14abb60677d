#include "common/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"

namespace obd::ckpt {
namespace {

constexpr const char* kSnapshotMagic = "obdrel-ckpt";

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

std::string errno_message() {
  return std::string(std::strerror(errno));
}

// Writes all of `data` to `fd`, retrying short writes.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// Best-effort fsync of the directory containing `path`, so the rename
// itself is durable. Failure is ignored: not every filesystem supports
// directory fsync, and the rename is still atomic without it.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = (slash == std::string::npos)
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::string& data) {
  return crc32(data.data(), data.size());
}

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // offset basis
  for (const unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;  // FNV prime
  }
  return h;
}

std::string hex_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void write_snapshot_atomic(const std::string& path, std::uint32_t version,
                           const std::string& payload) {
  std::ostringstream header;
  header << kSnapshotMagic << ' ' << version << ' ' << payload.size() << ' '
         << std::hex << crc32(payload) << '\n';
  const std::string bytes = header.str() + payload;

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  require(fd >= 0, ErrorCode::kIo,
          "checkpoint: cannot create '" + tmp + "': " + errno_message());

  if (fault::should_fire(fault::site::kCheckpointWrite)) {
    // Simulated crash mid-write: half the bytes land in the temp file, the
    // rename never happens, and the previous snapshot at `path` survives —
    // exactly the torn state a kill -9 would leave.
    write_all(fd, bytes.data(), bytes.size() / 2);
    ::close(fd);
    throw Error("checkpoint: injected torn write to '" + tmp + "'",
                ErrorCode::kIo);
  }

  const bool ok = write_all(fd, bytes.data(), bytes.size()) &&
                  ::fsync(fd) == 0;
  const std::string io_error = ok ? "" : errno_message();
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    throw Error("checkpoint: write to '" + tmp + "' failed: " + io_error,
                ErrorCode::kIo);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string rename_error = errno_message();
    ::unlink(tmp.c_str());
    throw Error("checkpoint: rename to '" + path + "' failed: " +
                    rename_error,
                ErrorCode::kIo);
  }
  sync_parent_dir(path);
}

Snapshot read_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), ErrorCode::kIo,
          "checkpoint: cannot open '" + path + "'");

  std::string header;
  require(static_cast<bool>(std::getline(in, header)),
          ErrorCode::kInvalidInput,
          "checkpoint: '" + path + "' is empty");
  std::istringstream hs(header);
  std::string magic;
  std::uint32_t version = 0;
  std::size_t size = 0;
  std::uint32_t crc = 0;
  hs >> magic >> version >> size >> std::hex >> crc;
  require(!hs.fail() && magic == kSnapshotMagic, ErrorCode::kInvalidInput,
          "checkpoint: '" + path + "' has a malformed header");
  // Bound the declared size before allocating: a corrupt header must not
  // turn into a multi-gigabyte allocation.
  require(size <= std::size_t{1} << 30, ErrorCode::kInvalidInput,
          "checkpoint: '" + path + "' declares an absurd payload size");

  Snapshot snap;
  snap.version = version;
  snap.payload.resize(size);
  in.read(snap.payload.data(), static_cast<std::streamsize>(size));
  require(static_cast<std::size_t>(in.gcount()) == size,
          ErrorCode::kInvalidInput,
          "checkpoint: '" + path + "' payload is truncated");
  const bool crc_ok = crc32(snap.payload) == crc &&
                      !fault::should_fire(fault::site::kCheckpointCrc);
  require(crc_ok, ErrorCode::kInvalidInput,
          "checkpoint: '" + path + "' payload fails its CRC check");
  return snap;
}

JournalWriter::JournalWriter(const std::string& path, bool truncate)
    : path_(path), file_(std::fopen(path.c_str(), truncate ? "wb" : "ab")) {
  require(file_ != nullptr, ErrorCode::kIo,
          "journal: cannot open '" + path + "': " + errno_message());
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void JournalWriter::append(const std::string& payload) {
  if (fault::should_fire(fault::site::kJournalAppend))
    throw Error("journal: injected append failure on '" + path_ + "'",
                ErrorCode::kIo);
  std::ostringstream frame;
  frame << "rec " << payload.size() << ' ' << std::hex << crc32(payload)
        << '\n';
  const std::string head = frame.str();
  const bool ok =
      std::fwrite(head.data(), 1, head.size(), file_) == head.size() &&
      std::fwrite(payload.data(), 1, payload.size(), file_) ==
          payload.size() &&
      std::fputc('\n', file_) != EOF && std::fflush(file_) == 0;
  require(ok, ErrorCode::kIo,
          "journal: append to '" + path_ + "' failed: " + errno_message());
  ++records_;
}

void JournalWriter::sync() {
  require(file_ != nullptr && ::fsync(fileno(file_)) == 0, ErrorCode::kIo,
          "journal: fsync of '" + path_ + "' failed: " + errno_message());
}

JournalReadResult read_journal(const std::string& path) {
  JournalReadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return result;  // missing journal == empty journal

  std::string header;
  while (std::getline(in, header)) {
    std::istringstream hs(header);
    std::string tag;
    std::size_t size = 0;
    std::uint32_t crc = 0;
    hs >> tag >> size >> std::hex >> crc;
    if (hs.fail() || tag != "rec" || size > (std::size_t{1} << 30)) {
      result.clean_tail = false;
      result.tail_error = "malformed record header after " +
                          std::to_string(result.records.size()) +
                          " record(s)";
      return result;
    }
    std::string payload(size, '\0');
    in.read(payload.data(), static_cast<std::streamsize>(size));
    const bool complete =
        static_cast<std::size_t>(in.gcount()) == size && in.get() == '\n';
    if (!complete) {
      result.clean_tail = false;
      result.tail_error = "truncated record after " +
                          std::to_string(result.records.size()) +
                          " record(s)";
      return result;
    }
    const bool crc_ok = crc32(payload) == crc &&
                        !fault::should_fire(fault::site::kJournalReplay);
    if (!crc_ok) {
      result.clean_tail = false;
      result.tail_error = "CRC mismatch after " +
                          std::to_string(result.records.size()) +
                          " record(s)";
      return result;
    }
    result.records.push_back(std::move(payload));
  }
  return result;
}

std::size_t sweep_stale_tmp(const std::string& dir, const std::string& prefix,
                            const std::string& site) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return 0;  // missing/unreadable directory: nothing to sweep
  std::size_t swept = 0;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < 4 || name.compare(name.size() - 4, 4, ".tmp") != 0)
      continue;
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    if (std::filesystem::remove(entry.path(), ec) && !ec) ++swept;
  }
  if (swept > 0)
    diagnostics().stat(site + ".stale_tmp",
                       "swept " + std::to_string(swept) +
                           " stale temp file(s) from '" + dir + "'");
  return swept;
}

}  // namespace obd::ckpt
