// Span recorder and Chrome-trace writer for the ledger's traced run.
//
// Spans are opened and closed by the ledger's own code around each call
// into the library (the library itself records nothing), kept in memory,
// and written once at exit. A disabled recorder makes every Span a no-op
// that reads no clock, so the untimed bookkeeping of the traced run never
// leaks into the end-to-end numbers of an untraced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Recorder {
 public:
  /// One closed span. `name` points at a string literal (span names are
  /// program constants, so no span allocates).
  struct Record {
    const char* name = "";
    double start_s = 0.0;  ///< since the recorder was created
    double end_s = 0.0;
    std::int64_t parent = -1;  ///< index into records(), -1 for a root
  };

  explicit Recorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Switches recording for spans opened from now on.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(const char* name) {
    Record r;
    r.name = name;
    r.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    r.start_s = seconds_between(origin_, Clock::now());
    records_.push_back(r);
    open_.push_back(records_.size() - 1);
    return records_.size() - 1;
  }

  /// Closes span `id`, which must be the innermost open span.
  void close(std::size_t id) {
    records_[id].end_s = seconds_between(origin_, Clock::now());
    open_.pop_back();
  }

  /// Renames an open span, for spans whose class is known only once the
  /// call returns (a DRM step is a memo hit or a miss).
  void rename(std::size_t id, const char* name) { records_[id].name = name; }

  /// Mean duration [s] and count of the spans of each name.
  struct Tally {
    double mean_s = 0.0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Tally> tallies() const {
    std::map<std::string, Tally> out;
    for (const Record& r : records_) {
      Tally& t = out[r.name];
      t.mean_s += r.end_s - r.start_s;  // a sum until the loop below
      ++t.count;
    }
    for (auto& [name, t] : out) t.mean_s /= static_cast<double>(t.count);
    return out;
  }

  /// Total self time [s] per span name: each span's duration minus the
  /// time its children cover. Spans come from one thread and nest
  /// strictly, so children never overlap and their durations just add.
  [[nodiscard]] std::map<std::string, double> self_time_s() const {
    std::vector<double> child(records_.size(), 0.0);
    for (const Record& r : records_)
      if (r.parent >= 0) child[r.parent] += r.end_s - r.start_s;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < records_.size(); ++i)
      out[records_[i].name] +=
          records_[i].end_s - records_[i].start_s - child[i];
    return out;
  }

  /// Writes the spans as Chrome-trace JSON (complete "X" events in
  /// microseconds; Perfetto and chrome://tracing open it), with the
  /// per-name self time under "selfTimeSeconds". Returns false when the
  /// file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out.precision(17);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << r.start_s * 1e6
          << ",\"dur\":" << (r.end_s - r.start_s) * 1e6
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
    }
    out << "\n],\"selfTimeSeconds\":{";
    bool first = true;
    for (const auto& [name, s] : self_time_s()) {
      out << (first ? "\n" : ",\n") << "\"" << name << "\":" << s;
      first = false;
    }
    out << "\n}}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

/// RAII span; a no-op on a disabled recorder.
class Span {
 public:
  Span(Recorder& rec, const char* name)
      : rec_(rec.enabled() ? &rec : nullptr),
        id_(rec_ != nullptr ? rec_->open(name) : 0) {}
  ~Span() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void rename(const char* name) {
    if (rec_ != nullptr) rec_->rename(id_, name);
  }

 private:
  Recorder* rec_;
  std::size_t id_;
};

}  // namespace ledger
