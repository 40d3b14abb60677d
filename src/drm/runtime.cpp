#include "drm/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "common/diagnostics.hpp"
#include "common/error.hpp"

namespace obd::drm {
namespace {

namespace fs = std::filesystem;

/// Snapshot / journal payload schema version. Bump on any layout change;
/// recovery refuses snapshots from a different schema (version skew falls
/// through the recovery ladder instead of being misparsed).
constexpr std::uint32_t kSchemaVersion = 1;

/// Exact round-trip formatting for doubles: %a prints the full binary
/// significand, strtod() parses it back bit-for-bit, so persisted damage
/// trajectories are reproduced exactly across process lifetimes.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool parse_double(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

bool parse_hex_u64(const std::string& token, std::uint64_t* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(token.c_str(), &end, 16);
  return end == token.c_str() + token.size();
}

std::uint64_t compute_fingerprint(const std::vector<OperatingPoint>& ladder,
                                  const DrmOptions& options,
                                  std::size_t n_blocks,
                                  const std::string& mechanisms) {
  std::ostringstream canon;
  canon << "blocks " << n_blocks << '\n';
  for (const auto& op : ladder)
    canon << "op " << op.name << ' ' << fmt_double(op.vdd) << ' '
          << fmt_double(op.frequency) << '\n';
  canon << "lifetime " << fmt_double(options.lifetime_target_s) << '\n'
        << "budget " << fmt_double(options.failure_budget) << '\n'
        << "interval " << fmt_double(options.control_interval_s) << '\n'
        << "max_activity " << fmt_double(options.max_activity) << '\n'
        << "fallback_temp " << fmt_double(options.fallback_temp_c) << '\n';
  // Appended only for non-default specs so seed-era checkpoints keep
  // their fingerprints (a mechanism change must refuse foreign state —
  // the damage-state layout differs).
  if (mechanisms != "oxide") canon << "mechanisms " << mechanisms << '\n';
  return ckpt::fnv1a64(canon.str());
}

}  // namespace

DrmRuntime::DrmRuntime(const core::ReliabilityProblem& problem,
                       const core::DeviceReliabilityModel& model,
                       std::vector<OperatingPoint> ladder,
                       const DrmOptions& options,
                       RuntimeOptions runtime_options)
    : mgr_(problem, model, std::move(ladder), options),
      opts_(std::move(runtime_options)) {
  require(opts_.checkpoint_dir.empty() || opts_.checkpoint_every > 0,
          "DrmRuntime: checkpoint_every must be positive");
  fingerprint_ =
      compute_fingerprint(mgr_.ladder(), options, problem.blocks().size(),
                          problem.mechanism_canonical());
  if (!durable()) return;

  std::error_code ec;
  fs::create_directories(opts_.checkpoint_dir, ec);
  require(!ec && fs::is_directory(opts_.checkpoint_dir), ErrorCode::kIo,
          "DrmRuntime: cannot create checkpoint directory '" +
              opts_.checkpoint_dir + "'");
  // A crash mid-snapshot leaves `ckpt-N.snap.tmp` behind; no reader ever
  // opens temp files, so sweep them before any writer goes live.
  ckpt::sweep_stale_tmp(opts_.checkpoint_dir, "", "drm");

  if (opts_.resume) {
    recover();
  } else {
    // A fresh durable run deliberately starts over: stale snapshots and
    // journals from a previous run must not leak into this trajectory
    // (resuming is an explicit request, never an accident).
    for (const auto& stale :
         {slot_path(0), slot_path(1), slot_path(0) + ".tmp",
          slot_path(1) + ".tmp", journal_path(), journal_prev_path()})
      fs::remove(stale, ec);
    open_journal(/*truncate=*/true);
  }
}

std::string DrmRuntime::slot_path(int slot) const {
  return opts_.checkpoint_dir + "/ckpt-" + std::to_string(slot) + ".snap";
}

std::string DrmRuntime::journal_path() const {
  return opts_.checkpoint_dir + "/journal.log";
}

std::string DrmRuntime::journal_prev_path() const {
  return opts_.checkpoint_dir + "/journal-prev.log";
}

std::string DrmRuntime::encode_snapshot() const {
  std::ostringstream out;
  out << "fp " << ckpt::hex_u64(fingerprint_) << '\n'
      << "step " << step_count_ << '\n'
      << "elapsed " << fmt_double(mgr_.elapsed_s()) << '\n'
      << "rung " << mgr_.last_op_index() << '\n'
      << "nd " << mgr_.state_size() << '\n';
  const std::vector<double> state = mgr_.damage_state();
  for (std::size_t j = 0; j < state.size(); ++j)
    out << (j > 0 ? " " : "") << fmt_double(state[j]);
  out << '\n';
  return out.str();
}

std::string DrmRuntime::encode_record(const JournalRecord& rec) const {
  std::ostringstream out;
  out << "fp " << ckpt::hex_u64(rec.fingerprint) << " step " << rec.step
      << " rung " << rec.outcome.op_index << " deg "
      << (rec.outcome.degraded ? 1 : 0) << " act "
      << fmt_double(rec.activity) << " elapsed " << fmt_double(rec.elapsed_s)
      << " perf " << fmt_double(rec.outcome.performance) << " budget "
      << fmt_double(rec.outcome.budget_line) << " tmax "
      << fmt_double(rec.outcome.max_temp_c) << " nd "
      << rec.block_damage.size();
  for (double d : rec.block_damage) out << ' ' << fmt_double(d);
  return out.str();
}

bool DrmRuntime::decode_record(const std::string& payload,
                               std::size_t n_state, JournalRecord* out) {
  std::istringstream in(payload);
  std::string key, value;
  auto next = [&](const char* want) {
    return static_cast<bool>(in >> key >> value) && key == want;
  };
  std::uint64_t fp = 0;
  if (!next("fp") || !parse_hex_u64(value, &fp)) return false;
  out->fingerprint = fp;
  if (!next("step")) return false;
  out->step = std::strtoull(value.c_str(), nullptr, 10);
  if (!next("rung")) return false;
  out->outcome.op_index = std::strtoull(value.c_str(), nullptr, 10);
  if (!next("deg")) return false;
  out->outcome.degraded = value == "1";
  if (!next("act") || !parse_double(value, &out->activity)) return false;
  if (!next("elapsed") || !parse_double(value, &out->elapsed_s))
    return false;
  if (!next("perf") || !parse_double(value, &out->outcome.performance))
    return false;
  if (!next("budget") || !parse_double(value, &out->outcome.budget_line))
    return false;
  if (!next("tmax") || !parse_double(value, &out->outcome.max_temp_c))
    return false;
  if (!next("nd")) return false;
  const std::size_t nd = std::strtoull(value.c_str(), nullptr, 10);
  if (nd != n_state) return false;
  out->block_damage.resize(nd);
  for (std::size_t j = 0; j < nd; ++j) {
    if (!(in >> value) || !parse_double(value, &out->block_damage[j]))
      return false;
  }
  double total = 0.0;
  for (double d : out->block_damage) {
    if (!std::isfinite(d) || d < 0.0 || d > 1.0) return false;
    total += d;
  }
  out->outcome.damage = total;
  return std::isfinite(out->elapsed_s) && out->elapsed_s >= 0.0;
}

void DrmRuntime::open_journal(bool truncate) {
  journal_ = std::make_unique<ckpt::JournalWriter>(journal_path(), truncate);
}

bool DrmRuntime::checkpoint_now() {
  if (!durable()) return false;
  try {
    ckpt::write_snapshot_atomic(slot_path(next_slot_), kSchemaVersion,
                                encode_snapshot());
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kDegraded) throw;
    diagnostics().warn("drm.checkpoint",
                       std::string("snapshot failed (") + e.what() +
                           "); continuing on the journal alone");
    return false;
  }
  next_slot_ = 1 - next_slot_;

  // Rotate the journal: records up to this snapshot move to the -prev file
  // (still needed if this snapshot later proves unreadable) and a fresh
  // epoch starts. A failed rotation keeps appending to the old file —
  // replay filters by step, so a journal spanning epochs stays correct.
  journal_.reset();
  std::error_code ec;
  fs::rename(journal_path(), journal_prev_path(), ec);
  const bool rotated = !ec || !fs::exists(journal_path());
  if (!rotated)
    diagnostics().warn("drm.journal",
                       "journal rotation failed; continuing with the "
                       "unrotated journal");
  try {
    open_journal(/*truncate=*/rotated);
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kDegraded) throw;
    journal_.reset();
    diagnostics().warn("drm.journal",
                       std::string("cannot reopen journal (") + e.what() +
                           "); journaling suspended until it recovers");
  }
  return true;
}

void DrmRuntime::recover() {
  // 1. Decode the snapshot slots. Unreadable, corrupt, version-skewed, or
  //    foreign-fingerprint snapshots are recovery-ladder rungs, not fatal.
  struct Base {
    int slot = -1;  // -1: implicit cold base (zero damage at step 0)
    std::size_t step = 0;
    double elapsed_s = 0.0;
    std::size_t rung = 0;
    std::vector<double> damage;
  };
  const std::size_t n_state = mgr_.state_size();
  std::vector<Base> bases;
  bool snapshot_lost = false;  // a snapshot existed but was unusable
  for (int slot = 0; slot < 2; ++slot) {
    const std::string path = slot_path(slot);
    if (!fs::exists(path)) continue;
    std::string problem_with_slot;
    try {
      const ckpt::Snapshot snap = ckpt::read_snapshot(path);
      if (snap.version != kSchemaVersion) {
        problem_with_slot = "schema version " +
                            std::to_string(snap.version) + " (expected " +
                            std::to_string(kSchemaVersion) + ")";
      } else {
        std::istringstream in(snap.payload);
        std::string key, value;
        Base b;
        b.slot = slot;
        std::uint64_t fp = 0;
        bool ok = (in >> key >> value) && key == "fp" &&
                  parse_hex_u64(value, &fp);
        ok = ok && (in >> key >> b.step) && key == "step";
        ok = ok && (in >> key >> value) && key == "elapsed" &&
             parse_double(value, &b.elapsed_s);
        ok = ok && (in >> key >> b.rung) && key == "rung";
        std::size_t nd = 0;
        ok = ok && (in >> key >> nd) && key == "nd" && nd == n_state;
        if (ok) {
          b.damage.resize(nd);
          for (std::size_t j = 0; ok && j < nd; ++j)
            ok = (in >> value) && parse_double(value, &b.damage[j]) &&
                 std::isfinite(b.damage[j]) && b.damage[j] >= 0.0 &&
                 b.damage[j] <= 1.0;
        }
        ok = ok && std::isfinite(b.elapsed_s) && b.elapsed_s >= 0.0 &&
             b.rung < mgr_.ladder().size();
        if (!ok) {
          problem_with_slot = "undecodable payload";
        } else if (fp != fingerprint_) {
          problem_with_slot = "configuration fingerprint mismatch";
        } else {
          bases.push_back(std::move(b));
          continue;
        }
      }
    } catch (const Error& e) {
      if (e.code() == ErrorCode::kDegraded) throw;
      problem_with_slot = e.what();
    }
    snapshot_lost = true;
    diagnostics().warn("drm.recover", "snapshot '" + path +
                                          "' is unusable (" +
                                          problem_with_slot +
                                          "); falling back");
  }
  // Newest first; the implicit cold base backstops the ladder (it lets a
  // journal that covers the run from step 1 recover a crash that happened
  // before the first checkpoint was ever written).
  std::sort(bases.begin(), bases.end(),
            [](const Base& a, const Base& b) { return a.step > b.step; });
  bases.push_back(Base{-1, 0, 0.0, 0, std::vector<double>(n_state, 0.0)});

  // 2. Read both journal epochs. Torn tails are tolerated by design — the
  //    step whose append was interrupted is recomputed from telemetry.
  std::vector<JournalRecord> records;
  bool journal_lost = false;
  for (const std::string& path : {journal_prev_path(), journal_path()}) {
    const ckpt::JournalReadResult raw = ckpt::read_journal(path);
    if (!raw.clean_tail)
      diagnostics().warn("drm.journal", "journal '" + path +
                                            "' has a damaged tail (" +
                                            raw.tail_error + "); dropped");
    for (const std::string& payload : raw.records) {
      JournalRecord rec;
      if (!decode_record(payload, n_state, &rec)) {
        // An intact frame with an undecodable payload breaks the chain at
        // this point — later records can no longer be trusted to extend
        // this trajectory.
        journal_lost = true;
        diagnostics().warn("drm.recover",
                           "journal '" + path +
                               "' contains an undecodable record; later "
                               "records ignored");
        break;
      }
      records.push_back(std::move(rec));
    }
  }

  // 3. Pick the base whose journal continuation reaches the furthest step.
  const Base* best_base = nullptr;
  std::size_t best_final = 0;
  std::size_t best_applied = 0;
  const JournalRecord* best_last = nullptr;
  for (const Base& base : bases) {
    std::size_t expected = base.step + 1;
    std::size_t applied = 0;
    const JournalRecord* last = nullptr;
    for (const JournalRecord& rec : records) {
      if (rec.fingerprint != fingerprint_) break;
      if (rec.step < expected) continue;  // older epoch / duplicate
      if (rec.step != expected ||
          rec.outcome.op_index >= mgr_.ladder().size())
        break;  // gap or corrupt decision — the chain ends here
      last = &rec;
      ++applied;
      ++expected;
    }
    const std::size_t final_step = base.step + applied;
    if (best_base == nullptr || final_step > best_final) {
      best_base = &base;
      best_final = final_step;
      best_applied = applied;
      best_last = last;
    }
  }

  // 4. Apply. The chain (base + contiguous fingerprint-checked records)
  //    restores the exact post-step state the dead process had committed.
  if (best_last != nullptr) {
    mgr_.restore_state(best_last->block_damage, best_last->elapsed_s,
                       best_last->outcome.op_index);
  } else if (best_base->slot >= 0) {
    mgr_.restore_state(best_base->damage, best_base->elapsed_s,
                       best_base->rung);
  }
  step_count_ = best_final;
  next_slot_ = best_base->slot >= 0 ? 1 - best_base->slot : 0;

  recovery_.resumed_step = best_final;
  recovery_.replayed_records = best_applied;
  const bool used_snapshot = best_base->slot >= 0;
  // Degraded when expected state was lost: an unusable snapshot that the
  // chosen chain could not fully compensate for, a broken journal chain,
  // or a resume that found nothing at all.
  const Base* newest_snapshot =
      bases.front().slot >= 0 ? &bases.front() : nullptr;
  const bool fell_short =
      (snapshot_lost && (newest_snapshot == nullptr ||
                         best_final < newest_snapshot->step)) ||
      journal_lost;
  if (best_final == 0) {
    recovery_.source = RecoveryInfo::Source::kColdStart;
    recovery_.degraded = true;
    recovery_.detail =
        "no durable state recovered from '" + opts_.checkpoint_dir +
        "'; cold-starting with zero accumulated damage";
    diagnostics().warn("drm.recover", recovery_.detail);
  } else {
    recovery_.source = used_snapshot ? RecoveryInfo::Source::kCheckpoint
                                     : RecoveryInfo::Source::kJournal;
    recovery_.degraded = fell_short;
    std::ostringstream detail;
    detail << "resumed at step " << best_final << " (snapshot step "
           << (used_snapshot ? best_base->step : 0) << " + " << best_applied
           << " replayed journal record(s))";
    if (fell_short) {
      detail << "; some durable state was unrecoverable";
      diagnostics().warn("drm.recover", detail.str());
    }
    recovery_.detail = detail.str();
  }

  try {
    open_journal(/*truncate=*/false);
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kDegraded) throw;
    journal_.reset();
    diagnostics().warn("drm.journal",
                       std::string("cannot reopen journal (") + e.what() +
                           "); journaling suspended until it recovers");
  }
  // Re-anchor a degraded recovery: snapshotting the recovered state makes
  // the fallback decision durable instead of repeating it on every
  // restart.
  if (recovery_.degraded) checkpoint_now();
}

DrmStep DrmRuntime::step(double workload_activity) {
  const auto t0 = std::chrono::steady_clock::now();
  const DrmStep out = mgr_.step(workload_activity);
  step_ms_.push_back(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ++step_count_;
  if (!durable()) return out;

  JournalRecord rec;
  rec.fingerprint = fingerprint_;
  rec.step = step_count_;
  rec.outcome = out;
  rec.activity = workload_activity;
  rec.elapsed_s = mgr_.elapsed_s();
  rec.block_damage = mgr_.damage_state();
  try {
    if (journal_ == nullptr) open_journal(/*truncate=*/false);
    journal_->append(encode_record(rec));
    if (opts_.sync_journal) journal_->sync();
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kDegraded) throw;
    journal_.reset();  // retried on the next step
    diagnostics().warn("drm.journal",
                       std::string("append failed (") + e.what() +
                           "); this step is not durable until the next "
                           "checkpoint");
  }
  if (step_count_ % opts_.checkpoint_every == 0) checkpoint_now();
  return out;
}

void DrmRuntime::publish_step_stats() const {
  if (step_ms_.empty()) return;
  std::vector<double> sorted = step_ms_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const double p50 = sorted[(n - 1) / 2];
  const double p99 = sorted[(99 * (n - 1)) / 100];
  std::ostringstream os;
  os << n << " step(s): p50 " << p50 << " ms, p99 " << p99 << " ms";
  if (mgr_.options().step_deadline_ms > 0.0)
    os << " (deadline " << mgr_.options().step_deadline_ms << " ms)";
  diagnostics().stat("drm.step_ms", os.str());

  // Incremental-recomputation observability: how much per-block state
  // each step actually moved, and how often the per-rung thermal memo
  // answered instead of the solver.
  const std::size_t n_blocks = mgr_.block_damage().size();
  std::ostringstream dirty;
  dirty << mgr_.dirty_blocks_total() << " dirty block update(s) over " << n
        << " step(s) of " << n_blocks << " block(s); conditions memo "
        << mgr_.conditions_cache_hits() << " hit(s), "
        << mgr_.conditions_cache_misses() << " miss(es)";
  diagnostics().stat("step.dirty_blocks", dirty.str());
  // arena.bytes is published once by the CLI's finish() path, next to
  // parallel.pool and simd.level — publishing here too would print the
  // stat twice per `drm run`.
}

}  // namespace obd::drm
