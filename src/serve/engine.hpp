// Query engine of the reliability daemon: request grammar, fingerprinting,
// and the coalescing evaluator over the durable table cache.
//
// A request is one newline-framed line of space-separated key=value
// fields:
//
//   id=<token> t=<seconds> [set.<key>=<value> ...] [cond.<key>=<value> ...]
//       [deadline_ms=<ms>]
//   op=health [id=<token>]
//
// `set.<key>` overrides a whitelisted problem-shaping config key (design,
// vdd, ambient_c, ...) on top of the daemon's base config — that tuple of
// (thermal profile, process corner, config) is canonicalized into a key
// string and fingerprinted; all queries sharing a fingerprint share one
// cached evaluation context and are answered as a single batched
// table-lookup sweep. Fingerprints that differ only in operating-point
// keys (vdd, ambient_c, thermal_sweep, mechanisms, redundancy) share a
// variation key (core::variation_key): a cold one runs only the thermal
// stage on a resident entry's canonical form and copies its tables.
//
// `cond.<key>` applies an operating-condition delta on top of the built
// problem without changing its fingerprint: `cond.dt` (uniform block
// temperature offset [C]), `cond.dt.<block>` (per-block offset),
// `cond.vdd` (supply override), `cond.act` (activity scale). Condition
// queries are answered exactly through a per-session
// core::ConditionEvaluator whose incremental rows persist across the
// session's requests — repeated overrides refresh only what changed
// (`incremental_hits` in the engine stats counts the reuses) — or, when
// the surrogate tier is enabled and certifies the corner, from the
// Chebyshev surrogate without touching the tables at all.
//
// Replies are one line per request, same grammar:
//
//   id=<token> ok=1 t=<t> f=<F(t)> degraded=<0|1>
//   id=<token> error=<code> msg=<text>
//   id=<token> overloaded=1          (emitted by the server when shedding)
//
// A reply never reveals which cache tier answered it: a memory hit, a disk
// reload, and a cold compute are byte-identical by construction (the LUT
// serialization round-trips doubles exactly), which is what makes the
// crash-restart tests meaningful. A cold compute is byte-identical whether
// it built its variation stage or took a resident entry's: the canonical
// form, BLOD moments and tables depend on the variation key alone.
//
// Deadlines degrade instead of failing: a query whose deadline has already
// expired when its cold table build would start is answered from the
// analytic closed form (paper Section IV-C) with degraded=1 — an
// approximation delivered on time instead of an exact answer too late.
// Memory-tier hits always serve the exact table answer; they are cheaper
// than the analytic path. The `serve.deadline` fault site forces expiry
// deterministically.
#pragma once

#include <chrono>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "core/condition_eval.hpp"
#include "serve/cache.hpp"
#include "surrogate/surrogate.hpp"

namespace obd::serve {

/// One parsed request line.
struct Request {
  enum class Op { kQuery, kHealth };
  Op op = Op::kQuery;
  std::string id;      ///< echoed verbatim in the reply
  double t = 0.0;      ///< query time [s] (op == kQuery)
  double deadline_ms = -1.0;  ///< per-request deadline; < 0 = server default
  std::map<std::string, std::string> overrides;  ///< whitelisted set.* keys

  // Operating-condition delta (cond.* fields). NaN cond_vdd means "the
  // group's configured vdd" — resolved against the overridden config at
  // evaluation time, after set.vdd has been applied.
  bool has_cond = false;
  double cond_dt = 0.0;
  double cond_vdd = std::numeric_limits<double>::quiet_NaN();
  double cond_act = 1.0;
  std::vector<std::pair<std::size_t, double>> cond_block_dt;
};

/// Parses one request line. Throws Error(kInvalidInput) on malformed
/// fields, a non-positive t, or a non-whitelisted set.* key; the server
/// turns the throw into an error reply for that line only.
[[nodiscard]] Request parse_request(const std::string& line);

/// Canonical identity of everything that shapes the evaluation context:
/// core::problem_key (with request overrides applied), the serve-table
/// dimensions, and the mechanism spec when it is not oxide-only. Equal
/// strings <=> interchangeable cached tables.
[[nodiscard]] std::string problem_key(const Config& cfg);

/// Same, with the canonical mechanism rendering supplied by the caller
/// (the engine memoizes it per raw spec instead of re-parsing the
/// mechanism/redundancy grammar on every request).
[[nodiscard]] std::string problem_key(const Config& cfg,
                                      const std::string& mechanisms);

/// True when a request that waited `elapsed_ms` against `deadline_ms` must
/// degrade (deadline_ms <= 0 disables deadlines). Injectable via the
/// `serve.deadline` site, which expires any armed deadline irrespective of
/// the clock.
[[nodiscard]] bool deadline_expired(double elapsed_ms, double deadline_ms);

/// A request plus its arrival time (the deadline anchor) and the session
/// it arrived on (the server uses the client fd; stdin is session 1).
/// Sessions scope the incremental-evaluator reuse of cond.* queries.
struct PendingQuery {
  Request request;
  std::chrono::steady_clock::time_point arrival;
  int session = 1;
};

struct EngineOptions {
  CacheOptions cache;
  std::size_t n_gamma = 100;   ///< serve-table indices along ln(t/alpha)
  std::size_t n_b = 100;       ///< serve-table indices along b
  double deadline_ms = 0.0;    ///< default per-request deadline; 0 = off
  /// Surrogate tier. Off by default: every reply stays byte-identical to
  /// an engine without the tier. On, ok replies carry ` surrogate=<0|1>`
  /// and queries the certificate covers are answered from the Chebyshev
  /// model (memory-tier table hits still win — exact beats approximate
  /// when both are free).
  bool surrogate = false;
  surrogate::SurrogateOptions surrogate_opts;
};

struct EngineStats {
  std::uint64_t answered = 0;  ///< ok replies (exact or degraded)
  std::uint64_t degraded = 0;  ///< deadline-degraded analytic answers
  std::uint64_t errors = 0;    ///< per-request error replies
  std::uint64_t surrogate_hits = 0;  ///< replies answered by the surrogate
  /// Queries a present surrogate refused (out of domain, uncertified, or
  /// per-block cond overrides) and the exact engine answered instead.
  std::uint64_t surrogate_fallthrough = 0;
  /// cond.* evaluations that reused incremental rows instead of a full
  /// rebuild (the per-session ChipState paying off).
  std::uint64_t incremental_hits = 0;
};

/// Evaluates batches of queries against the table cache. Owns the base
/// config and the cache; single-threaded (the server's event loop is the
/// only caller).
class QueryEngine {
 public:
  QueryEngine(Config base, EngineOptions options);

  /// Answers every query of `batch` (one reply line per query, aligned by
  /// index, no trailing newline). Queries are grouped by fingerprint and
  /// each group is served as one batched sweep; a per-request failure
  /// becomes that request's error reply, never an exception.
  [[nodiscard]] std::vector<std::string> evaluate(
      const std::vector<PendingQuery>& batch);

  [[nodiscard]] TableCache& cache() { return cache_; }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// Drops the per-session incremental evaluators of `session` (the
  /// server calls this when a client fd closes).
  void end_session(int session);

 private:
  /// Per-fingerprint surrogate tier state. `model` is present once a fit
  /// or a disk load succeeded (it may still be uncertified — then every
  /// query falls through); the flags make each expensive step one-shot.
  struct SurrogateState {
    std::string key;  ///< canonical problem key (collision guard)
    std::unique_ptr<surrogate::SurrogateModel> model;
    bool load_attempted = false;  ///< disk probe done
    bool fit_attempted = false;   ///< fit tried after a problem build
  };

  /// One session's exact-corner evaluator for one fingerprint. The serial
  /// of the cache entry it was built on is remembered so an evicted-and-
  /// rebuilt entry invalidates it instead of dangling (addresses can be
  /// reused; serials are not).
  struct SessionEval {
    std::uint64_t serial = 0;
    std::unique_ptr<core::ConditionEvaluator> eval;
  };

  /// Canonical mechanism rendering for `cfg`, memoized on the raw
  /// ("mechanisms", "redundancy") strings. Exact within one engine: the
  /// base config is fixed and request overrides touch whitelisted keys
  /// only, so that pair identifies the parse completely.
  [[nodiscard]] std::string canonical_mechanisms(const Config& cfg);

  /// The surrogate model for `fp` if one is available (loading the disk
  /// tier on first touch); nullptr when the tier is off or nothing is
  /// fitted yet. The returned model may be uncertified.
  [[nodiscard]] surrogate::SurrogateModel* surrogate_for(
      std::uint64_t fp, const std::string& key);

  /// Fits + certifies + persists the surrogate for `fp` (one attempt per
  /// fingerprint; a failed certification is kept so the refusal is
  /// remembered rather than refit per batch).
  void fit_surrogate(std::uint64_t fp, const std::string& key,
                     const core::ReliabilityProblem& problem);

  /// The session's ConditionEvaluator over `entry`'s tables, (re)built on
  /// first use or after the entry was evicted and rebuilt.
  [[nodiscard]] core::ConditionEvaluator& session_evaluator(
      int session, std::uint64_t fp, const CacheEntry& entry);

  Config base_;
  EngineOptions options_;
  TableCache cache_;
  EngineStats stats_;
  std::map<std::pair<std::string, std::string>, std::string> mech_memo_;
  std::map<std::uint64_t, SurrogateState> surrogates_;
  std::map<int, std::map<std::uint64_t, SessionEval>> sessions_;
};

}  // namespace obd::serve
