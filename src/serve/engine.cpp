#include "serve/engine.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "core/analytic.hpp"
#include "core/pipeline.hpp"
#include "mech/spec.hpp"

namespace obd::serve {
namespace {

/// Config keys a request may override via `set.<key>=`. Everything here
/// shapes the evaluation context and is folded into problem_key(); keys
/// outside the list (threads, faults, ...) are daemon policy and rejected.
const std::set<std::string>& override_whitelist() {
  static const std::set<std::string> keys = {
      "design",         "device_density", "vdd",
      "rho_dist",       "grid",           "ambient_c",
      "variance_capture", "eigen_solver", "thermal_sweep",
      "mechanisms",     "redundancy",
  };
  return keys;
}

std::string fmt17(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double parse_double_field(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    require(pos == value.size() && std::isfinite(v), ErrorCode::kInvalidInput,
            "serve: field " + key + "='" + value + "' is not a number");
    return v;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error("serve: field " + key + "='" + value + "' is not a number",
                ErrorCode::kInvalidInput);
  }
}

/// `surrogate` < 0 omits the field entirely — the tier-off reply is
/// byte-identical to an engine that never had a surrogate tier.
std::string reply_ok(const std::string& id, double t, double f,
                     bool degraded, int surrogate = -1) {
  std::string r = "id=" + id + " ok=1 t=" + fmt17(t) + " f=" + fmt17(f) +
                  " degraded=" + (degraded ? "1" : "0");
  if (surrogate >= 0)
    r += std::string(" surrogate=") + (surrogate > 0 ? "1" : "0");
  return r;
}

std::string reply_error(const std::string& id, const Error& e) {
  return "id=" + id + " error=" + to_string(e.code()) + " msg=" + e.what();
}

}  // namespace

Request parse_request(const std::string& line) {
  Request req;
  bool have_t = false;
  std::istringstream is(line);
  std::string field;
  while (is >> field) {
    const std::size_t eq = field.find('=');
    require(eq != std::string::npos && eq > 0, ErrorCode::kInvalidInput,
            "serve: field '" + field + "' is not key=value");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "op") {
      require(value == "query" || value == "health", ErrorCode::kInvalidInput,
              "serve: op must be 'query' or 'health', got '" + value + "'");
      req.op = (value == "health") ? Request::Op::kHealth
                                   : Request::Op::kQuery;
    } else if (key == "id") {
      req.id = value;
    } else if (key == "t") {
      req.t = parse_double_field(key, value);
      have_t = true;
    } else if (key == "deadline_ms") {
      req.deadline_ms = parse_double_field(key, value);
      require(req.deadline_ms >= 0.0, ErrorCode::kInvalidInput,
              "serve: deadline_ms must be non-negative");
    } else if (key == "cond.dt") {
      req.cond_dt = parse_double_field(key, value);
      req.has_cond = true;
    } else if (key == "cond.vdd") {
      req.cond_vdd = parse_double_field(key, value);
      require(req.cond_vdd > 0.0, ErrorCode::kInvalidInput,
              "serve: cond.vdd must be positive");
      req.has_cond = true;
    } else if (key == "cond.act") {
      req.cond_act = parse_double_field(key, value);
      require(req.cond_act > 0.0, ErrorCode::kInvalidInput,
              "serve: cond.act must be positive");
      req.has_cond = true;
    } else if (key.rfind("cond.dt.", 0) == 0) {
      const std::string idx = key.substr(8);
      std::size_t pos = 0;
      std::size_t block = 0;
      try {
        block = std::stoul(idx, &pos);
      } catch (const std::exception&) {
        pos = std::string::npos;
      }
      require(!idx.empty() && pos == idx.size(), ErrorCode::kInvalidInput,
              "serve: cond.dt.<block> needs a block index, got '" + idx +
                  "'");
      req.cond_block_dt.emplace_back(block, parse_double_field(key, value));
      req.has_cond = true;
    } else if (key.rfind("set.", 0) == 0) {
      const std::string cfg_key = key.substr(4);
      require(override_whitelist().count(cfg_key) != 0,
              ErrorCode::kInvalidInput,
              "serve: config key '" + cfg_key + "' cannot be overridden "
              "per request");
      require(!value.empty(), ErrorCode::kInvalidInput,
              "serve: override " + key + " has an empty value");
      req.overrides[cfg_key] = value;
    } else {
      throw Error("serve: unknown request field '" + key + "'",
                  ErrorCode::kInvalidInput);
    }
  }
  if (req.op == Request::Op::kQuery) {
    require(have_t, ErrorCode::kInvalidInput,
            "serve: query needs a t=<seconds> field");
    require(req.t > 0.0 && std::isfinite(req.t), ErrorCode::kInvalidInput,
            "serve: t must be a positive finite time");
    require(!req.id.empty(), ErrorCode::kInvalidInput,
            "serve: query needs an id=<token> field");
  }
  return req;
}

std::string problem_key(const Config& cfg) {
  return problem_key(cfg, mech::parse_spec(cfg).canonical());
}

std::string problem_key(const Config& cfg, const std::string& mechanisms) {
  std::string key =
      core::problem_key(cfg) +
      ";n_gamma=" + std::to_string(cfg.get_count("serve_n_gamma", 100)) +
      ";n_b=" + std::to_string(cfg.get_count("serve_n_b", 100));
  // Appended only for non-default mechanism specs: seed-era keys (and the
  // disk-tier fingerprints derived from them) stay byte-identical.
  if (mechanisms != "oxide") key += ";mechanisms=" + mechanisms;
  return key;
}

bool deadline_expired(double elapsed_ms, double deadline_ms) {
  if (deadline_ms <= 0.0) return false;  // deadlines disabled
  if (fault::should_fire(fault::site::kServeDeadline)) {
    diagnostics().warn("serve.deadline",
                       "injected deadline expiry: degrading to the "
                       "analytic fast path");
    return true;
  }
  return elapsed_ms >= deadline_ms;
}

QueryEngine::QueryEngine(Config base, EngineOptions options)
    : base_(std::move(base)),
      options_(options),
      cache_(options.cache) {}

std::string QueryEngine::canonical_mechanisms(const Config& cfg) {
  auto key = std::make_pair(cfg.get_string("mechanisms", "oxide"),
                            cfg.get_string("redundancy", ""));
  const auto it = mech_memo_.find(key);
  if (it != mech_memo_.end()) return it->second;
  std::string rendered = mech::parse_spec(cfg).canonical();
  // Bound the memo against adversarial clients cycling distinct specs;
  // a miss past the cap just re-renders (the pre-memo behavior).
  if (mech_memo_.size() < 256)
    mech_memo_.emplace(std::move(key), rendered);
  return rendered;
}

std::vector<std::string> QueryEngine::evaluate(
    const std::vector<PendingQuery>& batch) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::string> replies(batch.size());

  // Coalesce: queries sharing a fingerprint share one evaluation context
  // and one batched sweep. Group by the canonical key (exact), not the
  // fingerprint (hashed) — a collision must not merge distinct problems.
  struct Group {
    Config cfg;
    std::vector<std::size_t> indices;
  };
  std::map<std::string, Group> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& req = batch[i].request;
    try {
      require(req.op == Request::Op::kQuery, ErrorCode::kInvalidInput,
              "serve: health queries bypass the evaluator");
      Config cfg = base_;
      for (const auto& [key, value] : req.overrides) cfg.set(key, value);
      auto [it, inserted] =
          groups.try_emplace(problem_key(cfg, canonical_mechanisms(cfg)));
      if (inserted) it->second.cfg = std::move(cfg);
      it->second.indices.push_back(i);
    } catch (const Error& e) {
      ++stats_.errors;
      replies[i] = reply_error(req.id, e);
    }
  }

  for (auto& [key, group] : groups) {
    const std::uint64_t fp = fingerprint(key);
    try {
      CacheEntry* entry = cache_.find(fp, key);
      // -1 omits the surrogate reply field entirely: with the tier off
      // every reply is byte-identical to an engine that never had it.
      const int flag_exact = options_.surrogate ? 0 : -1;
      surrogate::SurrogateModel* sur =
          options_.surrogate ? surrogate_for(fp, key) : nullptr;
      const double cfg_vdd = group.cfg.get_double("vdd", 1.2);
      const auto corner_vdd = [&](const Request& rq) {
        return std::isnan(rq.cond_vdd) ? cfg_vdd : rq.cond_vdd;
      };
      const auto surrogate_covers = [&](const Request& rq) {
        return sur != nullptr && sur->certificate().certified &&
               rq.cond_block_dt.empty() &&
               sur->in_domain(rq.cond_dt, corner_vdd(rq), rq.cond_act, rq.t);
      };

      // Surrogate tier: certified in-domain queries are answered from the
      // Chebyshev model with no problem build — unless the memory tier
      // already holds the tables, where exact is just as cheap and beats
      // approximate. Everything the certificate does not cover falls
      // through to the exact path below.
      std::vector<std::size_t> exact;
      exact.reserve(group.indices.size());
      if (sur != nullptr) {
        for (const std::size_t i : group.indices) {
          const Request& rq = batch[i].request;
          if (!surrogate_covers(rq)) {
            ++stats_.surrogate_fallthrough;
            exact.push_back(i);
          } else if (entry != nullptr) {
            exact.push_back(i);
          } else {
            replies[i] = reply_ok(
                rq.id, rq.t,
                sur->evaluate(rq.cond_dt, corner_vdd(rq), rq.cond_act, rq.t),
                false, 1);
            ++stats_.answered;
            ++stats_.surrogate_hits;
          }
        }
        if (exact.empty()) continue;  // no tables needed at all
      } else {
        exact = group.indices;
      }

      if (entry == nullptr) {
        // Cold fingerprint: the problem build is needed by every path,
        // exact or degraded. The thermal stage always runs; a resident
        // entry with the same variation key donates the variation stage
        // (canonical form, layout, BLOD moments) and later its tables, so
        // only a fingerprint new in geometry or variation pays the
        // covariance, the eigensolve and the table fill.
        const core::Pipeline pipeline = core::run_pipeline(group.cfg);
        std::string variation_key = core::variation_key(group.cfg);
        const CacheEntry* donor = cache_.find_donor(variation_key);
        auto problem = std::make_unique<core::ReliabilityProblem>(
            donor != nullptr
                ? core::build_problem(group.cfg, pipeline, *donor->problem)
                : core::build_problem(group.cfg, pipeline));

        // Partition now, against the post-build clock: requests whose
        // deadline has already expired get the analytic approximation
        // instead of waiting for the table fill.
        const std::vector<std::size_t> need = exact;
        std::vector<std::size_t> expired;
        exact.clear();
        for (const std::size_t i : need) {
          const double elapsed_ms =
              std::chrono::duration<double, std::milli>(now -
                                                        batch[i].arrival)
                  .count();
          const double deadline = batch[i].request.deadline_ms >= 0.0
                                      ? batch[i].request.deadline_ms
                                      : options_.deadline_ms;
          if (deadline_expired(elapsed_ms, deadline))
            expired.push_back(i);
          else
            exact.push_back(i);
        }
        if (!expired.empty()) {
          const core::AnalyticAnalyzer analytic(*problem);
          for (const std::size_t i : expired) {
            const double t = batch[i].request.t;
            replies[i] = reply_ok(batch[i].request.id, t,
                                  analytic.failure_probability(t), true,
                                  flag_exact);
            ++stats_.answered;
            ++stats_.degraded;
          }
        }
        if (exact.empty()) continue;  // nothing left to build tables for

        // Disk tier first; on a true miss the donor's tables are copied,
        // and only a miss without a donor pays the table fill.
        core::HybridOptions hopts;
        hopts.n_gamma = options_.n_gamma;
        hopts.n_b = options_.n_b;
        std::unique_ptr<core::HybridEvaluator> hybrid;
        if (auto loaded = cache_.load_disk(fp, key, *problem)) {
          hybrid =
              std::make_unique<core::HybridEvaluator>(std::move(*loaded));
        } else {
          cache_.record_miss();
          hybrid = donor != nullptr
                       ? std::make_unique<core::HybridEvaluator>(
                             *problem, *donor->hybrid)
                       : std::make_unique<core::HybridEvaluator>(*problem,
                                                                 hopts);
        }
        CacheEntry fresh;
        fresh.key = key;
        fresh.fp = fp;
        fresh.variation_key = std::move(variation_key);
        // A donor-less entry owns its canonical form; one built from a
        // donor shares the donor's.
        fresh.bytes = entry_bytes(
            problem->blocks().size(), hopts.n_gamma, hopts.n_b,
            donor != nullptr ? 0 : canonical_bytes(problem->canonical()));
        fresh.problem = std::move(problem);
        fresh.hybrid = std::move(hybrid);
        entry = cache_.insert(std::move(fresh));

        // The build is the expensive part of a fit, and it just happened:
        // fit + certify + persist the surrogate now (one attempt per
        // fingerprint) so future cold batches skip the build entirely.
        if (options_.surrogate) fit_surrogate(fp, key, *entry->problem);
      }

      // Exact path. Plain queries keep the batched table sweep (bits
      // unchanged); cond.* queries go through the session's incremental
      // corner evaluator.
      std::vector<std::size_t> plain;
      std::vector<std::size_t> conds;
      for (const std::size_t i : exact)
        (batch[i].request.has_cond ? conds : plain).push_back(i);

      if (!plain.empty()) {
        std::vector<double> ts;
        ts.reserve(plain.size());
        for (const std::size_t i : plain) ts.push_back(batch[i].request.t);
        const std::vector<double> fs =
            entry->hybrid->failure_probabilities(ts);
        for (std::size_t k = 0; k < plain.size(); ++k) {
          replies[plain[k]] = reply_ok(batch[plain[k]].request.id, ts[k],
                                       fs[k], false, flag_exact);
          ++stats_.answered;
        }
      }

      for (const std::size_t i : conds) {
        const Request& rq = batch[i].request;
        try {
          core::ConditionEvaluator& ce =
              session_evaluator(batch[i].session, fp, *entry);
          ce.set_corner(rq.cond_dt, corner_vdd(rq), rq.cond_act);
          for (const auto& [j, dtj] : rq.cond_block_dt) {
            require(j < entry->problem->blocks().size(),
                    ErrorCode::kInvalidInput,
                    "serve: cond.dt." + std::to_string(j) +
                        " is out of range for this design");
            ce.set_block_dt(j, dtj);
          }
          const core::IncrementalStats before = ce.stats();
          const double f = ce.evaluate(rq.t);
          const core::IncrementalStats after = ce.stats();
          stats_.incremental_hits +=
              (after.evaluations - before.evaluations) -
              (after.full_rebuilds - before.full_rebuilds);
          replies[i] = reply_ok(rq.id, rq.t, f, false, flag_exact);
          ++stats_.answered;
        } catch (const Error& e) {
          ++stats_.errors;
          replies[i] = reply_error(rq.id, e);
        }
      }
    } catch (const Error& e) {
      for (const std::size_t i : group.indices) {
        if (!replies[i].empty()) continue;  // already answered (degraded)
        ++stats_.errors;
        replies[i] = reply_error(batch[i].request.id, e);
      }
    }
  }
  return replies;
}

void QueryEngine::end_session(int session) { sessions_.erase(session); }

surrogate::SurrogateModel* QueryEngine::surrogate_for(
    std::uint64_t fp, const std::string& key) {
  SurrogateState& st = surrogates_[fp];
  if (st.key.empty()) st.key = key;
  if (st.key != key) return nullptr;  // fingerprint collision: refuse
  if (st.model == nullptr && !st.load_attempted) {
    st.load_attempted = true;
    if (!cache_.options().dir.empty()) {
      const std::string path = surrogate_file_path(cache_.options().dir, fp);
      // read_cache_file quarantines a corrupt or foreign file itself; a
      // CRC-valid payload from an older schema is a refit, not a crash.
      if (const auto text = read_cache_file(path, key)) {
        if (auto loaded = surrogate::SurrogateModel::load_text(*text)) {
          st.model = std::make_unique<surrogate::SurrogateModel>(
              std::move(*loaded));
        } else {
          diagnostics().warn("serve.surrogate",
                             "surrogate file '" + path +
                                 "' has an unknown schema; refitting");
        }
      }
    }
  }
  return st.model.get();
}

void QueryEngine::fit_surrogate(std::uint64_t fp, const std::string& key,
                                const core::ReliabilityProblem& problem) {
  SurrogateState& st = surrogates_[fp];
  if (st.key.empty()) st.key = key;
  if (st.key != key || st.model != nullptr || st.fit_attempted) return;
  st.fit_attempted = true;
  try {
    auto model = std::make_unique<surrogate::SurrogateModel>(
        surrogate::SurrogateModel::fit(problem, options_.surrogate_opts));
    if (!model->certificate().certified) {
      // Kept in memory (so the refusal is remembered, not refit per
      // batch) but never persisted — an uncertified model answers nothing.
      diagnostics().warn(
          "serve.surrogate",
          "surrogate failed certification (max_rel_error=" +
              std::to_string(model->certificate().max_rel_error) +
              " > tol); every query stays on the exact path");
    } else if (!cache_.options().dir.empty()) {
      write_cache_file(surrogate_file_path(cache_.options().dir, fp), key,
                       model->save_text());
    }
    st.model = std::move(model);
  } catch (const Error& e) {
    diagnostics().warn("serve.surrogate",
                       std::string("surrogate fit failed: ") + e.what());
  }
}

core::ConditionEvaluator& QueryEngine::session_evaluator(
    int session, std::uint64_t fp, const CacheEntry& entry) {
  auto& per_fp = sessions_[session];
  // A session cycling many fingerprints is not a reuse pattern worth
  // memory: reset and let the next corner rebuild (one full refresh each;
  // correctness is unaffected).
  if (per_fp.size() >= 8 && per_fp.find(fp) == per_fp.end()) per_fp.clear();
  SessionEval& se = per_fp[fp];
  if (se.eval == nullptr || se.serial != entry.serial) {
    // First touch, or the cache evicted and rebuilt this entry — the old
    // evaluator would dangle on the freed problem and tables, even when
    // the rebuilt ones landed at the same addresses.
    se.serial = entry.serial;
    se.eval = std::make_unique<core::ConditionEvaluator>(*entry.hybrid);
  }
  return *se.eval;
}

}  // namespace obd::serve
