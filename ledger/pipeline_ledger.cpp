// Pipeline ledger: the end-to-end and per-layer benchmark of obdrel.
//
//   pipeline_ledger --workload <name> --seed <n> --seconds <n> --trace <0|1>
//                   [--out <dir>] [--commit <id>]
//
// One process runs one workload on one thread (see main). A run is a
// fixed number of laps (kWorkloads). Each lap sets the workload up from
// scratch, then does the workload's fixed unit of work and checks its
// outputs, so set-up time is a median over several set-ups and every
// commit does the same work. --seconds only bounds a run: no lap starts
// once kGuardFactor x --seconds have passed. Latencies and rates are
// read off measurement windows of equal work (end_to_end_metrics). The
// seed drives every generated input; the same seed gives bit-identical
// outputs, which every lap checks against the first.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs an untraced,
// a traced and another untraced lap (the traced one against the mean of
// the other two is the tracing overhead), then runs each stage the
// workload does not exercise once on the workload's own problem, so every
// per-layer metric is measured on every workload; it reports the
// per-layer metrics. Every metric is printed as `metric <name> <value>
// <unit>`, and the last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics. With --out, the run also writes
// a record (metrics with quartiles and sample counts, checks, host and
// build) and, when traced, a Chrome trace of its spans into that
// directory. README.md has the workloads and the metric catalogue.
//
// Exit codes: 0 all checks passed, 1 a check failed or the library threw,
// 2 bad arguments.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chip/design.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/analytic.hpp"
#include "core/condition_eval.hpp"
#include "core/guardband.hpp"
#include "core/hybrid.hpp"
#include "core/lifetime.hpp"
#include "core/montecarlo.hpp"
#include "core/problem.hpp"
#include "drm/manager.hpp"
#include "linalg/eigen.hpp"
#include "power/power.hpp"
#include "serve/engine.hpp"
#include "simd/dispatch.hpp"
#include "stats.hpp"
#include "stats/rng.hpp"
#include "thermal/solver.hpp"
#include "trace.hpp"
#include "variation/model.hpp"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace {

using namespace obd;
using ledger::Clock;
using ledger::Span;

constexpr double kGuardFactor = 4.0;
constexpr double kYear = 365.25 * 86400.0;
constexpr std::array<double, 2> kTargets = {core::kOneFaultPerMillion,
                                            core::kTenFaultsPerMillion};

// Sign-off: the paper's C6 (EV6) flow, Table III settings.
constexpr std::size_t kThermalResolution = 48;
constexpr std::size_t kPaperGrid = 25;
constexpr std::size_t kFineGrid = 32;
constexpr double kPaperAmbientC = 45.0;
constexpr std::size_t kStMcSamples = 20000;
constexpr std::size_t kMcChips = 200;
// 200 chips give the MC lifetimes ~1.4% (1 sigma) of sampling noise, so
// a fixed 3% band fails about one seed in twenty; 4 standard errors fail
// an unbiased method on ~1e-4 of seeds.
constexpr double kMcSigmas = 4.0;
constexpr double kHybridAgreementPct = 1.0;

// Serve: 4 fingerprints (set.ambient_c 45/50/55/60), 15% cond.* queries.
constexpr std::size_t kServeFingerprints = 4;
constexpr std::size_t kServeQueries = 200000;  ///< per lap
constexpr std::size_t kServeWarmup = 1000;
constexpr std::size_t kServeBatch = 64;
constexpr double kServeCondShare = 0.15;

// DRM: eco/mid/turbo ladder over a 10-year life, AR(1) activity trace.
constexpr std::size_t kDrmSteps = 30000;  ///< per lap
constexpr double kDrmLow = 0.3;
constexpr double kDrmHigh = 1.0;
constexpr double kDrmPhi = 0.9;

/// Operations per latency window: ten beyond each window's p99.
constexpr std::size_t kWindowOps = 1000;

// Probe sizes for the stages a traced run adds to a workload.
constexpr std::size_t kProbeQueries = 2000;
constexpr std::size_t kProbeSteps = 1000;
constexpr std::size_t kPowerProbeCalls = 200;

const core::AnalyticReliabilityModel& model() {
  static const core::AnalyticReliabilityModel m;
  return m;
}

double since(Clock::time_point t0) {
  return ledger::seconds_between(t0, Clock::now());
}

/// Round-trip-exact rendering (%.17g), as the serve daemon writes doubles.
std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

enum class Kind { kSignoffEv6, kSignoffFineGrid, kServeMixed, kDrmReplay };

/// A workload and its fixed work per run, sized to 15-45 s on a 4-vCPU
/// Xeon virtual machine, so that the set of runs a comparison needs fits
/// in an hour. Three to six set-ups give setup_s its median; the cheap
/// EV6 set-up (~0.8 s) is repeated most, as it is the noisiest.
struct WorkloadInfo {
  Kind kind;
  const char* name;
  std::size_t laps;
  std::size_t answers;  ///< sign-off answers per lap
};
constexpr WorkloadInfo kWorkloads[] = {
    {Kind::kSignoffEv6, "signoff_ev6", 6, 1},
    {Kind::kSignoffFineGrid, "signoff_fine_grid", 3, 6},
    {Kind::kServeMixed, "serve_mixed", 3, 0},
    {Kind::kDrmReplay, "drm_replay", 4, 0},
};

struct Options {
  const WorkloadInfo* info = &kWorkloads[0];
  Kind kind = Kind::kSignoffEv6;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
  std::string commit = "unknown";
};

/// The workload's pipeline configuration, all derived from the seed.
struct Setup {
  std::size_t grid = kPaperGrid;
  double ambient_c = kPaperAmbientC;
  std::uint64_t stmc_seed = 0;
  std::uint64_t mc_seed = 0;
};

Setup make_setup(const Options& o) {
  stats::Rng rng(o.seed);
  Setup s;
  s.stmc_seed = rng();
  s.mc_seed = rng();
  if (o.kind == Kind::kSignoffFineGrid) {
    // No sampler on this flow, so the seed moves the operating point: the
    // ambient temperature in 0.5 C steps over [40, 50] C.
    s.grid = kFineGrid;
    s.ambient_c = 40.0 + 0.5 * static_cast<double>(rng.below(21));
  }
  return s;
}

/// Design -> power/thermal fixed point -> reliability problem.
struct Pipeline {
  double ambient_c = kPaperAmbientC;
  chip::Design design;
  thermal::ThermalProfile profile;
  std::unique_ptr<core::ReliabilityProblem> problem;
};

thermal::ThermalParams thermal_params(double ambient_c) {
  thermal::ThermalParams tp;
  tp.ambient_c = ambient_c;
  tp.resolution = kThermalResolution;
  return tp;
}

/// Lifetimes [s] at the two targets (1 and 10 faults per million).
using Pair = std::array<double, 2>;

/// The analytic sign-off answer; stmc is NaN when not computed.
struct Answer {
  Pair fast{};
  Pair stmc{NAN, NAN};
  Pair hybrid{};
  Pair guard{};
};

/// One serve query as generated, and the request line that encodes it.
struct ServeQuery {
  std::string line;
  double t = 0.0;
  std::size_t fp = 0;  ///< fingerprint index; 0 is the base config
  bool cond = false;
  double dt = 0.0;
  double act = 1.0;
};

struct Run {
  Options opt;
  Setup setup;
  ledger::Recorder rec{false};

  std::vector<double> setup_s;  ///< one per lap
  /// Measurement windows of equal work (kWindowOps serve queries or DRM
  /// steps, or one sign-off answer), each the latencies answered in it.
  std::vector<std::vector<double>> windows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::optional<std::vector<std::uint64_t>> first_lap;
  std::size_t laps = 0;

  /// Per-layer values the stages set directly (counts, rates, ratios).
  std::map<std::string, double> layer;
  /// The latest lap's pipeline and sign-off answer, which the MC
  /// reference and the traced run's probes reuse.
  std::unique_ptr<Pipeline> pipeline;
  Answer answer;
  /// Last serve lap's replies, checked against a reference at the end.
  std::vector<std::string> serve_replies;

  /// Closes the current measurement window and opens the next.
  void open_window() { windows.emplace_back(); }
  void op(double seconds) { windows.back().push_back(seconds); }

  /// Records a failed check (the first 20 messages are kept).
  void check(bool ok, const std::string& what) {
    if (!ok && check_failures.size() < 20) check_failures.push_back(what);
  }

  /// Every lap (and every answer within one) must produce bit-identical
  /// outputs.
  void same_every_lap(const std::vector<std::uint64_t>& bits) {
    if (!first_lap) {
      first_lap = bits;
      return;
    }
    check(*first_lap == bits, "outputs differ from the first lap's");
  }
};

std::vector<std::uint64_t> to_bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

// ---------------------------------------------------------------- stages

std::unique_ptr<Pipeline> build_pipeline(Run& run, std::size_t grid,
                                         double ambient_c) {
  auto p = std::make_unique<Pipeline>();
  p->ambient_c = ambient_c;
  {
    Span s(run.rec, "chip.design");
    p->design = chip::make_ev6_design();
  }
  {
    Span s(run.rec, "thermal.fixed_point");
    p->profile = thermal::power_thermal_fixed_point(
        p->design, power::PowerParams{}, thermal_params(ambient_c), 2);
  }
  run.check(p->profile.converged, "power/thermal fixed point degraded");
  {
    Span s(run.rec, "core.problem_build");
    core::ProblemOptions po;
    po.grid_cells_per_side = grid;
    p->problem = std::make_unique<core::ReliabilityProblem>(
        core::ReliabilityProblem::build(p->design, var::VariationBudget{},
                                        model(), p->profile.block_temps_c,
                                        power::PowerParams{}.vdd, po));
  }
  return p;
}

template <typename LifetimeAt>
Pair lifetimes(Run& run, const char* span, LifetimeAt&& lifetime_at) {
  Pair out{};
  for (std::size_t k = 0; k < kTargets.size(); ++k) {
    Span s(run.rec, span);
    out[k] = lifetime_at(kTargets[k]);
  }
  return out;
}

/// st_fast, st_MC (optional), hybrid and guard band, each built and
/// asked for both lifetimes — the analytic half of Table III.
Answer signoff(Run& run, const core::ReliabilityProblem& problem,
               bool with_stmc) {
  Span all(run.rec, "signoff");
  Answer a;
  {
    std::optional<core::AnalyticAnalyzer> fast;
    {
      Span s(run.rec, "core.st_fast_build");
      fast.emplace(problem);
    }
    a.fast = lifetimes(run, "core.st_fast_query",
                       [&](double p) { return fast->lifetime_at(p); });
  }
  if (with_stmc) {
    std::optional<core::StMcAnalyzer> stmc;
    {
      Span s(run.rec, "core.st_mc_build");
      stmc.emplace(problem, core::StMcOptions{.samples = kStMcSamples,
                                              .seed = run.setup.stmc_seed});
    }
    a.stmc = lifetimes(run, "core.st_mc_query",
                       [&](double p) { return stmc->lifetime_at(p); });
  }
  {
    std::optional<core::HybridEvaluator> hybrid;
    {
      Span s(run.rec, "core.hybrid_build");
      hybrid.emplace(problem);
    }
    a.hybrid = lifetimes(run, "core.hybrid_query",
                         [&](double p) { return hybrid->lifetime_at(p); });
  }
  const core::GuardBandAnalyzer guard(problem);
  a.guard = lifetimes(run, "core.guard_query",
                      [&](double p) { return guard.lifetime_at(p); });
  return a;
}

double pct_error(double x, double ref) {
  return 100.0 * std::abs(x - ref) / ref;
}

bool positive(double x) { return std::isfinite(x) && x > 0.0; }

/// The per-device Monte Carlo reference: construction plus both lifetimes
/// (timed), then, untimed, its verdict on the sign-off answer. Agreement
/// is judged in the reference's own units: at each fast method's
/// lifetime, the MC failure probability must lie within kMcSigmas
/// standard errors of the target.
Pair mc_reference(Run& run, const core::ReliabilityProblem& problem,
                  const Answer& a) {
  std::optional<core::MonteCarloAnalyzer> mc;
  Pair life{};
  {
    Span all(run.rec, "mc_reference");
    {
      Span s(run.rec, "core.mc_sample");
      mc.emplace(problem, core::MonteCarloOptions{.chip_samples = kMcChips,
                                                  .seed = run.setup.mc_seed});
    }
    life = lifetimes(run, "core.mc_query",
                     [&](double p) { return mc->lifetime_at(p); });
  }
  for (std::size_t k = 0; k < kTargets.size(); ++k) {
    run.check(positive(life[k]), "non-finite Monte Carlo lifetime");
    const std::pair<const char*, double> methods[] = {
        {"st_fast", a.fast[k]}, {"st_MC", a.stmc[k]}, {"hybrid", a.hybrid[k]}};
    for (const auto& [name, t] : methods) {
      if (!positive(t)) continue;
      const double z = std::abs(mc->failure_probability(t) - kTargets[k]) /
                       mc->failure_std_error(t);
      run.check(z <= kMcSigmas,
                std::string(name) + " lifetime at F = " + fmt17(kTargets[k]) +
                    " is " + std::to_string(z) +
                    " MC standard errors off the target");
    }
    run.check(a.guard[k] < life[k], "guard band is not pessimistic vs MC");
  }
  return life;
}

/// Checks a sign-off answer; returns the number of lifetimes that are not
/// finite and positive.
std::uint64_t check_signoff(Run& run, const Answer& a) {
  std::uint64_t bad = 0;
  for (std::size_t k = 0; k < kTargets.size(); ++k) {
    for (double x : {a.fast[k], a.hybrid[k], a.guard[k]}) bad += !positive(x);
    if (!std::isnan(a.stmc[k])) bad += !positive(a.stmc[k]);
    // The hybrid tables interpolate st_fast's own block integrals.
    run.check(pct_error(a.hybrid[k], a.fast[k]) <= kHybridAgreementPct,
              "hybrid and st_fast disagree by more than 1%");
    run.check(a.guard[k] < a.fast[k], "guard band is not pessimistic");
  }
  run.check(bad == 0, "non-finite or non-positive lifetime");
  return bad;
}

/// Table III accuracy: the worst error of st_fast, st_MC and hybrid
/// against MC over both targets.
void record_accuracy(Run& run, const Answer& a, const Pair& mc) {
  double worst = 0.0;
  for (std::size_t k = 0; k < kTargets.size(); ++k)
    for (double x : {a.fast[k], a.stmc[k], a.hybrid[k]})
      if (!std::isnan(x)) worst = std::max(worst, pct_error(x, mc[k]));
  run.layer["table3.max_err_pct"] = worst;
}

/// Extra calls that expose layers the pipeline runs internally: the
/// leakage-aware power estimate, one SOR solve at the converged power map
/// (its sweep count), and the grid covariance plus its dense eigensolve.
void probe_pipeline_layers(Run& run, const Pipeline& p) {
  power::PowerMap map;
  for (std::size_t i = 0; i < kPowerProbeCalls; ++i) {
    Span s(run.rec, "power.estimate");
    map = power::estimate_power(p.design, power::PowerParams{},
                                p.profile.block_temps_c);
  }
  thermal::SorState sor;
  {
    Span s(run.rec, "thermal.sor_solve");
    (void)thermal::solve_thermal(p.design, map, thermal_params(p.ambient_c),
                                 &sor);
  }
  run.layer["thermal.sor_sweeps"] = static_cast<double>(sor.iterations);
  la::Matrix cov;
  {
    Span s(run.rec, "variation.covariance");
    cov = var::build_covariance(p.problem->grid(), p.problem->budget(),
                                p.problem->options().rho_dist);
  }
  {
    Span s(run.rec, "linalg.eigen");
    (void)la::eigen_symmetric(cov);
  }
  run.layer["variation.pc_count"] =
      static_cast<double>(p.problem->canonical().pc_count());
}

// ------------------------------------------------------------------ serve

Config serve_config(std::size_t grid) {
  Config cfg;
  cfg.set("design", "c6");
  cfg.set("grid", std::to_string(grid));
  return cfg;
}

/// The closed-loop query mix. It is synthetic: the repository has no
/// measured query log. Each query is drawn independently, on a uniformly
/// drawn fingerprint: with probability 0.85 a plain `t=` query, t uniform
/// over 1-30 years; otherwise an operating-corner query at such a t,
/// `cond.dt` uniform over [-10, 10] C and `cond.act` uniform over {0.5,
/// 0.6, ..., 1.1}.
std::vector<ServeQuery> make_serve_mix(std::uint64_t seed, std::size_t n,
                                       std::size_t fingerprints) {
  stats::Rng rng(seed ^ 0x5e7e5e7e5e7e5e7eull);
  std::vector<ServeQuery> mix(n);
  for (std::size_t i = 0; i < n; ++i) {
    ServeQuery& q = mix[i];
    q.fp = rng.below(fingerprints);
    q.t = rng.uniform(1.0, 30.0) * kYear;
    q.cond = rng.uniform() < kServeCondShare;
    if (q.cond) {
      q.dt = rng.uniform(-10.0, 10.0);
      q.act = 0.5 + 0.1 * static_cast<double>(rng.below(7));
    }
    q.line = "id=q" + std::to_string(i) + " t=" + fmt17(q.t);
    if (q.fp > 0)
      q.line += " set.ambient_c=" + fmt17(kPaperAmbientC + 5.0 * q.fp);
    if (q.cond)
      q.line += " cond.dt=" + fmt17(q.dt) + " cond.act=" + fmt17(q.act);
  }
  return mix;
}

serve::PendingQuery pending(const std::string& line, Clock::time_point at) {
  serve::PendingQuery q;
  q.request = serve::parse_request(line);
  q.arrival = at;
  return q;
}

bool reply_ok(const std::string& r) {
  const auto f = r.find(" f=");
  if (r.find(" ok=1 ") == std::string::npos || f == std::string::npos ||
      r.find(" degraded=0") == std::string::npos)
    return false;
  const double v = std::strtod(r.c_str() + f + 3, nullptr);
  return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

/// One serve session: engine construction and cold builds (the set-up),
/// an untimed warm-up, the mix as single closed-loop queries, then the
/// mix again in 64-query batches, whose replies must match.
void serve_session(Run& run, const Config& base, std::size_t fingerprints,
                   const std::vector<ServeQuery>& mix, bool as_workload) {
  const auto t0 = Clock::now();
  std::optional<serve::QueryEngine> engine;
  {
    Span s(run.rec, "serve.engine");
    engine.emplace(base, serve::EngineOptions{});
  }
  for (std::size_t k = 0; k < fingerprints; ++k) {
    Span s(run.rec, "serve.cold_build");
    std::string line = "id=cold t=" + fmt17(kYear);
    if (k > 0) line += " set.ambient_c=" + fmt17(kPaperAmbientC + 5.0 * k);
    const auto r = engine->evaluate({pending(line, Clock::now())});
    run.check(r.size() == 1 && reply_ok(r[0]), "cold build failed");
  }
  if (as_workload) run.setup_s.push_back(since(t0));

  for (std::size_t i = 0; i < std::min(kServeWarmup, mix.size()); ++i)
    (void)engine->evaluate({pending(mix[i].line, Clock::now())});

  std::vector<std::string> single(mix.size());
  std::uint64_t cond_queries = 0;
  const serve::EngineStats before = engine->stats();
  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (as_workload && i % kWindowOps == 0) run.open_window();
    const auto a = Clock::now();
    serve::PendingQuery q;
    {
      Span s(run.rec, "serve.parse");
      q = pending(mix[i].line, a);
    }
    std::vector<std::string> r;
    {
      Span s(run.rec, mix[i].cond ? "serve.evaluate_cond"
                                  : "serve.evaluate_plain");
      r = engine->evaluate({q});
    }
    if (as_workload) run.op(since(a));
    ++run.attempted;
    cond_queries += mix[i].cond;
    const bool ok = r.size() == 1 && reply_ok(r[0]);
    run.failed += !ok;
    if (ok) single[i] = std::move(r[0]);
  }
  run.check(engine->stats().errors == before.errors &&
                engine->stats().degraded == before.degraded,
            "serve answered with an error or a degraded reply");

  double batch_s = 0.0;
  std::vector<serve::PendingQuery> batch;
  for (std::size_t i = 0; i < mix.size(); i += kServeBatch) {
    const std::size_t end = std::min(mix.size(), i + kServeBatch);
    const auto a = Clock::now();
    Span s(run.rec, "serve.evaluate_batch");
    batch.clear();
    for (std::size_t j = i; j < end; ++j)
      batch.push_back(pending(mix[j].line, a));
    const auto r = engine->evaluate(batch);
    batch_s += since(a);
    bool same = r.size() == end - i;
    for (std::size_t j = i; same && j < end; ++j) same = r[j - i] == single[j];
    run.check(same, "batched replies differ from single-query replies");
  }

  const serve::CacheStats& cs = engine->cache().stats();
  run.layer["serve.batch_qps"] = static_cast<double>(mix.size()) / batch_s;
  run.layer["serve.cond_share"] =
      static_cast<double>(cond_queries) / static_cast<double>(mix.size());
  run.layer["serve.cache_hit_rate"] =
      static_cast<double>(cs.hits + cs.disk_hits) /
      static_cast<double>(cs.hits + cs.disk_hits + cs.misses);
  run.layer["serve.incremental_hit_ratio"] =
      cond_queries == 0
          ? 0.0
          : static_cast<double>(engine->stats().incremental_hits -
                                before.incremental_hits) /
                static_cast<double>(cond_queries);
  if (as_workload) {
    std::uint64_t h = kFnvBasis;
    for (const auto& r : single) h = fnv1a(h, r.data(), r.size());
    run.same_every_lap({h});
    run.serve_replies = std::move(single);
  }
}

/// Recomputes the base-fingerprint answers from the public evaluators the
/// engine is built on (same pipeline, default 100x100 tables): plain
/// queries through HybridEvaluator, cond.* corners through a fresh
/// ConditionEvaluator. The engine's replies must match bit for bit.
void check_serve_reference(Run& run, const Pipeline& base,
                           const std::vector<ServeQuery>& mix) {
  const core::HybridEvaluator hybrid(*base.problem);
  core::ConditionEvaluator corner(hybrid);
  std::size_t checked = 0;
  bool all_equal = true;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (mix[i].fp != 0 || run.serve_replies[i].empty()) continue;
    double f = 0.0;
    if (mix[i].cond) {
      corner.set_corner(mix[i].dt, power::PowerParams{}.vdd, mix[i].act);
      f = corner.evaluate(mix[i].t);
    } else {
      f = hybrid.failure_probability(mix[i].t);
    }
    const std::string& r = run.serve_replies[i];
    all_equal &= std::strtod(r.c_str() + r.find(" f=") + 3, nullptr) == f;
    ++checked;
  }
  run.check(checked > 0 && all_equal,
            "serve replies differ from the reference evaluators");
}

// -------------------------------------------------------------------- drm

std::vector<drm::OperatingPoint> drm_ladder() {
  return {{"eco", 1.00, 1.2e9}, {"mid", 1.10, 1.7e9}, {"turbo", 1.20, 2.1e9}};
}

/// Workload activity, synthetic (the repository has no measured DRM
/// trace): a seeded standard-normal AR(1) path with coefficient kDrmPhi,
/// mapped through the normal CDF onto [kDrmLow, kDrmHigh] and quantized
/// to 0.01. No level is favoured (the marginal is uniform), and the path
/// keeps a correlation time of about ten steps. Its 71 levels exceed the
/// manager's 64-entry per-rung conditions memo, so the steps on levels a
/// rung's memo has no room for pay thermal solves.
std::vector<double> make_drm_trace(std::uint64_t seed, std::size_t steps) {
  const double innovation = std::sqrt(1.0 - kDrmPhi * kDrmPhi);
  stats::Rng rng(seed ^ 0xd7a3d7a3d7a3d7a3ull);
  double z = 0.0;
  std::vector<double> trace(steps);
  for (double& a : trace) {
    z = kDrmPhi * z + innovation * rng.normal();
    const double u = 0.5 * std::erfc(-z / std::sqrt(2.0));
    a = std::round(100.0 * (kDrmLow + (kDrmHigh - kDrmLow) * u)) / 100.0;
  }
  return trace;
}

/// Builds a fresh manager on `problem` and replays `trace` through it.
/// Returns the bits of the final damage state plus a digest of the rung
/// choices, which are deterministic for a given trace.
std::vector<std::uint64_t> drm_session(Run& run,
                                       const core::ReliabilityProblem& problem,
                                       const std::vector<double>& trace,
                                       bool as_workload, double setup_so_far) {
  drm::DrmOptions opts;
  opts.control_interval_s =
      opts.lifetime_target_s / static_cast<double>(trace.size());
  const auto t0 = Clock::now();
  std::optional<drm::ReliabilityManager> mgr;
  {
    Span s(run.rec, "drm.manager_ctor");
    mgr.emplace(problem, model(), drm_ladder(), opts);
  }
  if (as_workload) run.setup_s.push_back(setup_so_far + since(t0));

  std::uint64_t rungs = kFnvBasis;
  std::uint64_t dirty = 0;
  double last_damage = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (as_workload && i % kWindowOps == 0) run.open_window();
    const double activity = trace[i];
    const std::uint64_t misses = mgr->conditions_cache_misses();
    const auto a = Clock::now();
    drm::DrmStep st;
    {
      Span s(run.rec, "drm.step");
      st = mgr->step(activity);
      s.rename(mgr->conditions_cache_misses() == misses ? "drm.step_hit"
                                                        : "drm.step_miss");
    }
    if (as_workload) run.op(since(a));
    ++run.attempted;
    const bool ok = !st.degraded && std::isfinite(st.damage) &&
                    st.damage >= last_damage;
    run.failed += !ok;
    last_damage = st.damage;
    dirty += st.dirty_blocks;
    rungs = fnv1a(rungs, &st.op_index, sizeof st.op_index);
  }
  const double hits = static_cast<double>(mgr->conditions_cache_hits());
  run.layer["drm.memo_hit_rate"] =
      hits / (hits + static_cast<double>(mgr->conditions_cache_misses()));
  run.layer["drm.dirty_blocks_per_step"] =
      static_cast<double>(dirty) / static_cast<double>(trace.size());

  std::vector<std::uint64_t> out = to_bits(mgr->damage_state());
  out.push_back(rungs);
  return out;
}

// ------------------------------------------------------------------- laps

void signoff_lap(Run& run) {
  const bool ev6 = run.opt.kind == Kind::kSignoffEv6;
  const auto t0 = Clock::now();
  run.pipeline =
      build_pipeline(run, run.setup.grid, run.setup.ambient_c);
  run.setup_s.push_back(since(t0));

  for (std::size_t k = 0; k < run.opt.info->answers; ++k) {
    run.open_window();
    const auto t1 = Clock::now();
    // st_MC at the fine grid's 900+ principal components costs ~5 s and
    // measures nothing the PCA-bound fine-grid workload is for.
    const Answer a = signoff(run, *run.pipeline->problem, ev6);
    run.op(since(t1));
    ++run.attempted;
    run.failed += check_signoff(run, a) > 0;

    std::vector<double> out;
    for (const Pair* p : {&a.fast, &a.stmc, &a.hybrid, &a.guard})
      out.insert(out.end(), p->begin(), p->end());
    run.same_every_lap(to_bits(out));
    run.answer = a;
  }
}

void serve_lap(Run& run, const std::vector<ServeQuery>& mix) {
  serve_session(run, serve_config(kPaperGrid), kServeFingerprints, mix, true);
}

void drm_lap(Run& run, const std::vector<double>& trace) {
  const auto t0 = Clock::now();
  run.pipeline = build_pipeline(run, run.setup.grid, run.setup.ambient_c);
  const double pipeline_s = since(t0);
  run.same_every_lap(
      drm_session(run, *run.pipeline->problem, trace, true, pipeline_s));
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  ///< sample count and spread, for the record
};

/// A median with its quartiles and sample count, for the record.
Metric median_metric(const char* name, const std::vector<double>& xs,
                     double scale, const char* unit) {
  const ledger::Summary s = ledger::summarize(xs);
  std::ostringstream os;
  os.precision(17);
  os << "\"n\": " << s.n << ", \"q1\": " << s.q1 * scale
     << ", \"q3\": " << s.q3 * scale;
  return {name, s.median * scale, unit, os.str()};
}

/// The fastest window's statistic (the smallest latency or the largest
/// rate), with the median and quartiles over all windows for the record.
Metric fastest_window_metric(const char* name, const std::vector<double>& xs,
                             double scale, const char* unit,
                             bool lower_is_faster, std::size_t samples) {
  const ledger::Summary s = ledger::summarize(xs);
  std::ostringstream os;
  os.precision(17);
  os << "\"windows\": " << s.n << ", \"samples\": " << samples
     << ", \"window_median\": " << s.median * scale
     << ", \"window_q1\": " << s.q1 * scale
     << ", \"window_q3\": " << s.q3 * scale;
  const double fastest = lower_is_faster
                             ? *std::min_element(xs.begin(), xs.end())
                             : *std::max_element(xs.begin(), xs.end());
  return {name, scale * fastest, unit, os.str()};
}

/// Latencies and rate come from measurement windows of equal work (1000
/// serve queries or DRM steps, or one sign-off answer): each window's
/// nearest-rank p50 and p99 (a 1000-operation window has ten samples
/// beyond its p99) and its operations per second. Every window is kept,
/// and the reported value is the fastest window's. On a shared host,
/// neighbours slow every operation of a window alike, by up to ~1.7x for
/// spells of a fraction of a second to minutes; the fastest window moves
/// only when such spells cover the whole run, while a slower commit moves
/// every window. This is the reasoning behind Python's timeit reporting
/// the minimum of its repeats. The run's work is fixed, so both commits
/// of a comparison take the minimum over the same number of windows.
std::vector<Metric> end_to_end_metrics(const Run& run) {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rate;
  std::size_t samples = 0;
  for (const std::vector<double>& w : run.windows) {
    p50.push_back(ledger::nearest_rank(w, 50.0));
    p99.push_back(ledger::nearest_rank(w, 99.0));
    rate.push_back(static_cast<double>(w.size()) /
                   std::accumulate(w.begin(), w.end(), 0.0));
    samples += w.size();
  }
  return {median_metric("setup_s", run.setup_s, 1.0, "s"),
          fastest_window_metric("p50_ms", p50, 1e3, "ms", true, samples),
          fastest_window_metric("p99_ms", p99, 1e3, "ms", true, samples),
          fastest_window_metric("ops_per_s", rate, 1.0, "1/s", false, samples),
          {"peak_rss_mb", ledger::peak_rss_mb(), "MiB", ""}};
}

std::vector<Metric> per_layer_metrics(const Run& run, double overhead_pct,
                                      const par::PoolStats& pool,
                                      double pool_wall_s) {
  const auto tallies = run.rec.tallies();
  const auto mean = [&](const char* span) {
    const auto it = tallies.find(span);
    return it == tallies.end() ? 0.0 : it->second.mean_s;
  };
  const auto layer = [&](const char* key) {
    const auto it = run.layer.find(key);
    return it == run.layer.end() ? 0.0 : it->second;
  };
  std::vector<Metric> m;
  const auto timed = [&](const char* name, const char* span, double scale,
                         const char* unit) {
    m.push_back({name, mean(span) * scale, unit, ""});
  };
  timed("chip.design_s", "chip.design", 1.0, "s");
  timed("power.estimate_us", "power.estimate", 1e6, "us");
  timed("thermal.fixed_point_s", "thermal.fixed_point", 1.0, "s");
  m.push_back({"thermal.sor_sweeps", layer("thermal.sor_sweeps"), "count", ""});
  timed("variation.covariance_s", "variation.covariance", 1.0, "s");
  timed("linalg.eigen_s", "linalg.eigen", 1.0, "s");
  m.push_back({"variation.pc_count", layer("variation.pc_count"), "count", ""});
  timed("core.problem_build_s", "core.problem_build", 1.0, "s");
  timed("core.st_fast_build_s", "core.st_fast_build", 1.0, "s");
  timed("core.st_fast_query_us", "core.st_fast_query", 1e6, "us");
  timed("core.st_mc_build_s", "core.st_mc_build", 1.0, "s");
  timed("core.st_mc_query_us", "core.st_mc_query", 1e6, "us");
  timed("core.hybrid_build_s", "core.hybrid_build", 1.0, "s");
  timed("core.hybrid_query_us", "core.hybrid_query", 1e6, "us");
  timed("core.guard_query_us", "core.guard_query", 1e6, "us");
  timed("core.mc_sample_s", "core.mc_sample", 1.0, "s");
  timed("core.mc_query_s", "core.mc_query", 1.0, "s");

  // Table III speedups. Base: the MC reference's construction plus both
  // lifetime queries at 200 chips, over the method's construction plus
  // both queries (hybrid_query: the two table queries alone).
  const double n = static_cast<double>(kTargets.size());
  const double mc = mean("core.mc_sample") + n * mean("core.mc_query");
  const double hyb_q = n * mean("core.hybrid_query");
  m.push_back({"table3.speedup_st_fast",
               mc / (mean("core.st_fast_build") + n * mean("core.st_fast_query")),
               "x", ""});
  m.push_back({"table3.speedup_st_mc",
               mc / (mean("core.st_mc_build") + n * mean("core.st_mc_query")),
               "x", ""});
  m.push_back({"table3.speedup_hybrid_query", mc / hyb_q, "x", ""});
  m.push_back({"table3.speedup_hybrid_with_build",
               mc / (mean("core.hybrid_build") + hyb_q), "x", ""});
  m.push_back({"table3.max_err_pct", layer("table3.max_err_pct"), "%", ""});

  timed("serve.cold_build_s", "serve.cold_build", 1.0, "s");
  timed("serve.parse_us", "serve.parse", 1e6, "us");
  timed("serve.evaluate_plain_us", "serve.evaluate_plain", 1e6, "us");
  timed("serve.evaluate_cond_us", "serve.evaluate_cond", 1e6, "us");
  m.push_back({"serve.batch_qps", layer("serve.batch_qps"), "1/s", ""});
  m.push_back({"serve.cache_hit_rate", layer("serve.cache_hit_rate"), "ratio", ""});
  m.push_back({"serve.incremental_hit_ratio",
               layer("serve.incremental_hit_ratio"), "ratio", ""});

  timed("drm.manager_ctor_s", "drm.manager_ctor", 1.0, "s");
  timed("drm.step_hit_us", "drm.step_hit", 1e6, "us");
  timed("drm.step_miss_us", "drm.step_miss", 1e6, "us");
  m.push_back({"drm.memo_hit_rate", layer("drm.memo_hit_rate"), "ratio", ""});
  m.push_back({"drm.dirty_blocks_per_step", layer("drm.dirty_blocks_per_step"),
               "count", ""});

  m.push_back({"par.regions", static_cast<double>(pool.regions), "count", ""});
  m.push_back({"par.chunks", static_cast<double>(pool.chunks), "count", ""});
  m.push_back({"par.busy_s", pool.busy_seconds, "s", ""});
  m.push_back({"par.wait_s", pool.wait_seconds, "s", ""});
  m.push_back({"par.utilization",
               pool.busy_seconds /
                   (static_cast<double>(par::thread_count()) * pool_wall_s),
               "ratio", ""});
  m.push_back({"trace.overhead_pct", overhead_pct, "%", ""});
  return m;
}

// ------------------------------------------------------------------ runs

struct Inputs {
  std::vector<ServeQuery> mix;
  std::vector<double> trace;
};

void lap(Run& run, const Inputs& in) {
  switch (run.opt.kind) {
    case Kind::kSignoffEv6:
    case Kind::kSignoffFineGrid:
      signoff_lap(run);
      break;
    case Kind::kServeMixed:
      serve_lap(run, in.mix);
      break;
    case Kind::kDrmReplay:
      drm_lap(run, in.trace);
      break;
  }
  ++run.laps;
}

/// The serve workload's base pipeline, as the engine builds it.
std::unique_ptr<Pipeline> serve_base_pipeline(Run& run) {
  return build_pipeline(run, kPaperGrid, kPaperAmbientC);
}

void timed_run(Run& run, const Inputs& in) {
  const auto t0 = Clock::now();
  while (run.laps < run.opt.info->laps &&
         (run.laps == 0 || since(t0) < kGuardFactor * run.opt.seconds))
    lap(run, in);
  // The MC reference judges the sign-off answer once per run; its cost
  // is a per-layer metric, not part of any lap.
  if (run.opt.kind == Kind::kSignoffEv6)
    record_accuracy(run, run.answer,
                    mc_reference(run, *run.pipeline->problem, run.answer));
  if (run.opt.kind == Kind::kServeMixed)
    check_serve_reference(run, *serve_base_pipeline(run), in.mix);
}

std::vector<Metric> traced_run(Run& run, const Inputs& in) {
  const auto timed_lap = [&](bool traced) {
    run.rec.set_enabled(traced);
    const auto t0 = Clock::now();
    lap(run, in);
    return since(t0);
  };
  const double untraced_a = timed_lap(false);
  par::reset_stats();
  const double traced = timed_lap(true);
  const par::PoolStats pool = par::stats();
  const double untraced_b = timed_lap(false);
  const double overhead_pct =
      100.0 * (traced / (0.5 * (untraced_a + untraced_b)) - 1.0);

  // The layer probes, then every stage the workload does not run, once,
  // on the workload's own problem.
  run.rec.set_enabled(true);
  const Kind kind = run.opt.kind;
  if (!run.pipeline) run.pipeline = serve_base_pipeline(run);
  const Pipeline& p = *run.pipeline;
  probe_pipeline_layers(run, p);
  if (kind != Kind::kSignoffEv6) {
    run.answer = signoff(run, *p.problem, true);
    run.failed += check_signoff(run, run.answer) > 0;
  }
  record_accuracy(run, run.answer,
                  mc_reference(run, *p.problem, run.answer));
  if (kind == Kind::kServeMixed) {
    check_serve_reference(run, p, in.mix);
  } else {
    Config cfg = serve_config(p.problem->grid().cells_per_side());
    cfg.set("ambient_c", fmt17(run.setup.ambient_c));
    serve_session(run, cfg, 1,
                  make_serve_mix(run.opt.seed, kProbeQueries, 1), false);
  }
  if (kind != Kind::kDrmReplay)
    (void)drm_session(run, *p.problem,
                      make_drm_trace(run.opt.seed, kProbeSteps), false, 0.0);
  return per_layer_metrics(run, overhead_pct, pool, traced);
}

// ------------------------------------------------------------------ output

std::string json_number(double v) {
  return std::isfinite(v) ? fmt17(v) : "null";
}

std::string host_json(const Options& o) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);)
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  std::ostringstream os;
  os << "{\"cpu\": \"" << cpu << "\", \"nproc\": "
     << std::thread::hardware_concurrency()
     << ", \"pool_threads\": " << par::thread_count() << ", \"simd\": \""
     << simd::to_string(simd::active_level()) << "\", \"simd_kernels\": {";
  const std::pair<const char*, simd::KernelId> kernels[] = {
      {"fill_bin_factors", simd::KernelId::kFillBinFactors},
      {"dot_counts", simd::KernelId::kDotCounts},
      {"normal_cdf_batch", simd::KernelId::kNormalCdfBatch},
      {"matmul", simd::KernelId::kMatmul},
      {"matvec", simd::KernelId::kMatvec},
      {"gram_aat", simd::KernelId::kGramAat},
      {"clenshaw_batch", simd::KernelId::kClenshawBatch}};
  for (std::size_t i = 0; i < std::size(kernels); ++i)
    os << (i ? ", " : "") << "\"" << kernels[i].first << "\": \""
       << simd::to_string(simd::kernel_level(kernels[i].second)) << "\"";
  os << "}, \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
     << LEDGER_BUILD_TYPE << "\", \"commit\": \"" << o.commit << "\"}";
  return os.str();
}

/// Returns false when a file cannot be written.
bool write_record(const Run& run, const std::vector<Metric>& metrics,
                  bool correct) {
  const std::string base = run.opt.out_dir + "/" + run.opt.workload + "-seed" +
                           std::to_string(run.opt.seed) +
                           (run.opt.trace ? "-trace" : "");
  std::ofstream out(base + ".json");
  out << "{\"workload\": \"" << run.opt.workload
      << "\", \"seed\": " << run.opt.seed
      << ", \"trace\": " << (run.opt.trace ? 1 : 0)
      << ", \"laps\": " << run.laps
      << ", \"laps_planned\": " << run.opt.info->laps << ", \"correct\": "
      << (correct ? "true" : "false") << ", \"attempted\": " << run.attempted
      << ", \"failed\": " << run.failed;
  // Digest of the first lap's deterministic outputs (lifetimes, reply
  // bytes, damage state): equal seeds must give equal digests on every
  // host and commit that does not change the numerics.
  std::uint64_t digest = kFnvBasis;
  for (const std::uint64_t bits : run.first_lap.value_or(
           std::vector<std::uint64_t>{}))
    digest = fnv1a(digest, &bits, sizeof bits);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  out << ", \"outputs_digest\": \"" << hex << "\", \"check_failures\": [";
  for (std::size_t i = 0; i < run.check_failures.size(); ++i)
    out << (i ? ", " : "") << "\"" << run.check_failures[i] << "\"";
  // Measured shares and counts of the run (query classes, memo hits,
  // accuracy), whether or not it reports them as metrics.
  out << "],\n \"measured\": {";
  for (auto it = run.layer.begin(); it != run.layer.end(); ++it)
    out << (it == run.layer.begin() ? "" : ", ") << "\"" << it->first
        << "\": " << json_number(it->second);
  out << "},\n \"host\": " << host_json(run.opt) << ",\n \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i ? ",\n  " : "\n  ") << "\"" << m.name
        << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
        << m.unit << "\"" << (m.detail.empty() ? "" : ", ") << m.detail
        << "}";
  }
  out << "}}\n";
  out.close();
  return static_cast<bool>(out) &&
         (!run.opt.trace || run.rec.write_chrome_trace(base + ".trace.json"));
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have[4] = {false, false, false, false};
  const auto usage = [](const char* why) {
    std::fprintf(stderr,
                 "pipeline_ledger: %s\nusage: pipeline_ledger --workload "
                 "<signoff_ev6|signoff_fine_grid|serve_mixed|drm_replay> "
                 "--seed <n> --seconds <n> --trace <0|1> [--out <dir>] "
                 "[--commit <id>]\n",
                 why);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto* w = std::find_if(
          std::begin(kWorkloads), std::end(kWorkloads),
          [&](const WorkloadInfo& x) { return value == x.name; });
      if (w == std::end(kWorkloads))
        usage(("unknown workload '" + value + "'").c_str());
      o.info = w;
      o.kind = w->kind;
      o.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      o.seed = ledger::parse_count_or_exit("--seed", value, 0, UINT64_MAX);
      have[1] = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(
          ledger::parse_count_or_exit("--seconds", value, 1, 3600));
      have[2] = true;
    } else if (flag == "--trace") {
      o.trace = ledger::parse_count_or_exit("--trace", value, 0, 1) == 1;
      have[3] = true;
    } else if (flag == "--out") {
      o.out_dir = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    usage("--workload, --seed, --seconds and --trace are required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  run.opt = parse_args(argc, argv);
  run.setup = make_setup(run.opt);
  // Every parallel region runs inline on this thread. With pool workers,
  // par::Pool::leave drops a region's `active` count before it locks the
  // region's mutex, so a late worker can lock a mutex on a stack frame
  // its caller has already left. On a loaded 4-vCPU host that crashed one
  // serve_mixed run in sixty, and a loop of tiny regions crashes within
  // about a million of them.
  par::set_threads(1);

  Inputs in;
  if (run.opt.kind == Kind::kServeMixed)
    in.mix = make_serve_mix(run.opt.seed, kServeQueries, kServeFingerprints);
  if (run.opt.kind == Kind::kDrmReplay)
    in.trace = make_drm_trace(run.opt.seed, kDrmSteps);

  std::vector<Metric> metrics;
  try {
    if (run.opt.trace) {
      metrics = traced_run(run, in);
    } else {
      timed_run(run, in);
      metrics = end_to_end_metrics(run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_ledger: %s failed: %s\n",
                 run.opt.workload.c_str(), e.what());
    return 1;
  }

  const bool correct = run.check_failures.empty() && run.failed == 0;
  for (const auto& f : run.check_failures)
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  for (const Metric& m : metrics)
    std::printf("metric %s %s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  if (!run.opt.out_dir.empty() && !write_record(run, metrics, correct)) {
    std::fprintf(stderr, "pipeline_ledger: cannot write the record into %s\n",
                 run.opt.out_dir.c_str());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), json_number(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
  std::printf("}}\n");
  return correct ? 0 : 1;
}
