// obdrel command-line frontend.
//
// Usage:
//   obdrel analyze <config>     full statistical reliability analysis
//   obdrel report  <config>     complete sign-off report (ranking, leakage)
//   obdrel thermal <config>     power + thermal profile only
//   obdrel lut build <config> <out-file>    precompute hybrid LUTs
//   obdrel lut query <config> <lut-file> <t_seconds>
//   obdrel drm run <config> <telemetry.csv|->  crash-safe DRM service loop
//   obdrel fleet <config> --chips N --shards K  crash-tolerant sharded
//                                               fleet F(t) sweep
//   obdrel serve <config> [--socket <path> | --stdin]  overload-safe
//                                               reliability query daemon
//   obdrel help | --help | -h   print usage to stdout, exit 0
//   obdrel <cmd> help           same, for every subcommand
//
// Global flags:
//   --strict      escalate degraded results to errors (exit code 6)
//   --threads <n> worker threads for the shared analysis pool
//                 (0 = auto-detect; overrides OBDREL_THREADS and the
//                 `threads` config key)
//   --checkpoint-dir <dir>   durable DRM state directory (drm run)
//   --resume                 recover DRM state from the checkpoint dir
//   --checkpoint-every <n>   steps between snapshots (default 16)
//
// Fault injection (testing): set OBDREL_FAULTS or the `faults` config key
// to a spec like "thermal.sor,drm.thermal:3" (see docs/ROBUSTNESS.md).
//
// Exit codes follow the obd::ErrorCode taxonomy:
//   0 success   1 internal   2 config/usage   3 io   4 invalid input
//   5 numerical nonconvergence   6 degraded under --strict
//
// Config keys (key = value, '#' comments):
//   design        c1..c6 | ev6 | manycore | path to a HotSpot .flp
//   device_density  devices per mm^2 for .flp designs   (default 3000)
//   vdd           supply voltage [V]                    (default 1.2)
//   rho_dist      normalized correlation distance        (default 0.5)
//   grid          correlation grid cells per side        (default 25)
//   ambient_c     ambient temperature [C]                (default 45)
//   variance_capture  PCA truncation share in (0, 1]     (default 0.999)
//   methods       any of: st_fast st_mc hybrid guard mc  (default all)
//   mc_chips      Monte Carlo sample chips               (default 500)
//   device_sampling   per_device | binned (MC sampler)   (default per_device)
//   targets       failure-quantile list                  (default 1e-6 1e-5)
//   strict        bool: same as --strict                 (default false)
//   threads       shared-pool worker threads             (default auto)
//   simd          auto | avx2 | scalar                   (default auto)
//                 SIMD dispatch level (overrides the OBDREL_SIMD
//                 environment variable)
//   thermal_sweep lexicographic | redblack SOR order     (default lexicographic)
//   faults        fault-injection spec (testing only)
//   mechanisms    comma list: oxide[,nbti][,em][,hci]    (default oxide)
//                 competing-risks failure mechanisms; oxide is the paper's
//                 base model and must always be listed
//   redundancy    spare groups "grp:blk1+blk2:spares,..." (default none)
//   mech_tref_c / mech_vref    aging reference conditions (default 100 / 1.2)
//   {nbti,em,hci}_t50_years    median TTF at reference    (default 28/45/55)
//   {nbti,em,hci}_sigma        lognormal shape            (default .35/.45/.4)
//   {nbti,em,hci}_ea_ev        Arrhenius activation [eV]  (default .18/.9/-.05)
//   {nbti,em,hci}_gamma_v      voltage acceleration [1/V] (default 10/2/15)
//   {nbti,em,hci}_activity_exp activity power-law exponent (default .5/2/1)
//
// Fleet config keys (obdrel fleet):
//   seed              per-chip RNG stream base seed      (default 99)
//   mc_bins           thickness histogram bins           (default 512)
//   device_sampling   per_device | binned                (default binned)
//   fleet_points      sweep points, log-spaced           (default 8)
//   fleet_t_min_years sweep start [years]                (default 1)
//   fleet_t_max_years sweep end [years]                  (default 20)
//   fleet_times_years explicit sweep times [years] (overrides the above)
//   fleet_corners     "dt:vdd:act,..." operating corners appended to the
//                     report as an F(t) sweep; `surrogate on` answers them
//                     through the certified Chebyshev fast path
//
// Fleet flags: --chips N (required), --shards K (default 4),
//   --fleet-dir <dir> (default fleet.state), --max-restarts <n>,
//   --backoff-ms / --backoff-cap-ms, --stale-ms, --heartbeat-ms,
//   --poll-ms, --fleet-parallel <n>, and the chaos-harness knobs
//   --chaos-kill/--chaos-stop <rate>, --chaos-stop-ms, --chaos-seed.
//   --worker <k> is the hidden worker-mode entry the supervisor uses.
//   Workers never receive --strict: strictness is supervisor policy
//   (degraded exit after the report), not a reason to kill workers.
//
// Serve config keys (obdrel serve; flags of the same name win):
//   serve_socket      unix socket path                   (default obdrel.sock)
//   serve_stdin       bool: serve stdin -> stdout        (default false)
//   serve_cache_dir   durable table-cache directory      (default off)
//   serve_cache_mb    memory-tier cache budget [MiB]     (default 256)
//   serve_queue       admission queue bound              (default 1024)
//   serve_batch       queries coalesced per batch        (default 64)
//   serve_deadline_ms default per-request deadline, 0=off (default 0)
//   serve_n_gamma / serve_n_b   served-table dimensions  (default 100)
//
// Surrogate fast path (obdrel serve and the fleet corner sweep):
//   surrogate         bool: certified Chebyshev F(t) tier (default off)
//   surrogate_tol     certified max-relative-error bound  (default 1e-4)
//   surrogate_dt_c / surrogate_dvdd   domain half-widths  (12 C / 0.08 V)
//   surrogate_act_lo / surrogate_act_hi  activity box     (0.5 / 1.5)
//   surrogate_t_min_years / surrogate_t_max_years  t box  (0.5 / 40)
//   surrogate_n_t / surrogate_n_t_aging / surrogate_n_dt /
//     surrogate_n_vdd / surrogate_n_act   CGL node counts (15/25/13/11/9)
//   surrogate_fit_n_gamma / surrogate_fit_n_b  fit-reference table
//                                               resolution (256 / 128)
//   surrogate_probes  low-discrepancy certification probes (default 512)
//
// DRM-run config keys (obdrel drm run):
//   ladder        DVFS rungs `name:vdd:freq,...` slow->fast
//                 (default eco:1.0:1.2e9,mid:1.1:1.7e9,turbo:1.25:2.3e9)
//   lifetime_years      end-of-life target [years]       (default 10)
//   failure_budget      end-of-life failure budget       (default 1e-5)
//   control_interval_s  wall-clock per step [s]          (default 30 days)
//   max_activity        telemetry plausibility clamp     (default 2)
//   step_deadline_ms    watchdog deadline per step, 0=off (default 0)
//   checkpoint_every    steps between snapshots          (default 16)
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/config.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/parallel.hpp"
#include "common/stopwatch.hpp"
#include "core/analytic.hpp"
#include "core/guardband.hpp"
#include "core/hybrid.hpp"
#include "core/lifetime.hpp"
#include "core/montecarlo.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "drm/manager.hpp"
#include "drm/runtime.hpp"
#include "fleet/shard.hpp"
#include "fleet/supervisor.hpp"
#include "core/condition_eval.hpp"
#include "mech/spec.hpp"
#include "power/power.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "surrogate/surrogate.hpp"
#include "simd/dispatch.hpp"

namespace {

using namespace obd;

constexpr double kYear = 365.25 * 24.0 * 3600.0;

// Graceful-shutdown flag: SIGINT/SIGTERM request an orderly stop — the DRM
// loop flushes a final snapshot and the fleet supervisor kills its workers
// and merges whatever is durable. Either way the state directory resumes.
volatile std::sig_atomic_t g_signal = 0;

extern "C" void on_shutdown_signal(int) { g_signal = 1; }

void install_shutdown_handlers() {
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
}

// Validating replacement for the old bare std::stod(t_arg): a non-numeric
// or non-positive <t_seconds> names the offending argument instead of
// surfacing as "error: stod".
double parse_time_seconds(const std::string& arg) {
  double t = 0.0;
  try {
    std::size_t pos = 0;
    t = std::stod(arg, &pos);
    require(pos == arg.size(), ErrorCode::kConfig,
            "lut query: trailing characters in <t_seconds> argument '" +
                arg + "'");
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error("lut query: <t_seconds> argument '" + arg +
                    "' is not a number",
                ErrorCode::kConfig);
  }
  require(std::isfinite(t) && t > 0.0, ErrorCode::kConfig,
          "lut query: <t_seconds> must be a positive finite time, got '" +
              arg + "'");
  return t;
}

core::DeviceSampling parse_device_sampling(const Config& cfg,
                                          const char* fallback) {
  const std::string v = cfg.get_string("device_sampling", fallback);
  if (v == "per_device") return core::DeviceSampling::kPerDevice;
  if (v == "binned") return core::DeviceSampling::kBinned;
  throw Error(
      "device_sampling must be 'per_device' or 'binned', got '" + v + "'",
      ErrorCode::kConfig);
}

// Surrogate fast-path configuration (shared by `serve` and the fleet
// corner sweep): every key defaults to the library's SurrogateOptions
// default, so `surrogate on` alone gives the certified 1e-4 setup.
surrogate::SurrogateOptions surrogate_options_from(const Config& cfg) {
  surrogate::SurrogateOptions so;
  so.tol = cfg.get_double("surrogate_tol", so.tol);
  so.dt_c = cfg.get_double("surrogate_dt_c", so.dt_c);
  so.dvdd = cfg.get_double("surrogate_dvdd", so.dvdd);
  so.act_lo = cfg.get_double("surrogate_act_lo", so.act_lo);
  so.act_hi = cfg.get_double("surrogate_act_hi", so.act_hi);
  so.t_lo_years = cfg.get_double("surrogate_t_min_years", so.t_lo_years);
  so.t_hi_years = cfg.get_double("surrogate_t_max_years", so.t_hi_years);
  so.n_t = cfg.get_count("surrogate_n_t", so.n_t);
  so.n_t_aging = cfg.get_count("surrogate_n_t_aging", so.n_t_aging);
  so.n_dt = cfg.get_count("surrogate_n_dt", so.n_dt);
  so.n_vdd = cfg.get_count("surrogate_n_vdd", so.n_vdd);
  so.n_act = cfg.get_count("surrogate_n_act", so.n_act);
  so.fit_n_gamma = cfg.get_count("surrogate_fit_n_gamma", so.fit_n_gamma);
  so.fit_n_b = cfg.get_count("surrogate_fit_n_b", so.fit_n_b);
  so.probe_points = cfg.get_count("surrogate_probes", so.probe_points);
  return so;
}

int cmd_thermal(const Config& cfg) {
  const core::Pipeline p = core::run_pipeline(cfg);
  const auto power = power::estimate_power(p.design, {.vdd = p.vdd},
                                           p.profile.block_temps_c);
  std::printf("design %s: %zu blocks, %zu devices, %.1f W\n",
              p.design.name.c_str(), p.design.blocks.size(),
              p.design.total_devices(), power.total());
  std::printf("%-12s %8s %8s\n", "block", "T [C]", "P [W]");
  for (std::size_t j = 0; j < p.design.blocks.size(); ++j)
    std::printf("%-12s %8.1f %8.2f\n", p.design.blocks[j].name.c_str(),
                p.profile.block_temps_c[j], power.block_watts[j]);
  std::printf("field: %.1f .. %.1f C\n", p.profile.min_c(),
              p.profile.max_c());
  return 0;
}

int cmd_analyze(const Config& cfg) {
  const core::Pipeline p = core::run_pipeline(cfg);
  const auto problem = core::build_problem(cfg, p);
  std::set<std::string> methods;
  {
    std::istringstream is(
        cfg.get_string("methods", "st_fast st_mc hybrid guard mc"));
    std::string tok;
    while (is >> tok) methods.insert(tok);
  }
  const auto targets = cfg.get_doubles("targets", {1e-6, 1e-5});
  const std::size_t mc_chips = cfg.get_count("mc_chips", 500);

  std::printf("design %s: %zu devices, %zu blocks, Vdd %.2f V, "
              "T %.1f..%.1f C\n\n",
              p.design.name.c_str(), p.design.total_devices(),
              p.design.blocks.size(), p.vdd, p.profile.min_c(),
              p.profile.max_c());
  std::printf("%-10s %14s %16s %12s\n", "method", "target", "lifetime [y]",
              "runtime [s]");

  auto report = [&](const char* name, auto&& lifetime_fn, double seconds) {
    for (double target : targets) {
      std::printf("%-10s %14g %16.3f %12.3f\n", name, target,
                  lifetime_fn(target) / kYear, seconds);
    }
  };

  if (methods.count("st_fast") != 0) {
    Stopwatch sw;
    const core::AnalyticAnalyzer a(problem);
    report("st_fast", [&](double t) { return a.lifetime_at(t); },
           sw.seconds());
  }
  if (methods.count("st_mc") != 0) {
    Stopwatch sw;
    const core::StMcAnalyzer a(problem, {});
    report("st_MC", [&](double t) { return a.lifetime_at(t); },
           sw.seconds());
  }
  if (methods.count("hybrid") != 0) {
    Stopwatch sw;
    const core::HybridEvaluator a(problem);
    report("hybrid", [&](double t) { return a.lifetime_at(t); },
           sw.seconds());
  }
  if (methods.count("guard") != 0) {
    Stopwatch sw;
    const core::GuardBandAnalyzer a(problem);
    report("guard", [&](double t) { return a.lifetime_at(t); },
           sw.seconds());
  }
  if (methods.count("mc") != 0) {
    Stopwatch sw;
    const core::MonteCarloAnalyzer a(
        problem, {.chip_samples = mc_chips,
                  .sampling = parse_device_sampling(cfg, "per_device")});
    report("MC", [&](double t) { return a.lifetime_at(t); }, sw.seconds());
  }
  return 0;
}

int cmd_report(const Config& cfg) {
  const core::Pipeline p = core::run_pipeline(cfg);
  const auto problem = core::build_problem(cfg, p);
  const auto report = core::make_signoff_report(
      problem, p.model, cfg.get_doubles("targets", {1e-6, 1e-5}));
  std::fputs(report.render().c_str(), stdout);
  return 0;
}

int cmd_lut(const Config& cfg, const std::string& action,
            const std::string& lut_path, const char* t_arg) {
  const core::Pipeline p = core::run_pipeline(cfg);
  const auto problem = core::build_problem(cfg, p);
  if (action == "build") {
    const core::HybridEvaluator hybrid(problem);
    std::ofstream out(lut_path);
    require(out.good(), ErrorCode::kIo,
            "lut build: cannot open '" + lut_path + "'");
    hybrid.save(out);
    std::printf("wrote %zu block tables to %s\n", problem.blocks().size(),
                lut_path.c_str());
    return 0;
  }
  if (action == "query") {
    require(t_arg != nullptr, ErrorCode::kConfig,
            "lut query: missing <t_seconds>");
    std::ifstream in(lut_path);
    require(in.good(), ErrorCode::kIo,
            "lut query: cannot open '" + lut_path + "'");
    const auto hybrid = core::HybridEvaluator::load(in, problem);
    const double t = parse_time_seconds(t_arg);
    std::printf("F(%.4g s) = %.6e   (R = %.9f)\n", t,
                hybrid.failure_probability(t), hybrid.reliability(t));
    return 0;
  }
  throw Error("lut: unknown action '" + action + "' (build|query)",
              ErrorCode::kConfig);
}

// DVFS ladder from the `ladder` config key: `name:vdd:freq,...`, sorted
// slow -> fast (validated by the manager).
std::vector<drm::OperatingPoint> parse_ladder(const Config& cfg) {
  const std::string spec = cfg.get_string(
      "ladder", "eco:1.0:1.2e9,mid:1.1:1.7e9,turbo:1.25:2.3e9");
  std::vector<drm::OperatingPoint> ladder;
  std::istringstream is(spec);
  std::string entry;
  while (std::getline(is, entry, ',')) {
    if (entry.empty()) continue;
    const std::size_t c1 = entry.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : entry.find(':', c1 + 1);
    require(c2 != std::string::npos, ErrorCode::kConfig,
            "ladder: entry '" + entry + "' is not name:vdd:freq");
    drm::OperatingPoint op;
    op.name = entry.substr(0, c1);
    try {
      op.vdd = std::stod(entry.substr(c1 + 1, c2 - c1 - 1));
      op.frequency = std::stod(entry.substr(c2 + 1));
    } catch (const std::exception&) {
      throw Error("ladder: entry '" + entry + "' has non-numeric vdd/freq",
                  ErrorCode::kConfig);
    }
    require(op.name.size() > 0 && std::isfinite(op.vdd) &&
                std::isfinite(op.frequency),
            ErrorCode::kConfig, "ladder: entry '" + entry + "' is invalid");
    ladder.push_back(std::move(op));
  }
  require(!ladder.empty(), ErrorCode::kConfig, "ladder: no rungs given");
  return ladder;
}

// One activity sample per line (first comma/whitespace-separated field);
// blank lines and '#' comments are skipped. An unreadable sample becomes
// NaN with a diagnostic — the control loop must keep running on corrupt
// telemetry, and the manager reads NaN as the guard-band-safe full load.
std::vector<double> read_telemetry(std::istream& in) {
  std::vector<double> samples;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::string token =
        line.substr(first, line.find_first_of(", \t\r", first) - first);
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size()) {
      std::ostringstream msg;
      msg << "telemetry line " << lineno << ": unreadable sample '" << token
          << "'; treated as NaN (guard-band)";
      diagnostics().warn("drm.telemetry", msg.str());
      v = std::numeric_limits<double>::quiet_NaN();
    }
    samples.push_back(v);
  }
  return samples;
}

int cmd_drm_run(const Config& cfg, const std::string& telemetry_path,
                drm::RuntimeOptions ropts) {
  const core::Pipeline p = core::run_pipeline(cfg);
  const auto problem = core::build_problem(cfg, p);

  drm::DrmOptions dopts;
  dopts.lifetime_target_s = cfg.get_double("lifetime_years", 10.0) * kYear;
  dopts.failure_budget = cfg.get_double("failure_budget", 1e-5);
  dopts.control_interval_s =
      cfg.get_double("control_interval_s", 30.0 * 86400.0);
  dopts.max_activity = cfg.get_double("max_activity", 2.0);
  dopts.fallback_temp_c = cfg.get_double("fallback_temp_c", 110.0);
  dopts.step_deadline_ms = cfg.get_double("step_deadline_ms", 0.0);
  if (ropts.checkpoint_every == 0)
    ropts.checkpoint_every = cfg.get_count("checkpoint_every", 16);

  drm::DrmRuntime runtime(problem, p.model, parse_ladder(cfg), dopts,
                          ropts);
  if (runtime.recovery().source != drm::RecoveryInfo::Source::kFresh)
    std::fprintf(stderr, "resume: %s\n",
                 runtime.recovery().detail.c_str());

  std::vector<double> samples;
  if (telemetry_path == "-") {
    samples = read_telemetry(std::cin);
  } else {
    std::ifstream in(telemetry_path);
    require(in.good(), ErrorCode::kIo,
            "drm run: cannot open telemetry file '" + telemetry_path + "'");
    samples = read_telemetry(in);
  }
  require(!samples.empty(), ErrorCode::kInvalidInput,
          "drm run: telemetry '" + telemetry_path + "' has no samples");

  // A resumed run has already accounted for the first step_count() samples
  // of the trace; only the remainder is (re)executed, so the emitted rows
  // are exactly the rows an uninterrupted run would have produced for the
  // same steps.
  const std::size_t start = runtime.step_count();
  if (start > samples.size())
    std::fprintf(stderr,
                 "note: resumed state is %zu step(s) ahead of the "
                 "telemetry trace\n",
                 start - samples.size());
  std::printf(
      "step,activity,op_index,op_name,performance_hz,damage,budget_line,"
      "max_temp_c,degraded\n");
  // SIGINT/SIGTERM stop the loop at a step boundary — never mid
  // journal-append — and still reach the final checkpoint below, so Ctrl-C
  // is resumable exactly like a crash, minus the replay.
  install_shutdown_handlers();
  for (std::size_t i = start; i < samples.size() && g_signal == 0; ++i) {
    const drm::DrmStep s = runtime.step(samples[i]);
    std::printf("%zu,%.17g,%zu,%s,%.17g,%.17g,%.17g,%.17g,%d\n",
                runtime.step_count(), samples[i], s.op_index,
                runtime.manager().ladder()[s.op_index].name.c_str(),
                s.performance, s.damage, s.budget_line, s.max_temp_c,
                s.degraded ? 1 : 0);
  }
  // Final anchor: an orderly exit leaves a snapshot at the last step, so a
  // later resume replays nothing.
  runtime.checkpoint_now();
  runtime.publish_step_stats();
  if (g_signal != 0)
    std::fprintf(stderr,
                 "signal: stopped after %zu step(s); final snapshot "
                 "flushed — rerun with --resume to continue\n",
                 runtime.step_count());
  return 0;
}

// ---------------------------------------------------------------------------
// obdrel fleet: crash-tolerant sharded fleet sweeps (src/fleet)
// ---------------------------------------------------------------------------

struct FleetFlags {
  std::uint64_t chips = 0;       ///< required
  std::uint64_t shards = 4;
  long long worker = -1;         ///< >= 0: hidden worker mode for shard k
  std::string dir = "fleet.state";
  std::uint64_t max_restarts = 5;
  std::uint64_t backoff_ms = 200;
  std::uint64_t backoff_cap_ms = 5000;
  std::uint64_t stale_ms = 5000;
  std::uint64_t heartbeat_ms = 100;
  std::uint64_t poll_ms = 25;
  std::uint64_t max_parallel = 0;
  double chaos_kill = 0.0;
  double chaos_stop = 0.0;
  std::uint64_t chaos_stop_ms = 300;
  std::uint64_t chaos_seed = 1;
};

// Canonical identity of everything in the config that shapes the problem
// build or the sampler — folded into the fleet fingerprint so durable
// state from a different model configuration is rejected, not merged.
std::string fleet_problem_key(const Config& cfg) {
  std::string key = core::problem_key(cfg) + ";device_sampling=" +
                    cfg.get_string("device_sampling", "binned");
  // Appended only for non-default specs so existing fleet state
  // directories keep matching their problem keys byte for byte.
  const std::string mechanisms = mech::parse_spec(cfg).canonical();
  if (mechanisms != "oxide") key += ";mechanisms=" + mechanisms;
  return key;
}

fleet::FleetSpec make_fleet_spec(const Config& cfg, std::uint64_t chips) {
  fleet::FleetSpec spec;
  spec.chips = chips;
  spec.seed = static_cast<std::uint64_t>(cfg.get_count("seed", 99));
  spec.thickness_bins = cfg.get_count("mc_bins", 512);
  // Fleet sweeps default to the binned sampler: the per-device reference
  // is impractical at million-chip populations (still selectable).
  spec.sampling = parse_device_sampling(cfg, "binned");
  spec.problem_key = fleet_problem_key(cfg);
  if (cfg.has("fleet_times_years")) {
    for (const double y : cfg.get_doubles("fleet_times_years", {})) {
      require(y > 0.0, ErrorCode::kConfig,
              "fleet_times_years must be positive");
      spec.ts.push_back(y * kYear);
    }
  } else {
    const std::size_t np = cfg.get_count("fleet_points", 8);
    const double t0 = cfg.get_double("fleet_t_min_years", 1.0) * kYear;
    const double t1 = cfg.get_double("fleet_t_max_years", 20.0) * kYear;
    require(t0 > 0.0 && t1 >= t0, ErrorCode::kConfig,
            "fleet sweep needs 0 < fleet_t_min_years <= fleet_t_max_years");
    for (std::size_t i = 0; i < np; ++i) {
      const double u =
          (np == 1) ? 0.0
                    : static_cast<double>(i) / static_cast<double>(np - 1);
      spec.ts.push_back(t0 * std::pow(t1 / t0, u));
    }
  }
  require(!spec.ts.empty(), ErrorCode::kConfig, "fleet: empty sweep");
  return spec;
}

std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

// Opt-in fleet corner sweep: F(t) at each operating corner of the
// `fleet_corners` list ("dt:vdd:act,..."), over the fleet sweep times.
// With `surrogate on` a certified Chebyshev model answers each corner
// through the plan_corner/evaluate_at fast path; corners (or times) the
// certificate does not cover fall through to the exact incremental
// evaluator, flagged surrogate=0 line by line.
void run_fleet_corner_sweep(const Config& cfg,
                            const core::ReliabilityProblem& problem,
                            const std::vector<double>& ts) {
  struct Corner {
    double dt, vdd, act;
  };
  std::vector<Corner> corners;
  {
    std::istringstream list(cfg.get_string("fleet_corners", ""));
    std::string item;
    while (std::getline(list, item, ',')) {
      if (item.empty()) continue;
      Corner c{};
      char sep1 = 0;
      char sep2 = 0;
      std::istringstream fields(item);
      require(static_cast<bool>(fields >> c.dt >> sep1 >> c.vdd >> sep2 >>
                                c.act) &&
                  sep1 == ':' && sep2 == ':' && c.vdd > 0.0 && c.act > 0.0,
              ErrorCode::kConfig,
              "fleet_corners: corner '" + item +
                  "' is not dt:vdd:act with positive vdd and act");
      corners.push_back(c);
    }
  }
  if (corners.empty()) return;

  const bool use_surrogate = cfg.get_bool("surrogate", false);
  std::optional<surrogate::SurrogateModel> model;
  if (use_surrogate) {
    Stopwatch sw;
    model = surrogate::SurrogateModel::fit(problem,
                                           surrogate_options_from(cfg));
    const auto& cert = model->certificate();
    std::printf(
        "surrogate: certified=%d max_rel_error=%.3g tol=%.3g probes=%zu "
        "fit=%.2fs\n",
        cert.certified ? 1 : 0, cert.max_rel_error, cert.tol, cert.probes,
        sw.seconds());
  }

  const core::HybridEvaluator hybrid(problem, {});
  core::ConditionEvaluator exact(hybrid);
  std::printf("corner sweep: %zu corner(s) x %zu time(s), surrogate %s\n",
              corners.size(), ts.size(), use_surrogate ? "on" : "off");
  for (const Corner& c : corners) {
    // Corner-axis domain check (the per-time check below handles t): plan
    // once per corner only when the corner itself is certified coverage.
    const bool planned = [&] {
      if (!model.has_value() || !model->certificate().certified)
        return false;
      const surrogate::SurrogateDomain& d = model->domain();
      return model->in_domain(c.dt, c.vdd, c.act,
                              std::clamp(ts.front(), d.t_lo, d.t_hi));
    }();
    std::vector<double> plan;
    if (planned) plan = model->plan_corner(c.dt, c.vdd, c.act);
    bool exact_corner_set = false;
    for (const double t : ts) {
      const bool fast = planned && model->in_domain(c.dt, c.vdd, c.act, t);
      double f = 0.0;
      if (fast) {
        f = model->evaluate_at(plan, t);
      } else {
        if (!exact_corner_set) {
          exact.set_corner(c.dt, c.vdd, c.act);
          exact_corner_set = true;
        }
        f = exact.evaluate(t);
      }
      std::printf("corner dt=%g vdd=%g act=%g t_years=%.6g f=%.17g "
                  "surrogate=%d\n",
                  c.dt, c.vdd, c.act, t / kYear, f, fast ? 1 : 0);
    }
  }
}

int cmd_fleet(const Config& cfg, const std::string& cfg_path,
              const FleetFlags& ff, long long threads_flag,
              const char* argv0) {
  require(ff.chips > 0, ErrorCode::kConfig,
          "fleet: --chips must be a positive chip count");
  require(ff.shards >= 1, ErrorCode::kConfig,
          "fleet: --shards must be at least 1");
  const core::Pipeline p = core::run_pipeline(cfg);
  const auto problem = core::build_problem(cfg, p);
  const fleet::FleetSpec spec = make_fleet_spec(cfg, ff.chips);

  if (ff.worker >= 0) {
    require(static_cast<std::uint64_t>(ff.worker) < ff.shards,
            ErrorCode::kConfig, "fleet: --worker index out of range");
    fleet::WorkerOptions w;
    w.dir = ff.dir;
    w.shard = static_cast<std::uint64_t>(ff.worker);
    w.shards = ff.shards;
    w.heartbeat_ms = ff.heartbeat_ms;
    fleet::run_worker(problem, spec, w);
    return 0;
  }

  if (::mkdir(ff.dir.c_str(), 0755) != 0 && errno != EEXIST)
    throw Error("fleet: cannot create state directory '" + ff.dir + "'",
                ErrorCode::kIo);

  fleet::SupervisorOptions so;
  so.dir = ff.dir;
  so.shards = ff.shards;
  so.max_parallel = ff.max_parallel;
  so.max_restarts = ff.max_restarts;
  so.backoff_base_ms = ff.backoff_ms;
  so.backoff_cap_ms = ff.backoff_cap_ms;
  so.heartbeat_stale_ms = ff.stale_ms;
  so.poll_ms = ff.poll_ms;
  so.chaos.kill_rate = ff.chaos_kill;
  so.chaos.stop_rate = ff.chaos_stop;
  so.chaos.stop_ms = ff.chaos_stop_ms;
  so.chaos.seed = ff.chaos_seed;
  so.stop_flag = &g_signal;
  // Workers re-invoke this binary in --worker mode with the spec-shaping
  // flags only: no --strict (supervisor policy), no chaos knobs.
  so.worker_argv = {self_exe_path(argv0), "fleet", cfg_path,
                    "--chips", std::to_string(ff.chips),
                    "--shards", std::to_string(ff.shards),
                    "--fleet-dir", ff.dir,
                    "--heartbeat-ms", std::to_string(ff.heartbeat_ms)};
  if (threads_flag >= 0) {
    so.worker_argv.push_back("--threads");
    so.worker_argv.push_back(std::to_string(threads_flag));
  }

  install_shutdown_handlers();
  fleet::Supervisor supervisor(spec, so);
  const fleet::FleetOutcome outcome = supervisor.run();

  // Report first, diagnostics second: strict-mode escalation must never
  // outrun the (partial) results the user paid for.
  std::fputs(fleet::render_report(outcome.report).c_str(), stdout);
  if (cfg.has("fleet_corners"))
    run_fleet_corner_sweep(cfg, problem, spec.ts);
  std::fflush(stdout);
  if (outcome.interrupted)
    std::fprintf(stderr,
                 "signal: fleet stopped; durable shard state kept in '%s' "
                 "— rerun the same command to continue\n",
                 ff.dir.c_str());
  fleet::publish_diagnostics(outcome);
  return 0;
}

// ---------------------------------------------------------------------------
// obdrel serve: overload-safe reliability query daemon (src/serve)
// ---------------------------------------------------------------------------

struct ServeFlags {
  std::string socket;     ///< empty: take the serve_socket config key
  bool use_stdin = false;
  std::string cache_dir;  ///< empty: take the serve_cache_dir config key
  long long cache_mb = -1;     ///< -1: take the config key
  long long queue = -1;        ///< -1: take the config key
  long long batch = -1;        ///< -1: take the config key
  long long deadline_ms = -1;  ///< -1: take the config key
};

int cmd_serve(const Config& cfg, const ServeFlags& sf) {
  serve::EngineOptions eo;
  eo.cache.dir = !sf.cache_dir.empty()
                     ? sf.cache_dir
                     : cfg.get_string("serve_cache_dir", "");
  const long long mb = sf.cache_mb >= 0
                           ? sf.cache_mb
                           : static_cast<long long>(
                                 cfg.get_count("serve_cache_mb", 256));
  require(mb > 0, ErrorCode::kConfig,
          "serve: cache budget must be a positive MiB count");
  eo.cache.byte_budget = static_cast<std::size_t>(mb) << 20;
  eo.n_gamma = cfg.get_count("serve_n_gamma", 100);
  eo.n_b = cfg.get_count("serve_n_b", 100);
  eo.deadline_ms = sf.deadline_ms >= 0
                       ? static_cast<double>(sf.deadline_ms)
                       : cfg.get_double("serve_deadline_ms", 0.0);
  require(eo.deadline_ms >= 0.0, ErrorCode::kConfig,
          "serve: serve_deadline_ms must be non-negative (0 disables)");
  eo.surrogate = cfg.get_bool("surrogate", false);
  if (eo.surrogate) eo.surrogate_opts = surrogate_options_from(cfg);

  serve::ServerOptions so;
  so.use_stdin = sf.use_stdin || cfg.get_bool("serve_stdin", false);
  so.socket_path =
      !sf.socket.empty() ? sf.socket : cfg.get_string("serve_socket",
                                                      "obdrel.sock");
  so.queue_limit =
      sf.queue >= 0 ? static_cast<std::size_t>(sf.queue)
                    : cfg.get_count("serve_queue", 1024);
  require(so.queue_limit >= 1, ErrorCode::kConfig,
          "serve: admission queue bound must be at least 1");
  so.batch_max = sf.batch >= 1 ? static_cast<std::size_t>(sf.batch)
                               : cfg.get_count("serve_batch", 64);
  so.stop_flag = &g_signal;

  serve::QueryEngine engine(cfg, eo);
  install_shutdown_handlers();
  serve::Server server(engine, so);
  return server.run();
}

int usage(std::FILE* out, int rc) {
  std::fprintf(out,
               "usage: obdrel [--strict] analyze <config>\n"
               "       obdrel [--strict] report <config>\n"
               "       obdrel [--strict] thermal <config>\n"
               "       obdrel [--strict] lut build <config> <out-file>\n"
               "       obdrel [--strict] lut query <config> <lut-file> "
               "<t_seconds>\n"
               "       obdrel [--strict] drm run <config> "
               "<telemetry.csv|->\n"
               "           [--checkpoint-dir <dir>] [--resume] "
               "[--checkpoint-every <n>]\n"
               "       obdrel [--strict] fleet <config> --chips <N> "
               "[--shards <K>]\n"
               "           [--fleet-dir <dir>] [--max-restarts <n>] "
               "[--backoff-ms <ms>]\n"
               "           [--backoff-cap-ms <ms>] [--stale-ms <ms>] "
               "[--heartbeat-ms <ms>]\n"
               "           [--fleet-parallel <n>] [--chaos-kill <rate>] "
               "[--chaos-stop <rate>]\n"
               "       obdrel [--strict] serve <config> "
               "[--socket <path> | --stdin]\n"
               "           [--cache-dir <dir>] [--cache-mb <n>] "
               "[--queue <n>] [--batch <n>]\n"
               "           [--deadline-ms <ms>]\n"
               "       obdrel help | --help | -h   (or: obdrel <cmd> help)\n"
               "\n"
               "--strict escalates degraded results to errors.\n"
               "--threads <n> sizes the shared analysis pool (0 = auto);\n"
               "it overrides OBDREL_THREADS and the `threads` config key.\n"
               "The `simd` config key (auto|avx2|scalar, default auto)\n"
               "selects the SIMD kernel dispatch level; it overrides\n"
               "the OBDREL_SIMD environment variable. The `thermal_sweep`\n"
               "key (lexicographic|redblack) picks the SOR cell-visit\n"
               "order.\n"
               "drm run drives the crash-safe DRM service loop from a\n"
               "telemetry trace ('-' reads stdin); --checkpoint-dir makes\n"
               "its state durable and --resume recovers it after a crash.\n"
               "fleet partitions an N-chip F(t) sweep over K supervised\n"
               "worker processes with per-shard checkpoints: any crash\n"
               "schedule (and any K / thread count) yields a byte-identical\n"
               "report, and rerunning the command resumes durable state.\n"
               "serve runs a long-lived F(t) query daemon over a unix\n"
               "socket (or stdin with --stdin): newline-framed key=value\n"
               "requests, an LRU table cache with an optional durable disk\n"
               "tier (--cache-dir), bounded-queue load shedding, deadline\n"
               "degradation, and SIGTERM/SIGINT graceful drain.\n"
               "exit codes: 0 ok, 1 internal, 2 config/usage, 3 io,\n"
               "            4 invalid input, 5 nonconvergence, 6 degraded "
               "(strict)\n");
  return rc;
}

int usage() { return usage(stderr, 2); }

// Applies the robustness knobs shared by every command, after the config
// parses but before any numerics run. The --threads flag (threads_flag
// >= 0) wins over the `threads` config key, which wins over the
// OBDREL_THREADS environment variable.
void apply_runtime_options(const Config& cfg, bool strict_flag,
                           long long threads_flag) {
  set_strict_mode(strict_flag || cfg.get_bool("strict", false));
  if (cfg.has("faults")) fault::arm(cfg.get_string("faults"));
  if (cfg.has("simd")) simd::configure(cfg.get_string("simd"));
  // Validate thermal_sweep and device_sampling here so a bad value fails
  // with the config exit code in every command, not only the ones that run
  // the thermal solve or build an MC sampler (which re-read them at the
  // use site).
  (void)core::parse_thermal_sweep(cfg);
  (void)parse_device_sampling(cfg, "per_device");
  if (threads_flag >= 0) {
    par::set_threads(static_cast<std::size_t>(threads_flag));
  } else if (cfg.has("threads")) {
    par::set_threads(cfg.get_count("threads", 1));
  }
}

// Reports collected degradation warnings; returns the adjusted exit code.
int finish(int rc) {
  par::publish_stats();
  publish_arena_stats();
  simd::publish_level();
  const std::string stats = diagnostics().render_stats();
  if (!stats.empty()) std::fputs(stats.c_str(), stderr);
  if (diagnostics().degraded()) {
    std::fputs(diagnostics().render().c_str(), stderr);
    std::fprintf(stderr,
                 "note: result is degraded (%zu warning%s); rerun with "
                 "--strict to escalate\n",
                 diagnostics().size(),
                 diagnostics().size() == 1 ? "" : "s");
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  bool strict_flag = false;
  long long threads_flag = -1;  // -1 = not given on the command line
  drm::RuntimeOptions ropts;
  ropts.checkpoint_every = 0;  // 0 = take the config key / default
  FleetFlags ff;
  ServeFlags sf;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--strict") {
      strict_flag = true;
      continue;
    }
    if (a == "--help" || a == "-h") return usage(stdout, 0);
    if (a == "--resume") {
      ropts.resume = true;
      continue;
    }
    if (a == "--stdin") {
      sf.use_stdin = true;
      continue;
    }
    if (a == "--checkpoint-dir" || a == "--checkpoint-every" ||
        a == "--threads" || a == "--chips" || a == "--shards" ||
        a == "--worker" || a == "--fleet-dir" || a == "--max-restarts" ||
        a == "--backoff-ms" || a == "--backoff-cap-ms" ||
        a == "--stale-ms" || a == "--heartbeat-ms" || a == "--poll-ms" ||
        a == "--fleet-parallel" || a == "--chaos-kill" ||
        a == "--chaos-stop" || a == "--chaos-stop-ms" ||
        a == "--chaos-seed" || a == "--socket" || a == "--cache-dir" ||
        a == "--cache-mb" || a == "--queue" || a == "--batch" ||
        a == "--deadline-ms") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error [config]: %s needs a value\n",
                     a.c_str());
        return usage();
      }
      const std::string value = argv[++i];
      if (a == "--checkpoint-dir") {
        ropts.checkpoint_dir = value;
        continue;
      }
      if (a == "--fleet-dir") {
        ff.dir = value;
        continue;
      }
      if (a == "--socket") {
        sf.socket = value;
        continue;
      }
      if (a == "--cache-dir") {
        sf.cache_dir = value;
        continue;
      }
      if (a == "--chaos-kill" || a == "--chaos-stop") {
        char* end = nullptr;
        const double r = std::strtod(value.c_str(), &end);
        if (end != value.c_str() + value.size() || !(r >= 0.0) || r > 1.0) {
          std::fprintf(stderr,
                       "error [config]: %s needs a rate in [0, 1], got "
                       "'%s'\n",
                       a.c_str(), value.c_str());
          return usage();
        }
        (a == "--chaos-kill" ? ff.chaos_kill : ff.chaos_stop) = r;
        continue;
      }
      char* end = nullptr;
      const long long n = std::strtoll(value.c_str(), &end, 10);
      const bool integer_ok = end == value.c_str() + value.size();
      if (a == "--threads") {
        if (!integer_ok || n < 0) {
          std::fprintf(stderr,
                       "error [config]: --threads needs a non-negative "
                       "integer (0 = auto), got '%s'\n",
                       value.c_str());
          return usage();
        }
        threads_flag = n;
      } else if (a == "--checkpoint-every") {
        if (!integer_ok || n <= 0) {
          std::fprintf(stderr,
                       "error [config]: --checkpoint-every needs a "
                       "positive integer, got '%s'\n",
                       value.c_str());
          return usage();
        }
        ropts.checkpoint_every = static_cast<std::size_t>(n);
      } else {
        if (!integer_ok || n < 0) {
          std::fprintf(stderr,
                       "error [config]: %s needs a non-negative integer, "
                       "got '%s'\n",
                       a.c_str(), value.c_str());
          return usage();
        }
        const std::uint64_t u = static_cast<std::uint64_t>(n);
        if (a == "--chips") ff.chips = u;
        else if (a == "--shards") ff.shards = u;
        else if (a == "--worker") ff.worker = n;
        else if (a == "--max-restarts") ff.max_restarts = u;
        else if (a == "--backoff-ms") ff.backoff_ms = u;
        else if (a == "--backoff-cap-ms") ff.backoff_cap_ms = u;
        else if (a == "--stale-ms") ff.stale_ms = u;
        else if (a == "--heartbeat-ms") ff.heartbeat_ms = u;
        else if (a == "--poll-ms") ff.poll_ms = u;
        else if (a == "--fleet-parallel") ff.max_parallel = u;
        else if (a == "--chaos-stop-ms") ff.chaos_stop_ms = u;
        else if (a == "--chaos-seed") ff.chaos_seed = u;
        else if (a == "--cache-mb") sf.cache_mb = n;
        else if (a == "--queue") sf.queue = n;
        else if (a == "--batch") sf.batch = n;
        else if (a == "--deadline-ms") sf.deadline_ms = n;
      }
      continue;
    }
    if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error [config]: unknown flag '%s'\n",
                   a.c_str());
      return usage();
    }
    args.push_back(a);
  }
  try {
    fault::arm_from_env();
    simd::init_from_env();
    if (args.empty()) return usage();
    const std::string& cmd = args[0];
    if (cmd == "help") return usage(stdout, 0);
    // Reject unknown subcommands by name before any argument-count check:
    // `obdrel analzye cfg` must say what is wrong, not print bare usage.
    static const char* kCommands[] = {"analyze", "report", "thermal",
                                      "lut",     "drm",    "fleet",
                                      "serve"};
    bool known = false;
    for (const char* c : kCommands) known = known || cmd == c;
    if (!known) {
      std::fprintf(stderr,
                   "error [config]: unknown subcommand '%s' (valid: "
                   "analyze, report, thermal, lut, drm, fleet, serve, "
                   "help)\n",
                   cmd.c_str());
      return usage();
    }
    // `obdrel <cmd> help` mirrors `obdrel help`: usage to stdout, exit 0.
    if (args.size() >= 2 && args[1] == "help") return usage(stdout, 0);
    if (args.size() < 2) return usage();
    if (cmd == "analyze" || cmd == "report" || cmd == "thermal") {
      const Config cfg = Config::parse_file(args[1]);
      apply_runtime_options(cfg, strict_flag, threads_flag);
      if (cmd == "analyze") return finish(cmd_analyze(cfg));
      if (cmd == "report") return finish(cmd_report(cfg));
      return finish(cmd_thermal(cfg));
    }
    if (cmd == "lut") {
      if (args.size() < 4) return usage();
      const Config cfg = Config::parse_file(args[2]);
      apply_runtime_options(cfg, strict_flag, threads_flag);
      return finish(cmd_lut(cfg, args[1], args[3],
                            args.size() > 4 ? args[4].c_str() : nullptr));
    }
    if (cmd == "drm") {
      if (args.size() < 4 || args[1] != "run") return usage();
      const Config cfg = Config::parse_file(args[2]);
      apply_runtime_options(cfg, strict_flag, threads_flag);
      return finish(cmd_drm_run(cfg, args[3], ropts));
    }
    if (cmd == "fleet") {
      const Config cfg = Config::parse_file(args[1]);
      apply_runtime_options(cfg, strict_flag, threads_flag);
      return finish(cmd_fleet(cfg, args[1], ff, threads_flag, argv[0]));
    }
    if (cmd == "serve") {
      const Config cfg = Config::parse_file(args[1]);
      apply_runtime_options(cfg, strict_flag, threads_flag);
      return finish(cmd_serve(cfg, sf));
    }
    return usage();
  } catch (const Error& e) {
    std::fputs(diagnostics().render().c_str(), stderr);
    std::fprintf(stderr, "error [%s]: %s\n", to_string(e.code()), e.what());
    return static_cast<int>(e.code());
  } catch (const std::exception& e) {
    std::fputs(diagnostics().render().c_str(), stderr);
    std::fprintf(stderr, "error [internal]: %s\n", e.what());
    return static_cast<int>(ErrorCode::kInternal);
  }
}
