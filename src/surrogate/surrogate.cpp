#include "surrogate/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "mech/mechanism.hpp"

namespace obd::surrogate {
namespace {

std::string fmt17(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Fit-space transform: y = ln(H_c) for a channel hazard H_c = -ls_c,
/// taken from the engine's log-survival so it keeps resolving smoothly
/// after F itself rounds to 1.0 (H ~ 37) — fitting ln(-log1p(-F)) instead
/// would plateau there and the kink destroys spectral convergence
/// globally. H is clamped to [1e-300, 1e4]: the floor keeps an
/// exactly-zero hazard finite in log space, the ceiling keeps a
/// dead-spare-group -inf finite; both sit so deep in the F in {0, 1}
/// plateaus (e^-1e4 below any representable deviation) that the clamp
/// cannot move a certified answer.
double y_of_ls(double ls) {
  return std::log(std::clamp(-ls, 1e-300, 1e4));
}

double f_of_hazard(double h) { return -std::expm1(-h); }

/// Relative-error floor: a reference this small is numerically zero and
/// absolute error is the meaningful metric there.
constexpr double kRelFloor = 1e-12;

double rel_error(double surrogate, double reference) {
  return std::abs(surrogate - reference) /
         std::max(std::abs(reference), kRelFloor);
}

double frac(double v) { return v - std::floor(v); }

}  // namespace

core::HybridOptions fit_reference_options(
    const core::ReliabilityProblem& problem,
    const SurrogateOptions& options) {
  const core::AnalyticReliabilityModel model(options.model);
  const double t_lo = options.t_lo_years * mech::kSecondsPerYear;
  const double t_hi = options.t_hi_years * mech::kSecondsPerYear;
  const double vdd_c = problem.vdd();
  double glo = std::numeric_limits<double>::infinity();
  double ghi = -glo;
  double blo = glo;
  double bhi = -glo;
  // alpha is monotone in T and vdd and b is piecewise-linear monotone in
  // T, so the domain-box corners bound the (gamma, b) ranges; the pads
  // below absorb the clamp corner and interpolation stencils.
  for (const double dt : {-options.dt_c, options.dt_c}) {
    for (const double vdd : {vdd_c - options.dvdd, vdd_c + options.dvdd}) {
      for (const core::BlockParams& blk : problem.blocks()) {
        const double temp_c = blk.temp_c + dt;
        const double alpha = model.alpha(temp_c, vdd);
        const double b = model.b(temp_c, vdd);
        glo = std::min(glo, std::log(t_lo / alpha));
        ghi = std::max(ghi, std::log(t_hi / alpha));
        blo = std::min(blo, b);
        bhi = std::max(bhi, b);
      }
    }
  }
  core::HybridOptions ho;
  ho.n_gamma = std::max<std::size_t>(options.fit_n_gamma, 8);
  ho.n_b = std::max<std::size_t>(options.fit_n_b, 4);
  ho.gamma_lo = glo - 0.25;
  ho.gamma_hi = ghi + 0.25;
  ho.b_lo = blo - 0.01;
  ho.b_hi = bhi + 0.01;
  return ho;
}

SurrogateModel SurrogateModel::fit(const core::ReliabilityProblem& problem,
                                   const SurrogateOptions& options) {
  require(options.dt_c > 0.0 && options.dvdd > 0.0 &&
              options.act_hi > options.act_lo && options.act_lo > 0.0 &&
              options.t_hi_years > options.t_lo_years &&
              options.t_lo_years > 0.0,
          ErrorCode::kConfig, "surrogate: domain box must be non-empty");
  require(options.n_t >= 2 && options.n_t_aging >= 2 && options.n_dt >= 2 &&
              options.n_vdd >= 2 && options.n_act >= 1 && options.tol > 0.0,
          ErrorCode::kConfig,
          "surrogate: need >= 2 nodes per active axis and a positive tol");

  SurrogateModel m;
  m.domain_.dt_lo = -options.dt_c;
  m.domain_.dt_hi = options.dt_c;
  m.domain_.vdd_lo = problem.vdd() - options.dvdd;
  m.domain_.vdd_hi = problem.vdd() + options.dvdd;
  m.domain_.act_lo = options.act_lo;
  m.domain_.act_hi = options.act_hi;
  m.domain_.t_lo = options.t_lo_years * mech::kSecondsPerYear;
  m.domain_.t_hi = options.t_hi_years * mech::kSecondsPerYear;

  core::HybridEvaluator reference(problem,
                                  fit_reference_options(problem, options));
  core::ConditionEvaluator ref(reference, options.model);

  // The ln-t axis is innermost during fitting, so the corner (the
  // expensive part: N setter calls) is applied once per n_t samples. Node
  // coordinates are bitwise-reproducible per call, so the equality check
  // is exact.
  double last_dt = std::numeric_limits<double>::quiet_NaN();
  double last_vdd = last_dt;
  double last_act = last_dt;
  // The activity axis lives in ln(act): lognormal t50 acceleration is a
  // power law in activity, so ln t50 — and with it each channel's
  // log-hazard — is nearly linear in ln(act) but logarithmic in act.
  // Log-space costs nothing (evaluate() maps act -> ln act) and buys
  // ~15x on the certified max error at the same node counts.
  const auto fit_channel = [&](std::size_t n_t, std::size_t n_act,
                               auto&& ls_at) {
    std::vector<ChebAxis> axes = {
        {std::log(m.domain_.t_lo), std::log(m.domain_.t_hi), n_t},
        {m.domain_.dt_lo, m.domain_.dt_hi, options.n_dt},
        {m.domain_.vdd_lo, m.domain_.vdd_hi, options.n_vdd},
        {std::log(m.domain_.act_lo), std::log(m.domain_.act_hi), n_act},
    };
    last_dt = std::numeric_limits<double>::quiet_NaN();
    const auto fn = [&](const double* x) {
      if (x[1] != last_dt || x[2] != last_vdd || x[3] != last_act) {
        ref.set_corner(x[1], x[2], std::exp(x[3]));
        last_dt = x[1];
        last_vdd = x[2];
        last_act = x[3];
      }
      return y_of_ls(ls_at(std::exp(x[0])));
    };
    m.channels_.push_back(ChebTensor::fit(std::move(axes), fn));
  };

  const mech::MechanismStack& stack = problem.mechanisms();
  if (!stack.has_redundancy()) {
    // Channel-separable: chip ls is exactly oxide ls + each mechanism ls.
    // The oxide channel ignores activity, so one node pins that axis.
    fit_channel(options.n_t, 1,
                [&](double t) { return ref.oxide_log_survival(t); });
    for (std::size_t mech_i = 0; mech_i < stack.extras().size(); ++mech_i) {
      fit_channel(options.n_t_aging, options.n_act, [&](double t) {
        return ref.mechanism_log_survival(mech_i, t);
      });
    }
  } else {
    // Spare groups mix the channels (Poisson-binomial over combined
    // per-block failure probabilities) — fit the joint log-survival and
    // let certification refuse if the log-sum-exp elbow is in the box.
    fit_channel(options.n_t_aging, options.n_act,
                [&](double t) { return ref.evaluate_ls(t); });
  }
  m.cert_ = certify(m, ref, options.probe_points, options.tol);
  return m;
}

double SurrogateModel::evaluate(double dt, double vdd, double act,
                                double t) const {
  const double x[4] = {std::log(t), dt, vdd, std::log(act)};
  double hazard = 0.0;
  for (const ChebTensor& c : channels_) hazard += std::exp(c.eval(x));
  return f_of_hazard(hazard);
}

std::vector<double> SurrogateModel::plan_corner(double dt, double vdd,
                                                double act) const {
  const double tail[3] = {dt, vdd, std::log(act)};
  std::vector<double> plan;
  for (const ChebTensor& c : channels_) {
    const std::vector<double> pencil = c.contract_tail(tail);
    plan.insert(plan.end(), pencil.begin(), pencil.end());
  }
  return plan;
}

double SurrogateModel::evaluate_at(const std::vector<double>& plan,
                                   double t) const {
  const double lt = std::log(t);
  double hazard = 0.0;
  std::size_t offset = 0;
  for (const ChebTensor& c : channels_) {
    const std::size_t n0 = c.axes()[0].n;
    hazard += std::exp(c.eval_pencil_at(plan.data() + offset, n0, lt));
    offset += n0;
  }
  return f_of_hazard(hazard);
}

SurrogateCertificate certify(const SurrogateModel& model,
                             core::ConditionEvaluator& ref,
                             std::size_t probe_points, double tol) {
  SurrogateCertificate cert;
  cert.tol = tol;
  double sum = 0.0;

  const auto probe = [&](double dt, double vdd, double act, double t) {
    ref.set_corner(dt, vdd, act);
    const double exact = ref.evaluate(t);
    const double approx = model.evaluate(dt, vdd, act, t);
    const double rel = rel_error(approx, exact);
    cert.max_rel_error = std::max(cert.max_rel_error, rel);
    sum += rel;
    ++cert.probes;
  };

  // Held-out grid: per channel, the tensor of inter-node midpoints —
  // where a Chebyshev interpolant's error peaks — evaluated
  // corner-outermost so the exact reference reuses its incremental rows
  // across the ln-t sweep. Every channel's grid probes the FULL model
  // (channels sum into one hazard), so each channel is stressed at its
  // own worst points.
  for (const ChebTensor& channel : model.channels()) {
    const std::vector<ChebAxis>& axes = channel.axes();
    for (std::size_t ia = 0; ia < axes[3].midpoint_count(); ++ia) {
      for (std::size_t iv = 0; iv < axes[2].midpoint_count(); ++iv) {
        for (std::size_t id = 0; id < axes[1].midpoint_count(); ++id) {
          for (std::size_t it = 0; it < axes[0].midpoint_count(); ++it) {
            probe(axes[1].midpoint(id), axes[2].midpoint(iv),
                  std::exp(axes[3].midpoint(ia)),
                  std::exp(axes[0].midpoint(it)));
          }
        }
      }
    }
  }

  // Low-discrepancy interior probes: a 4-D Weyl (Kronecker) sequence on
  // sqrt-prime increments — deterministic, no RNG, equidistributed — so
  // re-running certification reproduces the certificate bit for bit.
  const SurrogateDomain& d = model.domain();
  const double lt_lo = std::log(d.t_lo);
  const double lt_hi = std::log(d.t_hi);
  for (std::size_t k = 1; k <= probe_points; ++k) {
    const double kk = static_cast<double>(k);
    const double dt =
        d.dt_lo + frac(kk * std::sqrt(2.0)) * (d.dt_hi - d.dt_lo);
    const double vdd =
        d.vdd_lo + frac(kk * std::sqrt(3.0)) * (d.vdd_hi - d.vdd_lo);
    const double act =
        d.act_lo + frac(kk * std::sqrt(5.0)) * (d.act_hi - d.act_lo);
    const double t =
        std::exp(lt_lo + frac(kk * std::sqrt(7.0)) * (lt_hi - lt_lo));
    probe(dt, vdd, act, t);
  }

  cert.mean_rel_error =
      cert.probes > 0 ? sum / static_cast<double>(cert.probes) : 0.0;
  cert.certified = cert.max_rel_error <= tol;
  return cert;
}

std::string SurrogateModel::save_text() const {
  std::ostringstream os;
  os << "obdrel-surrogate 1\n";
  os << "domain " << fmt17(domain_.dt_lo) << ' ' << fmt17(domain_.dt_hi)
     << ' ' << fmt17(domain_.vdd_lo) << ' ' << fmt17(domain_.vdd_hi) << ' '
     << fmt17(domain_.act_lo) << ' ' << fmt17(domain_.act_hi) << ' '
     << fmt17(domain_.t_lo) << ' ' << fmt17(domain_.t_hi) << '\n';
  os << "channels " << channels_.size() << '\n';
  for (const ChebTensor& ch : channels_) {
    os << "axes " << ch.axes().size() << '\n';
    for (const ChebAxis& a : ch.axes())
      os << "axis " << fmt17(a.lo) << ' ' << fmt17(a.hi) << ' ' << a.n
         << '\n';
    os << "coeffs " << ch.coefficients().size() << '\n';
    for (const double c : ch.coefficients()) os << fmt17(c) << '\n';
  }
  os << "cert " << fmt17(cert_.max_rel_error) << ' '
     << fmt17(cert_.mean_rel_error) << ' ' << cert_.probes << ' '
     << fmt17(cert_.tol) << ' ' << (cert_.certified ? 1 : 0) << '\n';
  os << "end\n";
  return os.str();
}

std::optional<SurrogateModel> SurrogateModel::load_text(
    const std::string& text) {
  std::istringstream is(text);
  std::string word;
  int version = 0;
  if (!(is >> word >> version) || word != "obdrel-surrogate" || version != 1)
    return std::nullopt;
  SurrogateModel m;
  if (!(is >> word) || word != "domain") return std::nullopt;
  SurrogateDomain& d = m.domain_;
  if (!(is >> d.dt_lo >> d.dt_hi >> d.vdd_lo >> d.vdd_hi >> d.act_lo >>
        d.act_hi >> d.t_lo >> d.t_hi))
    return std::nullopt;
  std::size_t n_channels = 0;
  if (!(is >> word >> n_channels) || word != "channels" || n_channels == 0 ||
      n_channels > 16)
    return std::nullopt;
  for (std::size_t ci = 0; ci < n_channels; ++ci) {
    std::size_t n_axes = 0;
    if (!(is >> word >> n_axes) || word != "axes" || n_axes == 0 ||
        n_axes > 8)
      return std::nullopt;
    std::vector<ChebAxis> axes(n_axes);
    std::size_t total = 1;
    for (ChebAxis& a : axes) {
      if (!(is >> word >> a.lo >> a.hi >> a.n) || word != "axis" ||
          a.n == 0 || a.n > 256 || !(a.hi > a.lo))
        return std::nullopt;
      total *= a.n;
    }
    std::size_t count = 0;
    if (!(is >> word >> count) || word != "coeffs" || count != total ||
        count > (std::size_t{1} << 24))
      return std::nullopt;
    std::vector<double> coeffs(count);
    for (double& c : coeffs)
      if (!(is >> c)) return std::nullopt;
    m.channels_.emplace_back(std::move(axes), std::move(coeffs));
  }
  SurrogateCertificate& cert = m.cert_;
  int certified = 0;
  if (!(is >> word >> cert.max_rel_error >> cert.mean_rel_error >>
        cert.probes >> cert.tol >> certified) ||
      word != "cert")
    return std::nullopt;
  cert.certified = certified != 0;
  if (!(is >> word) || word != "end") return std::nullopt;
  return m;
}

}  // namespace obd::surrogate
