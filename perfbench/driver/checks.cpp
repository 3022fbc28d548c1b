#include "checks.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "analysis/analyzer.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace perfbench {

namespace {

rta::SchedulerKind kind_of(Sched s) {
  switch (s) {
    case Sched::kSpp: return rta::SchedulerKind::kSpp;
    case Sched::kSpnp: return rta::SchedulerKind::kSpnp;
    case Sched::kFcfs: return rta::SchedulerKind::kFcfs;
  }
  return rta::SchedulerKind::kSpp;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string job_diff(const GenJob& a, const GenJob& b) {
  if (a.name != b.name) return "name " + a.name + " vs " + b.name;
  if (!same_bits(a.deadline, b.deadline)) return a.name + ": deadline";
  if (a.hops.size() != b.hops.size()) return a.name + ": hop count";
  for (std::size_t h = 0; h < a.hops.size(); ++h) {
    if (a.hops[h].processor != b.hops[h].processor ||
        !same_bits(a.hops[h].exec, b.hops[h].exec) ||
        a.hops[h].priority != b.hops[h].priority) {
      return a.name + ": hop " + std::to_string(h);
    }
  }
  if (a.releases.size() != b.releases.size()) return a.name + ": releases";
  for (std::size_t i = 0; i < a.releases.size(); ++i) {
    if (!same_bits(a.releases[i], b.releases[i])) return a.name + ": release";
  }
  return "";
}

}  // namespace

rta::System to_system(const std::vector<Sched>& schedulers,
                      const std::vector<GenJob>& jobs) {
  rta::System sys(static_cast<int>(schedulers.size()));
  for (std::size_t p = 0; p < schedulers.size(); ++p) {
    sys.set_scheduler(static_cast<int>(p), kind_of(schedulers[p]));
  }
  for (const GenJob& g : jobs) {
    rta::Job job;
    job.name = g.name;
    job.deadline = g.deadline;
    for (const GenHop& h : g.hops) {
      rta::Subjob s;
      s.processor = h.processor;
      s.exec_time = h.exec;
      s.priority = h.priority;
      job.chain.push_back(s);
    }
    job.arrivals = rta::ArrivalSequence(g.releases);
    sys.add_job(std::move(job));
  }
  return sys;
}

std::vector<FreshVerdict> fresh_verdicts(
    const std::vector<DecisionSample>& samples) {
  std::vector<FreshVerdict> out;
  for (const DecisionSample& s : samples) {
    rta::AnalysisConfig cfg;
    cfg.horizon = s.horizon;
    cfg.threads = 1;
    const rta::Analyzer analyzer(cfg);
    const rta::AnalysisResult r = analyzer.analyze(
        to_system(s.schedulers, s.jobs), rta::EngineKind::kBounds);
    FreshVerdict v{r.ok, r.all_schedulable(), r.max_wcrt(), r.horizon, {}};
    for (const rta::JobReport& j : r.jobs) v.wcrt.push_back(j.wcrt);
    out.push_back(std::move(v));
  }
  return out;
}

Failures check_decisions(const std::vector<DecisionSample>& samples,
                         const std::vector<FreshVerdict>& fresh) {
  Failures f;
  if (samples.size() != fresh.size()) {
    f.push_back("decisions: sample/verdict count mismatch");
    return f;
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const DecisionSample& s = samples[i];
    const FreshVerdict& v = fresh[i];
    if (!v.ok) {
      f.push_back(s.where + ": fresh analysis failed");
    } else if (s.admitted != v.schedulable || s.schedulable != v.schedulable ||
               !same_bits(s.max_wcrt, v.max_wcrt)) {
      f.push_back(s.where + ": service says admitted=" +
                  std::to_string(s.admitted) + " max_wcrt=" + num(s.max_wcrt) +
                  ", fresh analysis says " + std::to_string(v.schedulable) +
                  " " + num(v.max_wcrt));
    }
  }
  return f;
}

Failures check_explains(const std::vector<ExplainSample>& explains) {
  Failures f;
  for (const ExplainSample& e : explains) {
    double sum = 0.0;
    int argmax = -1;
    for (std::size_t h = 0; h < e.hop_bounds.size(); ++h) {
      sum += e.hop_bounds[h];
      if (argmax < 0 ||
          e.hop_bounds[h] > e.hop_bounds[static_cast<std::size_t>(argmax)]) {
        argmax = static_cast<int>(h);
      }
    }
    if (!same_bits(sum, e.wcrt)) {
      f.push_back(e.where + ": explain hops sum to " + num(sum) +
                  ", wcrt says " + num(e.wcrt));
    }
    if (argmax != e.dominant_hop) {
      f.push_back(e.where + ": dominant_hop " + std::to_string(e.dominant_hop) +
                  " is not the argmax " + std::to_string(argmax));
    }
  }
  return f;
}

Failures check_replay(const std::string& where,
                      const std::vector<GenJob>& reported,
                      const std::vector<GenJob>& replayed) {
  Failures f;
  if (reported.size() != replayed.size()) {
    f.push_back(where + ": " + std::to_string(reported.size()) +
                " committed jobs, replay expects " +
                std::to_string(replayed.size()));
    return f;
  }
  for (std::size_t k = 0; k < reported.size(); ++k) {
    const std::string d = job_diff(reported[k], replayed[k]);
    if (!d.empty()) f.push_back(where + ": job " + std::to_string(k) + " " + d);
  }
  return f;
}

Failures check_one_response_each(const ResponseTally& t) {
  Failures f;
  if (t.resp_tenants.size() != t.line_tenants.size()) {
    f.push_back(std::to_string(t.line_tenants.size()) + " lines got " +
                std::to_string(t.resp_tenants.size()) + " responses");
    return f;
  }
  for (std::size_t i = 0; i < t.line_tenants.size(); ++i) {
    if (t.resp_tenants[i] != t.line_tenants[i] ||
        t.resp_request[i] != t.expected_request[i]) {
      f.push_back("line " + std::to_string(i) + " (tenant '" +
                  t.line_tenants[i] + "') answered as request " +
                  std::to_string(t.resp_request[i]) + " of '" +
                  t.resp_tenants[i] + "'");
      break;
    }
  }
  return f;
}

std::vector<std::vector<double>> simulate_cases(
    const std::vector<SimCase>& cases) {
  std::vector<std::vector<double>> out;
  for (const SimCase& c : cases) {
    out.push_back(rta::simulate(c.system, c.horizon).worst_response);
  }
  return out;
}

Failures check_sim(const std::vector<SimCase>& cases,
                   const std::vector<std::vector<double>>& simulated) {
  Failures f;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SimCase& c = cases[i];
    const std::vector<double>& sim = simulated[i];
    if (sim.size() != c.bound.size()) {
      f.push_back(c.where + ": job count differs from the simulation");
      continue;
    }
    for (std::size_t k = 0; k < sim.size(); ++k) {
      const double b = c.bound[k];
      const bool ok = c.exact ? (std::isinf(b) ? std::isinf(sim[k])
                                               : rta::time_eq(b, sim[k]))
                              : (std::isinf(b) || rta::time_le(sim[k], b));
      if (!ok) {
        f.push_back(c.where + " job " + std::to_string(k) + ": bound " +
                    num(b) + (c.exact ? " != " : " < ") + "simulated " +
                    num(sim[k]));
      }
    }
  }
  return f;
}

Failures check_sl_implies_exact(const std::vector<VerdictPair>& pairs) {
  Failures f;
  for (const VerdictPair& p : pairs) {
    if (p.sl_admitted && !p.exact_admitted) {
      f.push_back(p.where + ": SPP/S&L admits, SPP/Exact rejects");
    }
  }
  return f;
}

namespace {

void append(Failures& into, const std::string& check, const Failures& f) {
  for (const std::string& m : f) into.push_back(check + ": " + m);
}

/// A corrupted input that a check accepted.
void expect_rejected(Failures& into, const std::string& what,
                     const Failures& f) {
  if (f.empty()) into.push_back("self-test: " + what + " was not rejected");
}

}  // namespace

Failures run_checks(Evidence& ev) {
  Failures out;
  append(out, "decisions", check_decisions(ev.decisions, ev.fresh));
  append(out, "explain", check_explains(ev.explains));
  for (const Evidence::Replay& r : ev.replays) {
    append(out, "replay", check_replay(r.where, r.reported, r.replayed));
  }
  for (const ResponseTally& t : ev.tallies) {
    append(out, "responses", check_one_response_each(t));
  }
  append(out, "simulation", check_sim(ev.sims, ev.simulated));
  append(out, "S&L<=Exact", check_sl_implies_exact(ev.verdicts));

  // Self-test: every check that ran on real evidence must reject a
  // corrupted copy of it.
  if (!ev.decisions.empty()) {
    std::vector<DecisionSample> bad = {ev.decisions.front()};
    const std::vector<FreshVerdict> fresh = {ev.fresh.front()};
    bad[0].max_wcrt = std::nextafter(bad[0].max_wcrt, INFINITY);
    expect_rejected(out, "decisions: perturbed max_wcrt",
                    check_decisions(bad, fresh));
    bad[0] = ev.decisions.front();
    bad[0].admitted = !bad[0].admitted;
    expect_rejected(out, "decisions: wrong admit verdict",
                    check_decisions(bad, fresh));
  }
  for (const ExplainSample& e : ev.explains) {
    if (!std::isfinite(e.wcrt) || e.hop_bounds.empty()) continue;
    ExplainSample bad = e;
    bad.hop_bounds[0] += std::max(1e-6, 1e-3 * std::fabs(e.wcrt));
    expect_rejected(out, "explain: perturbed hop bound", check_explains({bad}));
    break;
  }
  if (!ev.replays.empty()) {
    const Evidence::Replay& r = ev.replays.front();
    std::vector<GenJob> bad = r.replayed;
    GenJob phantom = bad.empty() ? GenJob{} : bad.back();
    phantom.name += "+rejected";
    bad.push_back(phantom);
    expect_rejected(out, "replay: rejected admit recorded as admitted",
                    check_replay(r.where, r.reported, bad));
  }
  for (const ResponseTally& t : ev.tallies) {
    if (t.resp_tenants.empty()) continue;
    ResponseTally bad = t;
    bad.resp_tenants.pop_back();
    bad.resp_request.pop_back();
    expect_rejected(out, "responses: dropped response",
                    check_one_response_each(bad));
    break;
  }
  for (std::size_t i = 0; i < ev.sims.size(); ++i) {
    const std::vector<double>& sim = ev.simulated[i];
    std::size_t k = 0;
    while (k < sim.size() && !(std::isfinite(sim[k]) && sim[k] > 0.0)) ++k;
    if (k == sim.size()) continue;
    std::vector<SimCase> bad;
    bad.push_back(ev.sims[i]);
    bad[0].bound[k] = sim[k] - std::max(1e-6, 1e-3 * sim[k]);
    expect_rejected(out, "simulation: bound perturbed below the simulation",
                    check_sim(bad, {sim}));
    break;
  }
  if (!ev.verdicts.empty()) {
    VerdictPair bad = ev.verdicts.front();
    bad.sl_admitted = true;
    bad.exact_admitted = false;
    expect_rejected(out, "S&L<=Exact: wrong SPP/Exact verdict",
                    check_sl_implies_exact({bad}));
  }
  return out;
}

}  // namespace perfbench
