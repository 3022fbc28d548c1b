// The two serve workloads. Sessions and schedulers are built the way
// `rta_cli serve` builds them (tools/rta_cli.cpp, cmd_serve): one
// SessionConfig, a horizon pinned with default_horizon, RequestScheduler for
// one tenant and ShardedScheduler over a TenantRegistry of committed clones
// for many. The client writes request lines in and reads response lines out
// of a timestamping stream, one step of lines at a time; the lines of the
// next step may depend on earlier answers (a candidate is removed only after
// it was admitted), which keeps every operation valid whatever the verdicts.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>

#include "analysis/result.hpp"
#include "io/json.hpp"
#include "io/system_text.hpp"
#include "layers.hpp"
#include "service/admission_session.hpp"
#include "service/request_codec.hpp"
#include "service/request_scheduler.hpp"
#include "service/sharded_scheduler.hpp"
#include "service/tenant_registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

enum class Op { kQuery, kWhatIf, kAdmit, kRemove };

struct Candidate {
  GenJob job;  ///< priorities set only when the request carries them
  std::string json;
};

struct Tenant {
  std::string name;  ///< "" for the single-tenant workload
  GenSystem base;
  double horizon = 0.0;
  std::vector<Candidate> cands;
  std::vector<GenJob> record;  ///< replay of the committed job set
  std::vector<char> committed;  ///< per candidate
  long long answered = 0;       ///< per-tenant request numbering
};

struct Line {
  int tenant = 0;
  Op op = Op::kQuery;
  int cand = -1;
  std::string text;
};

std::string request(const Tenant& t, const std::string& body) {
  if (t.name.empty()) return "{" + body + "}";
  return "{\"tenant\": \"" + t.name + "\", " + body + "}";
}

Line query_line(const std::vector<Tenant>& ts, int t) {
  return {t, Op::kQuery, -1, request(ts[static_cast<std::size_t>(t)],
                                     "\"op\": \"query\"")};
}

Line job_line(const std::vector<Tenant>& ts, int t, Op op, int c) {
  const Tenant& tn = ts[static_cast<std::size_t>(t)];
  const char* verb = op == Op::kAdmit ? "admit" : "what_if";
  return {t, op, c,
          request(tn, std::string("\"op\": \"") + verb + "\", \"job\": " +
                          tn.cands[static_cast<std::size_t>(c)].json)};
}

Line remove_line(const std::vector<Tenant>& ts, int t, int c) {
  const Tenant& tn = ts[static_cast<std::size_t>(t)];
  return {t, Op::kRemove, c,
          request(tn, "\"op\": \"remove\", \"name\": \"" +
                          tn.cands[static_cast<std::size_t>(c)].job.name +
                          "\"")};
}

/// The candidate as the session commits it: requests without explicit
/// priorities get the lowest priority on each processor, counting earlier
/// hops of the same job (the service's newcomer policy, recomputed here
/// from the benchmark's own record).
GenJob resolve(const Tenant& t, int c) {
  GenJob job = t.cands[static_cast<std::size_t>(c)].job;
  for (const GenHop& h : job.hops) {
    if (h.has_priority) return job;
  }
  std::map<int, int> next;
  for (GenHop& hop : job.hops) {
    auto it = next.find(hop.processor);
    if (it == next.end()) {
      int lowest = 0;
      for (const GenJob& j : t.record) {
        for (const GenHop& h : j.hops) {
          if (h.processor == hop.processor) {
            lowest = std::max(lowest, h.priority + 1);
          }
        }
      }
      it = next.emplace(hop.processor, lowest).first;
    }
    hop.priority = it->second++;
  }
  return job;
}

GenJob from_model(const rta::Job& j) {
  GenJob g;
  g.name = j.name;
  g.deadline = j.deadline;
  for (const rta::Subjob& s : j.chain) {
    g.hops.push_back({s.processor, s.exec_time, s.priority, true});
  }
  g.releases = j.arrivals.releases();
  return g;
}

double time_field(const rta::json::Value& v) {
  return v.is_string() ? INFINITY : v.as_number();
}

/// A candidate chain of `hops` hops that visits stages in shop order (so
/// the dependency graph stays acyclic): a random subset of the stages whose
/// `allowed` list is non-empty, always including `required_stage` when it is
/// >= 0, each hop on a random processor of its stage's list. First-hop
/// releases are bursty (Eq. 27) and end inside the base window, so the
/// pinned horizon still covers them. `explicit_prio` != 0 gives the hops
/// explicit priorities from it downwards; otherwise the service assigns
/// the lowest ones.
Candidate make_candidate(Strata& draw, const std::string& name,
                         const std::vector<std::vector<int>>& allowed,
                         int required_stage, int hops, double window,
                         double exec_scale, int explicit_prio) {
  Candidate c;
  c.job.name = name;
  std::vector<int> optional;
  for (int s = 0; s < static_cast<int>(allowed.size()); ++s) {
    if (s != required_stage && !allowed[static_cast<std::size_t>(s)].empty()) {
      optional.push_back(s);
    }
  }
  std::vector<char> visit(allowed.size(), 0);
  if (required_stage >= 0) visit[static_cast<std::size_t>(required_stage)] = 1;
  int need = hops - (required_stage >= 0 ? 1 : 0);
  for (std::size_t i = 0; i < optional.size(); ++i) {
    const auto left = static_cast<double>(optional.size() - i);
    if (need > 0 && draw.u() * left < need) {
      visit[static_cast<std::size_t>(optional[i])] = 1;
      --need;
    }
  }
  double total = 0.0;
  for (std::size_t s = 0; s < allowed.size(); ++s) {
    if (visit[s] == 0) continue;
    const std::vector<int>& procs = allowed[s];
    GenHop hop;
    hop.processor = procs[static_cast<std::size_t>(
        draw.u() * static_cast<double>(procs.size()))];
    hop.exec = exec_scale * (0.5 + draw.u());
    if (explicit_prio != 0) {
      hop.priority = explicit_prio - static_cast<int>(c.job.hops.size());
      hop.has_priority = true;
    }
    total += hop.exec;
    c.job.hops.push_back(hop);
  }
  const double x = 0.15 + 0.25 * draw.u();
  c.job.releases = bursty_releases(x, window);
  c.job.deadline = total + (3.0 + 3.0 * draw.u()) / x;
  c.json = job_json(c.job);
  return c;
}

/// Everything the client learns while replaying steps.
class Client {
 public:
  Client(std::vector<Tenant>& tenants, RunResult& result, Evidence& evidence)
      : tenants_(tenants), result_(result), evidence_(evidence) {}

  /// Match one step's responses to its lines, in order; update the replay
  /// records; collect latencies and evidence. `sample_every` > 0 keeps every
  /// n-th admit / what_if answer for the fresh-analysis check.
  void absorb(const std::vector<Line>& lines,
              const std::vector<Clock::time_point>& submitted,
              std::vector<StampBuf::Line>& out, int sample_every,
              std::uint64_t* response_bytes) {
    ResponseTally tally;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      Tenant& t = tenants_[static_cast<std::size_t>(lines[i].tenant)];
      tally.line_tenants.push_back(t.name);
      tally.expected_request.push_back(++t.answered);
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      const rta::json::ParseResult doc = rta::json::parse(out[i].text);
      const rta::json::Value* tenant = doc.ok ? doc.value.find("tenant") : nullptr;
      const rta::json::Value* req = doc.ok ? doc.value.find("request") : nullptr;
      tally.resp_tenants.push_back(tenant != nullptr ? tenant->as_string() : "");
      tally.resp_request.push_back(
          req != nullptr ? static_cast<long long>(req->as_number()) : -1);
      if (i >= lines.size()) continue;
      result_.latency_ms.push_back(
          seconds_between(submitted[i], out[i].at) * 1e3);
      if (response_bytes != nullptr) {
        // latency_us is the one wall-clock field; leave it out of the count.
        const std::size_t at = out[i].text.find(",\"latency_us\":");
        *response_bytes += at == std::string::npos ? out[i].text.size() : at;
      }
      const rta::json::Value* ok = doc.ok ? doc.value.find("ok") : nullptr;
      if (ok == nullptr || !ok->as_bool()) {
        // Counted in `failed`; the checks speak of the operations that
        // succeeded.
        if (++result_.failed <= 3) {
          std::fprintf(stderr, "operation failed: %s\n", out[i].text.c_str());
        }
        continue;
      }
      absorb_one(lines[i], doc.value, sample_every);
    }
    const Failures f = check_one_response_each(tally);
    for (const std::string& m : f) {
      result_.check_failures.push_back("responses: " + m);
    }
    if (evidence_.tallies.empty()) evidence_.tallies.push_back(tally);
    out.clear();
  }

  std::uint64_t doublings = 0;  ///< explain doublings seen (counting rounds)

 private:
  void absorb_one(const Line& line, const rta::json::Value& v,
                  int sample_every) {
    Tenant& t = tenants_[static_cast<std::size_t>(line.tenant)];
    const std::string where =
        (t.name.empty() ? std::string("request ") : t.name + " request ") +
        std::to_string(t.answered);
    switch (line.op) {
      case Op::kQuery: {
        const rta::json::Value* jobs = v.find("jobs");
        if (jobs == nullptr ||
            static_cast<std::size_t>(jobs->as_number()) != t.record.size()) {
          result_.check_failures.push_back(
              "replay: " + where + " query reports " +
              (jobs != nullptr ? std::to_string(jobs->as_number()) : "none") +
              " jobs, replay has " + std::to_string(t.record.size()));
        }
        return;
      }
      case Op::kRemove: {
        for (auto it = t.record.begin(); it != t.record.end(); ++it) {
          if (it->name == t.cands[static_cast<std::size_t>(line.cand)].job.name) {
            t.record.erase(it);
            break;
          }
        }
        t.committed[static_cast<std::size_t>(line.cand)] = 0;
        return;
      }
      case Op::kWhatIf:
      case Op::kAdmit:
        break;
    }
    const GenJob cand = resolve(t, line.cand);
    const bool admitted = v.find("admitted")->as_bool();
    if (const rta::json::Value* ex = v.find("explain"); ex != nullptr) {
      ExplainSample e;
      e.where = where;
      e.wcrt = time_field(*ex->find("wcrt"));
      e.dominant_hop = static_cast<int>(ex->find("dominant_hop")->as_number());
      for (const rta::json::Value& hop : ex->find("hops")->as_array()) {
        e.hop_bounds.push_back(time_field(*hop.find("bound")));
      }
      doublings += static_cast<std::uint64_t>(ex->find("doublings")->as_number());
      const Failures f = check_explains({e});
      for (const std::string& m : f) {
        result_.check_failures.push_back("explain: " + m);
      }
      if (evidence_.explains.size() < 4) evidence_.explains.push_back(e);
    } else {
      result_.check_failures.push_back("explain: " + where + " has none");
    }
    if (sample_every > 0 && ++decisions_ % sample_every == 0) {
      DecisionSample s;
      s.where = where;
      s.schedulers = t.base.schedulers;
      s.jobs = t.record;
      s.jobs.push_back(cand);
      s.horizon = t.horizon;
      s.admitted = admitted;
      s.schedulable = v.find("schedulable")->as_bool();
      s.max_wcrt = time_field(*v.find("max_wcrt"));
      evidence_.decisions.push_back(std::move(s));
    }
    if (line.op == Op::kAdmit && admitted) {
      t.record.push_back(cand);
      t.committed[static_cast<std::size_t>(line.cand)] = 1;
    }
  }

  std::vector<Tenant>& tenants_;
  RunResult& result_;
  Evidence& evidence_;
  std::uint64_t decisions_ = 0;
};

/// Parse every tenant's system text (the io layer's set-up share).
std::vector<rta::System> parse_systems(const std::vector<std::string>& texts,
                                       const Instruments& ins,
                                       RunResult& result) {
  std::vector<rta::System> out;
  const Clock::time_point t0 = Clock::now();
  for (const std::string& text : texts) {
    const Span span(ins.span_sink(), "bench.parse_system");
    rta::ParsedSystem parsed = rta::parse_system_text(text);
    if (!parsed.ok) {
      result.check_failures.push_back("system text rejected: " + parsed.error);
    }
    out.push_back(std::move(parsed.system));
  }
  result.layers["io.parse_system_s"] = seconds_between(t0, Clock::now());
  return out;
}

/// A session's last committed analysis next to a simulation of its system.
void add_final_sim(const std::string& where,
                   const rta::service::AdmissionSession& session,
                   Evidence& ev) {
  SimCase c;
  c.where = where + " final committed system";
  c.system = session.system();
  c.horizon = session.last().horizon;
  for (const rta::JobReport& j : session.last().jobs) c.bound.push_back(j.wcrt);
  ev.sims.push_back(std::move(c));
}

/// Keep the sampled candidate systems that fit `budget` simulations.
void add_sample_sims(Evidence& ev, std::size_t budget) {
  std::size_t added = 0;
  for (std::size_t i = 0; i < ev.decisions.size() && added < budget; ++i) {
    const DecisionSample& s = ev.decisions[i];
    const FreshVerdict& v = ev.fresh[i];
    if (!v.ok) continue;
    SimCase c;
    c.where = s.where + " candidate system";
    c.system = to_system(s.schedulers, s.jobs);
    c.horizon = v.horizon;
    c.bound = v.wcrt;
    ev.sims.push_back(std::move(c));
    ++added;
  }
}

bool sampled_round(std::uint64_t round) {
  return (round & (round - 1)) == 0;  // rounds 1, 2, 4, 8, ...
}

}  // namespace

// ---------------------------------------------------------------------------
// admit_churn

namespace {

constexpr int kChurnStages = 4;
constexpr int kChurnProcsPerStage = 4;
constexpr int kChurnJobs = 20;
constexpr int kChurnCandidates = 72;
constexpr int kChurnGroup = 3;
constexpr std::uint64_t kChurnPlantSeed = 0x5eed;

/// Fig. 3-style periodic shop; a few processors run SPNP or FCFS.
Sched churn_kind(int p) {
  if (p == 2 || p == 9) return Sched::kSpnp;
  if (p == 5 || p == 14) return Sched::kFcfs;
  return Sched::kSpp;
}

Tenant make_churn_tenant(std::uint64_t seed) {
  Rng plant_rng = Rng::stream(kChurnPlantSeed, 1);
  Rng rng = Rng::stream(seed, 1);
  ShopSpec spec;
  spec.stages = kChurnStages;
  spec.procs_per_stage = kChurnProcsPerStage;
  spec.jobs = kChurnJobs;
  spec.min_rate = 0.25;
  spec.stratified = true;
  spec.utilization = 0.35;
  spec.window_periods = 4.0;
  spec.deadline_multiple = 4.0;
  const ShopDraw draw = draw_shop(spec, plant_rng);
  Tenant t;
  t.base = build_shop(spec, draw, Sched::kSpp);
  for (std::size_t p = 0; p < t.base.schedulers.size(); ++p) {
    t.base.schedulers[p] = churn_kind(static_cast<int>(p));
  }
  assign_pdm(t.base);
  double window = 0.0;
  for (const GenJob& j : t.base.jobs) {
    window = std::max(window, j.releases.back());
  }
  // Six candidate classes in turn, so every seed mixes the same kinds of
  // work: two SPP-only lowest-priority chains (the fast what-if path), one
  // through an SPNP processor (blocking terms change), one through an FCFS
  // processor (the whole processor is dirty), one anywhere, and one with
  // explicit top priorities (unique per candidate) on every processor of
  // stage 0, which disturbs every job of the shop and so always takes the
  // session's full pass. Chain lengths cycle through 1, 2 and 3 hops.
  std::vector<std::vector<int>> any(kChurnStages);
  std::vector<std::vector<int>> spp(kChurnStages);
  for (int p = 0; p < kChurnStages * kChurnProcsPerStage; ++p) {
    const auto stage = static_cast<std::size_t>(p / kChurnProcsPerStage);
    any[stage].push_back(p);
    if (churn_kind(p) == Sched::kSpp) spp[stage].push_back(p);
  }
  std::vector<Strata> strata;
  for (int k = 0; k < 6; ++k) strata.emplace_back(rng, kChurnCandidates / 6);
  for (int c = 0; c < kChurnCandidates; ++c) {
    std::string name = "c";
    name += std::to_string(c);
    Strata& draw = strata[static_cast<std::size_t>(c % 6)];
    draw.member(c / 6);
    const int hops = 1 + (c / 6) % 3;
    std::vector<std::vector<int>> allowed = spp;
    int required = -1;
    int prio = 0;
    int chain = hops;
    switch (c % 6) {
      case 2:
      case 3: {
        // Alternate between the two SPNP (or FCFS) processors.
        const int special = c % 6 == 2 ? ((c / 6) % 2 == 0 ? 2 : 9)
                                       : ((c / 6) % 2 == 0 ? 5 : 14);
        required = special / kChurnProcsPerStage;
        allowed[static_cast<std::size_t>(required)] = {special};
        break;
      }
      case 4:
        allowed = any;
        break;
      case 5:
        // One list per stage-0 processor: the chain visits each in turn.
        allowed.clear();
        for (int p = 0; p < kChurnProcsPerStage; ++p) allowed.push_back({p});
        prio = -10 * (c + 1);
        chain = kChurnProcsPerStage;
        break;
      default:
        break;
    }
    t.cands.push_back(make_candidate(draw, name, allowed, required, chain,
                                     window, 0.12, prio));
  }
  t.committed.assign(t.cands.size(), 0);
  return t;
}

}  // namespace

void run_admit_churn(const RunOptions& opts, RunResult& result,
                     Evidence& evidence) {
  const Instruments ins(opts.trace);
  std::vector<Tenant> tenants;
  tenants.push_back(make_churn_tenant(opts.seed));
  Tenant& t = tenants[0];
  const std::string text = to_text(t.base);

  // --- set-up: parse, session (with its base analysis), scheduler.
  std::vector<rta::System> systems = parse_systems({text}, ins, result);
  rta::service::SessionConfig cfg;
  cfg.analysis.threads = 1;
  cfg.analysis.observer = ins.observer();
  cfg.analysis.horizon = rta::default_horizon(systems[0], cfg.analysis);
  t.horizon = cfg.analysis.horizon;
  for (const GenJob& j : t.base.jobs) t.record.push_back(j);
  const Clock::time_point s0 = Clock::now();
  std::unique_ptr<rta::service::AdmissionSession> session;
  {
    const Span span(ins.span_sink(), "bench.session_setup");
    session = std::make_unique<rta::service::AdmissionSession>(
        std::move(systems[0]), cfg);
  }
  result.layers["session.setup_s"] = seconds_between(s0, Clock::now());
  if (!session->last().ok) {
    result.check_failures.push_back("base analysis failed: " +
                                    session->last().error);
    return;
  }
  StampBuf buf;
  std::ostream out(&buf);
  rta::service::StreamOptions stream;
  stream.parallel_reads = 1;
  rta::service::RequestScheduler sched(*session, out, stream);
  result.setup_s = seconds_between(process_start(), Clock::now());

  // --- measured rounds.
  Client client(tenants, result, evidence);
  const double from_us = ins.now_us();
  rta::obs::MetricsSnapshot before;
  rta::obs::MetricsSnapshot after;
  if (ins.metrics != nullptr) before = ins.metrics->snapshot();
  std::uint64_t bytes = 0;
  std::uint64_t round = 0;
  std::vector<Clock::time_point> submitted;
  const Clock::time_point start = Clock::now();
  while (another_round(opts, start, round, result.attempted)) {
    ++round;
    const double busy0 = result.busy_s;
    const std::uint64_t ops0 = result.attempted;
    const int sample_every = sampled_round(round) ? 5 : 0;
    std::vector<int> admitted_in;  // step index each candidate was admitted
    admitted_in.assign(t.cands.size(), -1);
    const int groups = kChurnCandidates / kChurnGroup;
    for (int g = 0; g <= groups; ++g) {
      std::vector<Line> lines;
      lines.push_back(query_line(tenants, 0));
      if (g < groups) {
        const int c0 = g * kChurnGroup;
        lines.push_back(job_line(tenants, 0, Op::kWhatIf, c0));
        for (int c = c0; c < c0 + kChurnGroup; ++c) {
          lines.push_back(job_line(tenants, 0, Op::kWhatIf, c));
        }
        for (int c = c0; c < c0 + kChurnGroup; ++c) {
          lines.push_back(job_line(tenants, 0, Op::kAdmit, c));
        }
      }
      for (int c = 0; c < kChurnCandidates; ++c) {
        if (t.committed[static_cast<std::size_t>(c)] == 0) continue;
        if (g == groups || c / kChurnGroup <= g - 2) {
          lines.push_back(remove_line(tenants, 0, c));
        }
      }
      lines.push_back(query_line(tenants, 0));
      submitted.clear();
      const Clock::time_point step0 = Clock::now();
      for (const Line& line : lines) {
        if (ins.tracer != nullptr) {
          rta::service::detail::ParsedRequest req;
          {
            const Span span(ins.span_sink(), "bench.parse_request");
            req = rta::service::detail::parse_request(line.text);
          }
          submitted.push_back(Clock::now());
          const Span span(ins.span_sink(), "bench.submit");
          sched.submit_parsed(line.text, std::move(req));
        } else {
          submitted.push_back(Clock::now());
          sched.submit_line(line.text);
        }
      }
      {
        const Span span(ins.span_sink(), "bench.flush");
        sched.flush();
      }
      result.busy_s += seconds_between(step0, Clock::now());
      result.attempted += lines.size();
      client.absorb(lines, submitted, buf.lines(), sample_every,
                    round == 1 ? &bytes : nullptr);
    }
    result.round_ops_per_s.push_back(
        static_cast<double>(result.attempted - ops0) /
        (result.busy_s - busy0));
    if (round == 1) {
      if (ins.metrics != nullptr) after = ins.metrics->snapshot();
      result.layers["codec.response_bytes"] = static_cast<double>(bytes);
      result.layers["analysis.horizon_doublings"] =
          static_cast<double>(client.doublings);
    }
  }
  sched.finish();
  result.peak_rss_mb = peak_rss_mb();
  fold_layers(ins, from_us, result.attempted, before, after, churn_kind,
              result);

  // --- evidence for the checks.
  std::vector<GenJob> reported;
  for (const rta::Job& j : session->system().jobs()) {
    reported.push_back(from_model(j));
  }
  evidence.replays.push_back({"admit_churn", reported, t.record});
  add_final_sim("admit_churn", *session, evidence);
  evidence.fresh = fresh_verdicts(evidence.decisions);
  add_sample_sims(evidence, 6);
}

// ---------------------------------------------------------------------------
// poll_tenants

namespace {

constexpr int kTenants = 256;

/// The same processor layout in every tenant: P0/P2 SPP, P1 SPNP, P3 FCFS.
Sched poll_kind(int p) {
  if (p == 1) return Sched::kSpnp;
  if (p == 3) return Sched::kFcfs;
  return Sched::kSpp;
}

Tenant make_poll_tenant(std::uint64_t seed, int index) {
  Rng rng = Rng::stream(seed, 1000 + static_cast<std::uint64_t>(index));
  ShopSpec spec;
  spec.stages = 2;
  spec.procs_per_stage = 2;
  spec.jobs = 3;
  spec.utilization = 0.3;
  spec.window_periods = 4.0;
  spec.deadline_multiple = 3.0;
  spec.min_rate = 0.2;
  const ShopDraw draw = draw_shop(spec, rng);
  Tenant t;
  t.name = "t";
  t.name += std::to_string(index);
  t.base = build_shop(spec, draw, Sched::kSpp);
  for (std::size_t p = 0; p < t.base.schedulers.size(); ++p) {
    t.base.schedulers[p] = poll_kind(static_cast<int>(p));
  }
  assign_pdm(t.base);
  double window = 0.0;
  for (const GenJob& j : t.base.jobs) {
    window = std::max(window, j.releases.back());
  }
  // c0: SPP-only lowest-priority candidate (the session's fast what-if
  // path); c1: touches the SPNP or FCFS processor (the general path);
  // c2: the candidate that is admitted and removed again.
  Strata strata(rng, 1);
  for (const char* name : {"f", "g", "a"}) {
    const std::vector<std::vector<int>> allowed =
        name[0] == 'f' ? std::vector<std::vector<int>>{{0}, {2}}
        : name[0] == 'g' ? std::vector<std::vector<int>>{{1}, {3}}
                         : std::vector<std::vector<int>>{{0, 1}, {2, 3}};
    strata.member(0);
    t.cands.push_back(make_candidate(strata, name, allowed, -1,
                                     rng.uniform_int(1, 2), window, 0.08, 0));
  }
  t.committed.assign(t.cands.size(), 0);
  return t;
}

/// Interleave per-tenant line lists into one stream in a seeded random
/// order that keeps each tenant's own order.
std::vector<Line> interleave(std::vector<std::vector<Line>> per, Rng& rng) {
  std::vector<Line> out;
  std::vector<std::size_t> cursor(per.size(), 0);
  std::vector<int> open;
  for (std::size_t t = 0; t < per.size(); ++t) {
    if (!per[t].empty()) open.push_back(static_cast<int>(t));
  }
  while (!open.empty()) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(open.size()) - 1));
    const auto t = static_cast<std::size_t>(open[pick]);
    out.push_back(std::move(per[t][cursor[t]++]));
    if (cursor[t] == per[t].size()) {
      open[pick] = open.back();
      open.pop_back();
    }
  }
  return out;
}

}  // namespace

void run_poll_tenants(const RunOptions& opts, RunResult& result,
                      Evidence& evidence) {
  const Instruments ins(opts.trace);
  std::vector<Tenant> tenants;
  std::vector<std::string> texts;
  for (int i = 0; i < kTenants; ++i) {
    tenants.push_back(make_poll_tenant(opts.seed, i));
    texts.push_back(to_text(tenants.back().base));
  }

  // --- set-up: parse, one prototype session per tenant system, registry
  // of committed clones, sharded scheduler.
  std::vector<rta::System> systems = parse_systems(texts, ins, result);
  rta::service::SessionConfig base_cfg;
  base_cfg.analysis.threads = 1;
  base_cfg.analysis.observer = ins.observer();
  rta::service::TenantRegistry registry;
  double setup_s = 0.0;
  double clone_s = 0.0;
  for (int i = 0; i < kTenants; ++i) {
    Tenant& t = tenants[static_cast<std::size_t>(i)];
    rta::service::SessionConfig cfg = base_cfg;
    cfg.analysis.horizon = rta::default_horizon(
        systems[static_cast<std::size_t>(i)], cfg.analysis);
    t.horizon = cfg.analysis.horizon;
    for (const GenJob& j : t.base.jobs) t.record.push_back(j);
    const Clock::time_point s0 = Clock::now();
    std::unique_ptr<rta::service::AdmissionSession> proto;
    {
      const Span span(ins.span_sink(), "bench.session_setup");
      proto = std::make_unique<rta::service::AdmissionSession>(
          std::move(systems[static_cast<std::size_t>(i)]), cfg);
    }
    const Clock::time_point s1 = Clock::now();
    if (!proto->last().ok) {
      result.check_failures.push_back(t.name + ": base analysis failed: " +
                                      proto->last().error);
      return;
    }
    {
      const Span span(ins.span_sink(), "bench.registry_clone");
      registry.add(t.name, proto->clone_committed());
    }
    setup_s += seconds_between(s0, s1);
    clone_s += seconds_between(s1, Clock::now());
  }
  result.layers["session.setup_s"] = setup_s;
  result.layers["session.snapshot_clone_s"] = clone_s;
  StampBuf buf;
  std::ostream out(&buf);
  rta::service::ShardedOptions sharded;
  sharded.shards = 2;
  sharded.stream.parallel_reads = 1;
  sharded.stream.max_inflight = 0;
  sharded.tenant_max_inflight = 0;
  rta::service::ShardedScheduler sched(registry, out, sharded,
                                       ins.observer());
  result.setup_s = seconds_between(process_start(), Clock::now());

  // --- measured rounds. Step A: per tenant two identical queries, two
  // identical fast-path what-ifs, a general-path what-if, then an admit (one
  // tenant in four) or a third query. Step B: per tenant a removal of what
  // step A admitted, or one more fast-path what-if. Both steps are whole
  // pump windows (256 lines), so each ends with every response out.
  Rng order_rng = Rng::stream(opts.seed, 7);
  const std::vector<Line> step_a = [&] {
    std::vector<std::vector<Line>> per(kTenants);
    for (int i = 0; i < kTenants; ++i) {
      auto& l = per[static_cast<std::size_t>(i)];
      l.push_back(query_line(tenants, i));
      l.push_back(query_line(tenants, i));
      l.push_back(job_line(tenants, i, Op::kWhatIf, 0));
      l.push_back(job_line(tenants, i, Op::kWhatIf, 0));
      l.push_back(job_line(tenants, i, Op::kWhatIf, 1));
      l.push_back(i % 4 == 0 ? job_line(tenants, i, Op::kAdmit, 2)
                             : query_line(tenants, i));
    }
    return interleave(std::move(per), order_rng);
  }();
  Rng order_b = Rng::stream(opts.seed, 8);
  std::vector<int> order_b_tenants;
  {
    std::vector<std::vector<Line>> per(kTenants);
    for (int i = 0; i < kTenants; ++i) {
      per[static_cast<std::size_t>(i)].push_back(query_line(tenants, i));
    }
    for (const Line& l : interleave(std::move(per), order_b)) {
      order_b_tenants.push_back(l.tenant);
    }
  }

  Client client(tenants, result, evidence);
  const double from_us = ins.now_us();
  rta::obs::MetricsSnapshot before;
  rta::obs::MetricsSnapshot after;
  if (ins.metrics != nullptr) before = ins.metrics->snapshot();
  std::uint64_t pumps_before = sched.stats().pumps;
  std::uint64_t bytes = 0;
  std::uint64_t round = 0;
  std::vector<Clock::time_point> submitted;
  auto run_step = [&](const std::vector<Line>& lines, int sample_every) {
    submitted.clear();
    const Clock::time_point step0 = Clock::now();
    for (const Line& line : lines) {
      if (ins.tracer != nullptr) {
        // The sharded front end parses inside submit_line; this second
        // parse of the same line measures the codec on its own.
        const Span span(ins.span_sink(), "bench.parse_request");
        (void)rta::service::detail::parse_request(line.text);
      }
      submitted.push_back(Clock::now());
      const Span span(ins.span_sink(), "bench.submit");
      sched.submit_line(line.text);
    }
    result.busy_s += seconds_between(step0, Clock::now());
    result.attempted += lines.size();
    client.absorb(lines, submitted, buf.lines(), sample_every,
                  round == 1 ? &bytes : nullptr);
  };
  const Clock::time_point start = Clock::now();
  while (another_round(opts, start, round, result.attempted)) {
    ++round;
    const double busy0 = result.busy_s;
    const std::uint64_t ops0 = result.attempted;
    const int sample_every = sampled_round(round) ? 97 : 0;
    run_step(step_a, sample_every);
    std::vector<Line> step_b;
    for (const int i : order_b_tenants) {
      step_b.push_back(tenants[static_cast<std::size_t>(i)].committed[2] != 0
                           ? remove_line(tenants, i, 2)
                           : job_line(tenants, i, Op::kWhatIf, 0));
    }
    run_step(step_b, sample_every);
    result.round_ops_per_s.push_back(
        static_cast<double>(result.attempted - ops0) /
        (result.busy_s - busy0));
    if (round == 1) {
      if (ins.metrics != nullptr) after = ins.metrics->snapshot();
      result.layers["codec.response_bytes"] = static_cast<double>(bytes);
      result.layers["sharded.pumps"] =
          static_cast<double>(sched.stats().pumps - pumps_before);
      result.layers["analysis.horizon_doublings"] =
          static_cast<double>(client.doublings);
    }
  }
  {
    const Span span(ins.span_sink(), "bench.flush");
    sched.finish();
  }
  if (!buf.lines().empty()) {
    result.check_failures.push_back("responses: " +
                                    std::to_string(buf.lines().size()) +
                                    " responses after the last step");
  }
  result.peak_rss_mb = peak_rss_mb();
  fold_layers(ins, from_us, result.attempted, before, after, poll_kind,
              result);

  // --- evidence for the checks.
  for (int i = 0; i < kTenants; ++i) {
    const Tenant& t = tenants[static_cast<std::size_t>(i)];
    const rta::service::AdmissionSession& s = registry.session(i);
    std::vector<GenJob> reported;
    for (const rta::Job& j : s.system().jobs()) reported.push_back(from_model(j));
    evidence.replays.push_back({t.name, reported, t.record});
    add_final_sim(t.name, s, evidence);
  }
  evidence.fresh = fresh_verdicts(evidence.decisions);
  add_sample_sims(evidence, 12);
}

}  // namespace perfbench
