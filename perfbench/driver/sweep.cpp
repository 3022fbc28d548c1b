// paper_sweep: the paper's §5 admission experiments as a batch, with no
// service layer at all. One round analyses one draw set of generated shops
// with each §5.1 method through one fresh rta::Analyzer on one thread, so
// every round does cold-cache work. Rounds take the kSets draw sets in turn.
#include <cmath>
#include <cstdio>

#include "analysis/analyzer.hpp"
#include "io/system_text.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const std::vector<double> kUtilizations = {0.6, 1.2};
constexpr int kTrials = 6;
constexpr int kJobs = 6;
/// Distinct draw sets of a run. The slowest few analyses of one set depend
/// on which shops the seed drew (with one set, latency_p99_ms moved with the
/// seed by a third); over this many sets the tail is a statistic of the §5
/// distribution instead.
constexpr int kSets = 16;

struct SweepOp {
  std::string where;
  std::size_t system = 0;  ///< index into the parsed systems
  bool iterative = false;  ///< looped shop: IterativeBoundsAnalyzer
  rta::Method method = rta::Method::kSppExact;
  std::string span;        ///< "bench.analyze <label>"
};

/// One round's worth of work: the system texts and the analyses of them.
struct SweepSet {
  std::vector<std::string> texts;
  std::vector<SweepOp> ops;
  std::vector<rta::System> systems;  ///< parsed at set-up
};

/// Draw set `set` of the seed: 384 analyses of 312 systems.
SweepSet make_set(std::uint64_t seed, int set) {
  SweepSet out;
  std::vector<std::string>& texts = out.texts;
  std::vector<SweepOp>& ops = out.ops;
  const std::string tag = "set=" + std::to_string(set) + " ";
  auto add_text = [&](GenSystem sys) {
    assign_pdm(sys);
    texts.push_back(to_text(sys));
    return texts.size() - 1;
  };
  auto add_op = [&](const std::string& where, std::size_t sys,
                    rta::Method m) {
    ops.push_back({tag + where + " " + rta::method_name(m), sys, false, m,
                   std::string("bench.analyze ") + rta::method_name(m)});
  };
  std::uint64_t stream = 100 * static_cast<std::uint64_t>(set);
  // Fig. 3: periodic (Eq. 25-26), stages {1, 2, 4} x deadline {2, 4} periods.
  for (const int stages : {1, 2, 4}) {
    for (const double multiple : {2.0, 4.0}) {
      for (int trial = 0; trial < kTrials; ++trial) {
        ShopSpec spec;
        spec.stages = stages;
        spec.jobs = kJobs;
        spec.stratified = true;
        spec.deadline_multiple = multiple;
        Rng rng = Rng::stream(seed, ++stream);
        const ShopDraw draw = draw_shop(spec, rng);
        for (const double u : kUtilizations) {
          spec.utilization = u;
          const std::string where = "fig3 stages=" + std::to_string(stages) +
                                    " D=" + std::to_string(multiple) +
                                    " trial=" + std::to_string(trial) +
                                    " U=" + std::to_string(u);
          const std::size_t spp = add_text(build_shop(spec, draw, Sched::kSpp));
          const std::size_t spnp =
              add_text(build_shop(spec, draw, Sched::kSpnp));
          const std::size_t fcfs =
              add_text(build_shop(spec, draw, Sched::kFcfs));
          add_op(where, spp, rta::Method::kSppExact);
          add_op(where, spp, rta::Method::kSppSL);
          add_op(where, spnp, rta::Method::kSpnpApp);
          add_op(where, fcfs, rta::Method::kFcfsApp);
        }
      }
    }
  }
  // Fig. 4: bursty (Eq. 27-28), deadline = exec + Gamma(mean, var) periods.
  // SPP/S&L does not apply to aperiodic arrivals (§5.2).
  for (const auto& [mean, var_factor] :
       std::vector<std::pair<double, double>>{{3.0, 0.5}, {6.0, 2.0}}) {
    for (int trial = 0; trial < kTrials; ++trial) {
      ShopSpec spec;
      spec.jobs = kJobs;
      spec.stratified = true;
      spec.bursty = true;
      spec.deadline_mean = mean;
      spec.deadline_var = var_factor * mean * mean;
      Rng rng = Rng::stream(seed, ++stream);
      const ShopDraw draw = draw_shop(spec, rng);
      for (const double u : kUtilizations) {
        spec.utilization = u;
        const std::string where = "fig4 mean=" + std::to_string(mean) +
                                  " trial=" + std::to_string(trial) +
                                  " U=" + std::to_string(u);
        add_op(where, add_text(build_shop(spec, draw, Sched::kSpp)),
               rta::Method::kSppExact);
        add_op(where, add_text(build_shop(spec, draw, Sched::kSpnp)),
               rta::Method::kSpnpApp);
        add_op(where, add_text(build_shop(spec, draw, Sched::kFcfs)),
               rta::Method::kFcfsApp);
      }
    }
  }
  // Looped shops: every job returns to stage 0 after the last stage, so the
  // subjob dependency graph may cycle; the iterative fixed point analyses
  // them, under SPP and under SPNP. (Under FCFS its bounds fall below
  // simulated responses on such shops, so FCFS loops are left out.)
  for (int trial = 0; trial < kTrials; ++trial) {
    ShopSpec spec;
    spec.stages = 2;
    spec.jobs = 4;
    spec.window_periods = 4.0;
    spec.stratified = true;
    spec.loop_back = true;
    spec.deadline_multiple = 4.0;
    Rng rng = Rng::stream(seed, ++stream);
    const ShopDraw draw = draw_shop(spec, rng);
    for (const double u : {0.3, 0.6}) {
      spec.utilization = u;
      const std::string where = "looped trial=" + std::to_string(trial) +
                                " U=" + std::to_string(u);
      for (const Sched s : {Sched::kSpp, Sched::kSpnp}) {
        const std::string label = std::string("iterative ") + sched_text(s);
        ops.push_back({tag + where + " " + label,
                       add_text(build_shop(spec, draw, s)), true,
                       rta::Method::kSppExact, "bench.analyze " + label});
      }
    }
  }
  return out;
}

}  // namespace

void run_paper_sweep(const RunOptions& opts, RunResult& result,
                     Evidence& evidence) {
  const Instruments ins(opts.trace);
  std::vector<SweepSet> sets;
  for (int k = 0; k < kSets; ++k) sets.push_back(make_set(opts.seed, k));

  // --- set-up: parse every system text of every set.
  const Clock::time_point p0 = Clock::now();
  for (SweepSet& set : sets) {
    for (const std::string& text : set.texts) {
      const Span span(ins.span_sink(), "bench.parse_system");
      rta::ParsedSystem parsed = rta::parse_system_text(text);
      if (!parsed.ok) {
        result.check_failures.push_back("system text rejected: " +
                                        parsed.error);
        return;
      }
      set.systems.push_back(std::move(parsed.system));
    }
  }
  result.layers["io.parse_system_s"] = seconds_between(p0, Clock::now());
  // Every round analyses another draw set, so the cheapest sets would set
  // an upper-decile rate.
  result.rate_quantile = 0.5;
  rta::AnalysisConfig cfg;
  cfg.threads = 1;
  cfg.observer = ins.observer();
  result.setup_s = seconds_between(process_start(), Clock::now());

  // --- measured rounds.
  std::vector<rta::AnalysisResult> first;
  const double from_us = ins.now_us();
  rta::obs::MetricsSnapshot before;
  rta::obs::MetricsSnapshot after;
  if (ins.metrics != nullptr) before = ins.metrics->snapshot();
  std::uint64_t doublings = 0;
  std::uint64_t round = 0;
  const Clock::time_point start = Clock::now();
  while (another_round(opts, start, round, result.attempted)) {
    ++round;
    const SweepSet& set = sets[(round - 1) % kSets];
    const bool first_pass = round <= kSets;
    std::vector<rta::AnalysisResult> got;
    const Clock::time_point r0 = Clock::now();
    const std::uint64_t ops0 = result.attempted;
    const rta::Analyzer analyzer(cfg);
    for (const SweepOp& op : set.ops) {
      const rta::System& sys = set.systems[op.system];
      const Clock::time_point t0 = Clock::now();
      rta::AnalysisResult r;
      {
        const Span span(ins.span_sink(), op.span);
        r = op.iterative
                ? analyzer.analyze(sys, rta::EngineKind::kIterative)
                : analyzer.analyze(sys, op.method);
      }
      result.latency_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      ++result.attempted;
      if (!r.ok) {
        ++result.failed;
        if (result.failed <= 3) {
          std::fprintf(stderr, "operation failed: %s: %s\n", op.where.c_str(),
                       r.error.c_str());
        }
      }
      if (round == 1) {
        const double h0 = rta::default_horizon(sys, cfg);
        if (r.horizon > h0) {
          doublings += static_cast<std::uint64_t>(
              std::lround(std::log2(r.horizon / h0)));
        }
      }
      if (first_pass) got.push_back(std::move(r));
    }
    const double round_s = seconds_between(r0, Clock::now());
    result.busy_s += round_s;
    result.round_ops_per_s.push_back(
        static_cast<double>(result.attempted - ops0) / round_s);
    if (round == 1) {
      if (ins.metrics != nullptr) after = ins.metrics->snapshot();
      result.layers["analysis.horizon_doublings"] =
          static_cast<double>(doublings);
    }
    // Evidence: S&L never admits what Exact rejects, on the first pass
    // over every set.
    const std::vector<SweepOp>& ops = set.ops;
    for (std::size_t i = 0; first_pass && i + 1 < ops.size(); ++i) {
      if (ops[i].iterative || ops[i].method != rta::Method::kSppExact) continue;
      if (ops[i + 1].method == rta::Method::kSppSL && !ops[i + 1].iterative) {
        evidence.verdicts.push_back({ops[i].where, got[i + 1].all_schedulable(),
                                     got[i].all_schedulable()});
      }
    }
    if (round == 1) first = std::move(got);
  }
  result.peak_rss_mb = peak_rss_mb();
  fold_layers(ins, from_us, result.attempted, before, after,
              [](int) { return Sched::kSpp; }, result);

  // --- evidence: a sample of the first set's systems is simulated against
  // its bounds.
  const std::vector<SweepOp>& ops = sets[0].ops;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const rta::AnalysisResult& r = first[i];
    // Every looped op, every fifth other op: the simulation is the slow
    // part of the checks.
    if (!r.ok || (!ops[i].iterative && i % 5 != 0)) continue;
    const bool holistic =
        !ops[i].iterative && ops[i].method == rta::Method::kSppSL;
    SimCase c;
    c.where = ops[i].where;
    c.system = sets[0].systems[ops[i].system];
    // S&L reports no horizon; simulate it over its SPP/Exact twin's.
    c.horizon = holistic ? first[i - 1].horizon : r.horizon;
    c.exact = !ops[i].iterative && ops[i].method == rta::Method::kSppExact;
    for (const rta::JobReport& j : r.jobs) c.bound.push_back(j.wcrt);
    evidence.sims.push_back(std::move(c));
  }
}

}  // namespace perfbench
