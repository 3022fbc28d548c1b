#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

void put_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

/// 0..n-1 in random order (Fisher-Yates).
std::vector<int> permutation(int n, Rng& rng) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[static_cast<std::size_t>(i)],
              p[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  return p;
}

/// n draws from U(lo, hi): i.i.d., or one per equal slice in random order.
std::vector<double> uniform_draws(int n, double lo, double hi, bool stratified,
                                  Rng& rng) {
  std::vector<double> out;
  const std::vector<int> slot = stratified ? permutation(n, rng)
                                           : std::vector<int>();
  for (int i = 0; i < n; ++i) {
    if (!stratified) {
      out.push_back(rng.uniform_open(lo, hi));
      continue;
    }
    const double w = (hi - lo) / n;
    out.push_back(lo + w * (slot[static_cast<std::size_t>(i)] +
                            rng.uniform_open(0.0, 1.0)));
  }
  return out;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (std::uint64_t& s : s_) s = splitmix(seed);
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t a = seed;
  std::uint64_t b = index * 0xD1B54A32D192ED03ull + 0x632BE59BD9B4E019ull;
  return Rng(splitmix(a) ^ splitmix(b));
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_open(double lo, double hi) {
  const double u = (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

int Rng::uniform_int(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next() % span);
}

double Rng::normal() {
  const double u1 = uniform_open(0.0, 1.0);
  const double u2 = uniform01();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double Rng::gamma(double shape, double scale) {
  if (shape < 1.0) {
    const double u = uniform_open(0.0, 1.0);
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform_open(0.0, 1.0);
    if (std::log(u) < 0.5 * x * x + d - d * v + d * std::log(v)) {
      return d * v * scale;
    }
  }
}

double Strata::u() {
  if (k_ == perms_.size()) perms_.push_back(permutation(n_, rng_));
  const int slot = perms_[k_++][static_cast<std::size_t>(member_)];
  return (slot + rng_.uniform01()) / n_;
}

const char* sched_text(Sched s) {
  switch (s) {
    case Sched::kSpp: return "SPP";
    case Sched::kSpnp: return "SPNP";
    case Sched::kFcfs: return "FCFS";
  }
  return "SPP";
}

std::vector<double> periodic_releases(double period, double window) {
  std::vector<double> out;
  for (int m = 0;; ++m) {
    const double t = static_cast<double>(m) * period;
    if (t > window) break;
    out.push_back(t);
  }
  return out;
}

std::vector<double> bursty_releases(double x, double window) {
  std::vector<double> out;
  for (int m = 0;; ++m) {
    const double k = static_cast<double>(m);
    const double t = std::sqrt(x * x + k * k) / x - 1.0;
    if (t > window) break;
    out.push_back(t);
  }
  return out;
}

/// Lower end of the Eq. 26 weight draws, which §5 takes from (0, 1). Weights
/// near 0 give subjobs of about 1e-7 time units of execution, on which
/// SPP/Exact reports an infinite bound where the simulator finds a finite
/// response, so the shops keep their weights above this floor.
constexpr double kMinWeight = 0.01;

ShopDraw draw_shop(const ShopSpec& spec, Rng& rng) {
  const int hops = spec.stages + (spec.loop_back ? 1 : 0);
  ShopDraw d;
  d.rate = uniform_draws(spec.jobs, spec.min_rate, 1.0, spec.stratified, rng);
  d.proc.assign(static_cast<std::size_t>(spec.jobs), std::vector<int>());
  for (int h = 0; h < hops; ++h) {
    const int stage = h < spec.stages ? h : 0;
    const std::vector<int> order = spec.stratified
                                       ? permutation(spec.jobs, rng)
                                       : std::vector<int>();
    for (int k = 0; k < spec.jobs; ++k) {
      const int q = spec.stratified
                        ? order[static_cast<std::size_t>(k)] % spec.procs_per_stage
                        : rng.uniform_int(0, spec.procs_per_stage - 1);
      d.proc[static_cast<std::size_t>(k)].push_back(
          stage * spec.procs_per_stage + q);
    }
  }
  d.weight.assign(static_cast<std::size_t>(spec.jobs), std::vector<double>());
  for (int h = 0; h < hops; ++h) {
    const std::vector<double> w =
        uniform_draws(spec.jobs, kMinWeight, 1.0, spec.stratified, rng);
    for (int k = 0; k < spec.jobs; ++k) {
      d.weight[static_cast<std::size_t>(k)].push_back(
          w[static_cast<std::size_t>(k)]);
    }
  }
  for (int k = 0; k < spec.jobs; ++k) {
    const double var = spec.deadline_var;
    d.slack.push_back(rng.gamma(spec.deadline_mean * spec.deadline_mean / var,
                                var / spec.deadline_mean));
  }
  return d;
}

GenSystem build_shop(const ShopSpec& spec, const ShopDraw& draw, Sched sched) {
  const int procs = spec.stages * spec.procs_per_stage;
  GenSystem sys;
  sys.schedulers.assign(static_cast<std::size_t>(procs), sched);
  // Eq. 26 / 28: tau_{k,j} = w_{k,j} (1/x_k) / sum_{P(l,i) = P(k,j)}
  // w_{l,i} (1/x_l) * Utilization.
  std::vector<double> denom(static_cast<std::size_t>(procs), 0.0);
  double max_period = 0.0;
  for (std::size_t k = 0; k < draw.rate.size(); ++k) {
    max_period = std::max(max_period, 1.0 / draw.rate[k]);
    for (std::size_t h = 0; h < draw.proc[k].size(); ++h) {
      denom[static_cast<std::size_t>(draw.proc[k][h])] +=
          draw.weight[k][h] / draw.rate[k];
    }
  }
  const double window = spec.window_periods * max_period;
  for (std::size_t k = 0; k < draw.rate.size(); ++k) {
    GenJob job;
    job.name = "T";
    job.name += std::to_string(k + 1);
    const double period = 1.0 / draw.rate[k];
    double total = 0.0;
    for (std::size_t h = 0; h < draw.proc[k].size(); ++h) {
      GenHop hop;
      hop.processor = draw.proc[k][h];
      hop.exec = draw.weight[k][h] / draw.rate[k] /
                 denom[static_cast<std::size_t>(hop.processor)] *
                 spec.utilization;
      total += hop.exec;
      job.hops.push_back(hop);
    }
    if (spec.bursty) {
      job.releases = bursty_releases(draw.rate[k], window);
      job.deadline = total + draw.slack[k] * period;
    } else {
      job.releases = periodic_releases(period, window);
      job.deadline = spec.deadline_multiple * period;
    }
    sys.jobs.push_back(std::move(job));
  }
  return sys;
}

void assign_pdm(GenSystem& system) {
  struct Entry {
    double subdeadline;
    std::size_t job, hop;
  };
  std::vector<std::vector<Entry>> per_proc(system.schedulers.size());
  for (std::size_t k = 0; k < system.jobs.size(); ++k) {
    const GenJob& job = system.jobs[k];
    double total = 0.0;
    for (const GenHop& h : job.hops) total += h.exec;
    for (std::size_t h = 0; h < job.hops.size(); ++h) {
      per_proc[static_cast<std::size_t>(job.hops[h].processor)].push_back(
          {job.hops[h].exec / total * job.deadline, k, h});
    }
  }
  for (std::vector<Entry>& list : per_proc) {
    std::stable_sort(list.begin(), list.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.subdeadline < b.subdeadline;
                     });
    int prio = 1;
    for (const Entry& e : list) {
      GenHop& hop = system.jobs[e.job].hops[e.hop];
      hop.priority = prio++;
      hop.has_priority = true;
    }
  }
}

std::string to_text(const GenSystem& system) {
  std::string out = "processors " + std::to_string(system.schedulers.size()) +
                    "\n";
  for (std::size_t p = 0; p < system.schedulers.size(); ++p) {
    if (system.schedulers[p] == Sched::kSpp) continue;
    out += "scheduler " + std::to_string(p) + " " +
           sched_text(system.schedulers[p]) + "\n";
  }
  for (const GenJob& job : system.jobs) {
    out += "job " + job.name + " deadline ";
    put_number(out, job.deadline);
    out += "\n";
    for (const GenHop& hop : job.hops) {
      out += "  hop " + std::to_string(hop.processor) + " exec ";
      put_number(out, hop.exec);
      if (hop.has_priority) out += " prio " + std::to_string(hop.priority);
      out += "\n";
    }
    out += "  arrivals explicit";
    for (double t : job.releases) {
      out += ' ';
      put_number(out, t);
    }
    out += "\nend\n";
  }
  return out;
}

std::string job_json(const GenJob& job) {
  std::string out = "{\"name\": \"" + job.name + "\", \"deadline\": ";
  put_number(out, job.deadline);
  out += ", \"chain\": [";
  for (std::size_t h = 0; h < job.hops.size(); ++h) {
    if (h > 0) out += ", ";
    out += "{\"processor\": " + std::to_string(job.hops[h].processor) +
           ", \"exec\": ";
    put_number(out, job.hops[h].exec);
    if (job.hops[h].has_priority) {
      out += ", \"priority\": " + std::to_string(job.hops[h].priority);
    }
    out += "}";
  }
  out += "], \"arrivals\": [";
  for (std::size_t i = 0; i < job.releases.size(); ++i) {
    if (i > 0) out += ", ";
    put_number(out, job.releases[i]);
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
