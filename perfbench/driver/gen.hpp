// Input generation for the benchmark: the paper's §5 job-shop model
// (Eq. 25-28) and the request streams, written against nothing but the C++
// standard library. The program under test only ever sees the text and JSON
// this file renders, so a change to the program's own generators
// (src/workload/, src/curve/arrival.*) cannot change the benchmark's inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// xoshiro256** seeded through splitmix64: fixed, portable draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  double uniform01();                        ///< [0, 1)
  double uniform_open(double lo, double hi); ///< (lo, hi)
  int uniform_int(int lo, int hi);           ///< [lo, hi]
  double normal();
  double gamma(double shape, double scale);  ///< Marsaglia-Tsang
  /// Independent stream number `index` of this seed.
  static Rng stream(std::uint64_t seed, std::uint64_t index);

 private:
  std::uint64_t s_[4];
};

/// Stratified uniform draws for a group of `n` members: the k-th draw of
/// member i is (perm_k[i] + v) / n with perm_k a random permutation and v
/// uniform, so across the group every draw position covers each of n equal
/// slices of [0, 1) exactly once.
class Strata {
 public:
  Strata(Rng& rng, int n) : rng_(rng), n_(n) {}
  /// Start drawing for member i (0 <= i < n).
  void member(int i) {
    member_ = i;
    k_ = 0;
  }
  double u();

 private:
  Rng& rng_;
  int n_;
  int member_ = 0;
  std::size_t k_ = 0;
  std::vector<std::vector<int>> perms_;
};

/// Scheduler letters as the system text spells them.
enum class Sched { kSpp, kSpnp, kFcfs };
const char* sched_text(Sched s);

struct GenHop {
  int processor = 0;
  double exec = 0.0;
  int priority = 0;
  bool has_priority = false;
};

struct GenJob {
  std::string name;
  double deadline = 0.0;
  std::vector<GenHop> hops;
  std::vector<double> releases;
};

struct GenSystem {
  std::vector<Sched> schedulers;  ///< one per processor
  std::vector<GenJob> jobs;
};

/// One §5.1 job shop: `stages` stages of `procs_per_stage` processors; each
/// job visits one random processor per stage (and, when `loop_back`, a
/// processor of stage 0 again at the end, so the shop has a logical loop).
struct ShopSpec {
  int stages = 4;
  int procs_per_stage = 2;
  int jobs = 8;
  bool bursty = false;          ///< Eq. 27 releases instead of Eq. 25
  double utilization = 0.5;     ///< the Eq. 26 / Eq. 28 knob
  double window_periods = 6.0;  ///< window = this many longest periods
  double min_rate = 0.1;        ///< x ~ U(min_rate, 1)
  double deadline_multiple = 2.0;  ///< periodic: deadline = multiple * 1/x
  double deadline_mean = 3.0;      ///< bursty: exec + Gamma(mean, var) / x
  double deadline_var = 9.0;
  bool loop_back = false;
  /// Stratified draws: rates and weights take one value from each of
  /// `jobs` equal slices of their range, in random order, and each stage
  /// spreads the jobs evenly over its processors in random order. The
  /// distributions stay those of §5; a single shop just varies much less
  /// from seed to seed.
  bool stratified = false;
};

/// Draws of one shop that do not depend on the utilization knob, so one
/// draw can be scaled across the whole utilization grid as §5 does.
struct ShopDraw {
  std::vector<double> rate;                ///< x_k
  std::vector<std::vector<int>> proc;      ///< processor per job and hop
  std::vector<std::vector<double>> weight; ///< w_{k,j}
  std::vector<double> slack;               ///< Gamma draw (bursty deadlines)
};

ShopDraw draw_shop(const ShopSpec& spec, Rng& rng);
/// Eq. 25-28: releases, execution times normalised per processor to the
/// utilization knob, deadlines. Every processor runs `sched`.
GenSystem build_shop(const ShopSpec& spec, const ShopDraw& draw, Sched sched);

/// Proportional sub-deadline monotonic priorities (Eq. 24), 1 = highest,
/// ties broken by (job, hop); written into every hop.
void assign_pdm(GenSystem& system);

/// The system text format of src/io/system_text.hpp, every number with 17
/// significant digits so the program parses back the exact doubles.
std::string to_text(const GenSystem& system);
/// One job object of the JSONL request schema (docs/api.md).
std::string job_json(const GenJob& job);

/// Eq. 27: t_m = sqrt(x^2 + (m-1)^2) / x - 1 for every t_m <= window.
std::vector<double> bursty_releases(double x, double window);
/// Eq. 25: t_m = (m-1) * period for every t_m <= window.
std::vector<double> periodic_releases(double period, double window);

}  // namespace perfbench
