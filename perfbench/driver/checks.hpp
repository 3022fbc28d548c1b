// Output checks. Each one recomputes an answer a second, independent way or
// tests a property the paper's method must have, and returns one message per
// violation. They work on plain data, so self_test() can feed each of them a
// deliberately corrupted copy of real results and insist it is rejected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen.hpp"
#include "model/system.hpp"

namespace perfbench {

using Failures = std::vector<std::string>;

/// Build the program's model of `sys` from the benchmark's own record.
rta::System to_system(const std::vector<Sched>& schedulers,
                      const std::vector<GenJob>& jobs);

/// An admit / what_if answer next to the system it was asked about.
struct DecisionSample {
  std::string where;
  std::vector<Sched> schedulers;
  std::vector<GenJob> jobs;  ///< committed jobs, then the candidate last
  double horizon = 0.0;      ///< the session's pinned horizon
  bool admitted = false;     ///< as answered by the service
  bool schedulable = false;
  double max_wcrt = 0.0;
};

/// What a fresh bounds analysis says about a DecisionSample's system.
struct FreshVerdict {
  bool ok = false;
  bool schedulable = false;
  double max_wcrt = 0.0;
  double horizon = 0.0;       ///< after any horizon doubling
  std::vector<double> wcrt;   ///< per job, for the simulation check
};

/// Fresh rta::Analyzer bounds analyses at each sample's pinned horizon.
std::vector<FreshVerdict> fresh_verdicts(
    const std::vector<DecisionSample>& samples);
/// admitted, schedulable and max_wcrt equal the fresh analysis bit for bit.
Failures check_decisions(const std::vector<DecisionSample>& samples,
                         const std::vector<FreshVerdict>& fresh);

/// The per-hop provenance of one admit / what_if answer.
struct ExplainSample {
  std::string where;
  std::vector<double> hop_bounds;
  double wcrt = 0.0;
  int dominant_hop = -1;
};
/// Hop bounds sum in hop order to wcrt (Eq. 11) and dominant_hop is the
/// first argmax.
Failures check_explains(const std::vector<ExplainSample>& explains);

/// The committed set as the program reports it and as the benchmark's
/// replay of admits and removes predicts it.
Failures check_replay(const std::string& where,
                      const std::vector<GenJob>& reported,
                      const std::vector<GenJob>& replayed);

/// Response bookkeeping of one step: which request number each line should
/// get (numbering restarts per tenant) and which one it got.
struct ResponseTally {
  std::vector<std::string> line_tenants;  ///< tenant of each submitted line
  std::vector<std::string> resp_tenants;  ///< tenant echoed by each response
  std::vector<long long> expected_request;
  std::vector<long long> resp_request;
};
/// Every line got exactly one response, in order.
Failures check_one_response_each(const ResponseTally& tally);

/// Analytic response bounds of one system next to a simulation of it.
struct SimCase {
  std::string where;
  rta::System system;
  double horizon = 0.0;
  bool exact = false;  ///< SPP/Exact: bounds must equal the simulation
  std::vector<double> bound;
};
/// Simulated worst responses of each case (rta::simulate over its horizon).
std::vector<std::vector<double>> simulate_cases(const std::vector<SimCase>& cases);
/// Every simulated worst response is <= its bound (time_le); SPP/Exact
/// equals the simulation within time_eq (Theorems 1-3).
Failures check_sim(const std::vector<SimCase>& cases,
                   const std::vector<std::vector<double>>& simulated);

/// SPP/S&L and SPP/Exact verdicts on one system.
struct VerdictPair {
  std::string where;
  bool sl_admitted = false;
  bool exact_admitted = false;
};
/// Whatever SPP/S&L admits, SPP/Exact admits too.
Failures check_sl_implies_exact(const std::vector<VerdictPair>& pairs);

/// Everything one run collected for the checks.
struct Evidence {
  std::vector<DecisionSample> decisions;
  std::vector<FreshVerdict> fresh;
  std::vector<ExplainSample> explains;
  struct Replay {
    std::string where;
    std::vector<GenJob> reported, replayed;
  };
  std::vector<Replay> replays;
  std::vector<ResponseTally> tallies;
  std::vector<SimCase> sims;
  std::vector<std::vector<double>> simulated;
  std::vector<VerdictPair> verdicts;
};

/// Run every check on the evidence. Then feed every check that has
/// evidence a corrupted copy of it -- a perturbed bound, a dropped
/// response, a wrong admit verdict -- and report any check that accepts
/// its corruption.
Failures run_checks(Evidence& evidence);

}  // namespace perfbench
