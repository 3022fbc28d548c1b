// perfbench driver: runs one workload for a fixed time, checks the
// program's answers, and prints the metrics. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_driver --workload admit_churn|poll_tenants|paper_sweep
//                    --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 attaches the
// program's observer plus the benchmark's own spans and reports the
// per-layer metrics instead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "checks.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

bool parse_args(int argc, char** argv, RunOptions& opts) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      opts.trace = std::strcmp(value, "1") == 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", key.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value '%s' for %s\n", value, key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0 || !have_workload || !(opts.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return false;
  }
  return true;
}

/// Every check a workload relies on must have seen evidence; a check that
/// looked at nothing proves nothing.
Failures missing_evidence(const std::string& workload, const Evidence& ev) {
  Failures f;
  auto need = [&](bool have, const char* check) {
    if (!have) f.push_back(std::string(check) + ": no evidence collected");
  };
  need(!ev.sims.empty(), "simulation");
  if (workload == "paper_sweep") {
    need(!ev.verdicts.empty(), "S&L<=Exact");
  } else {
    need(!ev.decisions.empty(), "decisions");
    need(!ev.explains.empty(), "explain");
    need(!ev.replays.empty(), "replay");
    need(!ev.tallies.empty(), "responses");
  }
  return f;
}

void print_metric(std::string& json, const std::string& name, double value,
                  const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  std::printf("%-32s %s %s\n", name.c_str(), buf, unit.c_str());
  if (json.back() != '{') json += ", ";
  json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
          "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  if (!parse_args(argc, argv, opts)) return 2;

  RunResult result;
  Evidence evidence;
  if (opts.workload == "admit_churn") {
    run_admit_churn(opts, result, evidence);
  } else if (opts.workload == "poll_tenants") {
    run_poll_tenants(opts, result, evidence);
  } else if (opts.workload == "paper_sweep") {
    run_paper_sweep(opts, result, evidence);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }

  evidence.simulated = simulate_cases(evidence.sims);
  Failures failures = result.check_failures;
  for (const std::string& m : run_checks(evidence)) failures.push_back(m);
  for (const std::string& m : missing_evidence(opts.workload, evidence)) {
    failures.push_back(m);
  }
  for (const std::string& m : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", m.c_str());
  }
  std::fprintf(stderr,
               "%s seed %llu: %llu operations (%llu failed), %zu decisions "
               "re-analysed, %zu systems simulated\n",
               opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed),
               evidence.decisions.size(), evidence.sims.size());
  if (result.attempted == 0 || !(result.busy_s > 0.0)) {
    std::fprintf(stderr, "no operation completed\n");
    return 1;
  }

  // Every operation of these workloads completes (failed ones are counted
  // and reported); the rate is a quantile of the per-round rates.
  const double ops_per_s =
      quantile(result.round_ops_per_s, result.rate_quantile);
  std::string metrics = "{";
  if (opts.trace) {
    // Tracing overhead is the gap between this and an untraced run.
    std::fprintf(stderr, "traced ops_per_s %.6g\n", ops_per_s);
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = result.layers.find(name);
      print_metric(metrics, name, it == result.layers.end() ? 0.0 : it->second,
                   unit);
    }
  } else {
    print_metric(metrics, "setup_s", result.setup_s, "s");
    print_metric(metrics, "ops_per_s", ops_per_s, "ops/s");
    print_metric(metrics, "latency_p50_ms", quantile(result.latency_ms, 0.50),
                 "ms");
    print_metric(metrics, "latency_p99_ms", quantile(result.latency_ms, 0.99),
                 "ms");
    print_metric(metrics, "peak_rss_mb", result.peak_rss_mb, "MiB");
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
