#include "layers.hpp"

#include <cstdlib>

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      // Set-up phase, seconds in total.
      {"io.parse_system_s", "s"},
      {"session.setup_s", "s"},
      {"session.snapshot_clone_s", "s"},
      // Operation phase, self seconds per operation.
      {"codec.parse_s", "s"},
      {"scheduler.busy_s", "s"},
      {"scheduler.queue_s", "s"},
      {"sharded.pump_s", "s"},
      {"session.request_s", "s"},
      {"session.dirty_closure_s", "s"},
      {"session.fast_what_if_s", "s"},
      {"analysis.wavefront_s", "s"},
      {"analysis.bounds_spp_s", "s"},
      {"analysis.bounds_spnp_s", "s"},
      {"analysis.bounds_fcfs_s", "s"},
      {"analysis.exact_s", "s"},
      {"analysis.holistic_s", "s"},
      {"analysis.iterative_s", "s"},
      // Work counts over the first round of operations.
      {"codec.response_bytes", "count"},
      {"session.dirty_subjobs", "count"},
      {"session.full_passes", "count"},
      {"session.incremental_passes", "count"},
      {"scheduler.coalesced", "count"},
      {"sharded.pumps", "count"},
      {"analysis.bounds_units", "count"},
      {"analysis.iterative_rounds", "count"},
      {"analysis.horizon_doublings", "count"},
      {"curve.pointwise_ops", "count"},
      {"curve.pointwise_result_knots", "count"},
      {"curve.pinv_ops", "count"},
      {"curve.cache_pinv_hits", "count"},
      {"curve.cache_pinv_misses", "count"},
      {"curve.cache_verifies", "count"},
  };
  return kUnits;
}

Instruments::Instruments(bool traced) {
  if (!traced) return;
  metrics = std::make_unique<rta::obs::MetricsRegistry>();
  tracer = std::make_unique<rta::obs::Tracer>();
}

double Instruments::now_us() const {
  return tracer != nullptr ? tracer->now_us() : 0.0;
}

namespace {

const char* bounds_kind(Sched s) {
  switch (s) {
    case Sched::kSpp: return "analysis.bounds_spp_s";
    case Sched::kSpnp: return "analysis.bounds_spnp_s";
    case Sched::kFcfs: return "analysis.bounds_fcfs_s";
  }
  return "";
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The §5.1 method of the innermost bench.analyze span, or "".
std::string enclosing_method(const std::vector<Frame>& stack) {
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (starts_with(it->name, "bench.analyze ")) return it->name.substr(14);
  }
  return "";
}

std::string layer_of(const std::vector<Frame>& stack,
                     const std::function<Sched(int)>& proc_kind) {
  const std::string& n = stack.back().name;
  if (n == "bench.parse_request") return "codec.parse_s";
  if (n == "bench.submit" || n == "bench.flush" || n == "service.request") {
    return "scheduler.busy_s";
  }
  if (n == "service.shard.pump") return "sharded.pump_s";
  if (n == "service.mutate" || n == "service.read") return "session.request_s";
  if (n == "service.dirty_closure") return "session.dirty_closure_s";
  if (n == "service.fast_what_if") return "session.fast_what_if_s";
  if (n == "service.snapshot_clone") return "session.snapshot_clone_s";
  if (n == "bounds.analyze" || n == "bounds.wave") {
    return "analysis.wavefront_s";
  }
  if (starts_with(n, "bounds.unit fcfs")) return "analysis.bounds_fcfs_s";
  if (starts_with(n, "bounds.unit P")) {
    const std::string method = enclosing_method(stack);
    if (method == "SPNP/App") return "analysis.bounds_spnp_s";
    if (method == "FCFS/App") return "analysis.bounds_fcfs_s";
    return bounds_kind(proc_kind(std::atoi(n.c_str() + 13)));
  }
  if (starts_with(n, "iterative.")) return "analysis.iterative_s";
  if (starts_with(n, "bench.analyze ")) {
    const std::string method = n.substr(14);
    if (method == "SPP/Exact") return "analysis.exact_s";
    if (method == "SPP/S&L") return "analysis.holistic_s";
    if (starts_with(method, "iterative")) return "analysis.iterative_s";
    return "analysis.wavefront_s";
  }
  return "";
}

std::uint64_t counter_delta(const rta::obs::MetricsSnapshot& before,
                            const rta::obs::MetricsSnapshot& after,
                            const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

double histogram_sum_delta(const rta::obs::MetricsSnapshot& before,
                           const rta::obs::MetricsSnapshot& after,
                           const std::string& name) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0.0;
  const auto b = before.histograms.find(name);
  return a->second.sum - (b == before.histograms.end() ? 0.0 : b->second.sum);
}

}  // namespace

void fold_layers(const Instruments& ins, double measure_from_us,
                 std::uint64_t ops, const rta::obs::MetricsSnapshot& before,
                 const rta::obs::MetricsSnapshot& after,
                 const std::function<Sched(int)>& proc_kind,
                 RunResult& result) {
  if (ins.tracer == nullptr || ops == 0) return;
  const Folded folded = fold_spans(
      *ins.tracer,
      [&](const std::vector<Frame>& stack) {
        return layer_of(stack, proc_kind);
      },
      measure_from_us);
  const double per_op = 1.0 / static_cast<double>(ops);
  for (const auto& [layer, seconds] : folded.self_s) {
    result.layers[layer] += seconds * per_op;
  }
  if (folded.requests > 0) {
    result.layers["scheduler.queue_s"] =
        folded.queue_wait_s / static_cast<double>(folded.requests);
  }
  auto count = [&](const char* metric, const char* counter) {
    result.layers[metric] =
        static_cast<double>(counter_delta(before, after, counter));
  };
  count("session.dirty_subjobs", "service.dirty_subjobs");
  count("session.full_passes", "service.full");
  count("session.incremental_passes", "service.incremental");
  count("scheduler.coalesced", "service.coalesced");
  count("analysis.bounds_units", "bounds.units");
  count("analysis.iterative_rounds", "iterative.rounds");
  count("curve.pointwise_ops", "kernel.pointwise_ops");
  count("curve.pinv_ops", "kernel.pinv_ops");
  count("curve.cache_pinv_hits", "curve_cache.pinv_hits");
  count("curve.cache_pinv_misses", "curve_cache.pinv_misses");
  count("curve.cache_verifies", "curve_cache.verifies");
  result.layers["curve.pointwise_result_knots"] =
      histogram_sum_delta(before, after, "kernel.pointwise_result_knots");
}

}  // namespace perfbench
