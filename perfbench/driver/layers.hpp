// Per-layer metrics of a traced run: the program's own Observer (metrics
// registry and span tracer) plus the benchmark's spans around its calls
// into each layer, folded into self time per layer and work counts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Name and unit of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// The observer a traced run attaches to every session and analyzer; both
/// sinks stay null on an untraced run.
struct Instruments {
  explicit Instruments(bool traced);
  [[nodiscard]] rta::obs::Observer observer() const {
    return {metrics.get(), tracer.get()};
  }
  [[nodiscard]] rta::obs::Tracer* span_sink() const { return tracer.get(); }
  /// Tracer clock now, or 0 when untraced.
  [[nodiscard]] double now_us() const;

  std::unique_ptr<rta::obs::MetricsRegistry> metrics;
  std::unique_ptr<rta::obs::Tracer> tracer;
};

/// Fold the traced run into result.layers: op-phase self time per layer
/// (seconds per operation over every span ending after `measure_from_us`)
/// and the registry's work counters accumulated between the two
/// snapshots (the first round of operations). `proc_kind` names the
/// scheduler of a processor for bounds units outside a bench.analyze span.
void fold_layers(const Instruments& ins, double measure_from_us,
                 std::uint64_t ops, const rta::obs::MetricsSnapshot& before,
                 const rta::obs::MetricsSnapshot& after,
                 const std::function<Sched(int)>& proc_kind,
                 RunResult& result);

}  // namespace perfbench
