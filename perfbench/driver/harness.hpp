// Measurement plumbing shared by the workloads: the run's options and
// result, the timestamping response stream, span folding into per-layer
// self time, and process statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <streambuf>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation of the driver, before main(): the
/// start of the cold set-up that `setup_s` measures.
Clock::time_point process_start();

double seconds_between(Clock::time_point a, Clock::time_point b);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Everything one run reports. Latencies are in milliseconds.
struct RunResult {
  double setup_s = 0.0;
  double busy_s = 0.0;  ///< wall time inside the program after set-up
  /// Operations per second of busy time, one entry per round; the run
  /// reports their `rate_quantile` quantile. Where every round repeats the
  /// same work, that is the upper decile: contention from other tenants of
  /// a shared host only ever slows a round down (over six 30 s runs of
  /// poll_tenants on a shared 4-vCPU host, the median round spread by 16 %
  /// of its median from run to run, the upper decile by 5.5 %). Where
  /// rounds do different work, it is the median.
  std::vector<double> round_ops_per_s;
  double rate_quantile = 0.9;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;
  double peak_rss_mb = 0.0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> layers;  ///< per-layer metrics (traced run)
};

/// Whether to start another round: the first always runs, later ones while
/// the measuring time lasts. A traced run also stops after
/// kTracedOpsCap operations, because the tracer keeps every span in memory.
constexpr std::uint64_t kTracedOpsCap = 20000;
bool another_round(const RunOptions& opts, Clock::time_point start,
                   std::uint64_t rounds_done, std::uint64_t ops_done);

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Unbuffered stream sink that timestamps every completed line the moment
/// the program writes its terminating newline.
class StampBuf : public std::streambuf {
 public:
  struct Line {
    Clock::time_point at;
    std::string text;
  };
  std::vector<Line>& lines() { return lines_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  std::string partial_;
  std::vector<Line> lines_;
};

/// RAII span on the run's tracer; inert (and allocation-free) when the run
/// is not traced.
class Span {
 public:
  Span(rta::obs::Tracer* tracer, const char* name);
  Span(rta::obs::Tracer* tracer, const std::string& name);

 private:
  rta::obs::Tracer::Span span_;
};

/// One open span while folding a thread's event stream.
struct Frame {
  std::string name;
  std::string args;
  double begin_us = 0.0;
  double child_us = 0.0;
};

/// Maps a closing span (top of `stack`) to the layer its self time belongs
/// to; "" leaves it unattributed.
using LayerOf =
    std::function<std::string(const std::vector<Frame>& stack)>;

struct Folded {
  std::map<std::string, double> self_s;  ///< layer -> summed self time
  double queue_wait_s = 0.0;  ///< sum of service.request queue_us args
  std::uint64_t requests = 0; ///< service.request spans seen
};

/// Self time per layer over every thread's span tree: a span's duration
/// minus the time its children cover. Only spans that end after
/// `from_us` (tracer clock) are counted.
Folded fold_spans(const rta::obs::Tracer& tracer, const LayerOf& layer_of,
                  double from_us);

/// Quantile with linear interpolation between closest ranks (the
/// convention of numpy's default).
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
