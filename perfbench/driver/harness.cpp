#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point process_start() { return kProcessStart; }

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool another_round(const RunOptions& opts, Clock::time_point start,
                   std::uint64_t rounds_done, std::uint64_t ops_done) {
  if (rounds_done == 0) return true;
  if (opts.trace && ops_done >= kTracedOpsCap) return false;
  return seconds_between(start, Clock::now()) < opts.seconds;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

StampBuf::int_type StampBuf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
  const char c = traits_type::to_char_type(ch);
  xsputn(&c, 1);
  return ch;
}

std::streamsize StampBuf::xsputn(const char* s, std::streamsize n) {
  const char* end = s + n;
  while (s < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(s, '\n', static_cast<std::size_t>(end - s)));
    if (nl == nullptr) {
      partial_.append(s, end);
      break;
    }
    partial_.append(s, nl);
    lines_.push_back({Clock::now(), std::move(partial_)});
    partial_.clear();
    s = nl + 1;
  }
  return n;
}

Span::Span(rta::obs::Tracer* tracer, const char* name) {
  if (tracer != nullptr) span_ = tracer->span(name);
}

Span::Span(rta::obs::Tracer* tracer, const std::string& name) {
  if (tracer != nullptr) span_ = tracer->span(name);
}

Folded fold_spans(const rta::obs::Tracer& tracer, const LayerOf& layer_of,
                  double from_us) {
  Folded out;
  std::vector<Frame> stack;
  int tid = -1;
  for (const rta::obs::TraceEvent& e : tracer.events()) {
    if (e.tid != tid) {
      stack.clear();
      tid = e.tid;
    }
    if (e.phase == 'B') {
      stack.push_back({e.name, e.args, e.ts_us, 0.0});
    } else if (e.phase == 'E' && !stack.empty()) {
      const double dur = e.ts_us - stack.back().begin_us;
      if (e.ts_us >= from_us) {
        const std::string layer = layer_of(stack);
        if (!layer.empty()) {
          out.self_s[layer] += (dur - stack.back().child_us) * 1e-6;
        }
        if (stack.back().name == "service.request") {
          ++out.requests;
          const std::size_t at = stack.back().args.find("\"queue_us\": ");
          if (at != std::string::npos) {
            out.queue_wait_s +=
                std::strtod(stack.back().args.c_str() + at + 12, nullptr) *
                1e-6;
          }
        }
      }
      stack.pop_back();
      if (!stack.empty()) stack.back().child_us += dur;
    }
  }
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace perfbench
