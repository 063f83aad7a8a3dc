#pragma once
// Benchmark-side span recorder.  Spans wrap the benchmark's own calls into
// each qmg layer (setup, update, solve, replayed kernels); nothing inside
// the library is instrumented.  Spans live in memory and are written once,
// at exit, in the Chrome trace-event format ("X" complete events), which
// Perfetto and chrome://tracing open directly.  A disabled recorder costs
// one branch per span.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace qmg_bench {

class TraceRecorder {
 public:
  explicit TraceRecorder(bool enabled)
      : enabled_(enabled), t0_(std::chrono::steady_clock::now()) {}

  /// Run `fn` and return its wall seconds; when enabled, also record it as
  /// a span of layer `cat`, tagged with the workload iteration `sample`.
  template <typename Fn>
  double timed(const char* name, const char* cat, int sample, Fn&& fn) {
    const auto begin = std::chrono::steady_clock::now();
    std::forward<Fn>(fn)();
    const auto end = std::chrono::steady_clock::now();
    if (enabled_)
      spans_.push_back({name, cat, us(begin), us(end) - us(begin), sample});
    return std::chrono::duration<double>(end - begin).count();
  }

  /// Write every span as {"traceEvents": [...]}; false on I/O failure.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"sample\":%d}}%s\n",
                   s.name.c_str(), s.cat.c_str(), s.begin_us, s.dur_us,
                   s.sample, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    std::string cat;  // layer: setup, solve, dirac, coarse, transfer, ...
    double begin_us = 0;
    double dur_us = 0;
    int sample = -1;  // the workload iteration that caused the span
  };

  double us(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
};

}  // namespace qmg_bench
