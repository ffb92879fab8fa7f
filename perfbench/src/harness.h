// The benchmark's measurement harness: clocks, the span recorder, the
// closed-loop timed phase and the end-to-end metric set.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions; nothing inside the library is instrumented.
// Spans stay in memory and are written out as one Chrome-trace file when a
// traced run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds since an arbitrary epoch (CLOCK_MONOTONIC on Linux, the clock
/// Python's time.monotonic_ns reads).
double now_s();

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();

/// Peak resident set size of the process, in MiB.
double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; NaN when empty.
double quantile(std::vector<double> values, double q);

double median(const std::vector<double>& values);

/// One timed call into a layer. `count` carries a per-call quantity the
/// call returned (events processed, ODE steps, completions, ...).
struct Span {
  std::string name;
  double start_s = 0.0;
  double dur_s = 0.0;
  double count = 0.0;
  bool probe = false;  ///< recorded by the layer probes, not by the ops
};

/// Thread-safe in-memory span store. Inert (records nothing) when
/// disabled, so untraced runs pay one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Pauses or resumes recording; a traced run pauses every other round
  /// so that the cost of recording can be measured (trace.overhead_pct).
  void set_active(bool active) { active_.store(active); }
  /// Marks subsequently recorded spans as probe spans.
  void set_probe(bool probe) { probe_.store(probe); }

  void record(std::string name, double start_s, double dur_s,
              double count = 0.0);

  /// Times `fn()` as one span named `name` and returns its result.
  template <typename Fn>
  auto time(const std::string& name, Fn&& fn) {
    const double start = now_s();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record(name, start, now_s() - start);
    } else {
      auto result = fn();
      record(name, start, now_s() - start);
      return result;
    }
  }

  /// Spans named `name`: the workload's own when it recorded any,
  /// otherwise the probes'.
  [[nodiscard]] std::vector<Span> spans(const std::string& name) const;

  /// Writes every span as a Chrome trace ({"traceEvents": [...]}).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<bool> active_{true};
  std::atomic<bool> probe_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
};

/// The closed-loop timed phase shared by reproduce and swarm: calls
/// `round(r)` (which runs one whole round of operations and appends one
/// latency per operation, in seconds) until `seconds` have passed and at
/// least `min_ops` operations completed.
struct PhaseStats {
  std::vector<double> latencies_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t rounds = 0;
};
PhaseStats run_closed_loop(double seconds, std::size_t min_ops,
                           const std::function<void(std::uint64_t round,
                                                    std::vector<double>&)>&
                               round);

/// The six end-to-end metrics every workload reports.
void add_end_to_end(RunOutput& out, double setup_s, const PhaseStats& phase);

/// Relative change of the traced rounds' median op latency against the
/// untraced rounds' (in percent).
double overhead_pct(const std::vector<double>& traced_s,
                    const std::vector<double>& untraced_s);

}  // namespace perfbench
