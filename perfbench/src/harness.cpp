#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

void Tracer::record(std::string name, double start_s, double dur_s,
                    double count) {
  if (!enabled_ || !active_.load()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start_s, dur_s, count, probe_.load()});
}

std::vector<Span> Tracer::spans(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> own, probes;
  for (const Span& span : spans_) {
    if (span.name != name) continue;
    (span.probe ? probes : own).push_back(span);
  }
  return own.empty() ? probes : own;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": " << (s.probe ? 2 : 1) << ", \"ts\": "
        << (s.start_s - origin) * 1e6 << ", \"dur\": " << s.dur_s * 1e6
        << ", \"args\": {\"count\": " << s.count << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

PhaseStats run_closed_loop(
    double seconds, std::size_t min_ops,
    const std::function<void(std::uint64_t, std::vector<double>&)>& round) {
  PhaseStats stats;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  while (now_s() - t0 < seconds || stats.latencies_s.size() < min_ops) {
    round(stats.rounds, stats.latencies_s);
    ++stats.rounds;
  }
  stats.wall_s = now_s() - t0;
  stats.cpu_s = process_cpu_s() - cpu0;
  return stats;
}

void add_end_to_end(RunOutput& out, double setup_s, const PhaseStats& phase) {
  const auto ops = static_cast<double>(phase.latencies_s.size());
  out.metrics["setup_s"] = {setup_s, "s"};
  out.metrics["ops_per_s"] = {ops / phase.wall_s, "ops/s"};
  out.metrics["op_p50_ms"] = {quantile(phase.latencies_s, 0.5) * 1e3, "ms"};
  out.metrics["op_p90_ms"] = {quantile(phase.latencies_s, 0.9) * 1e3, "ms"};
  out.metrics["cpu_ms_per_op"] = {phase.cpu_s * 1e3 / ops, "ms"};
  out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
}

double overhead_pct(const std::vector<double>& traced_s,
                    const std::vector<double>& untraced_s) {
  return (median(traced_s) / median(untraced_s) - 1.0) * 100.0;
}

}  // namespace perfbench
