// Overhead budget check for the btmf::obs telemetry subsystem.
//
// Runs perf_sim's standard CMFSD workload twice — once with a
// default-constructed (null) sink, once with all three sinks attached
// (metrics registry, time-series recorder, Chrome tracer) — taking the
// best of --repeats wall-clock runs of each. Fails (exit 1) if the
// attached-sink event throughput drops more than --budget percent below
// the null-sink rate, and cross-checks that both modes produce the same
// SimResult (observation must never perturb the simulation). `--json`
// records the measurement for the committed BENCH_obs.json baseline.
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "btmf/obs/sink.h"
#include "btmf/sim/simulator.h"
#include "btmf/util/stopwatch.h"

namespace {

using namespace btmf;

sim::SimConfig base_config(const util::ArgParser& parser) {
  sim::SimConfig config;
  config.scheme = fluid::SchemeKind::kCmfsd;
  config.rho = 0.2;
  config.num_files = static_cast<unsigned>(parser.get_int("k"));
  config.correlation = parser.get_double("p");
  // Same x5 boost as perf_sim's CMFSD row: one active peer per user means
  // a hotter arrival rate is needed to reach the same population.
  config.visit_rate = parser.get_double("lambda0") * 5.0;
  config.horizon = parser.get_double("horizon");
  config.warmup = parser.get_double("warmup");
  config.seed = parser.get_uint64("seed");
  config.max_active_peers = 4'000'000;
  return config;
}

struct Measurement {
  double best_rate = 0.0;     ///< events/s, best across repeats
  sim::SimResult result;      ///< last run's result (identical across runs)
};

double timed_rate(const sim::SimConfig& config, sim::SimResult& out) {
  util::Stopwatch timer;
  out = sim::run_simulation(config);
  const double wall = timer.seconds();
  return wall > 0.0 ? static_cast<double>(out.events_processed) / wall : 0.0;
}

bool same_results(const sim::SimResult& a, const sim::SimResult& b) {
  return a.events_processed == b.events_processed &&
         a.total_users == b.total_users &&
         a.avg_online_per_file == b.avg_online_per_file &&
         a.avg_download_per_file == b.avg_download_per_file &&
         a.peak_live_peers == b.peak_live_peers;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser = bench::make_parser(
      "perf_obs", "Telemetry sink overhead vs a null sink (budget check)");
  parser.add_option("k", "10", "number of files K");
  parser.add_option("p", "0.5", "file request correlation");
  parser.add_option("lambda0", "4.0", "base indexing-server visit rate");
  parser.add_option("horizon", "1200", "simulated time per run");
  parser.add_option("warmup", "300", "statistics warm-up time");
  parser.add_option("seed", "2025", "RNG seed");
  parser.add_option("repeats", "5", "timed runs per mode; best rate wins");
  parser.add_option("budget", "5.0", "max allowed overhead in percent");
  parser.add_option("json", "", "also dump the measurement as JSON here");
  parser.add_option("metrics-out", "",
                    "write the attached run's metrics + series JSON here");
  parser.add_option("trace-out", "",
                    "write the attached run's Chrome trace here");
  if (!parser.parse(argc, argv)) return 0;
  if (!parser.get("metrics-out").empty()) {
    obs::require_writable_path(parser.get("metrics-out"));
  }
  if (!parser.get("trace-out").empty()) {
    obs::require_writable_path(parser.get("trace-out"));
  }

  const int repeats = static_cast<int>(parser.get_int("repeats"));
  const double budget = parser.get_double("budget");

  obs::MetricsRegistry metrics;
  obs::TimeSeriesRecorder recorder;
  obs::TraceWriter trace("perf_obs");
  const sim::SimConfig null_config = base_config(parser);
  sim::SimConfig attached_config = base_config(parser);
  attached_config.obs.metrics = &metrics;
  attached_config.obs.recorder = &recorder;
  attached_config.obs.trace = &trace;

  // One untimed run warms caches and the frequency governor; the timed
  // runs then interleave the two modes so slow drifts hit both equally.
  Measurement null_sink;
  Measurement attached;
  sim::run_simulation(null_config);
  for (int i = 0; i < repeats; ++i) {
    null_sink.best_rate = std::max(
        null_sink.best_rate, timed_rate(null_config, null_sink.result));
    attached.best_rate = std::max(
        attached.best_rate, timed_rate(attached_config, attached.result));
  }

  const double overhead_pct =
      null_sink.best_rate > 0.0
          ? 100.0 * (1.0 - attached.best_rate / null_sink.best_rate)
          : 0.0;

  util::Table table({"mode", "events", "best events/s", "overhead %"});
  table.set_precision(3);
  table.add_row({"null sink",
                 static_cast<double>(null_sink.result.events_processed),
                 null_sink.best_rate, 0.0});
  table.add_row({"metrics+series+trace",
                 static_cast<double>(attached.result.events_processed),
                 attached.best_rate, overhead_pct});
  bench::emit(table, "Telemetry overhead (CMFSD, perf_sim workload)",
              parser.get("csv"));

  const std::string json_path = parser.get("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"events\": %zu, \"null_events_per_sec\": %.0f, "
        "\"attached_events_per_sec\": %.0f, \"overhead_pct\": %.2f, "
        "\"budget_pct\": %.2f, \"trace_events\": %zu}\n",
        null_sink.result.events_processed, null_sink.best_rate,
        attached.best_rate, overhead_pct, budget, trace.event_count());
    out << buf;
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("(json saved to %s)\n", json_path.c_str());
  }

  if (!parser.get("metrics-out").empty()) {
    const obs::MetricsSnapshot snap = metrics.snapshot();
    obs::write_combined_json(parser.get("metrics-out"), &snap, &recorder);
    std::printf("(metrics saved to %s)\n", parser.get("metrics-out").c_str());
  }
  if (!parser.get("trace-out").empty()) {
    trace.write_file(parser.get("trace-out"));
    std::printf("(trace saved to %s)\n", parser.get("trace-out").c_str());
  }

  if (!same_results(null_sink.result, attached.result)) {
    std::fprintf(stderr,
                 "FAIL: attaching sinks changed the simulation result\n");
    return 1;
  }
  if (overhead_pct > budget) {
    std::fprintf(stderr, "FAIL: sink overhead %.2f%% exceeds budget %.2f%%\n",
                 overhead_pct, budget);
    return 1;
  }
  std::printf("PASS: sink overhead %.2f%% within %.2f%% budget\n",
              overhead_pct, budget);
  return 0;
}
