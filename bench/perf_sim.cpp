// Throughput benchmark of the discrete-event simulator.
//
// Drives every scheme at a load heavy enough to hold >= 10^4 concurrent
// peers and reports raw event throughput plus the kernel's observability
// counters (rate-epoch invalidations, peak population, wall clock). The
// scenario is deliberately statistics-light: the point is events/sec at
// scale, not figure reproduction. `--json <path>` records the rows for
// regression tracking against the committed BENCH_sim.json baseline.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "btmf/sim/simulator.h"
#include "btmf/util/stopwatch.h"

namespace {

struct Row {
  std::string label;
  btmf::fluid::SchemeKind scheme;
  double rho;
  double lambda_scale;  ///< per-scheme boost to hit comparable populations
};

}  // namespace

int main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "perf_sim", "Simulator event throughput at >= 10^4 concurrent peers");
  parser.add_option("k", "10", "number of files K");
  parser.add_option("p", "0.5", "file request correlation");
  parser.add_option("lambda0", "4.0", "base indexing-server visit rate");
  parser.add_option("horizon", "1200", "simulated time per run");
  parser.add_option("warmup", "300", "statistics warm-up time");
  parser.add_option("seed", "2025", "RNG seed");
  parser.add_option("json", "", "also dump rows as JSON to this path");
  if (!parser.parse(argc, argv)) return 0;

  // CMFSD and MTSD carry one active peer per user instead of one per
  // requested file, so they need a hotter arrival rate to reach the same
  // concurrent population as the virtual-peer schemes.
  const std::vector<Row> rows{
      {"MTCD", fluid::SchemeKind::kMtcd, 0.0, 1.0},
      {"MTSD", fluid::SchemeKind::kMtsd, 0.0, 5.0},
      {"MFCD", fluid::SchemeKind::kMfcd, 0.0, 1.0},
      {"CMFSD rho=0.2", fluid::SchemeKind::kCmfsd, 0.2, 5.0},
  };

  util::Table table({"scheme", "events", "wall s", "events/s", "peak peers",
                     "rate epochs", "users done", "peak RSS MiB"});
  table.set_precision(3);
  std::vector<std::string> json_rows;

  // Per-scheme peak RSS needs the water mark cleared between runs; when
  // the platform refuses, the column degrades to the process-lifetime
  // high water mark (monotone across rows).
  const bool rss_per_scheme = bench::reset_peak_rss();

  for (const Row& row : rows) {
    sim::SimConfig config;
    config.scheme = row.scheme;
    config.num_files = static_cast<unsigned>(parser.get_int("k"));
    config.correlation = parser.get_double("p");
    config.visit_rate = parser.get_double("lambda0") * row.lambda_scale;
    config.rho = row.rho;
    config.horizon = parser.get_double("horizon");
    config.warmup = parser.get_double("warmup");
    config.seed = parser.get_uint64("seed");
    config.max_active_peers = 4'000'000;

    if (rss_per_scheme) bench::reset_peak_rss();
    util::Stopwatch timer;
    const sim::SimResult r = sim::run_simulation(config);
    const double wall = timer.seconds();
    const double rate =
        wall > 0.0 ? static_cast<double>(r.events_processed) / wall : 0.0;
    const std::size_t rss = bench::peak_rss_bytes();
    const double rss_mib = static_cast<double>(rss) / (1024.0 * 1024.0);

    table.add_row({row.label, static_cast<double>(r.events_processed), wall,
                   rate, static_cast<double>(r.peak_live_peers),
                   static_cast<double>(r.rate_epochs),
                   static_cast<double>(r.total_users), rss_mib});
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  {\"scheme\": \"%s\", \"events\": %zu, \"wall_s\": %.3f, "
                  "\"events_per_sec\": %.0f, \"peak_peers\": %zu, "
                  "\"rate_epochs\": %zu, \"users\": %zu, "
                  "\"peak_rss_bytes\": %zu, \"rss_per_scheme\": %s}",
                  row.label.c_str(), r.events_processed, wall, rate,
                  r.peak_live_peers, r.rate_epochs, r.total_users, rss,
                  rss_per_scheme ? "true" : "false");
    json_rows.emplace_back(buf);
  }

  bench::emit(table, "Simulator throughput (unified event kernel)",
              parser.get("csv"));

  const std::string json_path = parser.get("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "[\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      out << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("(json saved to %s)\n", json_path.c_str());
  }
  return 0;
}
