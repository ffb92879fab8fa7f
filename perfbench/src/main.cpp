// perfbench_run: one workload in one process.
//
//   perfbench_run --workload reproduce|swarm|serve --seed N --seconds S
//                 --trace 0|1 [--t0 SECONDS] [--commit ID]
//   perfbench_run --calibrate N
//
// Prints a metadata line, then as its last line one JSON object with
// exactly the keys correct, attempted, failed and metrics. When any
// correctness check fails it prints the failures to stderr, no result
// line, and exits 1. --calibrate prints the Monte-Carlo checks' relative
// errors over seeds 1..N (how the swarm bounds in README.md were derived).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "btmf/model/backend.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buffer;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench_run: " << problem
            << "\nusage: perfbench_run --workload reproduce|swarm|serve "
               "--seed N --seconds S --trace 0|1 [--t0 T] [--commit ID]\n"
               "       perfbench_run --calibrate N\n";
  std::exit(2);
}

/// Relative errors of the swarm checks over seeds 1..n.
int calibrate(unsigned n) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "seed";
  for (const SwarmOp& op : swarm_cycle(1, nproc)) std::cout << "\t" << op.label;
  std::cout << "\n";
  for (unsigned seed = 1; seed <= n; ++seed) {
    std::cout << seed;
    for (const SwarmOp& op : swarm_cycle(seed, nproc)) {
      const double start = now_s();
      const btmf::model::Outcome outcome =
          btmf::model::require_backend(op.backend).evaluate(op.spec);
      const double dur = now_s() - start;
      // A zero bound turns every check into a report of its error.
      std::string report = check_swarm_outcome(op, outcome, 0.0);
      std::cout << "\t" << (report.empty() ? "ok" : report) << " ["
                << dur * 1e3 << " ms]";
    }
    std::cout << std::endl;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double start = now_s();
  Context ctx;
  ctx.t0 = start;
  std::string workload, commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        ctx.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        ctx.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        ctx.trace = value == "1";
        have_trace = true;
      } else if (arg == "--t0") {
        ctx.t0 = std::stod(value);
      } else if (arg == "--commit") {
        commit = value;
      } else if (arg == "--calibrate") {
        return calibrate(static_cast<unsigned>(std::stoul(value)));
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || workload.empty()) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(ctx.seconds > 0.0)) usage("--seconds must be positive");
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  ctx.scratch = (fs::path(".bench_scratch") /
                 (workload + "-" + std::to_string(::getpid())))
                    .string();

  Tracer tracer(ctx.trace);
  Verdict verdict;
  RunOutput out;
  try {
    fs::create_directories(ctx.scratch);
    if (workload == "reproduce") {
      out = run_reproduce(ctx, tracer, verdict);
    } else if (workload == "swarm") {
      out = run_swarm(ctx, tracer, verdict);
    } else if (workload == "serve") {
      out = run_serve(ctx, tracer, verdict);
    } else {
      usage("unknown workload " + workload);
    }
    if (ctx.trace) {
      fs::create_directories(".bench_traces");
      tracer.write_chrome_trace(".bench_traces/" + workload + "-seed" +
                                std::to_string(ctx.seed) + ".json");
    }
  } catch (const std::exception& e) {
    verdict.require(std::string("exception: ") + e.what());
  }
  std::error_code ignored;
  fs::remove_all(ctx.scratch, ignored);

  for (const auto& [name, metric] : out.metrics) {
    if (!std::isfinite(metric.value)) {
      verdict.require("metric " + name + " is not finite");
    }
  }
  if (out.attempted == 0) verdict.require("no operation attempted");
  if (!verdict.ok()) {
    for (const std::string& failure : verdict.failures()) {
      std::cerr << "CHECK FAILED: " << failure << "\n";
    }
    return 1;
  }

  std::cout << "{\"meta\": {\"workload\": " << json_string(workload)
            << ", \"seed\": " << ctx.seed << ", \"trace\": " << ctx.trace
            << ", \"commit\": " << json_string(commit)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_string(compiler())
            << ", \"nproc\": " << ctx.nproc
            << ", \"timestamp\": " << json_string(utc_timestamp())
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << "}}\n";
  std::ostringstream line;
  line << "{\"correct\": true, \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    line << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
         << json_number(metric.value) << ", \"unit\": "
         << json_string(metric.unit) << "}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}
