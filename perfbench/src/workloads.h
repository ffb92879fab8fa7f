// The three workloads and the layer probes shared by their traced runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "btmf/model/spec.h"
#include "checks.h"
#include "harness.h"

namespace perfbench {

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  ///< this run's scratch directory (removed at exit)
  double t0 = 0.0;      ///< process start, on now_s()'s clock
  unsigned nproc = 1;
};

/// Uniform double in [lo, hi) drawn from stream `stream` of `seed`.
double seeded_uniform(std::uint64_t seed, std::uint64_t stream, double lo,
                      double hi);

/// A scenario at the paper's constants (K = 10, mu, eta, gamma).
btmf::model::ScenarioSpec paper_spec(btmf::fluid::SchemeKind scheme,
                                     double p, double visit_rate);

RunOutput run_reproduce(const Context& ctx, Tracer& tracer, Verdict& verdict);
RunOutput run_swarm(const Context& ctx, Tracer& tracer, Verdict& verdict);
RunOutput run_serve(const Context& ctx, Tracer& tracer, Verdict& verdict);

/// The swarm workload's fixed cycle of (backend, spec) operations.
struct SwarmOp {
  std::string label;    ///< e.g. "kernel-sim/mtcd", "kernel-sim/mtcd-sharded"
  std::string backend;
  btmf::model::ScenarioSpec spec;
};
std::vector<SwarmOp> swarm_cycle(std::uint64_t seed, unsigned nproc);

/// Checks one swarm operation's outcome against its outside reference:
/// the fluid model, the MTSD closed form, or the unsharded run.
/// `bound_scale` multiplies the Monte-Carlo bounds (0 makes every such
/// check report its relative error, which is how they were calibrated).
std::string check_swarm_outcome(const SwarmOp& op,
                                const btmf::model::Outcome& outcome,
                                double bound_scale = 1.0);

/// A short serve session (four rounds of the serve mix), the serve
/// layer's probe in the traced runs of the other workloads.
void run_serve_probe(const Context& ctx, Tracer& tracer, Verdict& verdict);

/// Which layer probes a traced run still needs (a workload whose own ops
/// already exercise a layer skips that layer's probe).
struct ProbeSet {
  bool serve = true;
  bool sim = true;  ///< the unsharded kernel, chunk-sim and the epidemic
  /// The sharded spec whose 1-thread and nproc-thread wall times are
  /// measured (swarm passes its own; others use a small default).
  const btmf::model::ScenarioSpec* sharded = nullptr;
};
void run_layer_probes(const Context& ctx, Tracer& tracer, Verdict& verdict,
                      const ProbeSet& probes);

/// Every per-layer metric, computed from the recorded spans.
void add_per_layer(RunOutput& out, const Tracer& tracer,
                   double trace_overhead_pct);

}  // namespace perfbench
