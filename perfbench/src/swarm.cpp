// swarm: a closed loop with one caller. Each operation is one Monte-Carlo
// Backend::evaluate from a fixed cycle — the event kernel on all four
// schemes, the sharded kernel on nproc threads, chunk-sim at K = 3 with
// rarest-first piece selection, and the stochastic epidemic. No cache and
// no wire codec are involved.
#include <cmath>

#include "btmf/model/backend.h"
#include "btmf/parallel/seeds.h"
#include "workloads.h"

namespace perfbench {

using btmf::fluid::SchemeKind;
using btmf::model::Outcome;
using btmf::model::ScenarioSpec;

namespace {

// Relative-error bounds of the Monte-Carlo checks: the larger of twice the
// largest error and |mean| + 6 sd, over seeds 1..60 (`perfbench_run
// --calibrate 60`; perfbench/README.md, "Checks").
constexpr double kMtsdBound = 0.02;
constexpr double kMfcdBound = 0.005;
constexpr double kCmfsdBound = 0.006;
constexpr double kEpidemicBound = 0.04;
constexpr double kChunkBound = 0.18;

ScenarioSpec kernel_spec(SchemeKind scheme, std::uint64_t seed,
                         std::uint64_t stream) {
  ScenarioSpec spec = paper_spec(scheme, 0.5, 20.0);
  spec.rho = 0.5;
  spec.horizon = 2000.0;
  spec.warmup = 600.0;
  spec.seed = btmf::parallel::derive_seed(seed, stream);
  return spec;
}

Outcome fluid_reference(ScenarioSpec spec) {
  return btmf::model::require_backend("fluid-equilibrium").evaluate(spec);
}

}  // namespace

std::vector<SwarmOp> swarm_cycle(std::uint64_t seed, unsigned nproc) {
  std::vector<SwarmOp> cycle;
  const std::pair<const char*, SchemeKind> schemes[] = {
      {"mtcd", SchemeKind::kMtcd},
      {"mtsd", SchemeKind::kMtsd},
      {"mfcd", SchemeKind::kMfcd},
      {"cmfsd", SchemeKind::kCmfsd}};
  std::uint64_t stream = 0;
  for (const auto& [name, scheme] : schemes) {
    cycle.push_back({std::string("kernel-sim/") + name, "kernel-sim",
                     kernel_spec(scheme, seed, stream++)});
  }

  ScenarioSpec sharded = kernel_spec(SchemeKind::kMtcd, seed, stream++);
  sharded.shards = nproc;
  sharded.kernel_threads = nproc;
  cycle.push_back({"kernel-sim/mtcd-sharded", "kernel-sim", sharded});

  ScenarioSpec chunk = paper_spec(SchemeKind::kMtsd, 0.5, 2.0);
  chunk.num_files = 3;
  chunk.horizon = 3000.0;
  chunk.warmup = 1000.0;
  chunk.seed = btmf::parallel::derive_seed(seed, stream++);
  cycle.push_back({"chunk-sim/mtsd-k3", "chunk-sim", chunk});

  ScenarioSpec epidemic = paper_spec(SchemeKind::kMfcd, 0.5, 20.0);
  epidemic.horizon = 4000.0;
  epidemic.warmup = 1500.0;
  epidemic.seed = btmf::parallel::derive_seed(seed, stream++);
  cycle.push_back({"stochastic-epidemic/mfcd", "stochastic-epidemic",
                   epidemic});
  return cycle;
}

std::string check_swarm_outcome(const SwarmOp& op, const Outcome& outcome,
                                double bound_scale) {
  if (!outcome.ok()) return op.label + ": " + outcome.error;
  const ScenarioSpec& spec = op.spec;
  if (op.backend == "kernel-sim") {
    switch (spec.scheme) {
      case SchemeKind::kMtcd: {
        // Left out of the fluid comparison: the kernel reports MTCD's
        // online time as the last of i independent seedings, not the
        // per-torrent residence the fluid model counts (CHANGES.md).
        if (spec.shards == 1) return {};
        // The sharded run must equal the same shards on one thread bit for
        // bit. Against one shard the counters must match exactly and the
        // numbers to 1e-12: on some seeds shards=1 folds its sums in
        // another order and differs in the last bits (CHANGES.md).
        const btmf::model::Backend& kernel =
            btmf::model::require_backend("kernel-sim");
        ScenarioSpec one_thread = spec;
        one_thread.kernel_threads = 1;
        if (auto diff = check_same_run(outcome, kernel.evaluate(one_thread),
                                       op.label + " vs threads=1");
            !diff.empty()) {
          return diff;
        }
        ScenarioSpec serial = one_thread;
        serial.shards = 1;
        return check_near_run(outcome, kernel.evaluate(serial), 1e-12,
                              op.label + " vs shards=1 threads=1");
      }
      case SchemeKind::kMtsd:
        return check_relative(outcome.avg_online_per_file,
                              mtsd_online_per_file(spec.fluid), kMtsdBound * bound_scale,
                              op.label + " vs closed form");
      case SchemeKind::kMfcd:
        return check_relative(outcome.avg_online_per_file,
                              fluid_reference(spec).avg_online_per_file,
                              kMfcdBound * bound_scale, op.label + " vs fluid");
      case SchemeKind::kCmfsd:
        return check_relative(outcome.avg_online_per_file,
                              fluid_reference(spec).avg_online_per_file,
                              kCmfsdBound * bound_scale, op.label + " vs fluid");
    }
  }
  if (op.backend == "chunk-sim") {
    if (!outcome.chunk || !(outcome.chunk->emergent_eta > 0.0)) {
      return op.label + ": no emergent eta measured";
    }
    ScenarioSpec matched = spec;
    matched.fluid.eta = outcome.chunk->emergent_eta;
    return check_relative(outcome.avg_download_per_file,
                          fluid_reference(matched).avg_download_per_file,
                          kChunkBound * bound_scale, op.label + " vs fluid at its eta");
  }
  return check_relative(outcome.avg_online_per_file,
                        fluid_reference(spec).avg_online_per_file,
                        kEpidemicBound * bound_scale, op.label + " vs fluid");
}

RunOutput run_swarm(const Context& ctx, Tracer& tracer, Verdict& verdict) {
  const std::vector<SwarmOp> cycle = swarm_cycle(ctx.seed, ctx.nproc);
  std::vector<const btmf::model::Backend*> backends;
  for (const SwarmOp& op : cycle) {
    backends.push_back(&btmf::model::require_backend(op.backend));
  }

  // Set-up: one warm-up operation. Each op's first outcome is the
  // reference every later repetition must equal bit for bit.
  std::vector<Outcome> first(cycle.size());
  first[0] = backends[0]->evaluate(cycle[0].spec);
  const double setup_s = now_s() - ctx.t0;

  std::vector<double> traced, untraced;
  const PhaseStats phase = run_closed_loop(
      ctx.seconds, 100, [&](std::uint64_t round, std::vector<double>& lat) {
        tracer.set_active(round % 2 == 0);
        for (std::size_t i = 0; i < cycle.size(); ++i) {
          const SwarmOp& op = cycle[i];
          const double start = now_s();
          Outcome outcome = backends[i]->evaluate(op.spec);
          const double dur = now_s() - start;
          lat.push_back(dur);
          (round % 2 == 0 ? traced : untraced).push_back(dur);
          tracer.record("model.evaluate." + op.backend, start, dur);
          if (outcome.sim) {
            const auto events =
                static_cast<double>(outcome.sim->events_processed);
            const std::string scheme = op.label.substr(op.label.find('/') + 1);
            tracer.record(op.spec.shards > 1 ? "sim.sharded.tmax"
                                             : "sim.run." + scheme,
                          start, dur, events);
            tracer.record("sim.rate_epochs", start, dur,
                          static_cast<double>(outcome.sim->rate_epochs));
            tracer.record("sim.events", start, dur, events);
            tracer.record("sim.peak_live_peers", start, dur,
                          static_cast<double>(outcome.sim->peak_live_peers));
          }
          if (outcome.chunk) {
            tracer.record("sim.chunk", start, dur,
                          static_cast<double>(outcome.chunk->completed_peers));
          }
          if (round == 0) {
            first[i] = std::move(outcome);
          } else {
            const std::string what = op.label + " repeat";
            verdict.require(outcome.sim
                                ? check_same_run(first[i], outcome, what)
                                : check_same_numbers(first[i], outcome, what));
          }
        }
      });
  tracer.set_active(true);

  // Untimed: every op's outcome against its outside reference.
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    verdict.require(check_swarm_outcome(cycle[i], first[i]));
  }

  RunOutput out;
  out.attempted = phase.latencies_s.size();
  if (ctx.trace) {
    ProbeSet probes;
    probes.sim = false;
    probes.sharded = &cycle[4].spec;
    run_layer_probes(ctx, tracer, verdict, probes);
    add_per_layer(out, tracer, overhead_pct(traced, untraced));
  } else {
    add_end_to_end(out, setup_s, phase);
  }
  return out;
}

}  // namespace perfbench
