// Layer probes and the per-layer metric set.
//
// A traced run reports every per-layer metric. Where the workload's own
// operations call into a layer, its spans come from those calls; for the
// other layers the traced run finishes with a probe: direct calls into the
// layer's public functions on inputs drawn from the same seed. Probe spans
// are used only for metrics the workload's own spans do not cover.
#include <cmath>
#include <filesystem>
#include <limits>

#include "btmf/fluid/cmfsd.h"
#include "btmf/fluid/mfcd.h"
#include "btmf/fluid/mtcd.h"
#include "btmf/fluid/mtsd.h"
#include "btmf/math/equilibrium.h"
#include "btmf/math/ode.h"
#include "btmf/model/backend.h"
#include "btmf/model/wire.h"
#include "btmf/parallel/seeds.h"
#include "btmf/robust/supervisor.h"
#include "btmf/sim/simulator.h"
#include "btmf/sweep/cache.h"
#include "btmf/sweep/sweep.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using btmf::fluid::SchemeKind;
using btmf::model::ScenarioSpec;

double seeded_uniform(std::uint64_t seed, std::uint64_t stream, double lo,
                      double hi) {
  const std::uint64_t bits = btmf::parallel::derive_seed(seed, stream) >> 11;
  return lo + (hi - lo) * static_cast<double>(bits) * 0x1.0p-53;
}

ScenarioSpec paper_spec(SchemeKind scheme, double p, double visit_rate) {
  ScenarioSpec spec;
  spec.num_files = btmf::fluid::kPaperNumFiles;
  spec.fluid = btmf::fluid::kPaperParams;
  spec.scheme = scheme;
  spec.correlation = p;
  spec.visit_rate = visit_rate;
  return spec;
}

namespace {

constexpr int kRepeats = 10;

const char* scheme_name(SchemeKind scheme) {
  switch (scheme) {
    case SchemeKind::kMtcd: return "mtcd";
    case SchemeKind::kMtsd: return "mtsd";
    case SchemeKind::kMfcd: return "mfcd";
    case SchemeKind::kCmfsd: return "cmfsd";
  }
  return "?";
}

constexpr SchemeKind kSchemes[] = {SchemeKind::kMtcd, SchemeKind::kMtsd,
                                   SchemeKind::kMfcd, SchemeKind::kCmfsd};

/// math and fluid: each scheme's fluid solve, the steady-state finder and
/// one transient integration of the CMFSD system; the two fluid backends.
void probe_fluid(std::uint64_t seed, Tracer& tracer, Verdict& verdict) {
  ScenarioSpec spec = paper_spec(SchemeKind::kCmfsd,
                                 seeded_uniform(seed, 7001, 0.3, 0.9), 1.0);
  spec.rho = seeded_uniform(seed, 7002, 0.2, 0.8);
  const btmf::fluid::CorrelationModel corr = spec.correlation_model();
  const std::vector<double> system_rates = corr.system_entry_rates();
  const std::vector<double> torrent_rates = corr.per_torrent_entry_rates();
  const btmf::fluid::CmfsdModel cmfsd(spec.fluid, system_rates, spec.rho);
  for (int rep = 0; rep < kRepeats; ++rep) {
    tracer.time("fluid.solve.mtcd", [&] {
      return btmf::fluid::mtcd_equilibrium(spec.fluid, torrent_rates);
    });
    tracer.time("fluid.solve.mtsd", [&] {
      return btmf::fluid::mtsd_metrics(spec.fluid, spec.num_files);
    });
    tracer.time("fluid.solve.mfcd", [&] {
      return btmf::fluid::mfcd_equilibrium(spec.fluid, corr);
    });
    tracer.time("fluid.solve.cmfsd", [&] { return cmfsd.solve(spec.solver); });
    tracer.time("math.find_equilibrium", [&] {
      return btmf::math::find_equilibrium(
          cmfsd.rhs(), std::vector<double>(cmfsd.state_size(), 0.0),
          spec.solver);
    });
    const double start = now_s();
    const btmf::math::AdaptiveResult ode = btmf::math::integrate_dopri5(
        cmfsd.rhs(), std::vector<double>(cmfsd.state_size(), 0.0), 0.0,
        spec.horizon, spec.solver.ode);
    tracer.record("math.ode_integrate", start, now_s() - start,
                  static_cast<double>(ode.accepted_steps));
    for (const char* backend : {"fluid-equilibrium", "fluid-transient"}) {
      for (const SchemeKind scheme : kSchemes) {
        ScenarioSpec s = spec;
        s.scheme = scheme;
        const btmf::model::Outcome outcome = tracer.time(
            std::string("model.evaluate.") + backend,
            [&] { return btmf::model::require_backend(backend).evaluate(s); });
        if (!outcome.ok()) {
          verdict.require(std::string("probe: ") + backend + " failed: " +
                          outcome.error);
        }
      }
    }
  }
}

/// sweep, cache, supervisor and wire codec.
void probe_sweep(const Context& ctx, Tracer& tracer, Verdict& verdict) {
  const fs::path root = fs::path(ctx.scratch) / "probe-sweep";
  const btmf::model::Backend& fluid =
      btmf::model::require_backend("fluid-equilibrium");
  for (int rep = 0; rep < kRepeats; ++rep) {
    fs::remove_all(root);
    btmf::sweep::SweepSpec spec;
    spec.name = "probe";
    spec.grid.axis("p", btmf::sweep::linspace(0.05, 1.0, 24));
    spec.fingerprint = "perfbench-probe";
    spec.compute = [&](const btmf::sweep::GridPoint& point) {
      const double start = now_s();
      const btmf::model::Outcome outcome =
          fluid.evaluate(paper_spec(SchemeKind::kMtcd, point.at("p"), 1.0));
      btmf::sweep::PointResult result;
      result.values["online"] = outcome.avg_online_per_file;
      tracer.record("sweep.compute", start, now_s() - start);
      return result;
    };
    btmf::sweep::SweepOptions options;
    options.cache_dir = root.string();
    options.jobs = 1;
    const double start = now_s();
    const btmf::sweep::SweepResult result = btmf::sweep::run_sweep(spec, options);
    tracer.record("sweep.run", start, now_s() - start,
                  static_cast<double>(result.num_points()));
    if (!result.all_ok()) verdict.require("probe: sweep had failed points");
  }

  btmf::sweep::DiskCache cache((root / "cache").string());
  btmf::sweep::PointResult value;
  value.values["online"] = 96.0;
  for (int i = 0; i < 5 * kRepeats; ++i) {
    const btmf::sweep::CacheKey key{"probe", "store",
                                    "i=" + std::to_string(i)};
    tracer.time("sweep.cache_store", [&] { cache.store(key, value); });
    btmf::sweep::PointResult found;
    const auto hit = tracer.time("sweep.cache_hit",
                                 [&] { return cache.lookup(key, &found); });
    const btmf::sweep::CacheKey absent{"probe", "absent",
                                       "i=" + std::to_string(i)};
    const auto miss = tracer.time("sweep.cache_miss",
                                  [&] { return cache.lookup(absent, &found); });
    if (hit != btmf::sweep::CacheLookup::kHit ||
        miss != btmf::sweep::CacheLookup::kMiss || !(found == value)) {
      verdict.require("probe: cache lookup returned the wrong entry");
    }
  }
  fs::remove_all(root);

  // The inline supervisor against the bare task it wraps.
  const ScenarioSpec spec = paper_spec(SchemeKind::kMtcd, 0.5, 1.0);
  const btmf::robust::Task task = [&](const btmf::robust::TaskContext&) {
    return btmf::robust::Values{
        {"online", fluid.evaluate(spec).avg_online_per_file}};
  };
  for (int i = 0; i < 20 * kRepeats; ++i) {
    tracer.time("robust.direct", [&] { return task({}); });
    const auto outcome = tracer.time("robust.supervise", [&] {
      return btmf::robust::supervise(task, {}, static_cast<std::uint64_t>(i));
    });
    if (!outcome.ok()) verdict.require("probe: supervised task failed");
  }

  // The wire codec on a spec of every scheme.
  for (int i = 0; i < 10 * kRepeats; ++i) {
    ScenarioSpec s = paper_spec(kSchemes[i % 4],
                                seeded_uniform(ctx.seed, 7100 + i, 0.1, 1.0),
                                seeded_uniform(ctx.seed, 7300 + i, 0.5, 10.0));
    const ScenarioSpec back = tracer.time("model.wire_roundtrip", [&] {
      return btmf::model::decode_spec(btmf::model::encode_spec(s));
    });
    if (back.fingerprint() != s.fingerprint()) {
      verdict.require("probe: wire round trip changed a spec");
    }
  }
}

/// The event kernel per scheme, chunk-sim and the epidemic at small sizes.
void probe_sim(std::uint64_t seed, Tracer& tracer, Verdict& verdict) {
  for (const SchemeKind scheme : kSchemes) {
    ScenarioSpec spec = paper_spec(scheme, 0.5, 20.0);
    spec.rho = 0.5;
    spec.horizon = 500.0;
    spec.warmup = 150.0;
    spec.seed = btmf::parallel::derive_seed(seed, 7400);
    const double start = now_s();
    const btmf::sim::SimResult run =
        btmf::sim::run_simulation(btmf::model::sim_config_from_spec(spec));
    const double dur = now_s() - start;
    const auto events = static_cast<double>(run.events_processed);
    tracer.record(std::string("sim.run.") + scheme_name(scheme), start, dur,
                  events);
    tracer.record("sim.events", start, dur, events);
    tracer.record("sim.rate_epochs", start, dur,
                  static_cast<double>(run.rate_epochs));
    tracer.record("sim.peak_live_peers", start, dur,
                  static_cast<double>(run.peak_live_peers));
    tracer.time("model.evaluate.kernel-sim", [&] {
      return btmf::model::require_backend("kernel-sim").evaluate(spec);
    });
  }

  ScenarioSpec chunk = paper_spec(SchemeKind::kMtsd, 0.5, 2.0);
  chunk.num_files = 3;
  chunk.horizon = 1200.0;
  chunk.warmup = 300.0;
  chunk.seed = btmf::parallel::derive_seed(seed, 7401);
  const double start = now_s();
  const btmf::model::Outcome outcome =
      btmf::model::require_backend("chunk-sim").evaluate(chunk);
  const double dur = now_s() - start;
  tracer.record("model.evaluate.chunk-sim", start, dur);
  if (!outcome.ok() || !outcome.chunk) {
    verdict.require("probe: chunk-sim failed: " + outcome.error);
  } else {
    tracer.record("sim.chunk", start, dur,
                  static_cast<double>(outcome.chunk->completed_peers));
  }

  ScenarioSpec epidemic = paper_spec(SchemeKind::kMfcd, 0.5, 5.0);
  epidemic.horizon = 1500.0;
  epidemic.warmup = 300.0;
  epidemic.seed = btmf::parallel::derive_seed(seed, 7402);
  tracer.time("model.evaluate.stochastic-epidemic", [&] {
    return btmf::model::require_backend("stochastic-epidemic").evaluate(epidemic);
  });
}

/// The same sharded spec at one kernel thread and at nproc.
void probe_sharded(const Context& ctx, const ScenarioSpec* given,
                   Tracer& tracer) {
  ScenarioSpec spec = paper_spec(SchemeKind::kMtcd, 0.5, 20.0);
  spec.horizon = 500.0;
  spec.warmup = 150.0;
  spec.seed = btmf::parallel::derive_seed(ctx.seed, 7403);
  spec.shards = ctx.nproc;
  if (given != nullptr) spec = *given;
  for (int rep = 0; rep < 3; ++rep) {
    for (const unsigned threads : {1u, ctx.nproc}) {
      spec.kernel_threads = threads;
      const double start = now_s();
      const btmf::sim::SimResult run =
          btmf::sim::run_simulation(btmf::model::sim_config_from_spec(spec));
      tracer.record(threads == 1 ? "sim.sharded.t1" : "sim.sharded.tmax",
                    start, now_s() - start,
                    static_cast<double>(run.events_processed));
    }
  }
}

double sum_count(const std::vector<Span>& spans) {
  double total = 0.0;
  for (const Span& span : spans) total += span.count;
  return total;
}

double sum_dur(const std::vector<Span>& spans) {
  double total = 0.0;
  for (const Span& span : spans) total += span.dur_s;
  return total;
}

}  // namespace

void run_layer_probes(const Context& ctx, Tracer& tracer, Verdict& verdict,
                      const ProbeSet& probes) {
  tracer.set_probe(true);
  probe_fluid(ctx.seed, tracer, verdict);
  probe_sweep(ctx, tracer, verdict);
  if (probes.sim) probe_sim(ctx.seed, tracer, verdict);
  probe_sharded(ctx, probes.sharded, tracer);
  if (probes.serve) run_serve_probe(ctx, tracer, verdict);
  tracer.set_probe(false);
}

void add_per_layer(RunOutput& out, const Tracer& tracer,
                   double trace_overhead_pct) {
  auto& m = out.metrics;
  const auto median_of = [&](const std::string& name, double scale) {
    std::vector<double> values;
    for (const Span& span : tracer.spans(name)) values.push_back(span.dur_s * scale);
    return median(values);
  };
  const auto median_count = [&](const std::string& name) {
    std::vector<double> values;
    for (const Span& span : tracer.spans(name)) values.push_back(span.count);
    return median(values);
  };

  m["math.find_equilibrium_ms"] = {median_of("math.find_equilibrium", 1e3), "ms"};
  m["math.ode_steps_per_op"] = {median_count("math.ode_integrate"), "count"};
  for (const char* s : {"mtcd", "mtsd", "mfcd", "cmfsd"}) {
    m[std::string("fluid.solve_ms.") + s] = {
        median_of(std::string("fluid.solve.") + s, 1e3), "ms"};
    const std::vector<Span> runs = tracer.spans(std::string("sim.run.") + s);
    m[std::string("sim.events_per_s.") + s] = {sum_count(runs) / sum_dur(runs),
                                               "1/s"};
  }
  for (const char* b : {"fluid-equilibrium", "fluid-transient", "kernel-sim",
                        "chunk-sim", "stochastic-epidemic"}) {
    m[std::string("model.evaluate_ms.") + b] = {
        median_of(std::string("model.evaluate.") + b, 1e3), "ms"};
  }
  m["model.wire_roundtrip_us"] = {median_of("model.wire_roundtrip", 1e6), "us"};

  m["sim.rate_epochs_per_event"] = {
      sum_count(tracer.spans("sim.rate_epochs")) /
          sum_count(tracer.spans("sim.events")),
      "ratio"};
  m["sim.sharded_wall_ms.t1"] = {median_of("sim.sharded.t1", 1e3), "ms"};
  m["sim.sharded_wall_ms.tmax"] = {median_of("sim.sharded.tmax", 1e3), "ms"};
  double peak = 0.0;
  for (const Span& span : tracer.spans("sim.peak_live_peers")) {
    peak = std::max(peak, span.count);
  }
  m["sim.peak_live_peers"] = {peak, "count"};
  const std::vector<Span> chunk = tracer.spans("sim.chunk");
  m["sim.chunk_ms_per_completion"] = {sum_dur(chunk) * 1e3 / sum_count(chunk),
                                      "ms"};

  const std::vector<Span> sweeps = tracer.spans("sweep.run");
  m["sweep.point_overhead_us"] = {
      (sum_dur(sweeps) - sum_dur(tracer.spans("sweep.compute"))) * 1e6 /
          sum_count(sweeps),
      "us"};
  m["sweep.cache_store_us"] = {median_of("sweep.cache_store", 1e6), "us"};
  m["sweep.cache_hit_us"] = {median_of("sweep.cache_hit", 1e6), "us"};
  m["sweep.cache_miss_us"] = {median_of("sweep.cache_miss", 1e6), "us"};
  m["robust.supervise_overhead_us"] = {
      median_of("robust.supervise", 1e6) - median_of("robust.direct", 1e6),
      "us"};

  m["serve.hit_roundtrip_us"] = {median_of("serve.hit_roundtrip", 1e6), "us"};
  m["serve.miss_roundtrip_ms"] = {median_of("serve.miss_roundtrip", 1e3), "ms"};
  m["serve.coalesced_per_request"] = {
      sum_count(tracer.spans("serve.coalesced")) /
          sum_count(tracer.spans("serve.requests")),
      "ratio"};
  std::vector<double> lateness;
  for (const Span& span : tracer.spans("serve.lateness")) {
    lateness.push_back(span.dur_s * 1e3);
  }
  double mean_lateness = 0.0;
  for (const double v : lateness) mean_lateness += v / static_cast<double>(lateness.size());
  m["serve.lateness_ms"] = {mean_lateness, "ms"};
  m["trace.overhead_pct"] = {trace_overhead_pct, "%"};
}

}  // namespace perfbench
