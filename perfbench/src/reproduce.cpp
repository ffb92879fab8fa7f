// reproduce: a closed loop with one caller. Each operation is one cold
// reproduction of every registered paper figure into a fresh, empty cache
// directory, with the report rendered and written — what
// `btmf_tool reproduce` does for a user regenerating the paper.
#include <filesystem>
#include <fstream>

#include "btmf/model/backend.h"
#include "btmf/parallel/seeds.h"
#include "btmf/sweep/reproduce.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using btmf::fluid::SchemeKind;
using btmf::model::Outcome;

namespace {

struct Reproduction {
  std::vector<btmf::sweep::FigureReport> reports;
  std::string markdown;
};

/// One operation: every figure, cold or warm depending on `cache_dir`.
Reproduction reproduce_all(const std::string& cache_dir,
                           const std::string& report_path) {
  btmf::sweep::ReproduceOptions options;
  options.cache_dir = cache_dir;
  options.jobs = 1;
  Reproduction out;
  for (const btmf::sweep::FigureSpec& figure :
       btmf::sweep::figure_registry()) {
    out.reports.push_back(figure.run(options));
  }
  out.markdown = btmf::sweep::reproduction_markdown(out.reports);
  std::ofstream(report_path) << out.markdown;
  return out;
}

/// The fluid identities the paper proves, on seed-drawn scenarios:
/// MFCD == MTCD bit for bit and CMFSD(rho = 1) == MFCD (to the steady-state
/// solver's tolerance) on fluid-equilibrium.
void check_identities(std::uint64_t seed, Verdict& verdict) {
  const btmf::model::Backend& fluid =
      btmf::model::require_backend("fluid-equilibrium");
  for (std::uint64_t i = 0; i < 6; ++i) {
    const double p = seeded_uniform(seed, 100 + i, 0.05, 1.0);
    const double visit_rate = seeded_uniform(seed, 200 + i, 0.5, 20.0);
    const Outcome mtcd =
        fluid.evaluate(paper_spec(SchemeKind::kMtcd, p, visit_rate));
    const Outcome mfcd =
        fluid.evaluate(paper_spec(SchemeKind::kMfcd, p, visit_rate));
    btmf::model::ScenarioSpec cmfsd_spec =
        paper_spec(SchemeKind::kCmfsd, p, visit_rate);
    cmfsd_spec.rho = 1.0;
    const Outcome cmfsd = fluid.evaluate(cmfsd_spec);
    verdict.require(check_same_numbers(mfcd, mtcd, "fluid MFCD == MTCD"));
    // The transient-plus-Newton solve stops at a 1e-9 residual; the
    // fluid property tests hold the identity to 1e-4 relative.
    verdict.require(check_relative(cmfsd.avg_download_per_file,
                                   mfcd.avg_download_per_file, 1e-4,
                                   "fluid CMFSD(rho=1) == MFCD"));
  }
}

}  // namespace

RunOutput run_reproduce(const Context& ctx, Tracer& tracer, Verdict& verdict) {
  const fs::path root = fs::path(ctx.scratch) / "reproduce";
  fs::create_directories(root);
  const std::string report_path = (root / "REPRODUCTION.md").string();

  // Set-up: one warm-up operation, checked like every other.
  const Reproduction first =
      reproduce_all((root / "warmup").string(), report_path);
  verdict.require(check_claims(first.reports));
  fs::remove_all(root / "warmup");
  const double setup_s = now_s() - ctx.t0;

  std::vector<double> traced, untraced;
  std::string last_cache;
  const PhaseStats phase = run_closed_loop(
      ctx.seconds, 100, [&](std::uint64_t round, std::vector<double>& lat) {
        if (!last_cache.empty()) fs::remove_all(last_cache);
        last_cache = (root / ("op" + std::to_string(round))).string();
        tracer.set_active(round % 2 == 0);
        const double start = now_s();
        const Reproduction op = reproduce_all(last_cache, report_path);
        const double dur = now_s() - start;
        tracer.record("reproduce.op", start, dur);
        lat.push_back(dur);
        (round % 2 == 0 ? traced : untraced).push_back(dur);
        verdict.require(check_claims(op.reports));
        verdict.require(check_same_report(first.markdown, op.markdown));
      });
  tracer.set_active(true);

  // Untimed: the last operation's cache must serve a warm re-run that
  // renders the very same report, entirely from cache.
  const Reproduction warm = reproduce_all(last_cache, report_path);
  verdict.require(check_same_report(first.markdown, warm.markdown));
  for (const btmf::sweep::FigureReport& report : warm.reports) {
    if (report.stats.cache_misses != 0) {
      verdict.require("reproduce: warm re-run recomputed " +
                      std::to_string(report.stats.cache_misses) +
                      " points of " + report.name);
    }
  }
  check_identities(ctx.seed, verdict);

  RunOutput out;
  out.attempted = phase.latencies_s.size();
  if (ctx.trace) {
    run_layer_probes(ctx, tracer, verdict, ProbeSet{});
    add_per_layer(out, tracer, overhead_pct(traced, untraced));
  } else {
    add_end_to_end(out, setup_s, phase);
  }
  return out;
}

}  // namespace perfbench
