// serve: an open loop at a fixed offered rate against a serve::Daemon
// started in this process, over nproc unix-socket connections. Every
// request is timed from the moment it was due to be sent. Each round of
// the mix is 25 requests:
//
//   18  repeats of a pre-populated set (warm cache hits)
//    1  fresh fluid-equilibrium spec
//    1  fresh fluid-transient spec
//    1  fresh stochastic-epidemic spec
//    1  fresh small kernel-sim spec
//    2  one more fresh small kernel-sim spec, sent on two connections at
//       the same instant so the daemon coalesces them
//    1  a fixed spec whose seed is >= 2^63, which the daemon cannot decode
//       (a wire-codec fault, CHANGES.md): it fails in every round and is
//       counted in `failed`, not in the latencies
//
// so the median falls on the cache-hit path and the 90th percentile inside
// the kernel-sim computations, sized to take several times longer than the
// epidemic's so that it never sits on the boundary between the two. Seeds
// of the fresh specs stay below 2^63.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <thread>

#include "btmf/model/backend.h"
#include "btmf/parallel/seeds.h"
#include "btmf/serve/client.h"
#include "btmf/serve/daemon.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using btmf::fluid::SchemeKind;
using btmf::model::ScenarioSpec;

namespace {

constexpr double kOfferedRate = 120.0;  ///< requests per second
constexpr std::size_t kRoundSize = 25;
constexpr std::size_t kWideSeedSlot = 5;
constexpr std::size_t kHitsPerRound = 18;
constexpr std::size_t kHitSetSize = 24;

constexpr SchemeKind kSchemes[] = {SchemeKind::kMtcd, SchemeKind::kMtsd,
                                   SchemeKind::kMfcd, SchemeKind::kCmfsd};

struct Request {
  std::string backend;
  ScenarioSpec spec;
  double due_offset_s = 0.0;  ///< from the start of the session's schedule
  std::uint64_t round = 0;
  bool known_fault = false;   ///< expected to fail until the fault is mended
};

struct Sent {
  btmf::serve::EvalReply reply;
  double due_s = 0.0;
  double send_s = 0.0;
  double done_s = 0.0;
  std::string error;  ///< transport failure
};

std::string key_of(const Request& request) {
  return request.backend + "|" + request.spec.fingerprint();
}

/// A simulation seed the wire codec can carry (below 2^63).
std::uint64_t wire_seed(std::uint64_t seed, std::uint64_t stream) {
  return btmf::parallel::derive_seed(seed, stream) >> 1;
}

/// The same request in every round and for every --seed: a spec whose
/// simulation seed is 2^63 + 1.
Request wide_seed_request(std::uint64_t round) {
  ScenarioSpec spec = paper_spec(SchemeKind::kMtcd, 0.5, 1.0);
  spec.seed = (std::uint64_t{1} << 63) + 1;
  return {"fluid-equilibrium", spec, 0.0, round, true};
}

/// The pre-populated set: fluid-equilibrium and fluid-transient specs.
std::vector<Request> hit_set(std::uint64_t seed) {
  std::vector<Request> set;
  for (std::uint64_t i = 0; i < kHitSetSize; ++i) {
    ScenarioSpec spec = paper_spec(kSchemes[i % 4],
                                   seeded_uniform(seed, 1000 + i, 0.1, 1.0),
                                   seeded_uniform(seed, 2000 + i, 0.5, 10.0));
    spec.rho = seeded_uniform(seed, 3000 + i, 0.0, 1.0);
    set.push_back({i % 3 == 2 ? "fluid-transient" : "fluid-equilibrium",
                   spec, 0.0, 0});
  }
  return set;
}

/// Fresh compute specs vary only their simulation seed, so that every
/// one costs the same and the tail quantiles do not move with --seed.
ScenarioSpec small_kernel_spec(std::uint64_t seed, std::uint64_t stream) {
  ScenarioSpec spec = paper_spec(SchemeKind::kMtcd, 0.5, 4.0);
  spec.horizon = 1200.0;
  spec.warmup = 300.0;
  spec.seed = wire_seed(seed, stream);
  return spec;
}

/// The 25 requests of round `round`, in send order.
std::vector<Request> round_requests(std::uint64_t seed, std::uint64_t round,
                                    const std::vector<Request>& hits) {
  const std::uint64_t base = 100000 + round * 64;
  const SchemeKind scheme = kSchemes[round % 4];
  std::vector<Request> fresh;

  ScenarioSpec eq = paper_spec(scheme, seeded_uniform(seed, base, 0.1, 1.0),
                               seeded_uniform(seed, base + 1, 0.5, 10.0));
  eq.rho = seeded_uniform(seed, base + 2, 0.0, 1.0);
  fresh.push_back({"fluid-equilibrium", eq, 0.0, round});

  ScenarioSpec tr = paper_spec(kSchemes[(round + 1) % 4],
                               seeded_uniform(seed, base + 3, 0.1, 1.0),
                               seeded_uniform(seed, base + 4, 0.5, 10.0));
  tr.rho = seeded_uniform(seed, base + 5, 0.0, 1.0);
  fresh.push_back({"fluid-transient", tr, 0.0, round});

  ScenarioSpec epi = paper_spec(SchemeKind::kMfcd, 0.5, 2.0);
  epi.horizon = 1500.0;
  epi.warmup = 300.0;
  epi.seed = wire_seed(seed, base + 8);
  fresh.push_back({"stochastic-epidemic", epi, 0.0, round});

  fresh.push_back(
      {"kernel-sim", small_kernel_spec(seed, base + 10), 0.0, round});
  const Request pair{"kernel-sim", small_kernel_spec(seed, base + 20), 0.0,
                     round};

  // Interleave: fresh requests at slots 2, 8, 14, 20; the pair at 11/12.
  std::vector<Request> out;
  std::size_t next_hit = round * kHitsPerRound;
  std::size_t next_fresh = 0;
  for (std::size_t slot = 0; slot < kRoundSize; ++slot) {
    if (slot == kWideSeedSlot) {
      out.push_back(wide_seed_request(round));
    } else if (slot == 11 || slot == 12) {
      out.push_back(pair);
    } else if (slot % 6 == 2) {
      out.push_back(fresh[next_fresh++]);
    } else {
      Request hit = hits[next_hit++ % hits.size()];
      hit.round = round;
      out.push_back(hit);
    }
  }
  const double spacing = 1.0 / kOfferedRate;
  const double round_start = static_cast<double>(round * kRoundSize) * spacing;
  for (std::size_t slot = 0; slot < kRoundSize; ++slot) {
    // The pair shares one due time: both connections send at once.
    const std::size_t tick = slot == 12 ? 11 : slot;
    out[slot].due_offset_s = round_start + static_cast<double>(tick) * spacing;
  }
  return out;
}

/// A daemon plus nproc connected clients, torn down in the destructor.
class ServeBench {
 public:
  ServeBench(const Context& ctx, Tracer& tracer, const std::string& dir)
      : dir_(dir) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    btmf::serve::DaemonOptions options;
    // A relative path keeps the socket inside sun_path's 107 bytes
    // wherever the checkout lives.
    options.endpoint.kind = btmf::serve::Endpoint::Kind::kUnix;
    options.endpoint.path = (fs::path(dir_) / "d.sock").string();
    options.cache_dir = (fs::path(dir_) / "cache").string();
    options.workers = ctx.nproc;
    options.eval = [&tracer](const std::string& backend,
                             const ScenarioSpec& spec) {
      const double start = now_s();
      btmf::robust::Values values = btmf::serve::default_eval(backend, spec);
      tracer.record("model.evaluate." + backend, start, now_s() - start);
      return values;
    };
    daemon_ = std::make_unique<btmf::serve::Daemon>(std::move(options));
    daemon_->start();
    for (unsigned i = 0; i < ctx.nproc; ++i) {
      clients_.push_back(btmf::serve::Client::connect(daemon_->endpoint()));
      ++sent_;  // the handshake is a request frame too
    }
  }

  ~ServeBench() {
    for (btmf::serve::Client& client : clients_) client.close();
    daemon_->drain();
  }
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// Sends `requests` on schedule from nproc threads; returns one record
  /// per request, in schedule order. Counts every frame sent.
  std::vector<Sent> play(const std::vector<Request>& requests) {
    std::vector<Sent> sent(requests.size());
    std::atomic<std::size_t> next{0};
    const double origin = now_s() + 0.002;
    auto worker = [&](btmf::serve::Client& client) {
      for (std::size_t i = next++; i < requests.size(); i = next++) {
        Sent& s = sent[i];
        s.due_s = origin + requests[i].due_offset_s;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::max(0.0, s.due_s - now_s())));
        s.send_s = now_s();
        try {
          s.reply = client.evaluate(requests[i].backend, requests[i].spec);
        } catch (const std::exception& e) {
          s.error = e.what();
        }
        s.done_s = now_s();
      }
    };
    std::vector<std::thread> threads;
    for (btmf::serve::Client& client : clients_) {
      threads.emplace_back(worker, std::ref(client));
    }
    for (std::thread& t : threads) t.join();
    sent_ += requests.size();
    return sent;
  }

  [[nodiscard]] std::uint64_t sent() const { return sent_; }

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto snapshot = daemon_->stats();
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  }

 private:
  std::string dir_;
  std::unique_ptr<btmf::serve::Daemon> daemon_;
  std::vector<btmf::serve::Client> clients_;
  std::uint64_t sent_ = 0;
};

bool failed(const Sent& s) { return !s.error.empty() || !s.reply.ok; }

/// Checks every reply: ok, equal to the first reply for its spec, and
/// equal to a direct untimed Backend::evaluate of the same spec. Only the
/// known wire fault may fail.
void check_replies(const std::vector<Request>& requests,
                   const std::vector<Sent>& sent, unsigned nproc,
                   Verdict& verdict) {
  std::map<std::string, std::size_t> first;  // key -> request index
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Sent& s = sent[i];
    if (failed(s)) {
      if (requests[i].known_fault) continue;
      verdict.require("serve: request " + std::to_string(i) + " (" +
                      requests[i].backend + ") failed: " +
                      (s.error.empty() ? s.reply.message : s.error));
      continue;
    }
    const auto [it, inserted] = first.emplace(key_of(requests[i]), i);
    if (!inserted) {
      verdict.require(check_same_values(
          s.reply.values, sent[it->second].reply.values,
          std::string("serve: ") + (s.reply.cached ? "cache hit" : "reply") +
              " vs first reply for " + requests[i].backend));
    }
  }

  // Direct evaluation of each distinct spec, spread over nproc threads.
  std::vector<std::size_t> distinct;
  for (const auto& entry : first) distinct.push_back(entry.second);
  std::vector<std::string> failures(distinct.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t d = next++; d < distinct.size(); d = next++) {
      const Request& request = requests[distinct[d]];
      const btmf::model::Outcome outcome =
          btmf::model::require_backend(request.backend).evaluate(request.spec);
      if (!outcome.ok()) {
        failures[d] = "serve: direct evaluate failed: " + outcome.error;
        continue;
      }
      const std::map<std::string, double> direct = {
          {"avg_online_per_file", outcome.avg_online_per_file},
          {"avg_download_per_file", outcome.avg_download_per_file},
          {"avg_online_per_user", outcome.avg_online_per_user}};
      failures[d] = check_same_values(sent[distinct[d]].reply.values, direct,
                                      "serve: reply vs direct evaluate of " +
                                          request.backend);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < nproc; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  for (const std::string& failure : failures) verdict.require(failure);
}

struct SessionResult {
  double setup_s = 0.0;
  PhaseStats phase;
  std::vector<double> traced, untraced;
  std::uint64_t failed = 0;
};

/// Start, pre-populate, warm up, play `rounds` timed rounds, check, stop.
SessionResult serve_session(const Context& ctx, Tracer& tracer,
                            Verdict& verdict, const std::string& dir,
                            std::uint64_t rounds) {
  SessionResult result;
  std::vector<Request> all;
  std::vector<Sent> all_sent;
  ServeBench bench(ctx, tracer, dir);

  // Set-up: pre-populate the hit set (paced at the offered rate), then one
  // warm-up round of the full mix.
  const std::vector<Request> hits = hit_set(ctx.seed);
  std::vector<Request> populate = hits;
  for (std::size_t i = 0; i < populate.size(); ++i) {
    populate[i].due_offset_s = static_cast<double>(i) / kOfferedRate;
  }
  const std::vector<Sent> populated = bench.play(populate);
  all.insert(all.end(), populate.begin(), populate.end());
  all_sent.insert(all_sent.end(), populated.begin(), populated.end());
  const std::vector<Request> warm = round_requests(ctx.seed, 0, hits);
  const std::vector<Sent> warm_sent = bench.play(warm);
  all.insert(all.end(), warm.begin(), warm.end());
  all_sent.insert(all_sent.end(), warm_sent.begin(), warm_sent.end());
  result.setup_s = now_s() - ctx.t0;

  std::vector<Request> schedule;
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    const std::vector<Request> round = round_requests(ctx.seed, r, hits);
    schedule.insert(schedule.end(), round.begin(), round.end());
  }
  const std::uint64_t requests0 = bench.counter("serve.requests");
  const std::uint64_t coalesced_before = bench.counter("serve.coalesced");
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  const std::vector<Sent> sent = bench.play(schedule);
  result.phase.wall_s = now_s() - t0;
  result.phase.cpu_s = process_cpu_s() - cpu0;

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Sent& s = sent[i];
    if (failed(s)) {
      ++result.failed;
      continue;
    }
    const double latency = s.done_s - s.due_s;
    result.phase.latencies_s.push_back(latency);
    // Odd rounds leave their client-side spans unrecorded, so the cost of
    // recording shows as trace.overhead_pct.
    if (schedule[i].round % 2 == 1) {
      result.untraced.push_back(latency);
      continue;
    }
    result.traced.push_back(latency);
    tracer.record("serve.lateness", s.due_s, s.send_s - s.due_s);
    if (s.reply.cached) {
      tracer.record("serve.hit_roundtrip", s.send_s, s.done_s - s.send_s);
    } else if (!s.reply.coalesced) {
      tracer.record("serve.miss_roundtrip", s.send_s, s.done_s - s.send_s);
    }
  }
  tracer.record("serve.requests", t0, result.phase.wall_s,
                static_cast<double>(bench.counter("serve.requests") - requests0));
  tracer.record("serve.coalesced", t0, result.phase.wall_s,
                static_cast<double>(bench.counter("serve.coalesced") -
                                    coalesced_before));

  all.insert(all.end(), schedule.begin(), schedule.end());
  all_sent.insert(all_sent.end(), sent.begin(), sent.end());
  check_replies(all, all_sent, ctx.nproc, verdict);
  verdict.require(
      check_request_count(bench.sent(), bench.counter("serve.requests")));
  return result;
}

}  // namespace

void run_serve_probe(const Context& ctx, Tracer& tracer, Verdict& verdict) {
  serve_session(ctx, tracer, verdict,
                (fs::path(ctx.scratch) / "serve-probe").string(), 4);
}

RunOutput run_serve(const Context& ctx, Tracer& tracer, Verdict& verdict) {
  // At least 100 completed requests; the wide-seed request fails.
  const auto rounds = static_cast<std::uint64_t>(std::max(
      std::ceil(ctx.seconds * kOfferedRate / static_cast<double>(kRoundSize)),
      std::ceil(100.0 / static_cast<double>(kRoundSize - 1))));
  SessionResult session = serve_session(
      ctx, tracer, verdict, (fs::path(ctx.scratch) / "serve").string(),
      rounds);

  RunOutput out;
  out.attempted = session.phase.latencies_s.size() + session.failed;
  out.failed = session.failed;
  if (ctx.trace) {
    ProbeSet probes;
    probes.serve = false;
    run_layer_probes(ctx, tracer, verdict, probes);
    add_per_layer(out, tracer, overhead_pct(session.traced, session.untraced));
  } else {
    add_end_to_end(out, session.setup_s, session.phase);
  }
  return out;
}

}  // namespace perfbench
