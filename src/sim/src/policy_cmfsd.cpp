// CMFSD scheme policy: sequential stages with partial seeds (paper
// Sec. 3.5), cheaters, the Adapt rho controller (Sec. 4.3) and the three
// seed-pool modes.
//
// A downloader's rate is min(eta * mu * P + pool_share, download_bw),
// where P is 1 in the first stage and rho afterwards (the tit-for-tat
// share kept for downloading) and pool_share is its cut of the virtual +
// real seed bandwidth. Downloads sharing the pair (tit-for-tat rate,
// subtorrent) form one service group — a handful of groups even with
// Adapt, because rho only takes values reachable by the step sizes. Under
// the global pool the pools are maintained incrementally, so a rate epoch
// costs O(groups * log groups); the subtorrent-local modes re-derive the
// per-subtorrent pools from the live list each epoch (demand-aware donors
// re-target every epoch by definition, so their supply vector is
// inherently a per-epoch quantity) while still scheduling completions
// through the groups.
//
// Adapt bookkeeping is lazy too: the kernel-wide integral of
// virtual_bw / n (the bandwidth an always-on downloader would have
// received from virtual seeds) is advanced at pool epochs, and each
// adaptive peer stores marks into it; uploads follow from (1 - rho) * mu
// times elapsed partial-seed time. Per-peer state is only touched at
// stage transitions and Adapt ticks, exactly like the pre-refactor
// engine's accumulate-then-reset cadence.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "policies.h"

namespace btmf::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class CmfsdPolicy final : public SchemePolicy {
 public:
  void attach(EventKernel& kernel) override {
    SchemePolicy::attach(kernel);
    const SimConfig& cfg = kernel.cfg();
    num_files_ = cfg.num_files;
    mu_ = cfg.fluid.mu;
    eta_ = cfg.fluid.eta;
    gamma_ = cfg.fluid.gamma;
    download_bw_ = cfg.download_bw;
    file_size_ = cfg.file_size;
    fixed_rho_ = cfg.rho;
    cheater_fraction_ = cfg.cheater_fraction;
    adapt_ = cfg.adapt;
    warmup_ = cfg.warmup;
    local_pool_ = cfg.seed_pool != SeedPoolMode::kGlobal;
    demand_aware_ = cfg.seed_pool == SeedPoolMode::kSubtorrentDemandAware;
    next_adapt_ = adapt_.enabled ? adapt_.period : kInf;

    virtual_bw_ = seed_bw_ = 0.0;
    num_downloaders_ = 0;
    pools_dirty_ = false;
    pool_per_sub_.assign(num_files_, 0.0);
    virtual_per_sub_.assign(num_files_, 0.0);
    downloaders_per_sub_.assign(num_files_, 0);
    vint_acc_ = vint_rate_ = vint_last_ = 0.0;
    wint_acc_.assign(num_files_, 0.0);
    wint_rate_.assign(num_files_, 0.0);
    wint_last_ = 0.0;
    group_of_.clear();
    group_key_.clear();

    metrics_ = kernel.obs().metrics;
    trace_ = kernel.obs().trace;
    if (metrics_ != nullptr) {
      pool_rebuilds_id_ = metrics_->counter("sim.cmfsd.pool_rebuilds");
      adapt_ticks_id_ = metrics_->counter("sim.cmfsd.adapt_ticks");
      rho_moves_id_ = metrics_->counter("sim.cmfsd.rho_moves");
    }
  }

  void on_arrival(std::size_t ui, double t) override {
    SimUser u = kernel_->user(ui);
    kernel_->rng().shuffle(u.files);
    u.seq_pos = 0;
    if (u.cls > 1 && cheater_fraction_ > 0.0 &&
        kernel_->rng().bernoulli(cheater_fraction_)) {
      u.cheater = true;
      u.rho = 1.0;
    } else if (adapt_.enabled) {
      u.adaptive = true;
      u.rho = adapt_.initial_rho;
    } else {
      u.rho = fixed_rho_;
    }
    kernel_->down_pop()[u.cls - 1] += 1.0;
    kernel_->add_active_peers(1);
    ++num_downloaders_;
    start_stage(ui, t);
    u.rv_base = 0.0;
    u.rv_mark = recv_integral(u, t);
    pools_dirty_ = true;
  }

  void refresh_rates(double t) override {
    if (!pools_dirty_) return;
    if (!local_pool_) {
      // Swap the slope of the received-from-virtual-seeds integral before
      // the pool changes take effect at t.
      vint_acc_ += vint_rate_ * (t - vint_last_);
      vint_last_ = t;
      // Physical bandwidths all carry the degradation scale; the pool
      // accumulators stay unscaled and the scale applies at the end.
      vint_rate_ =
          num_downloaders_ > 0
              ? bw_scale_ * virtual_bw_ / static_cast<double>(num_downloaders_)
              : 0.0;
      const double pool =
          num_downloaders_ > 0
              ? (virtual_bw_ + seed_bw_) /
                    static_cast<double>(num_downloaders_)
              : 0.0;
      for (std::size_t gid = 0; gid < group_key_.size(); ++gid) {
        kernel_->set_group_rate(
            gid,
            bw_scale_ * std::min(group_key_[gid].first + pool, download_bw_),
            t);
      }
    } else {
      if (metrics_ != nullptr) metrics_->add(pool_rebuilds_id_);
      refresh_local_pools(t);
    }
    pools_dirty_ = false;
  }

  void on_complete(std::size_t ui, unsigned /*slot*/, double t) override {
    SimUser u = kernel_->user(ui);
    u.download_accum += t - u.stage_start;
    const bool was_partial = u.seq_pos > 0;
    if (u.adaptive) sync_received(u, t);  // before the subtorrent changes
    u.done[u.seq_pos] = 1;  // stage s downloaded file u.files[s]
    ++u.seq_pos;
    if (u.seq_pos < u.cls) {
      if (!was_partial) {
        // First stage done: the peer starts donating (1 - rho) * mu.
        virtual_bw_ += (1.0 - u.rho) * mu_;
        u.up_base = 0.0;
        u.up_mark = t;
      }
      // Serve a uniformly random completed file for the coming stage.
      u.vseed_target =
          u.files[kernel_->rng().index(u.seq_pos)];
      start_stage(ui, t);
      if (u.adaptive) u.rv_mark = recv_integral(u, t);
    } else {
      // Last file done: become a real seed for one Exp(gamma) residence.
      if (was_partial) virtual_bw_ -= (1.0 - u.rho) * mu_;
      --num_downloaders_;
      seed_bw_ += mu_;
      u.state[0] = SlotState::kSeeding;
      kernel_->down_pop()[u.cls - 1] -= 1.0;
      kernel_->seed_pop()[u.cls - 1] += 1.0;
      kernel_->schedule_seed_departure(
          ui, 0, t + kernel_->rng().exponential(gamma_));
    }
    pools_dirty_ = true;
  }

  void on_abort(std::size_t ui, unsigned /*slot*/, double t) override {
    SimUser u = kernel_->user(ui);
    kernel_->end_service(ui, 0);
    if (u.seq_pos > 0) virtual_bw_ -= (1.0 - u.rho) * mu_;
    --num_downloaders_;
    u.state[0] = SlotState::kIdle;
    u.aborted = true;
    kernel_->down_pop()[u.cls - 1] -= 1.0;
    kernel_->remove_active_peers(1);
    kernel_->retire_user(ui, t, u.download_accum, u.rho, false);
    pools_dirty_ = true;
  }

  void on_seed_departure(std::size_t ui, unsigned /*file_idx*/,
                         double t) override {
    SimUser u = kernel_->user(ui);
    seed_bw_ -= mu_;
    u.state[0] = SlotState::kIdle;
    kernel_->seed_pop()[u.cls - 1] -= 1.0;
    kernel_->remove_active_peers(1);
    kernel_->retire_user(ui, t, u.download_accum, u.rho,
                         u.adaptive && u.cls > 1);
    pools_dirty_ = true;
  }

  [[nodiscard]] double next_policy_event_time() const override {
    return next_adapt_;
  }

  void on_policy_event(double t) override {
    adapt_tick(t);
    next_adapt_ += adapt_.period;
  }

  void on_fault_crash(std::size_t ui, double t) override {
    (void)t;
    SimUser u = kernel_->user(ui);
    if (u.state[0] == SlotState::kDownloading) {
      kernel_->end_service(ui, 0);
      if (u.seq_pos > 0) virtual_bw_ -= (1.0 - u.rho) * mu_;
      --num_downloaders_;
      kernel_->down_pop()[u.cls - 1] -= 1.0;
      kernel_->remove_active_peers(1);
    } else if (u.state[0] == SlotState::kSeeding) {
      seed_bw_ -= mu_;
      kernel_->seed_pop()[u.cls - 1] -= 1.0;
      kernel_->remove_active_peers(1);
    }
    u.state[0] = SlotState::kIdle;
    pools_dirty_ = true;
  }

  void on_fault_bandwidth(double scale, double t) override {
    // The lazily-accumulated Adapt quantities elapsed at the old scale;
    // fold them before swapping it.
    vint_acc_ += vint_rate_ * (t - vint_last_);
    vint_last_ = t;
    for (unsigned s = 0; s < num_files_; ++s) {
      wint_acc_[s] += wint_rate_[s] * (t - wint_last_);
    }
    wint_last_ = t;
    for (const std::size_t ui : kernel_->live()) {
      SimUser u = kernel_->user(ui);
      if (u.adaptive && u.state[0] == SlotState::kDownloading &&
          u.seq_pos > 0) {
        u.up_base += (1.0 - u.rho) * mu_ * bw_scale_ * (t - u.up_mark);
        u.up_mark = t;
      }
    }
    bw_scale_ = scale;
    pools_dirty_ = true;
  }

  void audit(double /*t*/) override {
    const auto fail = [](const std::string& why) {
      throw AuditError("CMFSD audit failed: " + why);
    };
    constexpr double kTol = 1e-6;
    double virtual_bw = 0.0;
    double seed_bw = 0.0;
    std::size_t downloaders = 0;
    std::vector<double> down(num_files_, 0.0);
    std::vector<double> seeds(num_files_, 0.0);
    for (const std::size_t ui : kernel_->live()) {
      const SimUser u = kernel_->user(ui);
      if (u.state[0] == SlotState::kDownloading) {
        if (u.seq_pos >= u.cls) fail("downloading user past its last stage");
        ++downloaders;
        down[u.cls - 1] += 1.0;
        if (u.seq_pos > 0) virtual_bw += (1.0 - u.rho) * mu_;
      } else if (u.state[0] == SlotState::kSeeding) {
        seed_bw += mu_;
        seeds[u.cls - 1] += 1.0;
      } else {
        fail("live user with an idle slot");
      }
    }
    if (downloaders != num_downloaders_) {
      fail("downloader count diverged from the live list");
    }
    if (std::abs(virtual_bw - virtual_bw_) > kTol) {
      fail("virtual-seed pool diverged from the partial seeds");
    }
    if (std::abs(seed_bw - seed_bw_) > kTol) {
      fail("real-seed pool diverged from the seeding users");
    }
    for (unsigned k = 0; k < num_files_; ++k) {
      if (std::abs(down[k] - kernel_->down_pop()[k]) > kTol) {
        fail("downloader population of class " + std::to_string(k + 1) +
             " diverged from the live list");
      }
      if (std::abs(seeds[k] - kernel_->seed_pop()[k]) > kTol) {
        fail("seed population of class " + std::to_string(k + 1) +
             " diverged from the live list");
      }
    }
  }

  [[nodiscard]] double little_divisor(double files) const override {
    return files;
  }

 private:
  [[nodiscard]] unsigned current_sub(const SimUser& u) const {
    return u.files[u.seq_pos];
  }
  /// P(i, j) of the fluid model: full tit-for-tat in the first stage,
  /// rho afterwards.
  [[nodiscard]] double tft_rate(const SimUser& u) const {
    return eta_ * mu_ * (u.seq_pos == 0 ? 1.0 : u.rho);
  }

  std::size_t group_for(double tft, unsigned sub, double t) {
    const auto it = group_of_.find({tft, sub});
    if (it != group_of_.end()) return it->second;
    const std::size_t gid = kernel_->new_group(t);
    group_key_.emplace_back(tft, sub);
    group_of_.emplace(std::make_pair(tft, sub), gid);
    // The rate is set by the next refresh_rates: every membership or pool
    // change marks the pools dirty before the next event-time decision.
    return gid;
  }

  void start_stage(std::size_t ui, double t) {
    SimUser u = kernel_->user(ui);
    const unsigned sub = local_pool_ ? current_sub(u) : 0;
    kernel_->begin_service(ui, 0, group_for(tft_rate(u), sub, t),
                           file_size_, t);
    kernel_->arm_abort(ui, 0, t);
    u.stage_start = t;
  }

  /// Integral of the virtual-seed bandwidth a downloader of u's current
  /// subtorrent received per unit time, up to t.
  [[nodiscard]] double recv_integral(const SimUser& u, double t) const {
    if (!local_pool_) return vint_acc_ + vint_rate_ * (t - vint_last_);
    const unsigned sub = current_sub(u);
    return wint_acc_[sub] + wint_rate_[sub] * (t - wint_last_);
  }

  /// Folds the elapsed received-virtual bandwidth into rv_base; call
  /// before u's subtorrent (and hence reference integral) changes.
  void sync_received(SimUser& u, double t) const {
    const double now = recv_integral(u, t);
    u.rv_base += now - u.rv_mark;
    u.rv_mark = now;
  }

  /// Per-epoch rebuild of the subtorrent pools (both local modes), the
  /// literal port of the pre-refactor engine's epoch pass: demand counts
  /// first so demand-aware donors can re-target, then supply.
  void refresh_local_pools(double t) {
    for (unsigned s = 0; s < num_files_; ++s) {
      wint_acc_[s] += wint_rate_[s] * (t - wint_last_);
    }
    wint_last_ = t;
    std::fill(pool_per_sub_.begin(), pool_per_sub_.end(), 0.0);
    std::fill(virtual_per_sub_.begin(), virtual_per_sub_.end(), 0.0);
    std::fill(downloaders_per_sub_.begin(), downloaders_per_sub_.end(),
              std::size_t{0});
    for (const std::size_t ui : kernel_->live()) {
      const SimUser u = kernel_->user(ui);
      if (u.state[0] == SlotState::kDownloading) {
        ++downloaders_per_sub_[current_sub(u)];
      }
    }
    for (const std::size_t ui : kernel_->live()) {
      SimUser u = kernel_->user(ui);
      if (u.state[0] == SlotState::kDownloading) {
        if (u.seq_pos == 0) continue;
        const double donated = (1.0 - u.rho) * mu_;
        if (demand_aware_) {
          // Re-target the completed subtorrent with the most downloaders
          // right now.
          unsigned best = u.files[0];
          std::size_t best_count = downloaders_per_sub_[best];
          for (unsigned c = 1; c < u.seq_pos; ++c) {
            const unsigned f = u.files[c];
            if (downloaders_per_sub_[f] > best_count) {
              best = f;
              best_count = downloaders_per_sub_[f];
            }
          }
          u.vseed_target = best;
        }
        pool_per_sub_[u.vseed_target] += donated;
        virtual_per_sub_[u.vseed_target] += donated;
      } else if (u.state[0] == SlotState::kSeeding) {
        // A real seed splits its bandwidth across the files it holds.
        const double per_file = mu_ / static_cast<double>(u.cls);
        for (const unsigned f : u.files) pool_per_sub_[f] += per_file;
      }
    }
    for (unsigned s = 0; s < num_files_; ++s) {
      wint_rate_[s] =
          downloaders_per_sub_[s] > 0
              ? bw_scale_ * virtual_per_sub_[s] /
                    static_cast<double>(downloaders_per_sub_[s])
              : 0.0;
    }
    for (std::size_t gid = 0; gid < group_key_.size(); ++gid) {
      const auto& [tft, sub] = group_key_[gid];
      const double pool =
          downloaders_per_sub_[sub] > 0
              ? pool_per_sub_[sub] /
                    static_cast<double>(downloaders_per_sub_[sub])
              : 0.0;
      kernel_->set_group_rate(
          gid, bw_scale_ * std::min(tft + pool, download_bw_), t);
    }
  }

  void adapt_tick(double t) {
    std::optional<obs::TraceWriter::Span> span;
    if (trace_ != nullptr) span.emplace(trace_->span("cmfsd.adapt_tick"));
    if (metrics_ != nullptr) metrics_->add(adapt_ticks_id_);
    double rho_sum = 0.0;
    std::size_t rho_count = 0;
    for (const std::size_t ui : kernel_->live()) {
      SimUser u = kernel_->user(ui);
      if (!u.adaptive || u.cls <= 1) continue;
      const bool downloading = u.state[0] == SlotState::kDownloading;
      if (downloading) {
        rho_sum += u.rho;
        ++rho_count;
      }
      if (!downloading || u.seq_pos == 0) continue;  // partial seeds only
      const double uploaded =
          u.up_base + (1.0 - u.rho) * mu_ * bw_scale_ * (t - u.up_mark);
      const double received = u.rv_base + recv_integral(u, t) - u.rv_mark;
      const double delta = (uploaded - received) / adapt_.period;
      u.up_base = 0.0;
      u.up_mark = t;
      u.rv_base = 0.0;
      u.rv_mark = recv_integral(u, t);
      const double old_rho = u.rho;
      if (delta > adapt_.phi_hi) {
        ++u.hi_streak;
        u.lo_streak = 0;
        if (u.hi_streak >= adapt_.consecutive) {
          u.rho = std::min(1.0, u.rho + adapt_.step_up);
          u.hi_streak = 0;
        }
      } else if (delta < adapt_.phi_lo) {
        ++u.lo_streak;
        u.hi_streak = 0;
        if (u.lo_streak >= adapt_.consecutive) {
          u.rho = std::max(0.0, u.rho - adapt_.step_down);
          u.lo_streak = 0;
        }
      } else {
        u.hi_streak = 0;
        u.lo_streak = 0;
      }
      if (u.rho != old_rho) {
        if (metrics_ != nullptr) metrics_->add(rho_moves_id_);
        virtual_bw_ += (old_rho - u.rho) * mu_;
        // The tit-for-tat share of the in-flight stage changed: move the
        // download to the (new rate, subtorrent) group, preserving its
        // progress and abort clock.
        const double left = kernel_->remaining_work(ui, 0, t);
        const unsigned sub = local_pool_ ? current_sub(u) : 0;
        kernel_->move_service(ui, 0, group_for(tft_rate(u), sub, t), left,
                              t);
        pools_dirty_ = true;
      }
    }
    if (rho_count > 0 && t >= warmup_) {
      kernel_->stats().record_rho_sample(
          t, rho_sum / static_cast<double>(rho_count));
    }
  }

  unsigned num_files_ = 0;
  double mu_ = 0.0, eta_ = 0.0, gamma_ = 0.0;
  double download_bw_ = 0.0, file_size_ = 0.0;
  double fixed_rho_ = 0.0, cheater_fraction_ = 0.0;
  AdaptConfig adapt_{};
  double warmup_ = 0.0;
  bool local_pool_ = false;
  bool demand_aware_ = false;
  double next_adapt_ = kInf;
  double bw_scale_ = 1.0;  ///< bandwidth-degradation multiplier on mu and c

  // Global pools, maintained incrementally.
  double virtual_bw_ = 0.0;   ///< sum (1 - rho) * mu over partial seeds
  double seed_bw_ = 0.0;      ///< sum mu over real seeds
  std::size_t num_downloaders_ = 0;
  bool pools_dirty_ = false;

  // Subtorrent pools (local modes), rebuilt per epoch.
  std::vector<double> pool_per_sub_;
  std::vector<double> virtual_per_sub_;
  std::vector<std::size_t> downloaders_per_sub_;

  // Received-from-virtual-seeds integrals for Adapt.
  double vint_acc_ = 0.0, vint_rate_ = 0.0, vint_last_ = 0.0;
  std::vector<double> wint_acc_, wint_rate_;
  double wint_last_ = 0.0;

  // (tit-for-tat rate, subtorrent) -> service group.
  std::map<std::pair<double, unsigned>, std::size_t> group_of_;
  std::vector<std::pair<double, unsigned>> group_key_;

  // Telemetry (null = inert).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceWriter* trace_ = nullptr;
  obs::MetricId pool_rebuilds_id_ = 0;
  obs::MetricId adapt_ticks_id_ = 0;
  obs::MetricId rho_moves_id_ = 0;
};

}  // namespace

std::unique_ptr<SchemePolicy> make_cmfsd_policy() {
  return std::make_unique<CmfsdPolicy>();
}

}  // namespace btmf::sim
