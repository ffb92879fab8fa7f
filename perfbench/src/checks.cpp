#include "checks.h"

#include <bit>
#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

std::string str(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string compare_vectors(const std::vector<double>& a,
                            const std::vector<double>& b,
                            const std::string& what) {
  if (a.size() != b.size()) {
    return what + ": sizes differ (" + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + ")";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) {
      return what + "[" + std::to_string(i) + "]: " + str(a[i]) + " vs " +
             str(b[i]);
    }
  }
  return {};
}

}  // namespace

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string check_claims(
    const std::vector<btmf::sweep::FigureReport>& reports) {
  if (reports.size() != btmf::sweep::figure_registry().size()) {
    return "reproduce: " + std::to_string(reports.size()) + " of " +
           std::to_string(btmf::sweep::figure_registry().size()) +
           " figures reported";
  }
  for (const btmf::sweep::FigureReport& report : reports) {
    if (report.claims.empty()) return "reproduce: " + report.name + " has no claims";
    for (const btmf::sweep::Claim& claim : report.claims) {
      if (!claim.pass || claim.skipped) {
        return "reproduce: claim " + claim.id + " failed (measured " +
               str(claim.measured) + ", expected " + str(claim.expected) +
               " +- " + str(claim.tolerance) + ")";
      }
    }
  }
  return {};
}

std::string check_same_report(const std::string& cold,
                              const std::string& warm) {
  if (cold == warm) return {};
  std::size_t at = 0;
  while (at < cold.size() && at < warm.size() && cold[at] == warm[at]) ++at;
  return "reproduce: warm report differs from the cold one at byte " +
         std::to_string(at);
}

std::string check_same_numbers(const btmf::model::Outcome& a,
                               const btmf::model::Outcome& b,
                               const std::string& what) {
  if (!a.ok() || !b.ok()) return what + ": outcome not ok";
  const std::pair<double, double> headline[] = {
      {a.avg_online_per_file, b.avg_online_per_file},
      {a.avg_download_per_file, b.avg_download_per_file},
      {a.avg_online_per_user, b.avg_online_per_user}};
  for (const auto& [x, y] : headline) {
    if (!same_bits(x, y)) return what + ": headline " + str(x) + " vs " + str(y);
  }
  if (auto diff = compare_vectors(a.per_class.online_time,
                                  b.per_class.online_time,
                                  what + ": online_time");
      !diff.empty()) {
    return diff;
  }
  return compare_vectors(a.per_class.download_time, b.per_class.download_time,
                         what + ": download_time");
}

std::string check_same_run(const btmf::model::Outcome& a,
                           const btmf::model::Outcome& b,
                           const std::string& what) {
  if (auto diff = check_same_numbers(a, b, what); !diff.empty()) return diff;
  if (!a.sim || !b.sim) return what + ": kernel counters missing";
  if (a.sim->events_processed != b.sim->events_processed ||
      a.sim->total_arrivals != b.sim->total_arrivals ||
      a.sim->total_users != b.sim->total_users) {
    return what + ": kernel counters differ (events " +
           std::to_string(a.sim->events_processed) + " vs " +
           std::to_string(b.sim->events_processed) + ")";
  }
  return {};
}

std::string check_near_run(const btmf::model::Outcome& a,
                           const btmf::model::Outcome& b, double rel,
                           const std::string& what) {
  if (!a.ok() || !b.ok()) return what + ": outcome not ok";
  if (!a.sim || !b.sim) return what + ": kernel counters missing";
  if (a.sim->events_processed != b.sim->events_processed ||
      a.sim->total_arrivals != b.sim->total_arrivals ||
      a.sim->total_users != b.sim->total_users) {
    return what + ": kernel counters differ";
  }
  std::vector<std::pair<double, double>> values = {
      {a.avg_online_per_file, b.avg_online_per_file},
      {a.avg_download_per_file, b.avg_download_per_file},
      {a.avg_online_per_user, b.avg_online_per_user}};
  if (a.per_class.num_classes() != b.per_class.num_classes()) {
    return what + ": class counts differ";
  }
  for (std::size_t i = 0; i < a.per_class.num_classes(); ++i) {
    values.emplace_back(a.per_class.online_time[i], b.per_class.online_time[i]);
    values.emplace_back(a.per_class.download_time[i],
                        b.per_class.download_time[i]);
  }
  for (const auto& [x, y] : values) {
    if (std::isnan(x) && std::isnan(y)) continue;
    if (auto diff = check_relative(x, y, rel, what); !diff.empty()) return diff;
  }
  return {};
}

std::string check_relative(double measured, double reference, double bound,
                           const std::string& what) {
  if (!std::isfinite(measured) || !std::isfinite(reference) ||
      reference == 0.0) {
    return what + ": non-finite value (" + str(measured) + " vs " +
           str(reference) + ")";
  }
  const double rel = std::abs(measured / reference - 1.0);
  if (rel <= bound) return {};
  return what + ": " + str(measured) + " vs " + str(reference) +
         " is off by " + str(rel) + " > " + str(bound);
}

double mtsd_online_per_file(const btmf::fluid::FluidParams& params) {
  const double mu = params.mu, eta = params.eta, gamma = params.gamma;
  return (gamma - mu) / (gamma * mu * eta) + 1.0 / gamma;
}

std::string check_same_values(const std::map<std::string, double>& served,
                              const std::map<std::string, double>& reference,
                              const std::string& what) {
  if (served.size() != reference.size()) {
    return what + ": " + std::to_string(served.size()) + " values vs " +
           std::to_string(reference.size());
  }
  for (const auto& [key, value] : reference) {
    const auto it = served.find(key);
    if (it == served.end()) return what + ": missing " + key;
    if (!same_bits(it->second, value)) {
      return what + ": " + key + " = " + str(it->second) + " vs " + str(value);
    }
  }
  return {};
}

std::string check_request_count(std::uint64_t sent,
                                std::uint64_t daemon_requests) {
  if (sent == daemon_requests) return {};
  return "serve: generator sent " + std::to_string(sent) +
         " requests but the daemon counted " + std::to_string(daemon_requests);
}

}  // namespace perfbench
