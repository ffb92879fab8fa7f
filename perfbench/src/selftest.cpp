// The benchmark's own tests: every correctness check accepts a good input
// and rejects the same input perturbed — a served value one ulp off, a
// sharded outcome with two classes swapped, a failed figure claim, a
// request count that disagrees with the daemon's. A check that cannot
// fail proves nothing. Exits non-zero when any expectation breaks.
#include <cmath>
#include <iostream>
#include <string>
#include <utility>

#include "btmf/model/backend.h"
#include "checks.h"
#include "harness.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

void accepts(const std::string& result, const std::string& what) {
  expect(result.empty(), what + " should pass, got: " + result);
}

void rejects(const std::string& result, const std::string& what) {
  expect(!result.empty(), what + " should be rejected");
}

btmf::model::Outcome toy_outcome() {
  btmf::model::Outcome outcome;
  outcome.avg_online_per_file = 96.0;
  outcome.avg_download_per_file = 76.0;
  outcome.avg_online_per_user = 300.0;
  outcome.per_class = btmf::fluid::make_per_class_metrics({80.0, 150.0, 220.0},
                                                          {60.0, 130.0, 200.0});
  btmf::sim::SimResult sim;
  sim.events_processed = 1000;
  sim.total_arrivals = 50;
  sim.total_users = 40;
  outcome.sim = sim;
  return outcome;
}

std::vector<btmf::sweep::FigureReport> passing_reports() {
  std::vector<btmf::sweep::FigureReport> reports;
  for (const btmf::sweep::FigureSpec& figure : btmf::sweep::figure_registry()) {
    btmf::sweep::FigureReport report;
    report.name = figure.name;
    report.claims.push_back(
        btmf::sweep::claim_within(figure.name + ".x", "toy", 98.0, 98.0, 0.1));
    reports.push_back(report);
  }
  return reports;
}

void test_served_values() {
  const std::map<std::string, double> reference = {
      {"avg_online_per_file", 96.0}, {"avg_download_per_file", 76.0}};
  accepts(check_same_values(reference, reference, "equal"), "equal values");
  std::map<std::string, double> off = reference;
  off["avg_online_per_file"] = std::nextafter(96.0, 200.0);
  rejects(check_same_values(off, reference, "ulp"), "a value one ulp off");
  std::map<std::string, double> missing = reference;
  missing.erase("avg_download_per_file");
  rejects(check_same_values(missing, reference, "missing"), "a missing value");
}

void test_sharded_outcome() {
  const btmf::model::Outcome a = toy_outcome();
  accepts(check_same_run(a, a, "same"), "identical runs");
  btmf::model::Outcome swapped = a;
  std::swap(swapped.per_class.online_time[0], swapped.per_class.online_time[1]);
  rejects(check_same_run(a, swapped, "swap"), "two classes swapped");
  btmf::model::Outcome events = a;
  events.sim->events_processed += 1;
  rejects(check_same_run(a, events, "events"), "one event more");
  btmf::model::Outcome last_bits = a;
  last_bits.avg_online_per_file = std::nextafter(a.avg_online_per_file, 0.0);
  accepts(check_near_run(a, last_bits, 1e-12, "ulp"), "one ulp apart, near");
  rejects(check_same_run(a, last_bits, "ulp"), "one ulp apart, exact");
  rejects(check_near_run(a, swapped, 1e-12, "swap"), "two classes swapped, near");
  rejects(check_near_run(a, events, 1e-12, "events"), "one event more, near");
  btmf::model::Outcome zero = a;
  zero.avg_online_per_user = -0.0;
  btmf::model::Outcome pos = a;
  pos.avg_online_per_user = 0.0;
  rejects(check_same_numbers(zero, pos, "signed zero"), "-0.0 vs 0.0");
}

void test_claims() {
  accepts(check_claims(passing_reports()), "all claims passing");
  std::vector<btmf::sweep::FigureReport> failed = passing_reports();
  failed[1].claims.push_back(
      btmf::sweep::claim_within("fig3.bad", "toy", 97.0, 98.0, 0.1));
  rejects(check_claims(failed), "a failed figure claim");
  std::vector<btmf::sweep::FigureReport> skipped = passing_reports();
  skipped[2].claims.push_back(btmf::sweep::claim_skipped("fig4a.skip"));
  rejects(check_claims(skipped), "a skipped claim");
  std::vector<btmf::sweep::FigureReport> short_list = passing_reports();
  short_list.pop_back();
  rejects(check_claims(short_list), "a missing figure");
  accepts(check_same_report("# report\n", "# report\n"), "equal reports");
  rejects(check_same_report("# report\n", "# report \n"), "reports one byte apart");
}

void test_counts_and_bounds() {
  accepts(check_request_count(2424, 2424), "equal request counts");
  rejects(check_request_count(2424, 2423), "request count one short");
  accepts(check_relative(101.0, 100.0, 0.02, "close"), "1% within 2%");
  rejects(check_relative(103.0, 100.0, 0.02, "far"), "3% outside 2%");
  rejects(check_relative(std::nan(""), 100.0, 0.02, "nan"), "a NaN value");
  // (gamma - mu)/(gamma mu eta) + 1/gamma at the paper's constants.
  expect(std::abs(mtsd_online_per_file(btmf::fluid::kPaperParams) - 80.0) <
             1e-12,
         "MTSD closed form is 80 at the paper's constants");
}

/// The swarm checks on real outcomes, perturbed after the fact.
void test_swarm_checks() {
  for (const SwarmOp& op : swarm_cycle(1, 2)) {
    if (op.backend == "kernel-sim" && op.spec.scheme == btmf::fluid::SchemeKind::kMtcd &&
        op.spec.shards == 1) {
      continue;  // carries no outside reference (see swarm.cpp)
    }
    const btmf::model::Outcome outcome =
        btmf::model::require_backend(op.backend).evaluate(op.spec);
    accepts(check_swarm_outcome(op, outcome), op.label + " as computed");
    btmf::model::Outcome bad = outcome;
    if (op.spec.shards > 1) {
      std::swap(bad.per_class.online_time[0], bad.per_class.online_time[2]);
    } else {
      bad.avg_online_per_file *= 1.5;
      bad.avg_download_per_file *= 1.5;
    }
    rejects(check_swarm_outcome(op, bad), op.label + " perturbed");
  }
}

void test_quantile() {
  expect(quantile({1.0, 2.0, 3.0, 4.0}, 0.5) == 2.5, "median interpolates");
  expect(quantile({5.0, 1.0, 3.0}, 0.9) == 4.6, "p90 of three samples");
}

}  // namespace

int main() {
  test_served_values();
  test_sharded_outcome();
  test_claims();
  test_counts_and_bounds();
  test_quantile();
  test_swarm_checks();
  if (failures != 0) {
    std::cerr << failures << " expectation(s) failed\n";
    return 1;
  }
  std::cout << "perfbench selftest: all checks accept good and reject "
               "perturbed inputs\n";
  return 0;
}
