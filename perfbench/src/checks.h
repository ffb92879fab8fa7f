// The correctness checks every workload applies to the program's outputs.
//
// Each check compares against something computed apart from the code under
// test (a closed form the benchmark evaluates itself, an identity the
// theory gives, a direct untimed evaluation, a count the generator kept)
// and returns an empty string on success or a one-line reason on failure.
// They are pure functions of their inputs so the benchmark's own tests can
// feed each one a perturbed input and watch it refuse.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "btmf/fluid/params.h"
#include "btmf/model/outcome.h"
#include "btmf/sweep/reproduce.h"

namespace perfbench {

/// Collects failed checks; a run with any failure exits non-zero.
class Verdict {
 public:
  void require(const std::string& failure) {
    if (!failure.empty()) failures_.push_back(failure);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// Equal as bit patterns (so NaN == NaN with the same payload, and
/// 0.0 != -0.0): "bit for bit".
bool same_bits(double a, double b);

/// Every claim of every figure passed (none skipped); the reports must
/// cover all five registered figures.
std::string check_claims(const std::vector<btmf::sweep::FigureReport>& reports);

/// Two rendered reports are byte-identical.
std::string check_same_report(const std::string& cold, const std::string& warm);

/// The headline and per-class numbers of two outcomes are bit-identical
/// (`what` names the comparison in the failure message). Ignores the
/// scheme tag, so it also states MFCD == MTCD.
std::string check_same_numbers(const btmf::model::Outcome& a,
                               const btmf::model::Outcome& b,
                               const std::string& what);

/// As check_same_numbers, plus the kernel's event and arrival counters:
/// the sharded-kernel determinism contract.
std::string check_same_run(const btmf::model::Outcome& a,
                           const btmf::model::Outcome& b,
                           const std::string& what);

/// As check_same_run, but the headline and per-class numbers need only
/// agree to `rel` relative (the counters still exactly).
std::string check_near_run(const btmf::model::Outcome& a,
                           const btmf::model::Outcome& b, double rel,
                           const std::string& what);

/// |measured / reference - 1| <= bound, both finite and reference != 0.
std::string check_relative(double measured, double reference, double bound,
                           const std::string& what);

/// MTSD online time per file in closed form, (gamma - mu)/(gamma mu eta)
/// + 1/gamma (paper Sec. 3.3), computed here rather than by the library.
double mtsd_online_per_file(const btmf::fluid::FluidParams& params);

/// A served reply's values equal the reference values bit for bit (same
/// keys, same bit patterns).
std::string check_same_values(const std::map<std::string, double>& served,
                              const std::map<std::string, double>& reference,
                              const std::string& what);

/// The generator's count of requests sent equals the daemon's
/// serve.requests counter.
std::string check_request_count(std::uint64_t sent,
                                std::uint64_t daemon_requests);

}  // namespace perfbench
