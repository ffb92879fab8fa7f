// The paper's fluid steady states through the fluid-equilibrium backend:
// the Sec. 4 headline numbers, the shapes of Figs. 2-4, the model
// identities of Sec. 3 (K = 1 degeneracy, CMFSD(rho = 1) == MFCD) and
// the typed refusals.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "btmf/fluid/mfcd.h"
#include "btmf/fluid/single_torrent.h"
#include "btmf/model/backend.h"
#include "btmf/util/error.h"

namespace btmf::model {
namespace {

using fluid::SchemeKind;

constexpr SchemeKind kAllSchemes[] = {SchemeKind::kMtcd, SchemeKind::kMtsd,
                                      SchemeKind::kMfcd, SchemeKind::kCmfsd};

/// The paper's scenario (K = 10, paper fluid constants, lambda0 = 1).
ScenarioSpec paper_spec(SchemeKind scheme, double p, double rho = 0.0) {
  ScenarioSpec spec;
  spec.scheme = scheme;
  spec.correlation = p;
  spec.rho = rho;
  return spec;
}

Outcome evaluate(const ScenarioSpec& spec) {
  return require_backend("fluid-equilibrium").evaluate_or_throw(spec);
}

Outcome evaluate(SchemeKind scheme, double p, double rho = 0.0) {
  return evaluate(paper_spec(scheme, p, rho));
}

TEST(EvaluateTest, MtsdIsEightyEverywhere) {
  for (const double p : {0.0, 0.3, 1.0}) {
    const Outcome r = evaluate(SchemeKind::kMtsd, p);
    EXPECT_NEAR(r.avg_online_per_file, 80.0, 1e-9) << "p=" << p;
    EXPECT_NEAR(r.avg_download_per_file, 60.0, 1e-9) << "p=" << p;
  }
}

TEST(EvaluateTest, MtcdPaperNumbers) {
  // p = 1: A = 96, avg online per file = 96 + 20/10 = 98.
  const Outcome r = evaluate(SchemeKind::kMtcd, 1.0);
  EXPECT_NEAR(r.avg_online_per_file, 98.0, 1e-9);
  EXPECT_NEAR(r.avg_download_per_file, 96.0, 1e-9);
}

TEST(EvaluateTest, MtcdEqualsMtsdInTheZeroCorrelationLimit) {
  EXPECT_NEAR(evaluate(SchemeKind::kMtcd, 0.0).avg_online_per_file,
              evaluate(SchemeKind::kMtsd, 0.0).avg_online_per_file, 1e-9);
}

TEST(EvaluateTest, MfcdEqualsMtcd) {
  EXPECT_NEAR(evaluate(SchemeKind::kMtcd, 0.6).avg_online_per_file,
              evaluate(SchemeKind::kMfcd, 0.6).avg_online_per_file, 1e-9);
}

TEST(EvaluateTest, CmfsdUsesRhoOption) {
  const Outcome generous = evaluate(SchemeKind::kCmfsd, 0.9, 0.0);
  const Outcome selfish = evaluate(SchemeKind::kCmfsd, 0.9, 1.0);
  EXPECT_LT(generous.avg_online_per_file, selfish.avg_online_per_file);
  EXPECT_DOUBLE_EQ(generous.rho, 0.0);
  EXPECT_DOUBLE_EQ(selfish.rho, 1.0);
}

// CMFSD has no peers at p = 0: a typed refusal, never a crash.
TEST(EvaluateTest, CmfsdAtZeroCorrelationThrows) {
  const ScenarioSpec spec = paper_spec(SchemeKind::kCmfsd, 0.0);
  EXPECT_EQ(require_backend("fluid-equilibrium").evaluate(spec).status,
            OutcomeStatus::kUnsupported);
  EXPECT_THROW((void)evaluate(spec), ConfigError);
}

// At p = 0 the backend refuses CMFSD alone; the other three schemes take
// their single-torrent limits.
TEST(EvaluateTest, EvaluateAllSkipsCmfsdAtZeroCorrelation) {
  const Backend& backend = require_backend("fluid-equilibrium");
  for (const SchemeKind scheme : kAllSchemes) {
    const ScenarioSpec spec = paper_spec(scheme, 0.0);
    EXPECT_EQ(backend.unsupported_reason(spec).has_value(),
              scheme == SchemeKind::kCmfsd)
        << fluid::to_string(scheme);
  }
}

TEST(EvaluateTest, RhoIsNaNForSchemesWithoutTheKnob) {
  EXPECT_TRUE(std::isnan(evaluate(SchemeKind::kMtsd, 0.5).rho));
}

TEST(EvaluateTest, PerClassRhoOverridesUniform) {
  ScenarioSpec selfish = paper_spec(SchemeKind::kCmfsd, 0.9, 0.0);
  selfish.rho_per_class.assign(10, 1.0);  // per-class wins over rho = 0
  EXPECT_GT(evaluate(selfish).avg_online_per_file,
            evaluate(SchemeKind::kCmfsd, 0.9, 0.0).avg_online_per_file);
}

TEST(EvaluateTest, ClassEntryRatesAreReported) {
  const Outcome r = evaluate(SchemeKind::kMtcd, 0.5);
  ASSERT_EQ(r.class_entry_rates.size(), 10u);
  double total = 0.0;
  for (const double rate : r.class_entry_rates) total += rate;
  EXPECT_NEAR(total, 1.0 - std::pow(0.5, 10), 1e-9);
}

TEST(EvaluateTest, InvalidScenarioThrows) {
  ScenarioSpec spec = paper_spec(SchemeKind::kMtsd, 0.5);
  spec.visit_rate = -1.0;
  EXPECT_EQ(require_backend("fluid-equilibrium").evaluate(spec).status,
            OutcomeStatus::kFailed);
  EXPECT_THROW((void)evaluate(spec), ConfigError);
  EXPECT_THROW((void)evaluate(SchemeKind::kMtsd, 2.0), ConfigError);
}

TEST(EvaluateTest, AveragePerUserAtLeastPerFile) {
  // Per-user online time aggregates >= 1 file, so it dominates per-file.
  const Outcome r = evaluate(SchemeKind::kMtsd, 0.7);
  EXPECT_GE(r.avg_online_per_user, r.avg_online_per_file - 1e-9);
}

TEST(Fig2Test, ShapeMatchesPaper) {
  // MTSD is flat at 80; MTCD equals it at p = 0 and rises monotonically
  // to 98 at p = 1.
  double previous_mtcd = 0.0;
  for (const double p : {0.0, 0.1, 0.5, 1.0}) {
    EXPECT_NEAR(evaluate(SchemeKind::kMtsd, p).avg_online_per_file, 80.0,
                1e-6)
        << "p=" << p;
    const double mtcd = evaluate(SchemeKind::kMtcd, p).avg_online_per_file;
    EXPECT_GT(mtcd, previous_mtcd) << "p=" << p;
    previous_mtcd = mtcd;
  }
  EXPECT_NEAR(evaluate(SchemeKind::kMtcd, 0.0).avg_online_per_file, 80.0,
              1e-6);
  EXPECT_NEAR(previous_mtcd, 98.0, 1e-6);
}

TEST(Fig3Test, PerClassStructure) {
  const Outcome mtcd = evaluate(SchemeKind::kMtcd, 0.1);
  const Outcome mtsd = evaluate(SchemeKind::kMtsd, 0.1);
  // At low p MTCD makes the single-file majority wait longer than MTSD
  // (the paper's fairness complaint) while class 10 beats MTSD per file.
  EXPECT_GT(mtcd.per_class.online_per_file[0],
            mtsd.per_class.online_per_file[0]);
  EXPECT_LT(mtcd.per_class.online_per_file[9],
            mtsd.per_class.online_per_file[9]);
  // At p = 1 everyone is class 10: 96 + 2 = 98 online per file.
  EXPECT_NEAR(evaluate(SchemeKind::kMtcd, 1.0).per_class.online_per_file[9],
              98.0, 1e-6);
  // MTSD download per file is 60 in every class.
  for (const double dl : mtsd.per_class.download_per_file) {
    EXPECT_NEAR(dl, 60.0, 1e-6);
  }
}

TEST(Fig4aTest, SurfaceMonotoneInRhoAndBestAtZero) {
  std::vector<double> gain;  // online(rho = 1) - online(rho = 0), per p
  for (const double p : {0.3, 0.9}) {
    const double r0 = evaluate(SchemeKind::kCmfsd, p, 0.0).avg_online_per_file;
    const double r5 = evaluate(SchemeKind::kCmfsd, p, 0.5).avg_online_per_file;
    const double r1 = evaluate(SchemeKind::kCmfsd, p, 1.0).avg_online_per_file;
    EXPECT_LT(r0, r5) << "p=" << p;
    EXPECT_LT(r5, r1) << "p=" << p;
    gain.push_back(r1 - r0);
  }
  // The rho = 0 advantage grows with correlation (paper Sec. 4.2.2).
  EXPECT_GT(gain[1], gain[0]);
}

TEST(Fig4aTest, CellsIndependentOfSweepOrder) {
  const std::vector<double> rhos{0.2, 0.8};
  std::vector<double> forward;
  for (const double rho : rhos) {
    forward.push_back(evaluate(SchemeKind::kCmfsd, 0.5, rho)
                          .avg_online_per_file);
  }
  EXPECT_EQ(evaluate(SchemeKind::kCmfsd, 0.5, rhos[1]).avg_online_per_file,
            forward[1]);
  EXPECT_EQ(evaluate(SchemeKind::kCmfsd, 0.5, rhos[0]).avg_online_per_file,
            forward[0]);
}

TEST(Fig4bcTest, UnfairnessPattern) {
  // p = 0.1 (paper Fig. 4(c)): under CMFSD class 1 downloads a file much
  // faster than class 10; MFCD's download time per file is fair.
  const Outcome low = evaluate(SchemeKind::kCmfsd, 0.1, 0.9);
  EXPECT_LT(low.per_class.download_per_file[0],
            low.per_class.download_per_file[9]);
  const Outcome mfcd_low = evaluate(SchemeKind::kMfcd, 0.1);
  EXPECT_NEAR(mfcd_low.per_class.download_per_file[0],
              mfcd_low.per_class.download_per_file[9], 1e-6);

  // p = 0.9 (Fig. 4(b)) with rho = 0.1: every class beats MFCD online.
  const Outcome high = evaluate(SchemeKind::kCmfsd, 0.9, 0.1);
  const Outcome mfcd_high = evaluate(SchemeKind::kMfcd, 0.9);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_LT(high.per_class.online_per_file[i],
              mfcd_high.per_class.online_per_file[i])
        << "class " << i + 1;
  }
}

TEST(ValidationTest, AllChecksTight) {
  const fluid::FluidParams params = fluid::kPaperParams;
  // (a) K = 1 degeneracy: with one file every scheme reproduces the
  // Qiu-Srikant online time T + 1/gamma (Sec. 3.3).
  const double single =
      fluid::single_torrent_download_time(params) + 1.0 / params.gamma;
  for (const SchemeKind scheme : kAllSchemes) {
    ScenarioSpec spec = paper_spec(scheme, 1.0);
    spec.num_files = 1;
    EXPECT_NEAR(evaluate(spec).avg_online_per_file, single, 1e-3 * single)
        << fluid::to_string(scheme);
  }
  // (b) CMFSD(rho = 1) reproduces the MFCD download time per file at
  // every p (the identity proved in cmfsd.h).
  for (const double p : {0.2, 0.7, 1.0}) {
    const ScenarioSpec spec = paper_spec(SchemeKind::kCmfsd, p, 1.0);
    const double mfcd =
        fluid::mfcd_download_time_per_file(params, spec.correlation_model());
    EXPECT_NEAR(evaluate(spec).avg_download_per_file, mfcd, 1e-3 * mfcd)
        << "p=" << p;
  }
}

}  // namespace
}  // namespace btmf::model
