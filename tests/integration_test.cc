// End-to-end integration tests through the experiment harness: the whole
// pipeline (datagen -> planner -> executor -> sampling -> fitting ->
// variance engine -> simulated machine) on a small database, checking the
// paper's qualitative claims at test scale.

#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.h"
#include "cost/calibration.h"
#include "exp/harness.h"
#include "hw/machine.h"
#include "math/stats.h"
#include "sampling/sample_db.h"
#include "workload/common.h"

namespace uqp {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    HarnessOptions options;
    options.profile = "tiny";
    harness_ = new ExperimentHarness(options);
    ASSERT_TRUE(harness_->LoadWorkload("micro", 40).ok());
    ASSERT_TRUE(harness_->LoadWorkload("seljoin", 18).ok());
  }
  static void TearDownTestSuite() {
    delete harness_;
    harness_ = nullptr;
  }
  static ExperimentHarness* harness_;
};
ExperimentHarness* HarnessTest::harness_ = nullptr;

TEST_F(HarnessTest, PredictionsArePositiveAndFinite) {
  auto result = harness_->Evaluate("micro", "PC1", 0.1);
  ASSERT_TRUE(result.ok());
  for (const QueryRecord& r : result->records) {
    EXPECT_GT(r.outcome.predicted_mean, 0.0) << r.name;
    EXPECT_GT(r.outcome.predicted_stddev, 0.0) << r.name;
    EXPECT_TRUE(std::isfinite(r.outcome.predicted_stddev)) << r.name;
    EXPECT_GT(r.outcome.actual_time, 0.0) << r.name;
  }
}

TEST_F(HarnessTest, BreakdownComponentsSumToVariance) {
  auto result = harness_->Evaluate("seljoin", "PC1", 0.1);
  ASSERT_TRUE(result.ok());
  for (const QueryRecord& r : result->records) {
    EXPECT_GE(r.breakdown.var_cost_units, 0.0);
    EXPECT_GE(r.breakdown.var_selectivity, 0.0);
    EXPECT_GE(r.breakdown.var_cov_bounds, 0.0);
    EXPECT_NEAR(r.breakdown.variance,
                r.breakdown.var_cost_units + r.breakdown.var_selectivity +
                    r.breakdown.var_cov_bounds,
                1e-9 * std::max(1.0, r.breakdown.variance));
  }
}

TEST_F(HarnessTest, CorrelationIsPositive) {
  auto result = harness_->Evaluate("micro", "PC1", 0.1);
  ASSERT_TRUE(result.ok());
  // The paper's headline claim, at test scale with a loose threshold.
  EXPECT_GT(result->summary.spearman, 0.3);
  EXPECT_GT(result->summary.pearson, 0.3);
}

TEST_F(HarnessTest, PredictionsAreInTheRightBallpark) {
  auto result = harness_->Evaluate("micro", "PC2", 0.1);
  ASSERT_TRUE(result.ok());
  int close = 0;
  for (const QueryRecord& r : result->records) {
    if (r.outcome.predicted_mean < 3.0 * r.outcome.actual_time &&
        r.outcome.actual_time < 3.0 * r.outcome.predicted_mean) {
      ++close;
    }
  }
  // Most predictions within 3x of the truth.
  EXPECT_GT(close, static_cast<int>(result->records.size() * 7 / 10));
}

TEST_F(HarnessTest, SamplingOverheadIsSmallAndGrowsWithSr) {
  auto small = harness_->Evaluate("micro", "PC1", 0.02);
  auto large = harness_->Evaluate("micro", "PC1", 0.2);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(small->mean_overhead, 0.0);
  EXPECT_LT(small->mean_overhead, 0.25);
  EXPECT_GT(large->mean_overhead, small->mean_overhead);
}

TEST_F(HarnessTest, VariantVariancesAreOrdered) {
  auto all = harness_->Evaluate("seljoin", "PC1", 0.05, PredictorVariant::kAll);
  auto no_c =
      harness_->Evaluate("seljoin", "PC1", 0.05, PredictorVariant::kNoVarC);
  auto no_x =
      harness_->Evaluate("seljoin", "PC1", 0.05, PredictorVariant::kNoVarX);
  auto no_cov =
      harness_->Evaluate("seljoin", "PC1", 0.05, PredictorVariant::kNoCov);
  ASSERT_TRUE(all.ok() && no_c.ok() && no_x.ok() && no_cov.ok());
  for (size_t i = 0; i < all->records.size(); ++i) {
    const double v = all->records[i].breakdown.variance;
    EXPECT_LE(no_c->records[i].breakdown.variance, v + 1e-9);
    EXPECT_LE(no_x->records[i].breakdown.variance, v + 1e-9);
    EXPECT_LE(no_cov->records[i].breakdown.variance, v + 1e-9);
    // Point predictions barely move across variants (NoVarX can shift the
    // quadratic-term means slightly).
    EXPECT_NEAR(no_c->records[i].breakdown.mean, all->records[i].breakdown.mean,
                1e-9);
  }
}

TEST_F(HarnessTest, SelectivityDiagnosticsTrackTruth) {
  auto result = harness_->Evaluate("micro", "PC1", 0.2);
  ASSERT_TRUE(result.ok());
  std::vector<double> est, truth;
  for (const QueryRecord& r : result->records) {
    ASSERT_EQ(r.op_sel_est.size(), r.op_sel_true.size());
    ASSERT_EQ(r.op_sel_est.size(), r.op_sel_sigma.size());
    for (size_t i = 0; i < r.op_sel_est.size(); ++i) {
      est.push_back(r.op_sel_est[i]);
      truth.push_back(r.op_sel_true[i]);
    }
  }
  ASSERT_GE(est.size(), 20u);
  // Table 7 claim: estimated vs actual selectivities are near-diagonal.
  EXPECT_GT(PearsonCorrelation(est, truth), 0.95);
}

TEST_F(HarnessTest, MachinesDiffer) {
  auto pc1 = harness_->Evaluate("micro", "PC1", 0.1);
  auto pc2 = harness_->Evaluate("micro", "PC2", 0.1);
  ASSERT_TRUE(pc1.ok() && pc2.ok());
  // PC2 is faster: mean actual time lower.
  double t1 = 0.0, t2 = 0.0;
  for (const auto& r : pc1->records) t1 += r.outcome.actual_time;
  for (const auto& r : pc2->records) t2 += r.outcome.actual_time;
  EXPECT_LT(t2, t1);
  // Calibrated units differ accordingly.
  EXPECT_LT(harness_->UnitsFor("PC2").Get(kCostTuple).mean,
            harness_->UnitsFor("PC1").Get(kCostTuple).mean);
}

TEST(HarnessDeterminism, SameOptionsSameResults) {
  HarnessOptions options;
  options.profile = "tiny";
  ExperimentHarness a(options), b(options);
  ASSERT_TRUE(a.LoadWorkload("micro", 12).ok());
  ASSERT_TRUE(b.LoadWorkload("micro", 12).ok());
  auto ra = a.Evaluate("micro", "PC1", 0.1);
  auto rb = b.Evaluate("micro", "PC1", 0.1);
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra->records.size(), rb->records.size());
  for (size_t i = 0; i < ra->records.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra->records[i].outcome.predicted_mean,
                     rb->records[i].outcome.predicted_mean);
    EXPECT_DOUBLE_EQ(ra->records[i].outcome.predicted_stddev,
                     rb->records[i].outcome.predicted_stddev);
    EXPECT_DOUBLE_EQ(ra->records[i].outcome.actual_time,
                     rb->records[i].outcome.actual_time);
  }
}

TEST(HarnessSettings, PaperGridHasFourSettings) {
  const auto settings = ExperimentHarness::PaperSettings();
  ASSERT_EQ(settings.size(), 4u);
  EXPECT_EQ(settings[0].label, "uniform-1gb");
  EXPECT_EQ(settings[3].label, "skewed-10gb");
  EXPECT_DOUBLE_EQ(settings[1].zipf, 1.0);
}

// ---------- PredictionPipeline-level behaviour (paper §6.3.2) ----------

TEST(PredictorBehaviour, DifferentSamplesGiveDifferentDistributions) {
  Database db = MakeTpchDatabase(TpchConfig::Profile("tiny"));
  SimulatedMachine machine(MachineProfile::PC1(), 1);
  Calibrator calibrator(&machine);
  const CostUnits units = calibrator.Calibrate();

  Rng rng(2);
  ConstantPicker pick(&db, &rng);
  JoinChainBuilder chain(&db);
  chain.Start("lineitem", pick.LessEqAtFraction("lineitem", "l_shipdate", 0.3))
      .Join("orders", nullptr, {{"lineitem.l_orderkey", "o_orderkey"}});
  auto plan_or = OptimizePlan(chain.Finish(), db);
  ASSERT_TRUE(plan_or.ok());
  const Plan plan = std::move(plan_or).value();

  SampleOptions o1, o2;
  o1.sampling_ratio = o2.sampling_ratio = 0.05;
  o1.seed = 100;
  o2.seed = 200;
  const SampleDb s1 = SampleDb::Build(db, o1);
  const SampleDb s2 = SampleDb::Build(db, o2);
  PredictionPipeline p1(&db, &s1, units), p2(&db, &s2, units);
  auto d1 = p1.Predict(plan);
  auto d2 = p2.Predict(plan);
  ASSERT_TRUE(d1.ok() && d2.ok());
  // Each sample yields ITS OWN distribution (Figure 7's point): close but
  // not identical.
  EXPECT_NE(d1->mean(), d2->mean());
  EXPECT_NEAR(d1->mean(), d2->mean(), 0.5 * d1->mean());
}

TEST(PredictorBehaviour, LargerSamplesShrinkSelectivityUncertainty) {
  Database db = MakeTpchDatabase(TpchConfig::Profile("tiny"));
  SimulatedMachine machine(MachineProfile::PC1(), 1);
  Calibrator calibrator(&machine);
  const CostUnits units = calibrator.Calibrate();

  Rng rng(2);
  ConstantPicker pick(&db, &rng);
  JoinChainBuilder chain(&db);
  chain.Start("lineitem", pick.LessEqAtFraction("lineitem", "l_shipdate", 0.3))
      .Join("orders", nullptr, {{"lineitem.l_orderkey", "o_orderkey"}});
  auto plan_or = OptimizePlan(chain.Finish(), db);
  ASSERT_TRUE(plan_or.ok());
  const Plan plan = std::move(plan_or).value();

  double prev = 1e18;
  for (double sr : {0.02, 0.1, 0.4}) {
    SampleOptions options;
    options.sampling_ratio = sr;
    const SampleDb samples = SampleDb::Build(db, options);
    PredictionPipeline predictor(&db, &samples, units);
    auto pred = predictor.Predict(plan);
    ASSERT_TRUE(pred.ok());
    const double sel_var =
        pred->breakdown.var_selectivity + pred->breakdown.var_cov_bounds;
    EXPECT_LT(sel_var, prev * 1.5);  // allow sampling noise, expect a trend
    prev = sel_var;
  }
}

}  // namespace
}  // namespace uqp
