// Tests for the EXPLAIN-style prediction report and the histogram
// scan-selectivity mode.

#include <gtest/gtest.h>

#include <cmath>

#include "core/explain.h"
#include "core/pipeline.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "sampling/sample_db.h"
#include "workload/common.h"

namespace uqp {
namespace {

struct Fixture {
  Database db = MakeTpchDatabase(TpchConfig::Profile("tiny"));
  CostUnits units;
  SampleDb samples;
  Plan plan;

  Fixture() {
    SimulatedMachine machine(MachineProfile::PC1(), 2);
    Calibrator calibrator(&machine);
    units = calibrator.Calibrate();
    SampleOptions so;
    so.sampling_ratio = 0.1;
    samples = SampleDb::Build(db, so);
    Rng rng(3);
    ConstantPicker pick(&db, &rng);
    JoinChainBuilder chain(&db);
    chain.Start("lineitem", pick.LessEqAtFraction("lineitem", "l_shipdate", 0.4))
        .Join("orders", nullptr, {{"lineitem.l_orderkey", "o_orderkey"}});
    auto plan_or = OptimizePlan(chain.Finish(), db);
    EXPECT_TRUE(plan_or.ok());
    plan = std::move(plan_or).value();
  }
};

TEST(Explain, SharesSumToOneAndMeansSumToPrediction) {
  Fixture fx;
  PredictionPipeline predictor(&fx.db, &fx.samples, fx.units);
  auto pred = predictor.Predict(fx.plan);
  ASSERT_TRUE(pred.ok());
  const auto ops = ExplainOperators(fx.plan, *pred, fx.units);
  ASSERT_EQ(ops.size(), static_cast<size_t>(fx.plan.num_operators()));
  double share = 0.0, mean = 0.0;
  for (const OperatorExplain& op : ops) {
    EXPECT_GE(op.expected_ms, 0.0) << op.label;
    EXPECT_GE(op.stddev_ms, 0.0) << op.label;
    share += op.share;
    mean += op.expected_ms;
  }
  EXPECT_NEAR(share, 1.0, 1e-9);
  EXPECT_NEAR(mean, pred->mean(), 0.01 * pred->mean());
}

TEST(Explain, LabelsIncludeTableNames) {
  Fixture fx;
  PredictionPipeline predictor(&fx.db, &fx.samples, fx.units);
  auto pred = predictor.Predict(fx.plan);
  ASSERT_TRUE(pred.ok());
  const auto ops = ExplainOperators(fx.plan, *pred, fx.units);
  bool saw_lineitem = false;
  for (const OperatorExplain& op : ops) {
    if (op.label.find("lineitem") != std::string::npos) saw_lineitem = true;
  }
  EXPECT_TRUE(saw_lineitem);
}

TEST(Explain, RenderContainsHeaderAndOperators) {
  Fixture fx;
  PredictionPipeline predictor(&fx.db, &fx.samples, fx.units);
  auto pred = predictor.Predict(fx.plan);
  ASSERT_TRUE(pred.ok());
  const std::string text = RenderExplain(fx.plan, *pred, fx.units);
  EXPECT_NE(text.find("predicted:"), std::string::npos);
  EXPECT_NE(text.find("operator"), std::string::npos);
  EXPECT_NE(text.find("lineitem"), std::string::npos);
  EXPECT_NE(text.find("selectivity"), std::string::npos);
}

TEST(HistogramScanMode, ProducesReasonableScanEstimates) {
  Fixture fx;
  SamplingEstimator estimator(&fx.db, &fx.samples,
                              AggregateEstimateMode::kOptimizer,
                              ScanEstimateMode::kHistogram);
  auto est = estimator.Estimate(fx.plan);
  ASSERT_TRUE(est.ok());
  // The filtered lineitem scan targets ~0.4 selectivity.
  const PlanNode* scan = nullptr;
  for (const PlanNode* n : fx.plan.NodesPreorder()) {
    if (IsScan(n->type) && n->table_name == "lineitem") scan = n;
  }
  ASSERT_NE(scan, nullptr);
  const SelectivityEstimate& e = est->ops[static_cast<size_t>(scan->id)];
  EXPECT_NEAR(e.rho, 0.4, 0.1);
  // Resolution heuristic: one range conjunct over 64 buckets -> ~2/(12*64²).
  EXPECT_GT(e.variance, 0.0);
  EXPECT_LT(e.variance, 1e-3);
  EXPECT_FALSE(e.from_optimizer);
}

TEST(HistogramScanMode, JoinsStillUseSampling) {
  Fixture fx;
  SamplingEstimator sampling(&fx.db, &fx.samples);
  SamplingEstimator histogram(&fx.db, &fx.samples,
                              AggregateEstimateMode::kOptimizer,
                              ScanEstimateMode::kHistogram);
  auto a = sampling.Estimate(fx.plan);
  auto b = histogram.Estimate(fx.plan);
  ASSERT_TRUE(a.ok() && b.ok());
  // The root join's rho comes from the sample run in both modes.
  EXPECT_DOUBLE_EQ(a->ops[0].rho, b->ops[0].rho);
}

TEST(HistogramScanMode, UnfilteredScanIsExact) {
  Fixture fx;
  Plan plan(MakeSeqScan("orders", nullptr));
  ASSERT_TRUE(plan.Finalize(fx.db).ok());
  SamplingEstimator estimator(&fx.db, &fx.samples,
                              AggregateEstimateMode::kOptimizer,
                              ScanEstimateMode::kHistogram);
  auto est = estimator.Estimate(plan);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->ops[0].rho, 1.0);
  EXPECT_DOUBLE_EQ(est->ops[0].variance, 0.0);
}

TEST(HistogramScanMode, EndToEndThroughPredictor) {
  Fixture fx;
  PredictorOptions options;
  options.scan_mode = ScanEstimateMode::kHistogram;
  PredictionPipeline predictor(&fx.db, &fx.samples, fx.units, options);
  auto pred = predictor.Predict(fx.plan);
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(pred->mean(), 0.0);
  EXPECT_GT(pred->stddev(), 0.0);
}

}  // namespace
}  // namespace uqp
