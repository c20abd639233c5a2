// Tests for the extension features: the GEE distinct-value estimator for
// aggregates (§3.2.2 future work) and the Monte-Carlo reference predictor
// (§5.2.4 fallback / normality validation).

#include <gtest/gtest.h>

#include <cmath>

#include "core/montecarlo.h"
#include "core/pipeline.h"
#include "core/variance.h"
#include "cost/calibration.h"
#include "costfunc/fitter.h"
#include "datagen/tpch.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "math/rng.h"
#include "sampling/estimator.h"
#include "sampling/gee.h"
#include "workload/common.h"

namespace uqp {
namespace {

// ---------- GEE distinct-value estimator ----------

TEST(Gee, ExactWhenAllValuesRepeatInSample) {
  // 100 distinct keys, each seen 5 times: f1 = 0, so GEE = distinct-in-
  // sample = 100 regardless of the scale-up ratio.
  GeeDistinctCounter counter;
  for (uint64_t k = 0; k < 100; ++k) {
    for (int rep = 0; rep < 5; ++rep) counter.Add(k * 0x9e3779b9ULL);
  }
  EXPECT_EQ(counter.sample_rows(), 500);
  EXPECT_EQ(counter.sample_distinct(), 100);
  const GeeResult r = counter.Estimate(50000.0);
  EXPECT_NEAR(r.distinct, 100.0, 1e-9);
}

TEST(Gee, ScalesSingletonsBySqrtRatio) {
  // All singletons: D = sqrt(N/n) * f1.
  GeeDistinctCounter counter;
  for (uint64_t k = 0; k < 400; ++k) counter.Add(k * 0x2545F4914F6CDD1DULL);
  const GeeResult r = counter.Estimate(40000.0);
  EXPECT_NEAR(r.distinct, std::sqrt(40000.0 / 400.0) * 400.0, 1.0);
}

TEST(Gee, CappedAtPopulationSize) {
  GeeDistinctCounter counter;
  for (uint64_t k = 0; k < 100; ++k) counter.Add(k);
  const GeeResult r = counter.Estimate(150.0);
  EXPECT_LE(r.distinct, 150.0);
}

TEST(Gee, RatioErrorGuaranteeOnRandomData) {
  // Zipf-ish duplicated population: GEE must stay within the sqrt(N/n)
  // ratio band of the truth (the PODS'00 guarantee).
  Rng rng(13);
  const int64_t population = 50000;
  const int distinct = 800;
  std::vector<int> keys(population);
  for (auto& k : keys) {
    // Skewed duplication: low keys frequent.
    const double u = rng.NextDouble();
    k = static_cast<int>(distinct * u * u);
  }
  const int64_t n = 2500;
  GeeDistinctCounter counter;
  for (int64_t i = 0; i < n; ++i) {
    counter.Add(static_cast<uint64_t>(keys[rng.NextBelow(population)]) *
                0x9e3779b97f4a7c15ULL);
  }
  const GeeResult r = counter.Estimate(static_cast<double>(population));
  const double ratio_bound = std::sqrt(static_cast<double>(population) / n);
  const double ratio =
      std::max(r.distinct / distinct, distinct / std::max(1.0, r.distinct));
  EXPECT_LE(ratio, ratio_bound * 1.5);  // guarantee up to constants
  EXPECT_GE(r.variance, 0.0);
}

TEST(Gee, EmptyCounter) {
  GeeDistinctCounter counter;
  const GeeResult r = counter.Estimate(1000.0);
  EXPECT_DOUBLE_EQ(r.distinct, 0.0);
  EXPECT_DOUBLE_EQ(r.variance, 0.0);
}

// ---------- GEE inside the estimator ----------

struct AggFixture {
  Database db;

  AggFixture() {
    // Two strongly correlated columns: the optimizer multiplies their
    // distinct counts (20 * 20 = 400 groups) but the true joint distinct
    // count is only 20 — exactly the failure GEE repairs.
    Table t("t", Schema({{"g1", ValueType::kInt64},
                         {"g2", ValueType::kInt64},
                         {"v", ValueType::kDouble}}));
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
      const int64_t g = rng.NextInt(0, 19);
      t.AppendRow({Value::Int64(g), Value::Int64(g), Value::Double(i)});
    }
    db = Database("agg-test");
    db.AddTable(std::move(t));
    db.AnalyzeAll(16);
  }

  Plan AggPlan() const {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
    Plan plan(MakeAggregate(MakeSeqScan("t", nullptr), {0, 1}, aggs));
    EXPECT_TRUE(plan.Finalize(db).ok());
    return plan;
  }
};

TEST(GeeEstimator, BeatsOptimizerOnCorrelatedGroupColumns) {
  AggFixture fx;
  const Plan plan = fx.AggPlan();
  SampleOptions so;
  so.sampling_ratio = 0.05;
  const SampleDb samples = SampleDb::Build(fx.db, so);

  SamplingEstimator opt(&fx.db, &samples, AggregateEstimateMode::kOptimizer);
  SamplingEstimator gee(&fx.db, &samples, AggregateEstimateMode::kGee);
  auto est_opt = opt.Estimate(plan);
  auto est_gee = gee.Estimate(plan);
  ASSERT_TRUE(est_opt.ok() && est_gee.ok());

  const double denom = 20000.0;
  const double truth = 20.0;
  const double m_opt = est_opt->ops[0].rho * denom;
  const double m_gee = est_gee->ops[0].rho * denom;
  EXPECT_TRUE(est_opt->ops[0].from_optimizer);
  EXPECT_FALSE(est_gee->ops[0].from_optimizer);
  // Optimizer: ~400 groups (independence); GEE: ~20.
  EXPECT_GT(m_opt, 5.0 * truth);
  EXPECT_NEAR(m_gee, truth, 0.5 * truth);
}

TEST(GeeEstimator, OperatorsAboveAggregatesStillUseOptimizer) {
  Database db = MakeTpchDatabase(TpchConfig::Profile("tiny"));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  auto agg = MakeAggregate(MakeSeqScan("orders", nullptr), {1}, aggs);
  Plan plan(MakeHashJoin(std::move(agg), MakeSeqScan("customer", nullptr),
                         {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  const SampleDb samples = SampleDb::Build(db, SampleOptions{});
  SamplingEstimator estimator(&db, &samples, AggregateEstimateMode::kGee);
  auto est = estimator.Estimate(plan);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->ops[0].from_optimizer);   // the join above
  EXPECT_FALSE(est->ops[1].from_optimizer);  // the aggregate itself (GEE)
}

TEST(GeeEstimator, GlobalAggregateHasCardinalityOne) {
  AggFixture fx;
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  Plan plan(MakeAggregate(MakeSeqScan("t", nullptr), {}, aggs));
  ASSERT_TRUE(plan.Finalize(fx.db).ok());
  const SampleDb samples = SampleDb::Build(fx.db, SampleOptions{});
  SamplingEstimator estimator(&fx.db, &samples, AggregateEstimateMode::kGee);
  auto est = estimator.Estimate(plan);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->ops[0].rho * 20000.0, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(est->ops[0].variance, 0.0);
}

// ---------- Monte-Carlo reference predictor ----------

struct McFixture {
  Database db = MakeTpchDatabase(TpchConfig::Profile("tiny"));
  CostUnits units;
  Plan plan;

  McFixture() {
    SimulatedMachine machine(MachineProfile::PC1(), 3);
    Calibrator calibrator(&machine);
    units = calibrator.Calibrate();
    Rng rng(4);
    ConstantPicker pick(&db, &rng);
    JoinChainBuilder chain(&db);
    chain.Start("lineitem", pick.LessEqAtFraction("lineitem", "l_shipdate", 0.3))
        .Join("orders", pick.LessEqAtFraction("orders", "o_totalprice", 0.5),
              {{"lineitem.l_orderkey", "o_orderkey"}});
    auto plan_or = OptimizePlan(chain.Finish(), db);
    EXPECT_TRUE(plan_or.ok());
    plan = std::move(plan_or).value();
  }
};

TEST(MonteCarlo, AgreesWithAnalyticMoments) {
  McFixture fx;
  SampleOptions so;
  so.sampling_ratio = 0.1;
  const SampleDb samples = SampleDb::Build(fx.db, so);
  SamplingEstimator estimator(&fx.db, &samples);
  auto est = estimator.Estimate(fx.plan);
  ASSERT_TRUE(est.ok());
  CostFunctionFitter fitter(&fx.db);
  auto funcs = fitter.FitPlan(fx.plan, *est);
  ASSERT_TRUE(funcs.ok());

  const VarianceEngine engine(&*est, &*funcs, &fx.units);
  const VarianceBreakdown analytic = engine.Compute();
  MonteCarloOptions mco;
  mco.draws = 20000;
  const MonteCarloResult mc = SimulatePrediction(*est, *funcs, fx.units, mco);

  EXPECT_NEAR(mc.mean, analytic.mean, 0.03 * analytic.mean);
  // Monte-Carlo draws bounded pairs independently, so its variance must
  // not exceed the bound-augmented analytic variance by more than noise.
  EXPECT_LT(mc.variance, 1.25 * analytic.variance);
  EXPECT_GT(mc.variance, 0.5 * analytic.variance);
}

TEST(MonteCarlo, DistributionIsCloseToNormal) {
  McFixture fx;
  SampleOptions so;
  so.sampling_ratio = 0.2;
  const SampleDb samples = SampleDb::Build(fx.db, so);
  SamplingEstimator estimator(&fx.db, &samples);
  auto est = estimator.Estimate(fx.plan);
  ASSERT_TRUE(est.ok());
  CostFunctionFitter fitter(&fx.db);
  auto funcs = fitter.FitPlan(fx.plan, *est);
  ASSERT_TRUE(funcs.ok());
  MonteCarloOptions mco;
  mco.draws = 20000;
  const MonteCarloResult mc = SimulatePrediction(*est, *funcs, fx.units, mco);
  // Theorems 1/2: with large samples t_q is approximately normal.
  EXPECT_LT(mc.KsDistanceToNormal(mc.mean, mc.variance), 0.05);
}

TEST(MonteCarlo, QuantilesAreMonotoneAndBracketMean) {
  McFixture fx;
  const SampleDb samples = SampleDb::Build(fx.db, SampleOptions{});
  SamplingEstimator estimator(&fx.db, &samples);
  auto est = estimator.Estimate(fx.plan);
  ASSERT_TRUE(est.ok());
  CostFunctionFitter fitter(&fx.db);
  auto funcs = fitter.FitPlan(fx.plan, *est);
  ASSERT_TRUE(funcs.ok());
  const MonteCarloResult mc = SimulatePrediction(*est, *funcs, fx.units);
  EXPECT_LT(mc.Quantile(0.1), mc.Quantile(0.5));
  EXPECT_LT(mc.Quantile(0.5), mc.Quantile(0.9));
  EXPECT_LT(mc.Quantile(0.05), mc.mean);
  EXPECT_GT(mc.Quantile(0.95), mc.mean);
  // Sorted samples.
  for (size_t i = 1; i < mc.samples.size(); ++i) {
    ASSERT_LE(mc.samples[i - 1], mc.samples[i]);
  }
}

TEST(MonteCarlo, DeterministicPerSeed) {
  McFixture fx;
  const SampleDb samples = SampleDb::Build(fx.db, SampleOptions{});
  SamplingEstimator estimator(&fx.db, &samples);
  auto est = estimator.Estimate(fx.plan);
  ASSERT_TRUE(est.ok());
  CostFunctionFitter fitter(&fx.db);
  auto funcs = fitter.FitPlan(fx.plan, *est);
  ASSERT_TRUE(funcs.ok());
  MonteCarloOptions mco;
  mco.draws = 500;
  const MonteCarloResult a = SimulatePrediction(*est, *funcs, fx.units, mco);
  const MonteCarloResult b = SimulatePrediction(*est, *funcs, fx.units, mco);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.variance, b.variance);
}

}  // namespace
}  // namespace uqp
