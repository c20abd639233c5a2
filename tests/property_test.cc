// Randomized property tests: random plans over the TPC-H schema must
// satisfy the library's invariants end to end, and the S²_n/n variance
// estimate must statistically match the TRUE sampling variance of ρ_n
// (paper Theorem 3 / §3.2.1, validated by brute force over many
// independent sample sets).

#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "math/gaussian.h"
#include "math/stats.h"
#include "sampling/estimator.h"
#include "workload/common.h"

namespace uqp {
namespace {

/// Generates a random logical plan over the TPC-H schema: a join chain of
/// 1-4 relations along FK edges with random filters, optionally topped by
/// an aggregate and/or sort.
std::unique_ptr<PlanNode> RandomPlan(const Database& db, Rng* rng) {
  ConstantPicker pick(&db, rng);
  struct Edge {
    const char* from_col;
    const char* to_table;
    const char* to_col;
  };
  // FK edges walkable from lineitem.
  const Edge edges[] = {
      {"lineitem.l_orderkey", "orders", "o_orderkey"},
      {"lineitem.l_partkey", "part", "p_partkey"},
      {"lineitem.l_suppkey", "supplier", "s_suppkey"},
  };
  auto random_filter = [&pick, rng](const char* table,
                                    const char* column) -> ExprPtr {
    switch (rng->NextInt(0, 2)) {
      case 0:
        return nullptr;
      case 1:
        return pick.LessEqAtFraction(table, column, rng->NextDouble());
      default:
        return pick.RangeOfWidth(table, column,
                                 0.05 + 0.5 * rng->NextDouble());
    }
  };

  JoinChainBuilder chain(&db);
  chain.Start("lineitem", random_filter("lineitem", "l_shipdate"));
  const int joins = static_cast<int>(rng->NextInt(0, 3));
  bool used[3] = {false, false, false};
  const char* filter_col[3] = {"o_totalprice", "p_retailprice", "s_acctbal"};
  for (int j = 0; j < joins; ++j) {
    const int e = static_cast<int>(rng->NextInt(0, 2));
    if (used[e]) continue;
    used[e] = true;
    chain.Join(edges[e].to_table,
               random_filter(edges[e].to_table, filter_col[e]),
               {{edges[e].from_col, edges[e].to_col}});
  }
  std::unique_ptr<PlanNode> root = chain.Finish();
  if (rng->NextBool(0.3)) {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
    aggs.push_back({AggSpec::Kind::kSum, 4, "sum_qty"});
    root = MakeAggregate(std::move(root), {2}, aggs);
  } else if (rng->NextBool(0.3)) {
    root = MakeSort(std::move(root), {0});
  }
  return root;
}

class RandomPlanProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomPlanProperty, EndToEndInvariantsHold) {
  static Database* db = new Database(MakeTpchDatabase(TpchConfig::Profile("tiny")));
  static SampleDb* samples = [] {
    SampleOptions so;
    so.sampling_ratio = 0.1;
    return new SampleDb(SampleDb::Build(*db, so));
  }();
  static CostUnits* units = [] {
    SimulatedMachine machine(MachineProfile::PC2(), 1);
    Calibrator calibrator(&machine);
    return new CostUnits(calibrator.Calibrate());
  }();

  Rng rng(1000 + static_cast<uint64_t>(GetParam()));
  auto plan_or = OptimizePlan(RandomPlan(*db, &rng), *db);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  const Plan plan = std::move(plan_or).value();

  // Executor invariants.
  Executor executor(db);
  auto full = executor.Execute(plan, ExecOptions{});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (const OpStats& st : full->ops) {
    EXPECT_GE(st.actual.ns, 0.0);
    EXPECT_GE(st.actual.nr, 0.0);
    EXPECT_GE(st.out_rows, 0.0);
    EXPECT_GE(st.leaf_row_product, 1.0);
    EXPECT_LE(st.selectivity(), 1.0 + 1e-12);
  }

  // Estimator invariants.
  SamplingEstimator estimator(db, samples);
  auto est = estimator.Estimate(plan);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  for (const SelectivityEstimate& e : est->ops) {
    EXPECT_GE(e.rho, 0.0);
    EXPECT_LE(e.rho, 1.0);
    EXPECT_GE(e.variance, -1e-15);
    double comp = 0.0;
    for (double v : e.var_components) comp += v;
    EXPECT_NEAR(comp, e.variance, 1e-12 + 1e-9 * e.variance);
  }

  // Prediction invariants.
  PredictionPipeline predictor(db, samples, *units);
  auto pred = predictor.Predict(plan);
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  EXPECT_TRUE(std::isfinite(pred->mean()));
  EXPECT_TRUE(std::isfinite(pred->stddev()));
  EXPECT_GT(pred->mean(), 0.0);
  EXPECT_GE(pred->breakdown.variance, 0.0);

  // Variant ordering.
  for (PredictorVariant v : {PredictorVariant::kNoVarC, PredictorVariant::kNoVarX,
                             PredictorVariant::kNoCov}) {
    const VarianceBreakdown b =
        predictor.Recompute(*pred, v, CovarianceBoundKind::kBest);
    EXPECT_LE(b.variance, pred->breakdown.variance + 1e-9)
        << PredictorVariantName(v);
  }

  // Bound ordering: B1-based total never exceeds B2-based total.
  const double v_b1 =
      predictor.Recompute(*pred, PredictorVariant::kAll, CovarianceBoundKind::kB1)
          .variance;
  const double v_b2 =
      predictor.Recompute(*pred, PredictorVariant::kAll, CovarianceBoundKind::kB2)
          .variance;
  const double v_best =
      predictor
          .Recompute(*pred, PredictorVariant::kAll, CovarianceBoundKind::kBest)
          .variance;
  EXPECT_LE(v_b1, v_b2 + 1e-9);
  EXPECT_LE(v_best, v_b1 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanProperty, ::testing::Range(0, 24));

// ---------- Statistical validation of Var̂[ρ_n] (Theorem 3 / S²_n) ----------

struct VarValidationCase {
  double sampling_ratio;
  bool join;  // scan otherwise
};

class VarianceEstimateValidation
    : public ::testing::TestWithParam<VarValidationCase> {};

TEST_P(VarianceEstimateValidation, EstimatedVarianceTracksTrueVariance) {
  const auto [ratio, join] = GetParam();
  static Database* db = new Database(MakeTpchDatabase(TpchConfig::Profile("tiny")));

  // Fixed query; only the samples vary.
  Rng qrng(5);
  ConstantPicker pick(db, &qrng);
  std::unique_ptr<PlanNode> logical;
  if (join) {
    JoinChainBuilder chain(db);
    chain.Start("lineitem", pick.LessEqAtFraction("lineitem", "l_quantity", 0.5))
        .Join("orders", nullptr, {{"lineitem.l_orderkey", "o_orderkey"}});
    logical = chain.Finish();
  } else {
    logical = MakeSeqScan("lineitem",
                          pick.LessEqAtFraction("lineitem", "l_quantity", 0.3));
  }
  Plan plan(std::move(logical));
  ASSERT_TRUE(plan.Finalize(*db).ok());

  // Across many independent sample sets: the empirical variance of ρ̂ must
  // match the average estimated variance (S²_n/n is consistent).
  RunningStats rho_hat;
  double est_var_acc = 0.0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    SampleOptions so;
    so.sampling_ratio = ratio;
    so.seed = 10000 + static_cast<uint64_t>(t);
    const SampleDb samples = SampleDb::Build(*db, so);
    SamplingEstimator estimator(db, &samples);
    auto est = estimator.Estimate(plan);
    ASSERT_TRUE(est.ok());
    rho_hat.Add(est->ops[0].rho);
    est_var_acc += est->ops[0].variance;
  }
  const double empirical = rho_hat.variance();
  const double estimated = est_var_acc / trials;
  ASSERT_GT(empirical, 0.0);
  // Sampling WITHOUT replacement makes the true variance smaller than the
  // with-replacement formula by up to (1 - ratio); allow a generous band.
  const double ratio_of_vars = estimated / empirical;
  EXPECT_GT(ratio_of_vars, 0.4) << "estimator badly underestimates";
  EXPECT_LT(ratio_of_vars, 3.0) << "estimator badly overestimates";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VarianceEstimateValidation,
    ::testing::Values(VarValidationCase{0.05, false},
                      VarValidationCase{0.2, false},
                      VarValidationCase{0.05, true},
                      VarValidationCase{0.2, true}));

// ---------- Ordered-sum tail probability vs Monte-Carlo oracle ----------
//
// The scheduling policy library's P(both meet | a then b) — the exact
// quadrature ProbBothMeetSequential — must match a 1e6-draw Monte-Carlo
// estimate of P(A <= da AND A + B <= db) within 3 standard errors, for
// randomized job shapes. The same oracle quantifies the bias of the
// historical product approximation (NaiveBothMeetProb): wherever a's
// deadline binds, the product must sit BELOW the exact value.

class BothMeetOracle : public ::testing::TestWithParam<int> {};

TEST_P(BothMeetOracle, QuadratureMatchesMonteCarloWithin3SE) {
  Rng rng(900 + static_cast<uint64_t>(GetParam()));
  // Random job pair: means within a decade, cv in [0.05, 0.6], deadlines
  // spanning slack-to-binding (da around mu_a, db around mu_a + mu_b).
  const double mu_a = 50.0 + 450.0 * rng.NextDouble();
  const double mu_b = 50.0 + 450.0 * rng.NextDouble();
  const double sd_a = mu_a * (0.05 + 0.55 * rng.NextDouble());
  const double sd_b = mu_b * (0.05 + 0.55 * rng.NextDouble());
  const double da = mu_a * (0.8 + 0.8 * rng.NextDouble());
  const double db = (mu_a + mu_b) * (0.8 + 0.8 * rng.NextDouble());

  const double exact = ProbBothMeetSequential(mu_a, sd_a * sd_a, da,
                                              mu_b, sd_b * sd_b, db);

  const int kDraws = 1000000;
  int hits = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double ta = rng.NextGaussian(mu_a, sd_a);
    const double tb = rng.NextGaussian(mu_b, sd_b);
    if (ta <= da && ta + tb <= db) ++hits;
  }
  const double mc = static_cast<double>(hits) / kDraws;
  const double se = std::sqrt(std::max(mc * (1.0 - mc), 1e-12) / kDraws);
  EXPECT_NEAR(exact, mc, 3.0 * se + 1e-6)
      << "mu_a=" << mu_a << " sd_a=" << sd_a << " da=" << da
      << " mu_b=" << mu_b << " sd_b=" << sd_b << " db=" << db;

  // The naive product never exceeds the exact probability (positive
  // correlation through A + truncation of A at da), and is strictly
  // below it whenever da binds.
  const double p_a = NormalCdf(da, mu_a, sd_a * sd_a);
  const double naive =
      p_a * NormalCdf(db, mu_a + mu_b, sd_a * sd_a + sd_b * sd_b);
  EXPECT_LE(naive, exact + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BothMeetOracle, ::testing::Range(0, 8));

}  // namespace
}  // namespace uqp
