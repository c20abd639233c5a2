// Quickstart: predict a query's running-time *distribution*.
//
// The paper's pitch in 60 lines: instead of a single point estimate, the
// predictor returns N(E[t], Var[t]) — "with probability 70%, the running
// time should be between lo and hi".
//
//   build/examples/quickstart

#include <cstdio>

#include "core/explain.h"
#include "core/pipeline.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "sampling/sample_db.h"
#include "workload/common.h"

using namespace uqp;

int main() {
  // 1. A database. Here: the TPC-H-like generator at a small scale.
  Database db = MakeTpchDatabase(TpchConfig::Profile("1gb"));
  std::printf("database: lineitem has %lld rows\n",
              static_cast<long long>(db.GetTable("lineitem").num_rows()));

  // 2. A machine. The simulated hardware stands in for the paper's PC1;
  //    calibration queries estimate the five cost units as DISTRIBUTIONS.
  SimulatedMachine machine(MachineProfile::PC1(), /*seed=*/42);
  Calibrator calibrator(&machine);
  const CostUnits units = calibrator.Calibrate();
  std::printf("\ncalibrated cost units:\n%s", units.ToString().c_str());

  // 3. Offline sample tables (5%% of each relation).
  SampleOptions sample_options;
  sample_options.sampling_ratio = 0.05;
  const SampleDb samples = SampleDb::Build(db, sample_options);

  // 4. A query: lineitem join orders with two filters, planned physically.
  Rng rng(7);
  ConstantPicker pick(&db, &rng);
  JoinChainBuilder chain(&db);
  chain
      .Start("lineitem", pick.LessEqAtFraction("lineitem", "l_shipdate", 0.35))
      .Join("orders", pick.LessEqAtFraction("orders", "o_totalprice", 0.6),
            {{"lineitem.l_orderkey", "o_orderkey"}});
  auto plan_or = OptimizePlan(chain.Finish(), db);
  if (!plan_or.ok()) {
    std::fprintf(stderr, "planning failed: %s\n", plan_or.status().ToString().c_str());
    return 1;
  }
  const Plan plan = std::move(plan_or).value();
  std::printf("\nphysical plan:\n%s", plan.ToString().c_str());

  // 5. Predict the distribution of likely running times.
  PredictionPipeline predictor(&db, &samples, units);
  auto pred_or = predictor.Predict(plan);
  if (!pred_or.ok()) {
    std::fprintf(stderr, "prediction failed: %s\n", pred_or.status().ToString().c_str());
    return 1;
  }
  const Prediction& pred = *pred_or;
  std::printf("\npredicted running time: %.1f ms (sd %.1f ms)\n", pred.mean(),
              pred.stddev());
  for (double level : {0.5, 0.7, 0.95}) {
    double lo = 0.0, hi = 0.0;
    pred.ConfidenceInterval(level, &lo, &hi);
    std::printf("  with probability %2.0f%%: between %8.1f and %8.1f ms\n",
                100.0 * level, lo, hi);
  }
  std::printf("  variance decomposition: cost units %.0f%%, selectivities "
              "%.0f%%, covariance bounds %.0f%%\n",
              100.0 * pred.breakdown.var_cost_units / pred.breakdown.variance,
              100.0 * pred.breakdown.var_selectivity / pred.breakdown.variance,
              100.0 * pred.breakdown.var_cov_bounds / pred.breakdown.variance);

  // 6. EXPLAIN-style decomposition: where the time and uncertainty live.
  std::printf("\n%s", RenderExplain(plan, pred, units).c_str());

  // 7. Compare against actually "running" the query (paper protocol:
  //    average of 5 runs).
  Executor executor(&db);
  auto full = executor.Execute(plan, ExecOptions{});
  if (!full.ok()) {
    std::fprintf(stderr, "execution failed\n");
    return 1;
  }
  const double actual = machine.ExecuteAveraged(*full, 5);
  std::printf("\nactual running time:    %.1f ms  (%.2f predicted sd from the "
              "mean)\n",
              actual, std::fabs(actual - pred.mean()) / pred.stddev());
  return 0;
}
