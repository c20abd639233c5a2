// Performance microbenchmarks (google-benchmark): the paper's claim (§1,
// §6.4) is that producing the *distribution* costs almost the same as the
// point estimate of [48] — the added work (S²_n counters, variance
// assembly) is small next to the sample run itself.

#include <benchmark/benchmark.h>

#include "core/pipeline.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "math/nnls.h"
#include "sampling/sample_db.h"
#include "workload/common.h"

namespace uqp {
namespace {

struct Fixture {
  Database db;
  SampleDb samples;
  CostUnits units;
  std::vector<Plan> plans;

  static Fixture& Get() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      fx->db = MakeTpchDatabase(TpchConfig::Profile("tiny"));
      SampleOptions so;
      so.sampling_ratio = 0.05;
      fx->samples = SampleDb::Build(fx->db, so);
      SimulatedMachine machine(MachineProfile::PC1(), 7);
      Calibrator calibrator(&machine);
      fx->units = calibrator.Calibrate();
      SelJoinOptions wo;
      wo.instances_per_template = 1;
      for (auto& q : MakeSelJoinWorkload(fx->db, wo)) {
        auto plan = OptimizePlan(std::move(q.logical), fx->db);
        if (plan.ok()) fx->plans.push_back(std::move(plan).value());
      }
      return fx;
    }();
    return *f;
  }
};

void BM_FullPrediction(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  PredictionPipeline predictor(&fx.db, &fx.samples, fx.units);
  size_t i = 0;
  for (auto _ : state) {
    auto p = predictor.Predict(fx.plans[i % fx.plans.size()]);
    benchmark::DoNotOptimize(p);
    ++i;
  }
}
BENCHMARK(BM_FullPrediction);

void BM_SelectivityEstimation(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  SamplingEstimator estimator(&fx.db, &fx.samples);
  size_t i = 0;
  for (auto _ : state) {
    auto e = estimator.Estimate(fx.plans[i % fx.plans.size()]);
    benchmark::DoNotOptimize(e);
    ++i;
  }
}
BENCHMARK(BM_SelectivityEstimation);

void BM_VarianceAssembly(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  PredictionPipeline predictor(&fx.db, &fx.samples, fx.units);
  auto pred = predictor.Predict(fx.plans[0]);
  for (auto _ : state) {
    auto b = predictor.Recompute(*pred, PredictorVariant::kAll,
                                 CovarianceBoundKind::kBest);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_VarianceAssembly);

void BM_FullQueryExecution(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  Executor executor(&fx.db);
  size_t i = 0;
  for (auto _ : state) {
    auto r = executor.Execute(fx.plans[i % fx.plans.size()], ExecOptions{});
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_FullQueryExecution);

void BM_Nnls(benchmark::State& state) {
  // Representative C4' fit: 7 points, 3 coefficients.
  NnlsProblem p;
  p.rows = 7;
  p.cols = 3;
  p.nonnegative = {true, true, false};
  for (int i = 0; i < 7; ++i) {
    const double x = 0.1 + 0.1 * i;
    p.a.insert(p.a.end(), {x * x, x, 1.0});
    p.y.push_back(3.0 * x * x + 2.0 * x + 0.5);
  }
  for (auto _ : state) {
    auto r = SolveNnls(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Nnls);

}  // namespace
}  // namespace uqp

BENCHMARK_MAIN();
