#include "setup.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/metrics.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "service/prediction_service.h"
#include "stats.h"
#include "trace.h"
#include "workload/common.h"

namespace perfbench {

using namespace uqp;

namespace {

double MsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

/// The lineitem scan -> sort -> aggregate plan: an ORDER BY + GROUP BY
/// tail whose sort carries the whole filtered sample.
Plan MakeSortAggPlan(const Database& db) {
  auto scan = MakeSeqScan("lineitem", Expr::Cmp(4, CmpOp::kGe, Value::Double(0.0)));
  auto sort = MakeSort(std::move(scan), {10, 0});
  auto agg = MakeAggregate(std::move(sort), {2},
                           {{AggSpec::Kind::kCount, -1, "cnt"},
                            {AggSpec::Kind::kSum, 5, "sum_price"},
                            {AggSpec::Kind::kMin, 4, "min_qty"},
                            {AggSpec::Kind::kMax, 6, "max_disc"},
                            {AggSpec::Kind::kAvg, 7, "avg_tax"}});
  Plan plan(std::move(agg));
  if (!plan.Finalize(db).ok()) Die("sort/agg plan failed to finalize");
  return plan;
}

}  // namespace

Bundle BuildBundle(const Params& params, const std::string& prefix,
                   PhaseTimes* times) {
  auto p = [&](const char* key) { return prefix + "." + key; };
  Bundle b;
  int64_t t0 = NowNs();
  b.db = std::make_unique<Database>(MakeTpchDatabase(TpchConfig::Profile(
      params.Str(p("profile")), 0.0, static_cast<uint64_t>(params.Int(p("db_seed"))))));
  times->db_ms += MsSince(t0);

  t0 = NowNs();
  b.machine = std::make_unique<SimulatedMachine>(
      MachineProfile::PC1(), static_cast<uint64_t>(params.Int(p("machine_seed"))));
  b.units = Calibrator(b.machine.get()).Calibrate();
  SampleOptions so;
  so.sampling_ratio = params.Num(p("sampling_ratio"));
  so.seed = static_cast<uint64_t>(params.Int(p("sample_seed")));
  b.samples = std::make_unique<SampleDb>(SampleDb::Build(*b.db, so));
  times->samples_ms += MsSince(t0);

  if (!params.Has(p("seljoin_per_template"))) return b;  // no plan pool
  t0 = NowNs();
  std::vector<WorkloadQuery> queries;
  auto append = [&queries](std::vector<WorkloadQuery> part) {
    for (auto& q : part) queries.push_back(std::move(q));
  };
  SelJoinOptions sj;
  sj.instances_per_template = static_cast<int>(params.Int(p("seljoin_per_template")));
  sj.seed = static_cast<uint64_t>(params.Int(p("seljoin_seed")));
  append(MakeSelJoinWorkload(*b.db, sj));
  TpchWorkloadOptions tp;
  tp.instances_per_template = static_cast<int>(params.Int(p("tpch_per_template")));
  tp.seed = static_cast<uint64_t>(params.Int(p("tpch_seed")));
  append(MakeTpchWorkload(*b.db, tp));
  MicroOptions mi;
  mi.selection_queries = static_cast<int>(params.Int(p("micro_selection")));
  mi.join_queries = static_cast<int>(params.Int(p("micro_join")));
  mi.seed = static_cast<uint64_t>(params.Int(p("micro_seed")));
  append(MakeMicroWorkload(*b.db, mi));
  for (auto& q : queries) {
    auto plan = OptimizePlan(std::move(q.logical), *b.db);
    if (!plan.ok()) Die("plan optimisation failed: " + plan.status().ToString());
    b.pool.push_back(std::move(plan).value());
  }
  if (params.Int(p("sort_agg_plan")) != 0) b.pool.push_back(MakeSortAggPlan(*b.db));
  if (static_cast<int64_t>(b.pool.size()) != params.Int(p("pool_size"))) {
    Die("plan pool has " + std::to_string(b.pool.size()) + " plans, expected " +
        params.Str(p("pool_size")));
  }
  times->plans_ms += MsSince(t0);
  return b;
}

std::vector<VarianceBreakdown> ReferencePredictions(const Bundle& bundle,
                                                    const CostUnits& units,
                                                    const PredictorOptions& options) {
  PredictorOptions sequential = options;
  sequential.num_threads = 1;
  PredictionPipeline pipeline(bundle.db.get(), bundle.samples.get(), units, sequential);
  std::vector<VarianceBreakdown> out;
  out.reserve(bundle.pool.size());
  for (const Plan& plan : bundle.pool) {
    auto pred = pipeline.Predict(plan);
    if (!pred.ok()) Die("reference prediction failed: " + pred.status().ToString());
    out.push_back(pred->breakdown);
  }
  return out;
}

bool SameBits(const VarianceBreakdown& a, const VarianceBreakdown& b) {
  static_assert(sizeof(VarianceBreakdown) == sizeof(double) * (5 + kNumCostUnits),
                "VarianceBreakdown must be all doubles, without padding");
  return std::memcmp(&a, &b, sizeof(VarianceBreakdown)) == 0;
}

QualityInputs BuildQualityInputs(const Params& params, PhaseTimes* times) {
  QualityInputs q;
  q.acc = BuildBundle(params, "quality.acc", times);

  int64_t t0 = NowNs();
  const int runs = static_cast<int>(params.Int("quality.runs_per_query"));
  Executor executor(q.acc.db.get());
  q.truth_ms.reserve(q.acc.pool.size());
  for (const Plan& plan : q.acc.pool) {
    auto full = executor.Execute(plan, ExecOptions{});
    if (!full.ok()) Die("truth execution failed: " + full.status().ToString());
    q.truth_ms.push_back(q.acc.machine->ExecuteAveraged(*full, runs));
  }
  times->truth_ms += MsSince(t0);

  t0 = NowNs();
  q.reference = ReferencePredictions(q.acc, q.acc.units, PredictorOptions());
  times->reference_ms += MsSince(t0);

  q.sched = BuildBundle(params, "quality.sched", times);
  t0 = NowNs();
  for (int i = 0; params.Has("quality.scenarios." + std::to_string(i) + ".name"); ++i) {
    auto p = [&](const char* key) {
      return "quality.scenarios." + std::to_string(i) + "." + key;
    };
    ScenarioOptions o;
    o.workload = params.Str(p("workload"));
    o.workload_size = static_cast<int>(params.Int(p("workload_size")));
    o.trace = params.Str(p("trace"));
    o.mix = params.Str(p("mix"));
    o.zipf_z = params.Num(p("zipf_z"));
    o.num_jobs = static_cast<size_t>(params.Int(p("num_jobs")));
    o.servers = static_cast<int>(params.Int(p("servers")));
    o.load = params.Num(p("load"));
    o.deadline_lo = params.Num(p("deadline_lo"));
    o.deadline_hi = params.Num(p("deadline_hi"));
    o.seed = static_cast<uint64_t>(params.Int(p("seed")));
    q.scenarios.push_back(BuildScenario(*q.sched.db, *q.sched.samples, q.sched.units,
                                        q.sched.machine.get(), o));
  }
  if (q.scenarios.empty()) Die("no scheduling scenarios configured");
  times->truth_ms += MsSince(t0);
  return q;
}

QualityResult RunQuality(const QualityInputs& in, const Params& params) {
  QualityResult r;
  {
    ServiceOptions o;
    o.num_workers = static_cast<int>(params.Int("quality.service_workers"));
    PredictionService service(in.acc.db.get(), in.acc.samples.get(), in.acc.units, o);
    std::vector<QueryOutcome> outcomes;
    std::vector<double> rel_err;
    for (size_t i = 0; i < in.acc.pool.size(); ++i) {
      ++r.attempted;
      auto pred = service.Predict(in.acc.pool[i]);
      if (!pred.ok() || !SameBits(pred->breakdown, in.reference[i])) {
        ++r.failed;
        continue;
      }
      QueryOutcome qo;
      qo.predicted_mean = pred->mean();
      qo.predicted_stddev = pred->stddev();
      qo.actual_time = in.truth_ms[i];
      outcomes.push_back(qo);
      rel_err.push_back(std::abs(qo.predicted_mean - qo.actual_time) / qo.actual_time);
    }
    const EvaluationSummary summary = Evaluate(outcomes);
    r.r_s = summary.spearman;
    r.d_n = summary.dn;
    r.rel_err_p50 = Median(rel_err);
  }

  ServiceOptions so;
  so.num_workers = static_cast<int>(params.Int("quality.service_workers"));
  so.predictor.num_threads = 1;
  so.predictor.max_batch_size = params.Int("quality.sched_max_batch_size");
  so.feedback.enabled = true;
  Simulator sim(in.sched.db.get(), in.sched.samples.get(), in.sched.units, so);
  const double eps = params.Num("quality.eps");
  SimPolicy policies[kNumPolicies];
  policies[0].admission = {AdmissionPolicyKind::kDistribution, eps, 1.0};
  policies[0].ordering = {OrderingPolicyKind::kRiskAdjustedSlack, eps};
  policies[1].admission = {AdmissionPolicyKind::kMeanOnly, eps, 1.0};
  policies[1].ordering = {OrderingPolicyKind::kExpectedSlack, eps};
  policies[2].admission = {AdmissionPolicyKind::kCostOnly, eps, 1.0};
  policies[2].ordering = {OrderingPolicyKind::kFifo, eps};
  double goodput_sum = 0.0;
  for (const ScheduleScenario& scenario : in.scenarios) {
    for (int k = 0; k < kNumPolicies; ++k) {
      const SimResult res = sim.Run(scenario, policies[k]);
      r.admitted[k] += res.metrics.admitted;
      r.violations[k] += res.metrics.violations;
      if (k == 0) goodput_sum += res.metrics.goodput_per_s;
    }
  }
  r.violation_rate = r.admitted[0] > 0 ? static_cast<double>(r.violations[0]) /
                                             static_cast<double>(r.admitted[0])
                                       : 0.0;
  r.goodput = goodput_sum / static_cast<double>(in.scenarios.size());
  return r;
}

}  // namespace perfbench
