#pragma once

// Set-up of the benchmark's inputs: databases, samples, calibrated units,
// plan pools, sequential reference predictions, and the inputs of the
// prediction-quality protocol that every workload reports.

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "cost/units.h"
#include "engine/plan.h"
#include "hw/machine.h"
#include "sampling/sample_db.h"
#include "schedule/simulator.h"
#include "storage/database.h"

#include "params.h"

namespace perfbench {

/// Wall time of each set-up phase, summed over everything built with the
/// same PhaseTimes.
struct PhaseTimes {
  double db_ms = 0.0;         ///< database generation
  double samples_ms = 0.0;    ///< calibration and sample tables
  double plans_ms = 0.0;      ///< workload generation and plan optimisation
  double truth_ms = 0.0;      ///< base-table execution and runtime draws
  double reference_ms = 0.0;  ///< sequential reference predictions
  double warmup_ms = 0.0;     ///< service construction and warm-up requests
};

/// A generated database with its calibrated units, offline samples and an
/// optimized plan pool. Held by pointer so the service's pointers into it
/// stay valid. `machine` is the simulated machine the units were
/// calibrated on; truth runtimes continue its random stream.
struct Bundle {
  std::unique_ptr<uqp::Database> db;
  std::unique_ptr<uqp::SimulatedMachine> machine;
  uqp::CostUnits units;
  std::unique_ptr<uqp::SampleDb> samples;
  std::vector<uqp::Plan> pool;
};

/// Builds a bundle from the parameters under `prefix` (profile,
/// sampling_ratio, pool composition and seeds).
Bundle BuildBundle(const Params& params, const std::string& prefix,
                   PhaseTimes* times);

/// Stage outputs of a sequential (num_threads = 1) PredictionPipeline for
/// every pool plan under `units`: the reference each served prediction is
/// compared with, bit for bit.
std::vector<uqp::VarianceBreakdown> ReferencePredictions(
    const Bundle& bundle, const uqp::CostUnits& units,
    const uqp::PredictorOptions& options);

/// True when the two breakdowns are bit-identical (every double).
bool SameBits(const uqp::VarianceBreakdown& a, const uqp::VarianceBreakdown& b);

/// Inputs of the prediction-quality protocol: the paper's accuracy
/// protocol (truth = base-table execution averaged over simulated runs) and
/// the three scheduling scenarios.
struct QualityInputs {
  Bundle acc;
  std::vector<double> truth_ms;                  ///< per acc.pool plan
  std::vector<uqp::VarianceBreakdown> reference;  ///< per acc.pool plan
  Bundle sched;                                  ///< scheduling database
  std::vector<uqp::ScheduleScenario> scenarios;
};

QualityInputs BuildQualityInputs(const Params& params, PhaseTimes* times);

/// Scheduling policies, in report order.
inline constexpr int kNumPolicies = 3;
inline constexpr const char* kPolicyNames[kNumPolicies] = {"distribution", "mean_only",
                                                           "cost_only"};

struct QualityResult {
  double r_s = 0.0;
  double d_n = 0.0;
  double rel_err_p50 = 0.0;
  double violation_rate = 0.0;  ///< distribution policy, summed over scenarios
  double goodput = 0.0;         ///< distribution policy, mean over scenarios
  uint64_t admitted[kNumPolicies] = {0, 0, 0};
  uint64_t violations[kNumPolicies] = {0, 0, 0};
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Predicts the accuracy pool with a default service, checks every
/// prediction against the sequential reference, evaluates r_s, D_n and
/// the median relative error, and runs every scenario under each policy.
QualityResult RunQuality(const QualityInputs& inputs, const Params& params);

}  // namespace perfbench
