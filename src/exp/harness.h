#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "workload/common.h"

namespace uqp {

/// One experiment database setting.
struct HarnessOptions {
  std::string profile = "1gb";  ///< "1gb" | "10gb" | "tiny"
  double zipf = 0.0;            ///< 0 = uniform, 1 = skewed (paper z = 1)
  uint64_t seed = 42;
  int runs_per_query = 5;  ///< paper protocol: average of 5 runs
  EngineConfig engine;
  FitOptions fit;
  PlannerConfig planner;
};

/// Per-query record of one evaluation.
struct QueryRecord {
  std::string name;
  QueryOutcome outcome;
  VarianceBreakdown breakdown;
  /// Predicted cost of the sample run relative to the full run (the
  /// relative sampling overhead of §6.4).
  double overhead_ratio = 0.0;
  /// Per selective operator (selections with predicates and joins, not
  /// optimizer-derived): estimated ρ, estimated σ(ρ), true ρ.
  std::vector<double> op_sel_est;
  std::vector<double> op_sel_sigma;
  std::vector<double> op_sel_true;
};

/// One (workload, machine, SR, variant) evaluation.
struct EvaluationResult {
  std::string workload;
  std::string machine;
  std::string db_label;
  double sampling_ratio = 0.0;
  PredictorVariant variant = PredictorVariant::kAll;
  std::vector<QueryRecord> records;
  EvaluationSummary summary;
  double mean_overhead = 0.0;

  std::vector<QueryOutcome> outcomes() const;
};

/// Experiment driver for one database setting. Heavy artifacts are cached
/// and shared across the grid:
///   - full executions per query (machine- and SR-independent),
///   - calibration per machine,
///   - sample tables + selectivity estimates + fitted cost functions per
///     SR (machine-independent),
/// so evaluating M machines x S ratios x V variants costs one full run and
/// S sample runs per query, plus cheap variance recomputations.
class ExperimentHarness {
 public:
  explicit ExperimentHarness(HarnessOptions options);

  const Database& db() const { return db_; }
  const HarnessOptions& options() const { return options_; }
  std::string db_label() const;

  /// Generates, optimizes and fully executes a workload ("micro",
  /// "seljoin", "tpch"). size_hint caps the query count (0 = default).
  Status LoadWorkload(const std::string& kind, int size_hint = 0);

  /// Calibrated units for a machine (calibrates on first use).
  const CostUnits& UnitsFor(const std::string& machine);

  StatusOr<EvaluationResult> Evaluate(
      const std::string& workload, const std::string& machine,
      double sampling_ratio, PredictorVariant variant = PredictorVariant::kAll,
      CovarianceBoundKind bound = CovarianceBoundKind::kBest);

  /// The four database settings of the paper's grid.
  struct Setting {
    std::string label;
    std::string profile;
    double zipf;
  };
  static std::vector<Setting> PaperSettings();

 private:
  struct PreparedQuery {
    std::string name;
    Plan plan;
    ExecResult full;
  };
  struct MachineState {
    std::unique_ptr<SimulatedMachine> machine;
    CostUnits units;
    /// workload kind -> averaged actual time per query.
    std::unordered_map<std::string, std::vector<double>> actual_times;
  };
  struct QueryArtifacts {
    PlanEstimates estimates;
    std::vector<OperatorCostFunctions> cost_functions;
  };
  struct SrState {
    std::unique_ptr<SampleDb> samples;
    /// workload kind -> per-query artifacts.
    std::unordered_map<std::string, std::vector<QueryArtifacts>> artifacts;
  };

  MachineState& MachineFor(const std::string& name);
  StatusOr<SrState*> SrFor(double ratio);
  Status EnsureArtifacts(SrState* sr, const std::string& workload);
  const std::vector<double>& ActualTimesFor(MachineState* ms,
                                            const std::string& workload);
  double BufferHitRateFor(const std::string& machine) const;

  HarnessOptions options_;
  Database db_;
  std::unordered_map<std::string, std::vector<PreparedQuery>> workloads_;
  std::unordered_map<std::string, MachineState> machines_;
  std::map<double, SrState> srs_;
};

}  // namespace uqp
