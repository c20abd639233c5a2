#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/variance.h"
#include "cost/snapshot.h"
#include "cost/units.h"
#include "costfunc/fitter.h"
#include "engine/plan.h"
#include "sampling/estimator.h"
#include "sampling/sample_db.h"
#include "storage/database.h"

namespace uqp {

/// Predictor configuration.
struct PredictorOptions {
  PredictorVariant variant = PredictorVariant::kAll;
  CovarianceBoundKind bound = CovarianceBoundKind::kBest;
  /// How aggregate cardinalities are estimated (kGee enables the §3.2.2
  /// future-work extension).
  AggregateEstimateMode aggregate_mode = AggregateEstimateMode::kOptimizer;
  /// How scan selectivities are estimated (kHistogram enables the §3.2
  /// histogram alternative).
  ScanEstimateMode scan_mode = ScanEstimateMode::kSampling;
  /// Intra-query parallelism for the stage-1 sample run: the executor
  /// shards every operator — scans, hash-join builds/probes, join
  /// subtrees, sort leaf blocks + merge levels, aggregation chunk tables,
  /// merge-join group emission — across a task pool, and the estimator
  /// merges per-shard selectivity counts in shard order. 1 runs the same
  /// loops inline, task by task; <= 0 = hardware concurrency. The determinism
  /// contract, enforced by tests/parallel_parity_test.cc: the
  /// SampleRunOutput — and hence every prediction — is bit-identical at
  /// every value.
  int num_threads = 1;
  /// Rows per executor chunk for the stage-1 sample run (the morsel and
  /// sort-leaf granularity — see ExecOptions::max_batch_size). Part of the
  /// determinism contract's *shape*: results are bit-identical across
  /// num_threads at any fixed batch size, and the parity tests sweep both.
  /// <= 0 = auto: derived per plan from the bound sample-table
  /// cardinalities (AutoSampleBatchSize), so tiny samples run as one
  /// morsel per operator instead of paying full dispatch overhead. The
  /// derivation depends only on sample cardinality — never thread count —
  /// so auto mode keeps the bit-identical guarantee across num_threads.
  int64_t max_batch_size = 1024;
  FitOptions fit;
};

struct SampleRunOutput;
struct CostFitOutput;

/// Shared ownership of the immutable stage 1-2 artifacts. Predictions,
/// the service cache and in-flight dedup all alias the same objects, so a
/// fully-cached prediction costs one variance combination, not an
/// artifact deep copy.
using SampleRunPtr = std::shared_ptr<const SampleRunOutput>;
using CostFitPtr = std::shared_ptr<const CostFitOutput>;

/// The shared, immutable stage 1-2 artifacts of one plan, bundled. This is
/// the unit the service layer caches, dedups and hands between requests:
/// stage 3 (PredictFromArtifacts) needs nothing but this bundle — not the
/// plan — which is what makes continuation-style handoff possible: any
/// thread holding the artifacts can finish any waiter's prediction.
struct StageArtifacts {
  SampleRunPtr run;
  CostFitPtr fit;
};

/// A prediction: the distribution of likely running times plus shared
/// views of the intermediate artifacts, for diagnostics, Recompute and
/// the experiment harness.
struct Prediction {
  VarianceBreakdown breakdown;

  double mean() const { return breakdown.mean; }
  double stddev() const { return std::sqrt(std::max(0.0, breakdown.variance)); }
  Gaussian distribution() const { return breakdown.AsGaussian(); }

  /// P(T <= t) under the predicted normal.
  double ProbBelow(double t) const;
  /// Central confidence interval [lo, hi] at the given level (e.g. 0.7
  /// gives the paper's "with probability 70%, between lo and hi").
  void ConfidenceInterval(double level, double* lo, double* hi) const;

  /// Stage 1-2 artifacts, aliased rather than copied: predictions of a
  /// recurring plan share one immutable SampleRunOutput/CostFitOutput with
  /// the service cache (pointer-identical, see service tests). Non-null
  /// for every prediction produced by the pipeline or service.
  SampleRunPtr sample_run;
  CostFitPtr cost_fit;

  /// The calibration snapshot this prediction combined under — resolved
  /// exactly once at stage-3 time, so the breakdown can never mix cost
  /// units from two epochs even while a new snapshot is being published
  /// concurrently. Non-null for every pipeline-produced prediction.
  CalibrationPtr calibration;
  uint64_t calibration_epoch() const {
    return calibration != nullptr ? calibration->epoch : 0;
  }

  const PlanEstimates& estimates() const;
  const std::vector<OperatorCostFunctions>& cost_functions() const;

  /// True for a degraded (cost-only fallback) prediction: stage 1 failed
  /// or timed out and the service served `optimizer scalar cost ×
  /// cost_scale_ms` with inflated variance instead. Degraded predictions
  /// carry NO stage 1-2 artifacts — sample_run and cost_fit are null, so
  /// estimates() / cost_functions() must not be called when this is set.
  bool degraded = false;
};

// ---------------------------------------------------------------------------
// The prediction pipeline, staged. Each stage has explicit input/output
// structs so stages can be cached (the service layer caches SampleRunStage
// outputs by plan fingerprint), swapped (ablations re-run only
// VarianceCombineStage), and tested in isolation.
//
//   Plan ──> SampleRunStage ──> CostFitStage ──> VarianceCombineStage ──> N(μ,σ²)
//            (Algorithms 1-2)    (§4 fitting)     (§5 / Algorithm 3)
// ---------------------------------------------------------------------------

/// Input to stage 1: a finalized physical plan, plus an optional
/// cooperative cancellation probe (see ExecOptions::cancelled) that lets
/// the owner stop the sample run at the next morsel boundary once a
/// request's deadline expires. Null = never cancelled, zero overhead.
struct SampleRunInput {
  const Plan* plan = nullptr;
  const std::function<bool()>* cancelled = nullptr;
};

/// Output of stage 1: the selectivity distributions extracted from one run
/// of the plan over the offline sample tables. This is by far the most
/// expensive artifact of a prediction and the unit of caching.
struct SampleRunOutput {
  PlanEstimates estimates;
};

/// Canonical byte serialization of a stage-1 output: every selectivity,
/// variance component, leaf span, resource counter and cardinality,
/// doubles serialized by bit pattern. Two outputs serialize equal iff they
/// are bit-identical — the equality the intra-query parallel executor's
/// determinism contract is tested against (tests/parallel_parity_test.cc).
std::string SampleRunOutputBytes(const SampleRunOutput& out);

/// Stage 1: run the plan over the sample tables once, extracting every
/// operator's selectivity distribution (paper Algorithms 1-2). With
/// num_threads != 1 the run fans out intra-query (bit-identical results;
/// see PredictorOptions::num_threads); `task_runner` optionally shares a
/// caller-owned pool across runs.
class SampleRunStage {
 public:
  SampleRunStage(const Database* db, const SampleDb* samples,
                 AggregateEstimateMode aggregate_mode,
                 ScanEstimateMode scan_mode, int num_threads = 1,
                 TaskRunner* task_runner = nullptr,
                 int64_t max_batch_size = 1024)
      : estimator_(db, samples, aggregate_mode, scan_mode, num_threads,
                   task_runner, max_batch_size) {}

  StatusOr<SampleRunOutput> Run(const SampleRunInput& input) const;

 private:
  SamplingEstimator estimator_;
};

/// Input to stage 2: the plan plus stage 1's output.
struct CostFitInput {
  const Plan* plan = nullptr;
  const SampleRunOutput* sample_run = nullptr;
};

/// Output of stage 2: per-operator fitted logical cost functions.
struct CostFitOutput {
  std::vector<OperatorCostFunctions> cost_functions;
};

/// Stage 2: fit the logical cost functions around the likely selectivity
/// ranges (paper §4).
class CostFitStage {
 public:
  CostFitStage(const Database* db, FitOptions options)
      : fitter_(db, options) {}

  StatusOr<CostFitOutput> Run(const CostFitInput& input) const;

 private:
  CostFunctionFitter fitter_;
};

/// Input to stage 3: stages 1-2 outputs, the calibrated cost units, and
/// the variant/bound knobs. The knobs AND the units live in the input (not
/// the stage) so ablations can re-run this stage alone under different
/// settings against cached artifacts — and so a running service can swap
/// calibration epochs without rebuilding any stage.
struct VarianceCombineInput {
  const SampleRunOutput* sample_run = nullptr;
  const CostFitOutput* cost_fit = nullptr;
  const CostUnits* units = nullptr;
  PredictorVariant variant = PredictorVariant::kAll;
  CovarianceBoundKind bound = CovarianceBoundKind::kBest;
};

/// Output of stage 3: the predicted running-time distribution.
struct VarianceCombineOutput {
  VarianceBreakdown breakdown;
};

/// Stage 3: combine the fitted cost functions, selectivity distributions
/// and calibrated cost-unit distributions into N(E[t_q], Var[t_q])
/// (paper §5, Algorithm 3). Infallible and cheap. Stateless: the units
/// arrive in the input (resolved from the owner's current
/// CalibrationSnapshot), so the stage stays freely copyable while
/// calibration became swappable at runtime.
class VarianceCombineStage {
 public:
  VarianceCombineOutput Run(const VarianceCombineInput& input) const;
};

/// The uncertainty-aware query execution time predictor (the paper's core
/// contribution), composed of three stages:
///   1. SampleRunStage — run the plan over the offline sample tables once,
///      extracting every operator's selectivity distribution (Algs. 1-2),
///   2. CostFitStage — fit the logical cost functions around the likely
///      selectivity ranges (§4),
///   3. VarianceCombineStage — combine with the calibrated cost-unit
///      distributions into N(E[t_q], Var[t_q]) (§5, Algorithm 3).
/// `PredictionService` drives the stages individually so it can cache
/// stage 1 and shard stages 2-3 across workers.
class PredictionPipeline {
 public:
  /// `task_runner` (optional) backs stage 1's intra-query fan-out when
  /// options.num_threads != 1 — the service layer passes its worker pool
  /// so plan-level and intra-plan tasks share one set of threads. The
  /// construction-time units become calibration epoch 1 ("offline").
  PredictionPipeline(const Database* db, const SampleDb* samples,
                     CostUnits units,
                     PredictorOptions options = PredictorOptions(),
                     TaskRunner* task_runner = nullptr)
      : PredictionPipeline(db, samples,
                           MakeCalibrationSnapshot(units, 1, "offline"),
                           options, task_runner) {}

  PredictionPipeline(const Database* db, const SampleDb* samples,
                     CalibrationPtr calibration, PredictorOptions options,
                     TaskRunner* task_runner = nullptr)
      : calibration_(std::move(calibration)),
        options_(options),
        sample_run_(db, samples, options.aggregate_mode, options.scan_mode,
                    options.num_threads, task_runner, options.max_batch_size),
        cost_fit_(db, options.fit) {}

  /// The current calibration snapshot (atomic load; safe to call while a
  /// concurrent SetCalibration publishes a new epoch). Every prediction
  /// resolves this exactly once, at stage-3 time.
  CalibrationPtr calibration() const {
    return std::atomic_load_explicit(&calibration_,
                                     std::memory_order_acquire);
  }
  /// Copy of the current snapshot's units (the snapshot may be swapped at
  /// any time, so no reference is handed out).
  CostUnits units() const { return calibration()->units; }

  /// Publishes a new calibration snapshot (atomic pointer swap).
  /// In-flight predictions that already resolved the old snapshot finish
  /// under it — bit-identical to a pre-swap prediction — and later ones
  /// see the new epoch. Stage 1-2 artifacts are unit-independent, so
  /// nothing else invalidates. Epoch monotonicity is the caller's
  /// contract (PredictionService::PublishCalibration serializes it).
  void SetCalibration(CalibrationPtr snapshot) {
    std::atomic_store_explicit(&calibration_, std::move(snapshot),
                               std::memory_order_release);
  }

  const PredictorOptions& options() const { return options_; }

  const SampleRunStage& sample_run_stage() const { return sample_run_; }
  const CostFitStage& cost_fit_stage() const { return cost_fit_; }
  const VarianceCombineStage& variance_combine_stage() const {
    return variance_combine_;
  }

  /// The number of times the stage-3 combination ran (Predict included).
  /// Monotone, relaxed; a test/bench seam for asserting that memoized
  /// epoch-stamped combines actually skip the combination work.
  uint64_t combine_count() const {
    return combine_count_.load(std::memory_order_relaxed);
  }

  /// All three stages in sequence.
  StatusOr<Prediction> Predict(const Plan& plan) const;

  /// Stage 3 only, from pre-computed stage 1-2 outputs (the fully cached
  /// path: a recurring plan re-runs just the variance combination), under
  /// exactly `snapshot` — pass calibration() for the current epoch. The
  /// service's epoch memo pins the snapshot so the epoch it stamps is the
  /// epoch it combined under, even while a publish races. The prediction
  /// aliases both artifacts — zero-copy, O(variance breakdown).
  Prediction PredictFromArtifacts(const StageArtifacts& artifacts,
                                  const CalibrationPtr& snapshot) const;

  /// Stage 3 only, under a different variant/bound (ablation reuse).
  /// Combines under the prediction's own calibration snapshot (falling
  /// back to the current one for foreign predictions), so recomputation
  /// is referentially transparent across concurrent epoch swaps.
  VarianceBreakdown Recompute(const Prediction& prediction,
                              PredictorVariant variant,
                              CovarianceBoundKind bound) const;

 private:
  /// Atomically swappable current snapshot; access only through
  /// std::atomic_load/store (calibration()/SetCalibration). Deliberately
  /// outside the mutex capability model (no GUARDED_BY): the swap IS the
  /// synchronization — readers resolve one coherent snapshot via the
  /// acquire load and never see a half-published epoch. Thread-safety
  /// analysis cannot model atomic shared_ptr protocols; TSan covers this
  /// path instead.
  CalibrationPtr calibration_;
  PredictorOptions options_;
  SampleRunStage sample_run_;
  CostFitStage cost_fit_;
  VarianceCombineStage variance_combine_;
  mutable std::atomic<uint64_t> combine_count_{0};
};

}  // namespace uqp
