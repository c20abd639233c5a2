#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "cost/units.h"

namespace uqp {

/// Configuration of the online feedback loop (AQO-style
/// learn-until-converged: maintain per-plan-family relative-error windows,
/// stop tracking families whose predictions converged, recalibrate the
/// cost units when a family's windowed error diverges).
struct FeedbackOptions {
  /// Master switch. When false, ReportObserved is a no-op and the service
  /// keeps no per-family feedback state.
  bool enabled = false;
  /// Relative-error window per plan family (ring buffer). The convergence
  /// and drift tests both require a full window, so decisions are made on
  /// `window_size` observations, never one noisy report.
  size_t window_size = 8;
  /// A full window whose mean |relative error| is <= this converges the
  /// family: it stops paying the tracking overhead (no predicted-mean
  /// combination, no window update) except for the periodic probe below.
  double converge_threshold = 0.15;
  /// A full window whose mean |relative error| is >= this declares drift:
  /// the service re-derives the cost units (FeedbackOptions::recalibrate)
  /// and publishes a new calibration snapshot. Must exceed
  /// converge_threshold.
  double drift_threshold = 0.5;
  /// A converged family re-checks one observation every Nth report (0 =
  /// never). A probe whose |relative error| exceeds drift_threshold
  /// un-converges the family: the window restarts and the family is
  /// tracked again — this is how a converged family still notices a
  /// hardware change without paying per-report overhead.
  uint64_t probe_interval = 16;
  /// Minimum feedback reports between two drift-triggered
  /// recalibrations (counted across all families), so one machine-wide
  /// drift produces one recalibration, not one per drifting family.
  uint64_t cooldown_reports = 16;
  /// Re-derives the cost units when drift is detected — typically wired
  /// to Calibrator::Calibrate against the deployment's harness/machine.
  /// Null = detect-only (drift never publishes).
  std::function<CostUnits()> recalibrate;
};

/// Per-family circuit breaker: a family whose stage 1 keeps failing (a
/// poisoned plan, a broken sample binding) sheds load instead of burning
/// workers on doomed runs. Count-based — no clocks — so quarantine is
/// deterministic: `failure_threshold` consecutive stage failures open the
/// family; while open, requests shed (degraded/unavailable, stage 1
/// untouched); after `cooldown_requests` sheds one probe runs half-open,
/// and its success closes the breaker, its failure re-opens it.
struct BreakerOptions {
  /// Consecutive stage-1 failures before a family opens. 0 disables the
  /// breaker entirely (every Admit admits).
  int failure_threshold = 0;
  /// Shed requests while open before the next half-open probe is allowed.
  int cooldown_requests = 8;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* ToString(BreakerState state);

/// What the breaker decided for one incoming request.
struct BreakerDecision {
  /// Quarantined: do not run stage 1; resolve degraded or unavailable.
  bool shed = false;
  /// This request is the half-open probe: run stage 1; its result closes
  /// or re-opens the family.
  bool probe = false;
};

/// The family's last successfully computed prediction, kept so a report
/// arriving after the plan was evicted from the artifact cache (or flushed
/// by InvalidateCache) still yields an error instead of being dropped.
/// Written by the service's error callback on every cache-backed error
/// computation; read as the fallback when the cache lookup misses.
struct PredictionStash {
  double mean_ms = 0.0;  ///< predicted mean of the family's last prediction
  uint64_t epoch = 0;    ///< calibration epoch that prediction combined under
  bool valid = false;
};

/// Introspection snapshot of one plan family's feedback state (tests, the
/// drift_storm bench, monitoring).
struct FamilyFeedback {
  uint64_t fingerprint = 0;
  uint64_t reports = 0;         ///< observations reported for this family
  uint64_t window_updates = 0;  ///< times the error window actually changed
  bool converged = false;
  /// Window contents, oldest first (shorter than window_size while
  /// filling; frozen while converged).
  std::vector<double> window;
  /// Mean |relative error| over the current window (0 when empty).
  double windowed_mean_abs_error = 0.0;
  /// Last-prediction stash (see PredictionStash).
  PredictionStash stash;
  /// Circuit-breaker state for this family: "closed" with zero counters
  /// when no breaker is configured or the family never failed.
  const char* breaker_state = "closed";
  int breaker_consecutive_failures = 0;
  uint64_t breaker_opens = 0;
  uint64_t breaker_shed = 0;
};

/// The service's one record per plan family: the feedback loop's
/// windowed error series and last-prediction stash, and the circuit
/// breaker's state, side by side under one sharded, thread-safe table.
/// Pure bookkeeping: the registry never computes predictions, publishes
/// snapshots or counts service stats itself — the service wires those
/// through Observe's lazy error callback and the Action, BreakerDecision
/// and open verdict it gets back.
///
/// Determinism contract: for a fixed sequence of (fingerprint, error)
/// observations, the full state trajectory — window contents, convergence
/// flips, drift decisions — is bit-identical regardless of how many
/// threads the *predictions* used (extended parallel_parity_test); a fixed
/// sequence of stage verdicts walks the breaker identically too.
class FamilyRegistry {
 public:
  enum class Action {
    kDisabled,         ///< feedback off; nothing recorded
    kDropped,          ///< error not computable (plan not cached AND no
                       ///< last-prediction stash to fall back on); no update
    kTracked,          ///< error recorded, no decision yet
    kConverged,        ///< this report completed a converging window
    kSkippedConverged, ///< family converged: no combine, no window update
    kProbed,           ///< converged-family probe passed; still converged
    kResumed,          ///< probe failed: family un-converged, tracking again
    kDrift,            ///< windowed error diverged; caller should recalibrate
  };

  /// `shard_count` must be a power of two (the service passes its own).
  FamilyRegistry(FeedbackOptions feedback, BreakerOptions breaker,
                 size_t shard_count);

  /// Computes the signed relative error of one observation, lazily. The
  /// callback receives the family's last-prediction stash: on a cache hit
  /// it should refresh the stash with the prediction it compared against;
  /// on a cache miss (evicted/flushed plan) it may fall back to the
  /// stashed mean so the report still lands instead of dropping. Returns
  /// false only when no prediction exists anywhere to compare against.
  using ErrorFn = std::function<bool(PredictionStash* stash, double* error)>;

  /// Records one observation for the family. `error_fn` is invoked only
  /// when the family is actually tracked (or probed), which is exactly the
  /// overhead a converged family stops paying; it runs under the family
  /// shard's mutex, so stash reads/updates are serialized per family.
  /// Returns what happened.
  Action Observe(uint64_t fingerprint, const ErrorFn& error_fn);

  /// Serializes drift handling: returns true for exactly one caller per
  /// cooldown window (checked against total reports). The winner should
  /// recalibrate and publish; losers skip.
  bool ClaimDrift();

  /// Called after a calibration snapshot is published: tracked families'
  /// windows reset (their errors were measured against the old epoch's
  /// predictions), converged families stay converged — their predictions
  /// follow the new units automatically through lazy re-combination.
  void OnPublish();

  /// Routes one incoming request for `fingerprint` through the breaker.
  /// Never blocks on stage work; at most one probe is in flight per family.
  BreakerDecision Admit(uint64_t fingerprint);

  /// Reports a stage-1 outcome (including injected faults and deadline
  /// cancellations — a run that could not complete is a failure). Returns
  /// true iff this result OPENED the breaker (closed/half-open -> open).
  bool OnStageResult(uint64_t fingerprint, bool ok);

  bool feedback_enabled() const {
    return feedback_.enabled && feedback_.window_size > 0;
  }
  bool breaker_enabled() const { return breaker_.failure_threshold > 0; }

  uint64_t total_reports() const {
    return total_reports_.load(std::memory_order_relaxed);
  }
  /// Families that received at least one report (breaker-only rows are
  /// not feedback families).
  size_t family_count() const;
  size_t converged_count() const;

  /// Full per-family state — every family the feedback loop or the
  /// breaker touched, breaker-only ones with empty windows — sorted by
  /// fingerprint (deterministic order).
  std::vector<FamilyFeedback> Snapshot() const;

  /// The family's current windowed mean |relative error|, if it has one.
  /// Returns false (leaving *error untouched) when feedback is disabled
  /// or the family has an empty window. The degraded-mode predictor uses
  /// this to inflate its variance from the family's observed error
  /// history.
  bool WindowedError(uint64_t fingerprint, double* error) const;

 private:
  struct Family {
    std::vector<double> window;  ///< ring buffer of signed relative errors
    size_t next = 0;
    size_t filled = 0;
    uint64_t reports = 0;
    uint64_t window_updates = 0;
    bool converged = false;
    /// Last successfully computed prediction (see PredictionStash): the
    /// fallback comparison point for evicted-but-reported plans.
    PredictionStash stash;
    // Circuit breaker.
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    int sheds_since_open = 0;
    bool probe_inflight = false;
    uint64_t opens = 0;  ///< times this family transitioned to open
    uint64_t shed = 0;   ///< requests this family shed while open
  };
  struct alignas(64) Shard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, Family> families UQP_GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t fingerprint) const {
    return shards_[static_cast<size_t>(fingerprint) & mask_];
  }
  void Push(Family* family, double error) const;
  double WindowMeanAbs(const Family& family) const;

  const FeedbackOptions feedback_;
  const BreakerOptions breaker_;
  mutable std::vector<Shard> shards_;
  const size_t mask_;

  std::atomic<uint64_t> total_reports_{0};
  /// Guards the drift cooldown bookkeeping (claims + publish watermark).
  mutable Mutex drift_mu_;
  bool any_claim_ UQP_GUARDED_BY(drift_mu_) = false;
  uint64_t reports_at_last_claim_ UQP_GUARDED_BY(drift_mu_) = 0;
};

}  // namespace uqp
