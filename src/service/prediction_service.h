#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/pipeline.h"
#include "cost/snapshot.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "service/fault.h"
#include "service/feedback.h"

namespace uqp {

/// Cost-only degradation knobs: when stage 1 fails (or is quarantined by
/// the circuit breaker) and the request opted in with
/// RequestOptions::allow_degraded, the service serves a fallback built
/// from the optimizer's scalar cost alone — no sampling, no fitted cost
/// functions — flagged Prediction::degraded.
struct DegradedOptions {
  /// Milliseconds per optimizer cost unit (OptimizerScalarCost — the same
  /// PostgreSQL-weight scalar the cost-only scheduling baseline ranks by).
  /// Fit it like the simulator does (least squares through the origin
  /// against observed runtimes); the default 1.0 keeps the fallback
  /// monotone in cost even uncalibrated.
  double cost_scale_ms = 1.0;
  /// Relative error assumed for a family with no feedback history. The
  /// family's windowed mean |relative error| (FamilyRegistry) replaces
  /// it when larger — a family we already know we mispredict gets a wider
  /// degraded interval.
  double default_rel_error = 0.5;
  /// Variance inflation: sigma = mean * rel_error * inflation. >1 because
  /// a cost-only guess is strictly less informed than the sampling
  /// pipeline it stands in for.
  double inflation = 2.0;
};

/// Per-request resilience knobs. The zero value (no deadline, no
/// degradation) reproduces the historical behavior exactly.
struct RequestOptions {
  /// Wall-clock budget for this request, in milliseconds; <= 0 = none.
  /// A request past its deadline stops consuming pool time at the next
  /// operator/morsel boundary (cooperative cancellation through
  /// ExecOptions::cancelled) and resolves with Status::DeadlineExceeded —
  /// or a degraded prediction, see below. Deadlines bound WORK, not
  /// delivery: a result that is already free (cache hit, or a joined
  /// winner that finished anyway) is still served.
  double deadline_ms = 0.0;
  /// When true, a stage failure / deadline expiry / breaker shed resolves
  /// with a cost-only degraded prediction (Prediction::degraded == true)
  /// instead of the error status. See DegradedOptions.
  bool allow_degraded = false;
};

/// Configuration of the prediction service.
struct ServiceOptions {
  /// Worker threads for PredictAsync and PredictBatch sharding. 0 sizes
  /// the pool to the hardware concurrency, capped at 4 — prediction sits
  /// on the admission path and must not monopolize the machine it gates.
  ///
  /// The same pool (one engine MorselPool) also backs intra-plan
  /// parallelism when predictor.num_threads != 1: a lone cold request fans
  /// its sample run out across idle workers — every operator shards,
  /// including sort (fixed-shape blocked merge tree), aggregation
  /// (per-chunk tables merged in chunk order) and merge-join group
  /// emission — while a saturated service degrades gracefully: a worker
  /// takes the next queued request before helping a fan-out, and the
  /// thread running the prediction executes its own shards, i.e.
  /// one-thread-per-plan behavior. Results are bit-identical either way.
  int num_workers = 0;
  /// Capacity of the sample-run cache (distinct plan fingerprints held);
  /// 0 disables caching entirely. The capacity is enforced per shard
  /// (ceil(capacity / shards) entries each), so a shard under churn
  /// evicts locally instead of taking a global lock.
  size_t cache_capacity = 256;
  /// Number of independent shards — cache, in-flight table, plan registry
  /// and stats stripe each — rounded up to a power of two. 0 sizes to the
  /// hardware concurrency, clamped to [1, 64]. 1 degenerates to the
  /// historical single-mutex layout — the bench's contention baseline.
  int cache_shards = 0;
  /// When true (default), cache entries are additionally published into a
  /// per-shard, 2-way tagged slot array read with
  /// std::atomic_load(acquire): a hot-cache hit costs a couple of atomic
  /// loads, a key memcmp and a relaxed recency-tick store — no shard
  /// mutex, no global mutex. Two hot plans whose fingerprints collide on
  /// one slot index each keep a way, so both stay lock-free instead of
  /// perpetually displacing each other. When false, every hit goes
  /// through the shard mutex (the pre-sharding behavior, kept as the
  /// bench baseline and a differential-testing seam).
  bool lock_free_hits = true;
  /// Test seam: replaces PlanFingerprint as the cache/dedup hash when
  /// non-null. The structural-key confirmation still applies, so tests can
  /// force every plan onto one fingerprint to exercise collision handling.
  uint64_t (*fingerprint_fn)(const Plan&) = nullptr;
  /// Test seam: called after stages 1-2 of a cache miss run, before the
  /// artifacts are published to the cache. Lets tests interleave
  /// InvalidateCache deterministically with an in-flight prediction, and
  /// gate an in-flight winner while joiners park on it.
  std::function<void()> post_stages_hook;
  /// Online feedback loop (ReportObserved): per-plan-family error
  /// tracking, convergence detection, and drift-triggered recalibration.
  /// Disabled by default — the service then keeps zero feedback state.
  FeedbackOptions feedback;
  /// Test/bench seam: deterministic fault injection (see service/fault.h).
  /// Consulted once per stage-1 attempt (injected latency, injected
  /// failure) and once per async pool submit (spurious wakeups). Null — the
  /// production default — costs exactly one pointer test per site. Not
  /// owned; must outlive the service.
  FaultInjector* fault_injector = nullptr;
  /// Per-family circuit breaker: failure_threshold consecutive stage-1
  /// failures quarantine the family (requests shed without touching
  /// stage 1) until a half-open probe succeeds. failure_threshold == 0
  /// (default) disables the breaker entirely.
  BreakerOptions breaker;
  /// Cost-only fallback served when a request sets
  /// RequestOptions::allow_degraded and its stage work failed.
  DegradedOptions degraded;
  PredictorOptions predictor;
};

/// Monotonic counters exposed for tests and monitoring. Every prediction
/// request bumps exactly ONE cell of a per-stripe 2x4 resolution matrix
/// (hit/miss x ok/failed/degraded/deadline_exceeded) at the moment its
/// caller-visible result is decided — no global stats lock on the hot
/// path. `cache_hits`/`cache_misses` are the matrix row sums, the outcome
/// counters its column sums, and `predictions` the total, so BOTH
/// conservation invariants
///   cache_hits + cache_misses == predictions
///   ok_served + failed + degraded_served + deadline_exceeded == predictions
/// hold at every observable instant by construction — even sampled
/// mid-storm from another thread. A request that ran (or would have run —
/// breaker sheds included) stages 1-2 itself is a miss; a request served
/// from the cache or another request's in-flight execution is a hit.
struct ServiceStats {
  uint64_t predictions = 0;     ///< predictions served (single + batched + async)
  uint64_t batch_calls = 0;     ///< PredictBatch invocations
  uint64_t sample_runs = 0;     ///< SampleRunStage executions (stage 1)
  uint64_t fit_runs = 0;        ///< CostFitStage executions (stage 2)
  uint64_t cache_hits = 0;      ///< predictions that ran no stage-1/2 work
  uint64_t cache_misses = 0;    ///< predictions that ran stages themselves
  // --- per-request resolution outcomes (matrix column sums) ---
  uint64_t ok_served = 0;          ///< full-pipeline predictions delivered
  uint64_t failed = 0;             ///< requests resolved with a non-deadline
                                   ///< error status (stage failure, shed
                                   ///< without degradation)
  uint64_t degraded_served = 0;    ///< cost-only fallbacks delivered
                                   ///< (Prediction::degraded == true)
  uint64_t deadline_exceeded = 0;  ///< requests resolved DeadlineExceeded
  uint64_t lockfree_hits = 0;   ///< hits served by the mutex-free published
                                ///< slot path (subset of cache_hits)
  uint64_t inflight_joins = 0;  ///< requests that parked on an in-flight
                                ///< miss (any entry point), counted when
                                ///< they park — observable mid-run
  uint64_t stale_drops = 0;     ///< cache inserts dropped by InvalidateCache generation
  uint64_t plan_clones = 0;     ///< deep copies made by the async plan registry
                                ///< (interned duplicates don't re-clone)
  uint64_t async_rejects = 0;   ///< PredictAsync calls refused after Shutdown
  // --- calibration-epoch lifecycle + feedback loop ---
  uint64_t recombines = 0;        ///< cached entries lazily re-combined after a
                                  ///< calibration swap invalidated their
                                  ///< stage-3 memo (stage-1/2 untouched)
  uint64_t recalibrations = 0;    ///< drift-triggered snapshot publishes
  uint64_t feedback_reports = 0;  ///< ReportObserved calls accepted
  uint64_t feedback_dropped = 0;  ///< reports with no usable error (plan never
                                  ///< predicted, non-positive observation)
  uint64_t feedback_stash_hits = 0;  ///< reports for evicted/flushed plans
                                     ///< served from the family's
                                     ///< last-prediction stash instead of
                                     ///< being dropped
  uint64_t converged_families = 0;  ///< gauge: plan families currently
                                    ///< converged (no longer tracked)
  uint64_t feedback_families = 0;   ///< gauge: plan families ever reported
  // --- fault injection + circuit breaker ---
  uint64_t faults_injected = 0;    ///< stage-1 attempts replaced by an
                                   ///< injected failure (test seam)
  uint64_t spurious_wakeups = 0;   ///< injected no-op pool NotifyAll calls
  uint64_t breaker_opens = 0;      ///< family transitions to open
  uint64_t breaker_shed = 0;       ///< requests shed while a family was open
  uint64_t breaker_probes = 0;     ///< half-open probe runs admitted
};

/// Thread-safe, concurrent front end to the prediction pipeline — the
/// piece that lets the predictor sit on the admission path of a
/// multi-user system instead of being re-instantiated per query.
///
///   - Predict(plan): one prediction on the calling thread.
///   - PredictAsync(plan): one prediction on the worker pool, returned as
///     a future. Fire-and-forget safe: the service deep-copies (interns)
///     the plan into its own registry, so the caller may destroy the plan
///     the moment the call returns.
///   - PredictBatch(plans): shards stage work across the worker pool.
///
/// All paths cache per-plan stage artifacts keyed by plan fingerprint.
/// Per-fingerprint state lives in N shards, one record each holding the
/// cache, the in-flight dedup table, the async plan registry and a stats
/// stripe under one mutex, so requests for different plans never
/// serialize on a global lock. Within a shard, hot hits do not take the
/// shard mutex either: resident entries are published as immutable
/// shared_ptr bundles into a per-shard, 2-way tagged slot array read via
/// std::atomic_load(acquire); recency is a relaxed per-entry tick
/// (approximate LRU — eviction order is not part of the determinism
/// contract). Each entry stores the plan's
/// interned canonical structural key (PlanIdentity, serialized once per
/// distinct plan object and shared by reference), confirmed on every hit,
/// so a 64-bit fingerprint collision degrades to a miss instead of
/// serving another plan's artifacts.
///
/// Calibration is a versioned runtime artifact, not construction-time
/// state: the service owns an epoch-stamped, atomically swappable
/// CalibrationSnapshot (the construction units become epoch 1).
/// PublishCalibration installs a new epoch WITHOUT touching the cache —
/// stage-1/2 artifacts are unit-independent, so a swap invalidates only
/// each entry's memoized stage-3 combination: entries re-combine lazily
/// against the new epoch on their next hit (counted in
/// stats().recombines) instead of paying a full InvalidateCache.
/// ReportObserved feeds actual runtimes back in; per-plan-family error
/// windows converge (and stop paying tracking overhead) or drift (and
/// trigger a recalibration through FeedbackOptions::recalibrate).
///
/// Every entry point drives one request state machine: after a lock-free
/// hot-hit probe, a request looks its fingerprint up in its shard and is
/// either a hit (served from the cache), parked on another request's
/// in-flight run, or the owner of a new run, which executes stages 1-2
/// and then resolves itself and every parked joiner with the cheap
/// stage-3 combination. Each request is resolved exactly once. A parked
/// joiner holds no thread: async ones return their worker, and sync and
/// batch callers wait on their own request's future — bounded by the
/// deadline, after which they detach. So a same-fingerprint storm
/// occupies exactly one worker, never the pool. Served predictions alias
/// the immutable cached artifacts via shared_ptr (zero-copy), so a
/// hot-cache prediction costs at most one variance combination — and
/// exactly zero when the entry's memoized combination matches the current
/// calibration epoch. Every stage is deterministic: cached, batched, async
/// and sequential predictions are bit-identical.
class PredictionService {
 public:
  PredictionService(const Database* db, const SampleDb* samples,
                    CostUnits units, ServiceOptions options = ServiceOptions());
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  const PredictionPipeline& pipeline() const { return pipeline_; }
  const ServiceOptions& options() const { return options_; }
  /// The pool's helper threads (its calling-thread slot is not a worker).
  int num_workers() const { return runner_.num_threads() - 1; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Full prediction of one plan, on the calling thread. Safe to call
  /// concurrently from any number of threads. The plan is only read for
  /// the duration of the call. `opts` adds a deadline (cooperatively
  /// cancelled at the next operator/morsel boundary; a sync join past its
  /// deadline detaches from the winner and resolves immediately) and/or
  /// opts into cost-only degradation.
  StatusOr<Prediction> Predict(const Plan& plan, const RequestOptions& opts = {});

  /// Full prediction of one plan on the worker pool; returns immediately.
  /// The caller can overlap queueing/scheduling work with the prediction
  /// and collect the result when the admission decision is due.
  ///
  /// Ownership contract: the service owns everything it needs before
  /// returning — for a cold plan it interns a deep copy in its registry —
  /// so the caller may destroy (or move) the plan immediately after this
  /// call; the future stays valid and will be satisfied. Concurrent async
  /// misses on one fingerprint share a single stage-1/2 execution AND a
  /// single registry clone.
  ///
  /// Fast paths on the submitting thread (no clone, no queue trip): a
  /// cache hit returns an already-ready future after at most one cheap
  /// stage-3 combination — on a hot cache without touching any service
  /// mutex — and a plan already being sampled parks a plan-free
  /// continuation on the in-flight run. Only a genuine cold miss pays the
  /// clone and the pool round-trip.
  ///
  /// With a deadline, a request that expired while queued never runs the
  /// stages; its future resolves DeadlineExceeded or degraded. A parked
  /// dedup loser is resolved by its winner even past the deadline — the
  /// work was paid by someone else, delivery is free.
  ///
  /// After Shutdown() the returned future is never left unsatisfied:
  /// cache hits are still served inline, a plan already being sampled
  /// still parks on that run, and anything needing the pool is
  /// immediately ready with Status::Unavailable.
  std::future<StatusOr<Prediction>> PredictAsync(const Plan& plan,
                                                 const RequestOptions& opts = {});

  /// Predicts every plan, sharding across the worker pool (the calling
  /// thread participates). Results are positional; each plan gets its own
  /// Status. Bit-identical to calling Predict sequentially.
  ///
  /// Per-shard status contract: EVERY slot resolves to its own terminal
  /// status — a group whose stage run failed propagates that same failure
  /// (or a degraded fallback) to each of its slots; no placeholder status
  /// ever escapes, including on mid-batch faults. `opts` applies to every
  /// plan in the batch.
  std::vector<StatusOr<Prediction>> PredictBatch(
      const std::vector<const Plan*>& plans, const RequestOptions& opts = {});
  std::vector<StatusOr<Prediction>> PredictBatch(
      const std::vector<Plan>& plans, const RequestOptions& opts = {});

  /// Re-derives the distribution of an existing prediction under a
  /// different variant/bound without re-running any stage (the ablation /
  /// variant re-derivation path). Combines under the prediction's own
  /// calibration snapshot, so the result is stable across epoch swaps.
  VarianceBreakdown Recompute(const Prediction& prediction,
                              PredictorVariant variant,
                              CovarianceBoundKind bound) const;

  // ----- calibration-epoch lifecycle -----

  /// The current calibration snapshot (atomic load; never null). Every
  /// prediction records the snapshot it combined under in
  /// Prediction::calibration.
  CalibrationPtr calibration() const { return pipeline_.calibration(); }
  uint64_t calibration_epoch() const { return calibration()->epoch; }

  /// Atomically installs new cost units as the next calibration epoch and
  /// returns that epoch. Deliberately does NOT flush the artifact cache:
  /// stage-1/2 artifacts are unit-independent, so each cached entry only
  /// re-runs its (cheap) stage-3 combination lazily, on its next hit —
  /// see stats().recombines. In-flight predictions that already resolved
  /// the old snapshot finish under it, bit-identical to a pre-swap
  /// prediction. Tracked (non-converged) feedback windows reset: their
  /// errors were measured against the old epoch's predictions.
  uint64_t PublishCalibration(CostUnits units, std::string source = "manual");

  // ----- online feedback loop -----

  /// Reports the observed runtime of one executed plan, closing the loop
  /// between prediction and execution. Maintains a windowed relative-error
  /// series per plan family (keyed by fingerprint): a family whose window
  /// converges stops paying tracking overhead (no error computation, no
  /// window update — only a periodic probe); a family whose window drifts
  /// past FeedbackOptions::drift_threshold triggers one recalibration
  /// (FeedbackOptions::recalibrate → PublishCalibration) per cooldown.
  /// The error is computed against the family's cached prediction under
  /// the CURRENT epoch; a report for a plan that fell out of the cache
  /// (evicted or flushed) falls back to the family's last-prediction
  /// stash (counted in stats().feedback_stash_hits), so an
  /// evicted-but-reported family still tracks instead of dropping.
  /// Only a family that was never predicted at all drops its reports
  /// (stats().feedback_dropped). No-op unless
  /// ServiceOptions::feedback.enabled.
  void ReportObserved(const Plan& plan, double observed_ms);
  void ReportObserved(uint64_t fingerprint, double observed_ms);

  /// Same feedback path, but the error is computed against a
  /// caller-supplied decision-time prediction instead of the family's
  /// current cached one. This is the injection hook for simulated
  /// execution (the scheduling scenario suite): the simulator admits a
  /// query under prediction P, runs it, and reports the observed runtime
  /// against P even if the service has since recalibrated — the feedback
  /// series then measures the error of the predictions the *decisions*
  /// were actually made with. Refreshes the family's last-prediction
  /// stash like the cache-backed path.
  void ReportObservedAgainst(uint64_t fingerprint, const Prediction& as_decided,
                             double observed_ms);

  /// Per-family state (tests, benches, monitoring): window contents,
  /// update counters, convergence flags and circuit-breaker state, one
  /// row per family record (breaker-only families appear as rows with
  /// empty windows). Sorted by fingerprint. Empty when both feedback and
  /// the breaker are disabled.
  std::vector<FamilyFeedback> FeedbackSnapshot() const;

  /// Stops the worker pool: drains every task already enqueued (so every
  /// previously returned future is satisfied), joins the workers, and
  /// makes later PredictAsync calls that need the pool fail fast with
  /// Status::Unavailable instead of leaving their futures unsatisfied
  /// forever. Synchronous Predict/PredictBatch keep working (inline on the
  /// calling thread). Idempotent; called by the destructor.
  void Shutdown() { runner_.Shutdown(); }

  /// Snapshot of the service counters, summed over the shards' stripes;
  /// both conservation invariants hold in every snapshot.
  ServiceStats stats() const;

  /// Number of distinct fingerprints currently cached (summed over shards).
  size_t cache_size() const;

  /// Number of plans currently interned for outstanding async requests.
  /// Returns to 0 once every outstanding PredictAsync completed — the
  /// registry holds clones only as long as some request needs them.
  size_t plan_registry_size() const;

  /// Drops every cached sample run (e.g. after samples are rebuilt) and
  /// advances the cache generation: in-flight predictions that started
  /// before the flush still complete, but their artifacts are not
  /// re-inserted into the cache. One global (atomic) generation counter;
  /// the flush itself sweeps shard by shard. Lock-free hits validate the
  /// entry's insert generation against the global counter, so a hit that
  /// begins after the bump never serves a pre-flush artifact.
  ///
  /// This is the heavyweight invalidation — for a calibration change use
  /// PublishCalibration, which keeps every stage-1/2 artifact and costs
  /// one lazy stage-3 re-combination per cached entry instead.
  void InvalidateCache();

 private:
  /// The cached (shared, immutable) stage 1-2 artifacts of one plan.
  using Artifacts = StageArtifacts;
  using IdentityPtr = std::shared_ptr<const PlanIdentity>;

  /// Ways per published-slot index. Two, so a pair of hot plans whose
  /// fingerprints map to the same slot index coexist on the lock-free
  /// path instead of evicting each other on every publish.
  static constexpr size_t kSlotWays = 2;

  /// Resolved deadline/degradation state of one request, derived from its
  /// RequestOptions at submit time (so the budget is measured from
  /// submission, not from whenever a worker dequeues the request).
  struct RequestContext {
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    bool allow_degraded = false;
    bool Expired() const {
      return has_deadline && std::chrono::steady_clock::now() >= deadline;
    }
  };
  static RequestContext MakeContext(const RequestOptions& opts);

  /// How one request resolved — the second axis of the stats stripe's
  /// resolution matrix (see ServiceStats).
  enum class Outcome { kOk = 0, kFailed = 1, kDegraded = 2, kDeadline = 3 };
  static constexpr size_t kNumOutcomes = 4;

  /// One request of any entry point, from lookup to resolution — and the
  /// record a dedup joiner parks on the winner's in-flight entry. Its
  /// resolution needs nothing from the caller's plan, which a parked
  /// request may outlive (a PredictAsync caller, or a sync waiter that
  /// timed out, has already returned).
  struct Request {
    uint64_t fingerprint = 0;
    IdentityPtr identity;  ///< interned canonical structure (shared, not copied)
    /// The plan an owner runs stages on: the caller's (sync, batch — alive
    /// while the call runs Serve) or `owned_plan`. Never read once parked.
    const Plan* plan = nullptr;
    /// Registry clone held by a cold async request until it resolves.
    std::shared_ptr<const Plan> owned_plan;
    RequestContext ctx;
    /// OptimizerScalarCost, precomputed when ctx.allow_degraded so the
    /// degraded fallback needs no plan.
    double degraded_cost = 0.0;
    std::promise<StatusOr<Prediction>> promise;
    /// Claimed by the one Resolve that fulfills `promise`: a waiter timing
    /// out and the winner's drain may race to resolve a parked request.
    std::atomic<bool> claimed{false};
  };
  using RequestPtr = std::shared_ptr<Request>;

  /// One in-flight stage-1/2 execution: every request that finds it parks
  /// on `waiters`, and the owner resolves them all when its run completes.
  struct Inflight {
    explicit Inflight(IdentityPtr identity_in)
        : identity(std::move(identity_in)) {}
    IdentityPtr identity;  ///< structure of the plan being computed
    /// Parked joiners, guarded by the owning shard's mutex — not reachable
    /// from this declaration, so not expressible as GUARDED_BY. The
    /// discipline is structural: joiners park under shard.mu while the
    /// entry is in the shard's in-flight map (LookupArtifacts), and the
    /// completing thread detaches the whole list under the same lock
    /// (CompleteRun), so no joiner is ever lost.
    std::vector<RequestPtr> waiters;
  };

  /// Memoized stage-3 combination of one cache entry, stamped with the
  /// calibration epoch it was combined under. Epochs are unique
  /// (PublishCalibration serializes them), so an epoch match proves the
  /// breakdown is valid under the current units — serving it runs zero
  /// combination work. Immutable once published.
  struct CombineMemo {
    uint64_t epoch = 0;
    VarianceBreakdown breakdown;
  };
  using MemoPtr = std::shared_ptr<const CombineMemo>;

  /// One resident cache entry. Immutable after construction except for
  /// the recency tick and the stage-3 memo, so concurrent lock-free
  /// readers may copy the artifact bundle without synchronization beyond
  /// the acquire load that reached the entry.
  struct CacheEntry {
    uint64_t fingerprint = 0;
    IdentityPtr identity;  ///< interned key, confirmed on every hit
    Artifacts artifacts;
    uint64_t generation = 0;  ///< global generation at insert time
    /// Last-use tick from the shard's ticket counter; relaxed stores from
    /// hit paths, read under the shard mutex for (approximate-LRU)
    /// eviction. Approximation is fine: eviction order is not part of the
    /// determinism contract.
    mutable std::atomic<uint64_t> last_used{0};
    /// Epoch-stamped stage-3 memo; accessed only via std::atomic_load /
    /// atomic_store free functions (see CombineCached). A calibration
    /// swap makes it stale — never wrong — and the next hit lazily
    /// re-combines.
    mutable MemoPtr combined;
  };
  using EntryPtr = std::shared_ptr<const CacheEntry>;

  /// Per-shard stats stripe: monotone relaxed atomics on their own cache
  /// line, clear of the shard's mutex and maps. Neither `predictions` nor
  /// the hit/miss/outcome splits are stored separately — all are sums over
  /// the resolution matrix by definition, which is what makes BOTH
  /// snapshot invariants un-tearable.
  struct alignas(64) StatsStripe {
    /// The resolution matrix: [miss=0 / hit=1][Outcome]. Every request
    /// bumps exactly one cell, exactly once, at the moment its
    /// caller-visible result is decided.
    std::atomic<uint64_t> outcome[2][kNumOutcomes] = {};
    std::atomic<uint64_t> batch_calls{0};
    std::atomic<uint64_t> sample_runs{0};
    std::atomic<uint64_t> fit_runs{0};
    std::atomic<uint64_t> lockfree_hits{0};
    std::atomic<uint64_t> inflight_joins{0};
    std::atomic<uint64_t> stale_drops{0};
    std::atomic<uint64_t> plan_clones{0};
    std::atomic<uint64_t> async_rejects{0};
    std::atomic<uint64_t> recombines{0};
    std::atomic<uint64_t> recalibrations{0};
    std::atomic<uint64_t> feedback_reports{0};
    std::atomic<uint64_t> feedback_dropped{0};
    std::atomic<uint64_t> feedback_stash_hits{0};
    std::atomic<uint64_t> faults_injected{0};
    std::atomic<uint64_t> spurious_wakeups{0};
    std::atomic<uint64_t> breaker_opens{0};
    std::atomic<uint64_t> breaker_shed{0};
    std::atomic<uint64_t> breaker_probes{0};
  };

  /// One interned plan clone held for outstanding async requests.
  struct RegisteredPlan {
    std::shared_ptr<const Plan> plan;
    size_t refs = 0;
  };

  /// Everything the service keeps per fingerprint-mask slot: the cache,
  /// the in-flight table, the plan registry and the stats stripe. `slots`
  /// is the lock-free publication layer: a fixed direct-mapped array of
  /// kSlotWays-way shared_ptr slot groups accessed only through
  /// std::atomic_load/atomic_store — outside the mutex capability model by
  /// design (the published-slot read path is the one that must never take
  /// `mu`), so the slot protocol is covered by TSan and the generation
  /// check rather than GUARDED_BY; `entries` (under `mu`) is the
  /// authority for residency and capacity.
  struct alignas(64) Shard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, EntryPtr> entries UQP_GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::shared_ptr<Inflight>> inflight
        UQP_GUARDED_BY(mu);
    /// Plan clones owned for outstanding async requests, keyed by
    /// canonical structural key: two plans colliding on a forced
    /// fingerprint (test seam) still intern separately.
    std::unordered_map<std::string, RegisteredPlan> registry
        UQP_GUARDED_BY(mu);
    /// Published entries; size is (power of two) * kSlotWays, fixed at
    /// construction. Never resized, so concurrent element access is safe.
    std::vector<EntryPtr> slots;
    /// Monotone recency ticket; fetch_add(relaxed) per hit.
    std::atomic<uint64_t> ticket{0};
    StatsStripe stats;
  };

  Shard& ShardFor(uint64_t fingerprint) const {
    return shards_[static_cast<size_t>(fingerprint) & shard_mask_];
  }
  size_t SlotBase(uint64_t fingerprint) const {
    // The low bits picked the shard; the next bits pick the slot index;
    // each index owns kSlotWays consecutive ways.
    return (static_cast<size_t>(fingerprint >> shard_bits_) & slot_mask_) *
           kSlotWays;
  }

  uint64_t Fingerprint(const Plan& plan, const PlanIdentity& identity) const;

  /// Result of one pass over the shard's cache and in-flight table.
  struct Lookup {
    EntryPtr entry;       ///< cache hit
    bool parked = false;  ///< request parked on an in-flight run
    std::shared_ptr<Inflight> owned;  ///< in-flight entry this request owns
    uint64_t generation = 0;
  };

  /// The mutex-free hot-hit path every entry point tries first, before it
  /// allocates any Request or promise: probes the shard's published slot
  /// ways for a current-generation entry with this fingerprint and a
  /// confirmed structural key. On a hit, bumps the entry's recency tick
  /// (relaxed), serves `*out` through the epoch memo and records the
  /// request as a lock-free hit — no mutex anywhere. Returns false on any
  /// mismatch (empty ways, displaced entry, stale generation, collision).
  bool TryLockFreeHit(uint64_t fingerprint, const PlanIdentity& identity,
                      Prediction* out);

  /// The locked lookup step of the state machine, so the collision and
  /// generation rules live in exactly one place: probes the shard's cache
  /// (structural key confirmed, recency bumped, slot republished), then
  /// the shard's in-flight table, parking `req` on a joinable run —
  /// atomically with the lookup, so the winner cannot complete in between
  /// and lose it. On a full miss, registers `req` as the new in-flight
  /// owner when `register_owned`; PredictAsync's submit-time prefix passes
  /// false and enqueues instead. Does NOT classify the request.
  Lookup LookupArtifacts(const RequestPtr& req, bool register_owned);

  /// The request state machine: lookup → hit | park | own → stages →
  /// resolve. A hit or an owner resolves `req` before returning; a parked
  /// request is resolved by its winner (or by its own timed-out waiter).
  /// An owner whose deadline already passed never starts: it resolves
  /// DeadlineExceeded (or degraded) without registering or running stages.
  void Serve(const RequestPtr& req);

  /// The single resolution point of a request. The first caller claims it
  /// (later ones return without effect), converts a failure into the
  /// cost-only fallback when the request opted in, records its
  /// [hit][outcome] matrix cell, releases its registry plan — before the
  /// promise fires, so a caller that saw the future complete also sees the
  /// registry drained — and fulfills the promise.
  void Resolve(Request& req, StatusOr<Prediction> result, bool hit);

  /// A sync or batch caller's wait for its own request. Past the deadline
  /// the waiter detaches: it resolves DeadlineExceeded (or degraded)
  /// unless the winner's drain claimed the request first; the winner
  /// still completes and caches normally.
  StatusOr<Prediction> Await(Request& req,
                             std::future<StatusOr<Prediction>>& future);

  RequestPtr NewRequest(const Plan& plan, IdentityPtr identity,
                        uint64_t fingerprint, const RequestContext& ctx) const;

  /// Stage 3 on freshly computed (or joined) artifacts, under the current
  /// calibration snapshot; a failed run passes its status through.
  StatusOr<Prediction> Combine(const StatusOr<Artifacts>& artifacts) const;

  /// Serves a prediction from a resident entry through its epoch memo:
  /// if the memoized stage-3 result matches the current calibration
  /// epoch, zero combination work runs; otherwise the entry re-combines
  /// under the current snapshot and republishes the memo (counted in
  /// stats().recombines when a stale memo existed — i.e. on the first hit
  /// after a calibration swap). Does NOT classify the request.
  Prediction CombineCached(const EntryPtr& entry);

  /// Locked cache probe by fingerprint only (no identity confirmation) —
  /// the feedback path's "what do we currently predict for this family"
  /// lookup. Returns null when absent or stale.
  EntryPtr FindEntry(uint64_t fingerprint) const;

  /// Publishes `entry` into its slot group (shard mutex held): reuses the
  /// way already holding this fingerprint, else an empty way, else
  /// displaces the way with the older recency tick.
  void PublishSlotLocked(Shard& shard, const EntryPtr& entry)
      UQP_REQUIRES(shard.mu);
  /// Clears any way still pointing at `entry` (shard mutex held).
  void UnpublishSlotLocked(Shard& shard, const EntryPtr& entry)
      UQP_REQUIRES(shard.mu);

  /// Deep-copies (or reuses the already-interned copy of) `plan` into the
  /// fingerprint's shard registry and takes a reference; every Intern must
  /// be paired with one ReleasePlan(key, fingerprint). Both take the
  /// shard mutex, so neither may run under it.
  std::shared_ptr<const Plan> InternPlan(const Plan& plan,
                                         const std::string& key,
                                         uint64_t fingerprint);
  void ReleasePlan(const std::string& key, uint64_t fingerprint);

  /// Publishes a finished stage-1/2 run: removes the in-flight entry,
  /// inserts into the cache (unless the generation moved), and resolves
  /// every parked joiner with the run's result. `owned` may be null
  /// (collision solo run).
  void CompleteRun(const std::shared_ptr<Inflight>& owned, uint64_t fingerprint,
                   const IdentityPtr& identity, uint64_t generation,
                   const StatusOr<Artifacts>& result);

  /// Runs stages 1-2 for the plan, outside any lock. Consults the fault
  /// injector first (injected latency is slept here; an injected failure
  /// returns without running stage 1), then pre-checks the deadline, then
  /// runs the real stages with a cooperative cancellation probe derived
  /// from the deadline (checked at operator and morsel-shard boundaries).
  StatusOr<Artifacts> RunStages(const Plan& plan, uint64_t fingerprint,
                                const RequestContext& ctx);

  /// Bumps exactly one cell of the stripe's [hit][outcome] matrix (every
  /// stats invariant is a sum over those cells).
  void RecordOutcome(uint64_t fingerprint, bool hit, Outcome outcome,
                     bool lock_free = false);

  /// The Outcome a terminal result maps to.
  static Outcome OutcomeOf(const StatusOr<Prediction>& result) {
    if (result.ok()) return result->degraded ? Outcome::kDegraded : Outcome::kOk;
    return result.status().code() == StatusCode::kDeadlineExceeded
               ? Outcome::kDeadline
               : Outcome::kFailed;
  }

  /// Cost-only degraded fallback (Prediction::degraded == true): mean =
  /// OptimizerScalarCost * DegradedOptions::cost_scale_ms; sigma inflated
  /// from the family's windowed feedback error (or the configured default
  /// when the family has no history). Carries NO stage-1/2 artifacts.
  Prediction MakeDegraded(uint64_t fingerprint, double scalar_cost);

  /// The owner's step of the state machine: breaker admission, stage run,
  /// breaker verdict, CompleteRun. On a shed, the in-flight entry is
  /// completed with the quarantine status so its joiners resolve too.
  StatusOr<Artifacts> RunOwnedStages(const Request& req, const Lookup& lk);

  /// Injected spurious wakeup after a pool enqueue (test seam): an extra
  /// wake-all with nothing new to do, exercising the explicit predicate
  /// loops around every CondVar wait.
  void MaybeSpuriousWakeup();

  /// Inserts into the shard (shard mutex held) and publishes the slot. On
  /// a lost race the incumbent wins; on a fingerprint collision the
  /// newcomer replaces it. Evicts the least-recently-ticked entry when
  /// the shard exceeds its capacity share.
  void CachePutLocked(Shard& shard, uint64_t fingerprint,
                      const IdentityPtr& identity, Artifacts artifacts,
                      uint64_t generation) UQP_REQUIRES(shard.mu);

  /// Shared tail of both feedback entry points: counts the report, drops
  /// a non-positive observation, runs the family's Observe with
  /// `error_fn`, and acts on its verdict.
  void Report(uint64_t fingerprint, double observed_ms,
              const FamilyRegistry::ErrorFn& error_fn);

  /// Drift handler: at most one caller per cooldown re-derives the cost
  /// units (FeedbackOptions::recalibrate, run outside every lock) and
  /// publishes them as the next epoch. No-op in detect-only mode.
  void HandleDrift(uint64_t fingerprint);

  /// The worker pool: Submit serves PredictAsync requests in FIFO order,
  /// RunTasks shards PredictBatch groups and (through the pipeline's
  /// TaskRunner) intra-plan stage-1 work, so both share one set of
  /// threads. Declared first: it must outlive pipeline_.
  MorselPool runner_;
  PredictionPipeline pipeline_;
  ServiceOptions options_;
  /// The database the pipeline predicts against, kept for the degraded
  /// fallback's optimizer scalar cost (the pipeline owns its own copy of
  /// this pointer but does not expose it).
  const Database* db_ = nullptr;
  /// One record per plan family (feedback window, stash, breaker); null
  /// when feedback and the breaker are both disabled (zero overhead).
  std::unique_ptr<FamilyRegistry> families_;

  // ----- one record per fingerprint-mask slot: cache, in-flight dedup,
  // plan registry and stats stripe -----
  /// Sized once in the constructor (a power of two) and never resized.
  mutable std::vector<Shard> shards_;
  size_t shard_mask_ = 0;   ///< shards - 1
  unsigned shard_bits_ = 0; ///< log2(shard count)
  size_t slot_mask_ = 0;    ///< per-shard published slot indexes - 1
  size_t shard_capacity_ = 0;  ///< resident entries allowed per shard
  /// Global cache generation, bumped by InvalidateCache before the
  /// per-shard sweep. Lock-free hits and publish paths validate against
  /// it, so the counter — not any one shard's state — is the authority.
  std::atomic<uint64_t> generation_{0};

  /// Serializes epoch assignment (PublishCalibration): the snapshot
  /// pointer itself is lock-free (an atomic shared_ptr swap inside the
  /// pipeline, deliberately outside the mutex capability model — see
  /// PredictionPipeline::calibration_); this mutex only guarantees epochs
  /// are unique and monotone, so it guards no fields, just the
  /// read-increment-publish sequence.
  Mutex calibration_mu_;
};

}  // namespace uqp
