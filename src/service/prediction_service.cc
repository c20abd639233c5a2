#include "service/prediction_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "engine/cost_model.h"
#include "engine/expr.h"

namespace uqp {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// ServiceOptions::num_workers resolved: 0 sizes to the hardware
/// concurrency, capped at 4.
int ResolveWorkers(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, std::max(1u, hw)));
}

/// ServiceOptions::cache_shards resolved and rounded up to a power of two.
/// 0 gives one shard per hardware thread — enough to make same-shard mutex
/// collisions rare under a uniform fingerprint mix — capped at 64 so a
/// huge machine doesn't fragment a small cache_capacity into nothing.
size_t ResolveShards(int requested) {
  if (requested <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = static_cast<int>(std::min(64u, std::max(1u, hw)));
  }
  return RoundUpPow2(static_cast<size_t>(requested));
}

}  // namespace

PredictionService::PredictionService(const Database* db, const SampleDb* samples,
                                     CostUnits units, ServiceOptions options)
    // The workers plus the slot MorselPool counts for its calling thread.
    : runner_(ResolveWorkers(options.num_workers) + 1),
      pipeline_(db, samples, units, options.predictor, &runner_),
      options_(std::move(options)),
      db_(db),
      shards_(ResolveShards(options_.cache_shards)) {
  const size_t shard_count = shards_.size();
  shard_mask_ = shard_count - 1;
  shard_bits_ = 0;
  while ((size_t{1} << shard_bits_) < shard_count) ++shard_bits_;
  // Global capacity enforced per shard: each shard owns an equal share
  // (rounded up, so capacity 1 still caches one entry per shard rather
  // than zero). Transient overshoot of the global count under skew is the
  // price of never taking a global lock to evict.
  shard_capacity_ =
      options_.cache_capacity == 0
          ? 0
          : (options_.cache_capacity + shard_count - 1) / shard_count;
  // Published-slot array: direct-mapped by the fingerprint bits above the
  // shard index, 2x the resident capacity so two live entries rarely fight
  // over one slot group (a displaced entry just costs its readers the
  // locked path — never correctness), and kSlotWays ways per index so the
  // entries that DO share a group coexist instead of thrashing.
  const size_t slot_count = RoundUpPow2(
      std::min<size_t>(4096, std::max<size_t>(16, 2 * shard_capacity_)));
  slot_mask_ = slot_count - 1;
  for (Shard& shard : shards_) shard.slots.resize(slot_count * kSlotWays);

  const bool feedback_on =
      options_.feedback.enabled && options_.feedback.window_size > 0;
  if (feedback_on || options_.breaker.failure_threshold > 0) {
    families_.reset(
        new FamilyRegistry(options_.feedback, options_.breaker, shard_count));
  }
}

// Queued requests touch the shards: drain the pool before any member is
// destroyed.
PredictionService::~PredictionService() { Shutdown(); }

uint64_t PredictionService::Fingerprint(const Plan& plan,
                                        const PlanIdentity& identity) const {
  return options_.fingerprint_fn != nullptr ? options_.fingerprint_fn(plan)
                                            : identity.fingerprint;
}

std::shared_ptr<const Plan> PredictionService::InternPlan(
    const Plan& plan, const std::string& key, uint64_t fingerprint) {
  Shard& shard = ShardFor(fingerprint);
  {
    MutexLock lock(&shard.mu);
    auto it = shard.registry.find(key);
    if (it != shard.registry.end()) {
      ++it->second.refs;
      return it->second.plan;
    }
  }
  // Deep-copy outside the lock: the clone walks every node, schema and
  // expression of the plan, and must not stall the shard's lookups.
  auto clone = std::make_shared<const Plan>(plan.Clone());
  MutexLock lock(&shard.mu);
  auto [it, inserted] = shard.registry.try_emplace(key);
  if (inserted) {
    it->second.plan = std::move(clone);
    shard.stats.plan_clones.fetch_add(1, std::memory_order_relaxed);
  }
  // else: a concurrent submitter interned first — use its copy, drop ours.
  ++it->second.refs;
  return it->second.plan;
}

void PredictionService::ReleasePlan(const std::string& key,
                                    uint64_t fingerprint) {
  Shard& shard = ShardFor(fingerprint);
  MutexLock lock(&shard.mu);
  auto it = shard.registry.find(key);
  if (it != shard.registry.end() && --it->second.refs == 0) {
    shard.registry.erase(it);
  }
}

size_t PredictionService::plan_registry_size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    total += shard.registry.size();
  }
  return total;
}

void PredictionService::RecordOutcome(uint64_t fingerprint, bool hit,
                                      Outcome outcome, bool lock_free) {
  StatsStripe& stripe = ShardFor(fingerprint).stats;
  // Exactly one matrix cell moves per request, and every reported
  // aggregate (predictions, the hit/miss split, the outcome split) is a
  // sum over cells — neither invariant can tear. (inflight_joins is NOT
  // bumped here: joiners are counted when they park/join in
  // LookupArtifacts, so tests can observe the join while the winner is
  // still mid-stages.)
  stripe.outcome[hit ? 1 : 0][static_cast<size_t>(outcome)].fetch_add(
      1, std::memory_order_relaxed);
  if (lock_free) {
    stripe.lockfree_hits.fetch_add(1, std::memory_order_relaxed);
  }
}

PredictionService::RequestContext PredictionService::MakeContext(
    const RequestOptions& opts) {
  RequestContext ctx;
  ctx.allow_degraded = opts.allow_degraded;
  if (opts.deadline_ms > 0.0) {
    ctx.has_deadline = true;
    ctx.deadline = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(
                       static_cast<int64_t>(std::llround(opts.deadline_ms * 1000.0)));
  }
  return ctx;
}

Prediction PredictionService::MakeDegraded(uint64_t fingerprint,
                                           double scalar_cost) {
  const DegradedOptions& dg = options_.degraded;
  const double mean = std::max(0.0, scalar_cost) * dg.cost_scale_ms;
  // The degraded interval is widest where we already know we mispredict:
  // the family's windowed feedback error replaces the configured default
  // when larger, then the whole sigma is inflated — a cost-only guess is
  // strictly less informed than the sampling pipeline it stands in for.
  double rel = dg.default_rel_error;
  if (families_ != nullptr) {
    double windowed = 0.0;
    if (families_->WindowedError(fingerprint, &windowed)) {
      rel = std::max(rel, windowed);
    }
  }
  const double sigma = mean * rel * dg.inflation;
  Prediction out;
  out.breakdown.mean = mean;
  out.breakdown.variance = sigma * sigma;
  out.degraded = true;
  out.calibration = pipeline_.calibration();
  return out;
}

void PredictionService::MaybeSpuriousWakeup() {
  if (options_.fault_injector == nullptr) return;
  if (!options_.fault_injector->InjectSpuriousWakeup()) return;
  // Nothing new to run: every worker that wakes must fall back asleep
  // through its predicate loop. Fires outside the pool mutex deliberately —
  // a naked notify is exactly the hostile shape the loops must absorb.
  runner_.WakeAll();
  shards_[0].stats.spurious_wakeups.fetch_add(1, std::memory_order_relaxed);
}

bool PredictionService::TryLockFreeHit(uint64_t fingerprint,
                                       const PlanIdentity& identity,
                                       Prediction* out) {
  if (!options_.lock_free_hits || options_.cache_capacity == 0) return false;
  Shard& shard = ShardFor(fingerprint);
  const size_t base = SlotBase(fingerprint);
  for (size_t way = 0; way < kSlotWays; ++way) {
    EntryPtr entry = std::atomic_load_explicit(&shard.slots[base + way],
                                               std::memory_order_acquire);
    if (entry == nullptr || entry->fingerprint != fingerprint) continue;
    // An entry inserted before the last InvalidateCache must not be
    // served: validate its insert generation against the global counter,
    // so a stale published slot fails here even before the flush sweep
    // reaches it.
    if (entry->generation != generation_.load(std::memory_order_acquire)) {
      continue;
    }
    // Confirm the canonical structure (64-bit collisions degrade to the
    // locked path, which treats them as misses). The interned identity
    // makes the common case a pointer compare.
    if (entry->identity.get() != &identity &&
        entry->identity->key != identity.key) {
      continue;
    }
    entry->last_used.store(
        shard.ticket.fetch_add(1, std::memory_order_relaxed),
        std::memory_order_relaxed);
    *out = CombineCached(entry);
    RecordOutcome(fingerprint, /*hit=*/true, Outcome::kOk, /*lock_free=*/true);
    return true;
  }
  return false;
}

void PredictionService::PublishSlotLocked(Shard& shard, const EntryPtr& entry) {
  const size_t base = SlotBase(entry->fingerprint);
  // Way choice: reuse the way already holding this fingerprint, else an
  // empty way, else displace the colder (older recency tick) way. Two hot
  // plans sharing one slot index thus each keep a way and both stay on
  // the lock-free path — a single-way design would let them displace each
  // other on every publish.
  size_t victim = base;
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  bool chosen = false;
  bool victim_empty = false;
  for (size_t way = 0; way < kSlotWays; ++way) {
    const EntryPtr cur = std::atomic_load_explicit(&shard.slots[base + way],
                                                   std::memory_order_relaxed);
    if (cur != nullptr && cur->fingerprint == entry->fingerprint) {
      victim = base + way;
      break;
    }
    if (cur == nullptr) {
      if (!victim_empty) {  // an empty way beats any occupied one
        victim = base + way;
        victim_empty = true;
        chosen = true;
      }
      continue;
    }
    const uint64_t tick = cur->last_used.load(std::memory_order_relaxed);
    if (!chosen || (!victim_empty && tick < oldest)) {
      victim = base + way;
      oldest = tick;
      chosen = true;
    }
  }
  std::atomic_store_explicit(&shard.slots[victim], EntryPtr(entry),
                             std::memory_order_release);
}

void PredictionService::UnpublishSlotLocked(Shard& shard,
                                            const EntryPtr& entry) {
  const size_t base = SlotBase(entry->fingerprint);
  for (size_t way = 0; way < kSlotWays; ++way) {
    auto& slot = shard.slots[base + way];
    // Clear only the way still pointing at this entry; concurrent
    // lock-free readers that already loaded the pointer keep the entry
    // alive through their shared_ptr.
    if (std::atomic_load_explicit(&slot, std::memory_order_relaxed) == entry) {
      std::atomic_store_explicit(&slot, EntryPtr(), std::memory_order_release);
    }
  }
}

void PredictionService::CachePutLocked(Shard& shard, uint64_t fingerprint,
                                       const IdentityPtr& identity,
                                       Artifacts artifacts,
                                       uint64_t generation) {
  const uint64_t tick = shard.ticket.fetch_add(1, std::memory_order_relaxed);
  auto it = shard.entries.find(fingerprint);
  if (it != shard.entries.end()) {
    if (it->second->identity->key == identity->key) {
      // A concurrent miss on the same plan got here first; both artifacts
      // are identical (deterministic stages), keep the incumbent.
      it->second->last_used.store(tick, std::memory_order_relaxed);
      PublishSlotLocked(shard, it->second);
      return;
    }
    // Fingerprint collision with a structurally different plan: the entry
    // goes to the newcomer (the most recent user), like any LRU update.
    UnpublishSlotLocked(shard, it->second);
    shard.entries.erase(it);
  }
  auto entry = std::make_shared<CacheEntry>();
  entry->fingerprint = fingerprint;
  entry->identity = identity;
  entry->artifacts = std::move(artifacts);
  entry->generation = generation;
  entry->last_used.store(tick, std::memory_order_relaxed);
  EntryPtr resident = std::move(entry);
  shard.entries[fingerprint] = resident;
  PublishSlotLocked(shard, resident);
  // Approximate LRU: evict the smallest recency tick. The O(shard
  // capacity) scan runs only on insert-past-capacity, under the shard
  // lock only — eviction order is explicitly not part of the determinism
  // contract.
  while (shard_capacity_ > 0 && shard.entries.size() > shard_capacity_) {
    auto victim = shard.entries.begin();
    uint64_t oldest = victim->second->last_used.load(std::memory_order_relaxed);
    for (auto cand = std::next(shard.entries.begin());
         cand != shard.entries.end(); ++cand) {
      const uint64_t t = cand->second->last_used.load(std::memory_order_relaxed);
      if (t < oldest) {
        oldest = t;
        victim = cand;
      }
    }
    UnpublishSlotLocked(shard, victim->second);
    shard.entries.erase(victim);
  }
}

void PredictionService::InvalidateCache() {
  // Bump the global generation FIRST: from this instant no lock-free hit
  // validates against a pre-flush entry and no in-flight run re-inserts
  // one, even in shards the sweep below hasn't reached yet.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    shard.entries.clear();
    for (auto& slot : shard.slots) {
      std::atomic_store_explicit(&slot, EntryPtr(), std::memory_order_release);
    }
    // Detach in-flight runs: their waiters still get a (pre-flush) result —
    // parked requests live on the Inflight object, not in this map, so the
    // completing thread still resolves them — but new requests must not
    // join the detached run, and the generation bump above keeps its late
    // CachePut out of the flushed cache.
    shard.inflight.clear();
  }
}

size_t PredictionService::cache_size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    total += shard.entries.size();
  }
  return total;
}

StatusOr<PredictionService::Artifacts> PredictionService::RunStages(
    const Plan& plan, uint64_t fingerprint, const RequestContext& ctx) {
  StatsStripe& stripe = ShardFor(fingerprint).stats;
  if (options_.fault_injector != nullptr) {
    const FaultDecision decision =
        options_.fault_injector->OnSampleRun(fingerprint);
    if (decision.latency_ms > 0.0) {
      // A degraded machine is slow first, broken second: the injected
      // latency lands before the verdict either way, so a delayed attempt
      // can also blow its deadline below.
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(std::llround(decision.latency_ms * 1000.0))));
    }
    if (!decision.status.ok()) {
      // The injected failure replaces the stage run entirely: sample_runs
      // deliberately does not move, so a quarantined family's "stopped
      // consuming stage-1 work" is visible in BOTH counters.
      stripe.faults_injected.fetch_add(1, std::memory_order_relaxed);
      return decision.status;
    }
  }
  if (ctx.Expired()) {
    // Don't start a sample run we already know we won't deliver from —
    // the pool stops spending time on this request here.
    return Status::DeadlineExceeded("deadline expired before stage 1");
  }
  stripe.sample_runs.fetch_add(1, std::memory_order_relaxed);
  SampleRunInput run_in;
  run_in.plan = &plan;
  std::function<bool()> cancel;
  if (ctx.has_deadline) {
    // Cooperative cancellation: the executor polls this at operator and
    // morsel-shard boundaries, so an expired run returns its workers at
    // the next boundary instead of completing a doomed sample run.
    const auto deadline = ctx.deadline;
    cancel = [deadline] {
      return std::chrono::steady_clock::now() >= deadline;
    };
    run_in.cancelled = &cancel;
  }
  UQP_ASSIGN_OR_RETURN(SampleRunOutput run_out,
                       pipeline_.sample_run_stage().Run(run_in));
  Artifacts artifacts;
  artifacts.run = std::make_shared<const SampleRunOutput>(std::move(run_out));
  stripe.fit_runs.fetch_add(1, std::memory_order_relaxed);
  CostFitInput fit_in;
  fit_in.plan = &plan;
  fit_in.sample_run = artifacts.run.get();
  UQP_ASSIGN_OR_RETURN(CostFitOutput fit_out,
                       pipeline_.cost_fit_stage().Run(fit_in));
  artifacts.fit = std::make_shared<const CostFitOutput>(std::move(fit_out));
  return artifacts;
}

StatusOr<PredictionService::Artifacts> PredictionService::RunOwnedStages(
    const Request& req, const Lookup& lk) {
  const uint64_t fingerprint = req.fingerprint;
  StatsStripe& stripe = ShardFor(fingerprint).stats;
  if (families_ != nullptr) {
    const BreakerDecision admit = families_->Admit(fingerprint);
    if (admit.probe) {
      stripe.breaker_probes.fetch_add(1, std::memory_order_relaxed);
    }
    if (admit.shed) {
      stripe.breaker_shed.fetch_add(1, std::memory_order_relaxed);
      // Quarantined: stage 1 is not consulted at all (the fault injector
      // included — a shed is invisible to the schedule's attempt count).
      // The in-flight entry this request registered still completes, so
      // every parked joiner resolves with the same quarantine status
      // instead of waiting forever.
      const StatusOr<Artifacts> result(
          Status::Unavailable("plan family quarantined by circuit breaker"));
      CompleteRun(lk.owned, fingerprint, req.identity, lk.generation, result);
      return result;
    }
    // admit.probe runs the stages normally; its verdict below closes or
    // re-opens the family.
  }
  StatusOr<Artifacts> result = RunStages(*req.plan, fingerprint, req.ctx);
  if (options_.post_stages_hook) options_.post_stages_hook();
  // Injected faults and deadline cancellations count as failures: a run
  // that could not complete is a failure from the family's viewpoint.
  if (families_ != nullptr &&
      families_->OnStageResult(fingerprint, result.ok())) {
    stripe.breaker_opens.fetch_add(1, std::memory_order_relaxed);
  }
  CompleteRun(lk.owned, fingerprint, req.identity, lk.generation, result);
  return result;
}

Prediction PredictionService::CombineCached(const EntryPtr& entry) {
  const CalibrationPtr snapshot = pipeline_.calibration();
  MemoPtr memo =
      std::atomic_load_explicit(&entry->combined, std::memory_order_acquire);
  if (memo != nullptr && memo->epoch == snapshot->epoch) {
    // Epochs are unique (PublishCalibration serializes them), so an epoch
    // match proves this breakdown was combined under exactly `snapshot` —
    // serve it with zero combination work.
    Prediction out;
    out.breakdown = memo->breakdown;
    out.sample_run = entry->artifacts.run;
    out.cost_fit = entry->artifacts.fit;
    out.calibration = snapshot;
    return out;
  }
  Prediction out = pipeline_.PredictFromArtifacts(entry->artifacts, snapshot);
  if (memo != nullptr) {
    // A stale memo means a calibration swap landed since this entry last
    // served: this lazy per-entry re-combination is the entire
    // invalidation cost of a swap — the stage-1/2 artifacts above were
    // reused untouched.
    ShardFor(entry->fingerprint)
        .stats.recombines.fetch_add(1, std::memory_order_relaxed);
  }
  auto fresh = std::make_shared<CombineMemo>();
  fresh->epoch = snapshot->epoch;
  fresh->breakdown = out.breakdown;
  // Benign race: a concurrent combiner under a newer epoch may be
  // overwritten by this older store; the next hit just re-combines. The
  // memo is a cache of deterministic work — staleness costs time, never
  // correctness (served predictions always use their own `snapshot`).
  std::atomic_store_explicit(&entry->combined, MemoPtr(std::move(fresh)),
                             std::memory_order_release);
  return out;
}

PredictionService::EntryPtr PredictionService::FindEntry(
    uint64_t fingerprint) const {
  if (options_.cache_capacity == 0) return nullptr;
  Shard& shard = ShardFor(fingerprint);
  MutexLock lock(&shard.mu);
  auto it = shard.entries.find(fingerprint);
  if (it == shard.entries.end()) return nullptr;
  if (it->second->generation != generation_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  return it->second;
}

void PredictionService::CompleteRun(const std::shared_ptr<Inflight>& owned,
                                    uint64_t fingerprint,
                                    const IdentityPtr& identity,
                                    uint64_t generation,
                                    const StatusOr<Artifacts>& result) {
  std::vector<RequestPtr> waiters;
  Shard& shard = ShardFor(fingerprint);
  {
    MutexLock lock(&shard.mu);
    if (owned != nullptr) {
      auto it = shard.inflight.find(fingerprint);
      if (it != shard.inflight.end() && it->second == owned) {
        shard.inflight.erase(it);
      }
      // Detach the waiter list under the same lock that guards parking:
      // once the entry is unreachable no new joiner can park, so none is
      // ever lost. (If InvalidateCache already detached the entry, the
      // waiters parked before the flush are still here.)
      waiters = std::move(owned->waiters);
    }
    if (options_.cache_capacity > 0 && result.ok()) {
      if (generation_.load(std::memory_order_acquire) == generation) {
        CachePutLocked(shard, fingerprint, identity, result.value(),
                       generation);
      } else {
        // InvalidateCache ran while this prediction was in flight: its
        // artifacts may predate the flush, drop the insert.
        shard.stats.stale_drops.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Resolve every parked joiner with the cheap stage-3 combination
  // (continuation handoff): async joiners returned their workers long ago,
  // so a same-fingerprint storm never starves the pool. On a failed run
  // every joiner receives this same status (or its own degraded fallback)
  // — the winner's error is the group's error, never a placeholder.
  for (const RequestPtr& w : waiters) Resolve(*w, Combine(result), /*hit=*/true);
}

PredictionService::Lookup PredictionService::LookupArtifacts(
    const RequestPtr& req, bool register_owned) {
  Lookup lk;
  const uint64_t fingerprint = req->fingerprint;
  Shard& shard = ShardFor(fingerprint);
  MutexLock lock(&shard.mu);
  lk.generation = generation_.load(std::memory_order_acquire);
  if (options_.cache_capacity > 0) {
    auto it = shard.entries.find(fingerprint);
    // Confirm the canonical structure: a fingerprint collision must be
    // a miss, never another plan's artifacts.
    if (it != shard.entries.end() &&
        it->second->identity->key == req->identity->key) {
      const EntryPtr& entry = it->second;
      entry->last_used.store(shard.ticket.fetch_add(1, std::memory_order_relaxed),
                             std::memory_order_relaxed);
      // Republish: the entry may have been displaced from its slot ways by
      // slot-index neighbours; the most recent user wins a way back.
      PublishSlotLocked(shard, entry);
      lk.entry = entry;
      return lk;
    }
  }
  auto it = shard.inflight.find(fingerprint);
  if (it != shard.inflight.end() &&
      it->second->identity->key == req->identity->key) {
    // Park on the in-flight record: the winner resolves this request with
    // one cheap stage-3 run. The join is counted NOW, so a gated winner's
    // joiners are observable while it is still mid-stages.
    it->second->waiters.push_back(req);
    lk.parked = true;
    shard.stats.inflight_joins.fetch_add(1, std::memory_order_relaxed);
  } else if (it == shard.inflight.end() && register_owned) {
    lk.owned = std::make_shared<Inflight>(req->identity);
    shard.inflight.emplace(fingerprint, lk.owned);
  }
  // else: the fingerprint is in flight for a structurally different plan
  // (hash collision) — run solo, without registering.
  return lk;
}

void PredictionService::Serve(const RequestPtr& req) {
  // An owner past its deadline must not start stage work, but a hit or a
  // join is still free: deadlines bound work, not delivery. So an expired
  // request looks up without registering ownership.
  const bool expired = req->ctx.Expired();
  const Lookup lk = LookupArtifacts(req, /*register_owned=*/!expired);
  if (lk.parked) return;  // resolved by the winner (or a timed-out waiter)
  if (lk.entry != nullptr) {
    Resolve(*req, CombineCached(lk.entry), /*hit=*/true);
    return;
  }
  if (expired) {
    Resolve(*req,
            Status::DeadlineExceeded("deadline expired before the request started"),
            /*hit=*/false);
    return;
  }
  // This request runs (or is shed from) the stages itself: a miss.
  Resolve(*req, Combine(RunOwnedStages(*req, lk)), /*hit=*/false);
}

void PredictionService::Resolve(Request& req, StatusOr<Prediction> result,
                                bool hit) {
  if (req.claimed.exchange(true, std::memory_order_acq_rel)) return;
  if (!result.ok() && req.ctx.allow_degraded) {
    result = MakeDegraded(req.fingerprint, req.degraded_cost);
  }
  if (req.owned_plan != nullptr) {
    ReleasePlan(req.identity->key, req.fingerprint);
    req.owned_plan.reset();
  }
  RecordOutcome(req.fingerprint, hit, OutcomeOf(result));
  req.promise.set_value(std::move(result));
}

StatusOr<Prediction> PredictionService::Await(
    Request& req, std::future<StatusOr<Prediction>>& future) {
  if (req.ctx.has_deadline &&
      future.wait_until(req.ctx.deadline) == std::future_status::timeout) {
    // Only a parked request can still be pending: it detaches from the
    // winner, which completes and caches normally. If the winner's drain
    // claimed it first, this Resolve does nothing and get() below returns
    // the winner's result.
    Resolve(req,
            Status::DeadlineExceeded(
                "deadline expired waiting on the in-flight winner"),
            /*hit=*/true);
  }
  return future.get();
}

PredictionService::RequestPtr PredictionService::NewRequest(
    const Plan& plan, IdentityPtr identity, uint64_t fingerprint,
    const RequestContext& ctx) const {
  auto req = std::make_shared<Request>();
  req->fingerprint = fingerprint;
  req->identity = std::move(identity);
  req->plan = &plan;
  req->ctx = ctx;
  // A parked request may outlive the caller's plan: precompute the scalar
  // its degraded fallback is built from while the plan is still alive.
  if (ctx.allow_degraded) req->degraded_cost = OptimizerScalarCost(plan, *db_);
  return req;
}

StatusOr<Prediction> PredictionService::Combine(
    const StatusOr<Artifacts>& artifacts) const {
  if (!artifacts.ok()) return artifacts.status();
  return pipeline_.PredictFromArtifacts(artifacts.value(),
                                        pipeline_.calibration());
}

StatusOr<Prediction> PredictionService::Predict(const Plan& plan,
                                                const RequestOptions& opts) {
  IdentityPtr identity = plan.Identity();
  const uint64_t fingerprint = Fingerprint(plan, *identity);
  // Hits are served even past the deadline: the result is already free.
  Prediction hot;
  if (TryLockFreeHit(fingerprint, *identity, &hot)) return hot;
  const RequestPtr req =
      NewRequest(plan, std::move(identity), fingerprint, MakeContext(opts));
  std::future<StatusOr<Prediction>> future = req->promise.get_future();
  Serve(req);
  return Await(*req, future);
}

std::future<StatusOr<Prediction>> PredictionService::PredictAsync(
    const Plan& plan, const RequestOptions& opts) {
  IdentityPtr identity = plan.Identity();
  const uint64_t fingerprint = Fingerprint(plan, *identity);
  Prediction hot;
  if (TryLockFreeHit(fingerprint, *identity, &hot)) {
    std::promise<StatusOr<Prediction>> ready;
    ready.set_value(std::move(hot));
    return ready.get_future();
  }
  const RequestPtr req =
      NewRequest(plan, std::move(identity), fingerprint, MakeContext(opts));
  std::future<StatusOr<Prediction>> future = req->promise.get_future();

  // Submit-time prefix on the caller's thread, before paying for a
  // registry clone or a pool round-trip: a warm hit displaced from its
  // published slot resolves through the shard (not global) lock, and a
  // plan already being sampled parks a plan-free continuation (stage 3
  // needs only the artifacts). Neither touches the caller's plan after
  // this call returns.
  const Lookup lk = LookupArtifacts(req, /*register_owned=*/false);
  if (lk.parked) return future;
  if (lk.entry != nullptr) {
    Resolve(*req, CombineCached(lk.entry), /*hit=*/true);
    return future;
  }

  // Cold miss: own the plan before returning. From here on the caller's
  // Plan is never touched again, so it may be destroyed as soon as this
  // call returns.
  req->owned_plan = InternPlan(plan, req->identity->key, fingerprint);
  req->plan = req->owned_plan.get();
  if (runner_.Submit([this, req] { Serve(req); })) {
    MaybeSpuriousWakeup();
    return future;
  }
  // The pool is gone; enqueueing would leave the future unsatisfied
  // forever. Fail fast instead (a refused call is not a prediction).
  ShardFor(fingerprint).stats.async_rejects.fetch_add(
      1, std::memory_order_relaxed);
  ReleasePlan(req->identity->key, fingerprint);
  req->owned_plan.reset();
  req->promise.set_value(Status::Unavailable("PredictionService is shut down"));
  return future;
}

std::vector<StatusOr<Prediction>> PredictionService::PredictBatch(
    const std::vector<const Plan*>& plans, const RequestOptions& opts) {
  const RequestContext ctx = MakeContext(opts);
  shards_[0].stats.batch_calls.fetch_add(1, std::memory_order_relaxed);
  const size_t count = plans.size();

  // Dedup: plans sharing a fingerprint AND the canonical structure share
  // one request. Grouping on the structural key too keeps the cache's
  // collision guarantee inside a batch: colliding plans form separate
  // groups instead of silently sharing artifacts.
  std::vector<uint64_t> fingerprints(count);
  std::vector<IdentityPtr> identities(count);
  std::vector<size_t> group_ids(count);
  std::unordered_map<std::string, size_t> group_of;  // fp ‖ key -> group id
  std::vector<size_t> representative;                // group id -> plan index
  for (size_t i = 0; i < count; ++i) {
    identities[i] = plans[i]->Identity();
    fingerprints[i] = Fingerprint(*plans[i], *identities[i]);
    std::string group_key;
    AppendKeyU64(&group_key, fingerprints[i]);
    group_key += identities[i]->key;
    const auto [it, inserted] =
        group_of.emplace(std::move(group_key), representative.size());
    group_ids[i] = it->second;
    if (inserted) representative.push_back(i);
  }

  // Unreachable sentinel: every slot is written below on every path
  // (group failure, degraded conversion, deadline detach included) —
  // service_test pins that no slot ever leaks this value.
  std::vector<StatusOr<Prediction>> results(
      count, Status::Internal("batch slot never resolved"));
  // One request per group, served across the pool with the calling thread
  // participating. A group whose plan another request is already sampling
  // parks on that run instead of holding a worker; the calling thread
  // awaits the parked ones after the fan-out.
  const size_t groups = representative.size();
  std::vector<RequestPtr> reqs(groups);
  std::vector<std::future<StatusOr<Prediction>>> futures(groups);
  runner_.RunTasks(static_cast<int64_t>(groups), [&](int64_t g) {
    const size_t rep = representative[static_cast<size_t>(g)];
    Prediction hot;
    if (TryLockFreeHit(fingerprints[rep], *identities[rep], &hot)) {
      results[rep] = std::move(hot);
      return;
    }
    RequestPtr& req = reqs[static_cast<size_t>(g)];
    req = NewRequest(*plans[rep], identities[rep], fingerprints[rep], ctx);
    futures[static_cast<size_t>(g)] = req->promise.get_future();
    Serve(req);
  });
  for (size_t g = 0; g < groups; ++g) {
    if (reqs[g] != nullptr) {
      results[representative[g]] = Await(*reqs[g], futures[g]);
    }
  }
  // In-batch duplicates copy their group's result: they ran no stage work
  // of their own, so each is a hit.
  for (size_t i = 0; i < count; ++i) {
    const size_t rep = representative[group_ids[i]];
    if (rep == i) continue;
    results[i] = results[rep];
    RecordOutcome(fingerprints[i], /*hit=*/true, OutcomeOf(results[i]));
  }
  return results;
}

std::vector<StatusOr<Prediction>> PredictionService::PredictBatch(
    const std::vector<Plan>& plans, const RequestOptions& opts) {
  std::vector<const Plan*> ptrs;
  ptrs.reserve(plans.size());
  for (const Plan& p : plans) ptrs.push_back(&p);
  return PredictBatch(ptrs, opts);
}

VarianceBreakdown PredictionService::Recompute(const Prediction& prediction,
                                               PredictorVariant variant,
                                               CovarianceBoundKind bound) const {
  return pipeline_.Recompute(prediction, variant, bound);
}

uint64_t PredictionService::PublishCalibration(CostUnits units,
                                               std::string source) {
  MutexLock lock(&calibration_mu_);
  const uint64_t epoch = pipeline_.calibration()->epoch + 1;
  const uint64_t reports =
      families_ != nullptr ? families_->total_reports() : 0;
  pipeline_.SetCalibration(MakeCalibrationSnapshot(std::move(units), epoch,
                                                   std::move(source), reports));
  // Deliberately NOT InvalidateCache: stage-1/2 artifacts are
  // unit-independent, so every cached entry survives the swap and only
  // its stage-3 memo went stale — the next hit re-combines lazily
  // (stats().recombines) instead of re-running the expensive stages.
  if (families_ != nullptr) families_->OnPublish();
  return epoch;
}

void PredictionService::ReportObserved(const Plan& plan, double observed_ms) {
  const IdentityPtr identity = plan.Identity();
  ReportObserved(Fingerprint(plan, *identity), observed_ms);
}

void PredictionService::ReportObserved(uint64_t fingerprint,
                                       double observed_ms) {
  // The error is computed lazily — converged families skip it entirely —
  // against the family's cached prediction under the CURRENT snapshot
  // (through the epoch memo, so a hot family pays zero combination work).
  // Every cache-backed computation refreshes the family's stash; when the
  // plan was evicted (or flushed) the stashed mean is the fallback
  // comparison point, so late reports still land instead of dropping.
  Report(fingerprint, observed_ms,
         [this, fingerprint, observed_ms](PredictionStash* stash, double* out) {
           const EntryPtr entry = FindEntry(fingerprint);
           if (entry != nullptr) {
             const Prediction prediction = CombineCached(entry);
             stash->mean_ms = prediction.mean();
             stash->epoch = prediction.calibration->epoch;
             stash->valid = true;
             *out = (observed_ms - prediction.mean()) / observed_ms;
             return true;
           }
           if (!stash->valid) return false;  // never predicted: nothing to compare
           // The stash may predate the current calibration epoch; that
           // slack is bounded by one eviction-to-report gap and beats
           // dropping the report.
           ShardFor(fingerprint).stats.feedback_stash_hits.fetch_add(
               1, std::memory_order_relaxed);
           *out = (observed_ms - stash->mean_ms) / observed_ms;
           return true;
         });
}

void PredictionService::ReportObservedAgainst(uint64_t fingerprint,
                                              const Prediction& as_decided,
                                              double observed_ms) {
  // The comparison point is pinned by the caller (the prediction its
  // admission/ordering decision used), so no cache lookup: the report
  // lands even for plans that were never cached here, and a calibration
  // swap between decision and completion cannot silently shift the error.
  Report(fingerprint, observed_ms,
         [&as_decided, observed_ms](PredictionStash* stash, double* out) {
           stash->mean_ms = as_decided.mean();
           stash->epoch = as_decided.calibration_epoch();
           stash->valid = true;
           *out = (observed_ms - as_decided.mean()) / observed_ms;
           return true;
         });
}

void PredictionService::Report(uint64_t fingerprint, double observed_ms,
                               const FamilyRegistry::ErrorFn& error_fn) {
  if (families_ == nullptr || !families_->feedback_enabled()) return;
  StatsStripe& stripe = ShardFor(fingerprint).stats;
  stripe.feedback_reports.fetch_add(1, std::memory_order_relaxed);
  if (!(observed_ms > 0.0)) {
    stripe.feedback_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  switch (families_->Observe(fingerprint, error_fn)) {
    case FamilyRegistry::Action::kDropped:
      stripe.feedback_dropped.fetch_add(1, std::memory_order_relaxed);
      break;
    case FamilyRegistry::Action::kDrift:
      HandleDrift(fingerprint);
      break;
    default:
      break;
  }
}

void PredictionService::HandleDrift(uint64_t fingerprint) {
  if (!options_.feedback.recalibrate) return;  // detect-only mode
  // At most one recalibration per cooldown window across all families:
  // one machine-wide drift makes many families scream at once.
  if (!families_->ClaimDrift()) return;
  // Re-derive the units outside every service lock — calibration runs
  // real (harness) queries and must not stall the prediction hot path.
  CostUnits units = options_.feedback.recalibrate();
  PublishCalibration(std::move(units), "drift");
  ShardFor(fingerprint).stats.recalibrations.fetch_add(
      1, std::memory_order_relaxed);
}

std::vector<FamilyFeedback> PredictionService::FeedbackSnapshot() const {
  return families_ != nullptr ? families_->Snapshot()
                              : std::vector<FamilyFeedback>();
}

ServiceStats PredictionService::stats() const {
  // Each request touched exactly one resolution-matrix cell in one stripe,
  // so every aggregate below — `predictions` included — is a sum over
  // cells by definition: both invariants hold at every instant.
  ServiceStats out;
  for (const Shard& shard : shards_) {
    const StatsStripe& s = shard.stats;
    for (size_t row = 0; row < 2; ++row) {
      for (size_t col = 0; col < kNumOutcomes; ++col) {
        const uint64_t v = s.outcome[row][col].load(std::memory_order_relaxed);
        (row == 1 ? out.cache_hits : out.cache_misses) += v;
        switch (static_cast<Outcome>(col)) {
          case Outcome::kOk: out.ok_served += v; break;
          case Outcome::kFailed: out.failed += v; break;
          case Outcome::kDegraded: out.degraded_served += v; break;
          case Outcome::kDeadline: out.deadline_exceeded += v; break;
        }
      }
    }
    out.batch_calls += s.batch_calls.load(std::memory_order_relaxed);
    out.sample_runs += s.sample_runs.load(std::memory_order_relaxed);
    out.fit_runs += s.fit_runs.load(std::memory_order_relaxed);
    out.lockfree_hits += s.lockfree_hits.load(std::memory_order_relaxed);
    out.inflight_joins += s.inflight_joins.load(std::memory_order_relaxed);
    out.stale_drops += s.stale_drops.load(std::memory_order_relaxed);
    out.plan_clones += s.plan_clones.load(std::memory_order_relaxed);
    out.async_rejects += s.async_rejects.load(std::memory_order_relaxed);
    out.recombines += s.recombines.load(std::memory_order_relaxed);
    out.recalibrations += s.recalibrations.load(std::memory_order_relaxed);
    out.feedback_reports += s.feedback_reports.load(std::memory_order_relaxed);
    out.feedback_dropped += s.feedback_dropped.load(std::memory_order_relaxed);
    out.feedback_stash_hits +=
        s.feedback_stash_hits.load(std::memory_order_relaxed);
    out.faults_injected += s.faults_injected.load(std::memory_order_relaxed);
    out.spurious_wakeups +=
        s.spurious_wakeups.load(std::memory_order_relaxed);
    out.breaker_opens += s.breaker_opens.load(std::memory_order_relaxed);
    out.breaker_shed += s.breaker_shed.load(std::memory_order_relaxed);
    out.breaker_probes += s.breaker_probes.load(std::memory_order_relaxed);
  }
  out.predictions = out.cache_hits + out.cache_misses;
  if (families_ != nullptr) {
    out.converged_families = families_->converged_count();
    out.feedback_families = families_->family_count();
  }
  return out;
}

}  // namespace uqp
