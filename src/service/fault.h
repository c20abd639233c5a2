#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace uqp {

// ---------------------------------------------------------------------------
// Deterministic fault injection.
//
// The injector is a test/bench seam (ServiceOptions::fault_injector): when
// null — the production default — no call site pays anything beyond one
// pointer test. When set, every stage-1 attempt consults it for a
// FaultDecision drawn from a pre-drawn, seed-derived schedule, so a chaos
// run replays bit-identically at any thread count: the decision for
// (fingerprint, attempt) is a pure function of (seed, fingerprint,
// attempt), and the per-family attempt numbering is defined by arrival
// order at the injector, which the chaos harness pins with wave barriers.
// ---------------------------------------------------------------------------

/// What the injector decided for one stage-1 attempt.
struct FaultDecision {
  /// Non-OK: the stage fails with exactly this status instead of running.
  Status status;
  /// Artificial latency to impose before the outcome (0 = none). Applied
  /// whether the attempt then fails or runs for real — a degraded machine
  /// is slow first, broken second.
  double latency_ms = 0.0;
};

/// Fault seam threaded through RunStages / the worker pool. Implementations
/// must be internally synchronized: OnSampleRun is called concurrently from
/// every worker.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Consulted once per stage-1 attempt for `fingerprint`, BEFORE the real
  /// stage runs. Attempt numbering (per fingerprint) is the injector's own
  /// bookkeeping.
  virtual FaultDecision OnSampleRun(uint64_t fingerprint) = 0;

  /// Pool seam: should the service fire a spurious wakeup (an extra
  /// NotifyAll with nothing new to do) after this enqueue? Exercises the
  /// explicit predicate loops around every CondVar wait.
  virtual bool InjectSpuriousWakeup() { return false; }
};

/// Per-family fault behavior in a ScheduledFaultInjector.
struct FaultRule {
  /// Attempts with index < fail_attempts fail deterministically — the
  /// count-exact knob for breaker and retry tests ("first 3 attempts
  /// fail, then recover").
  uint64_t fail_attempts = 0;
  /// Additionally, each attempt fails with this probability, drawn from
  /// the seeded schedule (deterministic per (seed, fingerprint, attempt)).
  double fail_prob = 0.0;
  /// Each attempt is delayed by latency_ms with this probability (1.0 =
  /// always), drawn from the same schedule.
  double latency_prob = 0.0;
  double latency_ms = 0.0;
};

struct ScheduledFaultOptions {
  uint64_t seed = 1;
  /// Rule for fingerprints without a dedicated entry in `rules`.
  FaultRule default_rule;
  /// Per-fingerprint overrides (lookup only — never iterated).
  std::unordered_map<uint64_t, FaultRule> rules;
  /// Fire a spurious wakeup on every Nth InjectSpuriousWakeup probe
  /// (0 = never).
  uint64_t spurious_every = 0;
};

/// Seeded, fully deterministic injector. The decision for (fingerprint,
/// attempt) is a pure function of the seed (a splitmix64-style mix — no
/// std::random_device, no global RNG state), published up front by
/// ScheduleAt/ScheduleBytes so a harness can pre-draw and compare the
/// whole schedule across runs and thread counts.
class ScheduledFaultInjector : public FaultInjector {
 public:
  explicit ScheduledFaultInjector(ScheduledFaultOptions options);

  FaultDecision OnSampleRun(uint64_t fingerprint) override;
  bool InjectSpuriousWakeup() override;

  /// The pre-drawn decision for one (fingerprint, attempt) — pure, never
  /// advances any counter. OnSampleRun returns exactly
  /// ScheduleAt(fingerprint, n) on the (n+1)-th call for `fingerprint`.
  FaultDecision ScheduleAt(uint64_t fingerprint, uint64_t attempt) const;

  /// Canonical bytes of the pre-drawn schedule over `fingerprints` ×
  /// [0, attempts): status codes and latency bit patterns. Two injectors
  /// produce equal bytes iff their schedules are identical — the replay
  /// gate's equality.
  std::string ScheduleBytes(const std::vector<uint64_t>& fingerprints,
                            uint64_t attempts) const;

  /// Canonical bytes of everything actually fired so far: fingerprints in
  /// sorted order, each with its attempt count and the fired decisions.
  /// Byte-identical across two runs iff every family saw the same number
  /// of attempts (the decisions themselves are schedule-determined).
  std::string FiredLogBytes() const;

  /// Stage-1 attempts consulted so far for `fingerprint`.
  uint64_t AttemptCount(uint64_t fingerprint) const;

  uint64_t faults_fired() const {
    return faults_fired_.load(std::memory_order_relaxed);
  }
  uint64_t delays_fired() const {
    return delays_fired_.load(std::memory_order_relaxed);
  }
  uint64_t spurious_fired() const {
    return spurious_fired_.load(std::memory_order_relaxed);
  }

 private:
  const FaultRule& RuleFor(uint64_t fingerprint) const;

  const ScheduledFaultOptions options_;
  mutable Mutex mu_;
  /// Per-fingerprint attempt counters; the only mutable schedule state.
  std::unordered_map<uint64_t, uint64_t> attempts_ UQP_GUARDED_BY(mu_);
  /// Monotonic telemetry, deliberately outside the mutex capability model:
  /// relaxed counters carrying no data dependency.
  std::atomic<uint64_t> faults_fired_{0};
  std::atomic<uint64_t> delays_fired_{0};
  std::atomic<uint64_t> spurious_fired_{0};
  std::atomic<uint64_t> spurious_probes_{0};
};

}  // namespace uqp
