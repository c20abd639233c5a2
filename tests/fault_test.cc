// Unit tests for the deterministic fault-injection harness
// (src/service/fault.{h,cc}) and the per-family circuit breaker kept in
// the family table (src/service/feedback.{h,cc}): the schedule is
// a pure function of the seed (replayable bit-identically at any thread
// count), attempt numbering is exact under concurrency, and the breaker
// walks closed -> open -> half-open -> closed/open deterministically,
// with no clock anywhere.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "service/fault.h"
#include "service/feedback.h"

namespace uqp {
namespace {

ScheduledFaultOptions MixedOptions(uint64_t seed) {
  ScheduledFaultOptions opts;
  opts.seed = seed;
  opts.default_rule.fail_prob = 0.3;
  opts.default_rule.latency_prob = 0.5;
  opts.default_rule.latency_ms = 2.0;
  return opts;
}

TEST(ScheduledFaultInjectorTest, OnSampleRunReplaysThePredrawnSchedule) {
  ScheduledFaultInjector injector(MixedOptions(42));
  const uint64_t kFp = 7;
  constexpr uint64_t kAttempts = 64;
  for (uint64_t a = 0; a < kAttempts; ++a) {
    const FaultDecision want = injector.ScheduleAt(kFp, a);
    const FaultDecision got = injector.OnSampleRun(kFp);
    EXPECT_EQ(got.status.code(), want.status.code()) << "attempt " << a;
    EXPECT_EQ(got.latency_ms, want.latency_ms) << "attempt " << a;
  }
  EXPECT_EQ(injector.AttemptCount(kFp), kAttempts);
  // A mixed-probability rule over 64 draws fires both channels at least
  // once (schedule-determined, so this is deterministic, not flaky).
  EXPECT_GT(injector.faults_fired(), 0u);
  EXPECT_GT(injector.delays_fired(), 0u);
  EXPECT_LT(injector.faults_fired(), kAttempts);
}

TEST(ScheduledFaultInjectorTest, ScheduleAtIsPureAndCounterFree) {
  ScheduledFaultInjector injector(MixedOptions(9));
  const FaultDecision first = injector.ScheduleAt(3, 5);
  const FaultDecision again = injector.ScheduleAt(3, 5);
  EXPECT_EQ(first.status.code(), again.status.code());
  EXPECT_EQ(first.latency_ms, again.latency_ms);
  EXPECT_EQ(injector.AttemptCount(3), 0u) << "ScheduleAt must not consume";
  EXPECT_EQ(injector.faults_fired(), 0u);
}

TEST(ScheduledFaultInjectorTest, FailAttemptsIsCountExact) {
  ScheduledFaultOptions opts;
  opts.seed = 1;
  FaultRule rule;
  rule.fail_attempts = 3;
  opts.rules[11] = rule;
  ScheduledFaultInjector injector(opts);
  for (uint64_t a = 0; a < 3; ++a) {
    EXPECT_FALSE(injector.OnSampleRun(11).status.ok()) << "attempt " << a;
  }
  for (uint64_t a = 3; a < 8; ++a) {
    EXPECT_TRUE(injector.OnSampleRun(11).status.ok()) << "attempt " << a;
  }
  // Other fingerprints follow the (benign) default rule.
  EXPECT_TRUE(injector.OnSampleRun(12).status.ok());
  EXPECT_EQ(injector.faults_fired(), 3u);
}

TEST(ScheduledFaultInjectorTest, ScheduleBytesEqualIffSameSeed) {
  const std::vector<uint64_t> fps = {1, 2, 3, 99};
  ScheduledFaultInjector a(MixedOptions(7));
  ScheduledFaultInjector b(MixedOptions(7));
  ScheduledFaultInjector c(MixedOptions(8));
  EXPECT_EQ(a.ScheduleBytes(fps, 32), b.ScheduleBytes(fps, 32))
      << "same seed must pre-draw the identical schedule";
  EXPECT_NE(a.ScheduleBytes(fps, 32), c.ScheduleBytes(fps, 32))
      << "a different seed must not collide over 128 draws";
}

TEST(ScheduledFaultInjectorTest, FiredLogMatchesAcrossThreadCounts) {
  // Same per-family attempt totals => byte-identical fired log, however
  // the attempts were threaded. Run the same load single-threaded and
  // with 4 threads hammering concurrently.
  const std::vector<uint64_t> fps = {5, 6, 7};
  constexpr uint64_t kPerFp = 50;

  ScheduledFaultInjector serial(MixedOptions(123));
  for (uint64_t fp : fps) {
    for (uint64_t a = 0; a < kPerFp; ++a) serial.OnSampleRun(fp);
  }

  // Per-fingerprint atomic tickets split the same kPerFp attempts across
  // 4 racing threads (kPerFp need not divide evenly).
  ScheduledFaultInjector parallel(MixedOptions(123));
  std::vector<std::thread> threads;
  std::atomic<uint64_t> tickets[3] = {{0}, {0}, {0}};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < fps.size(); ++i) {
        while (tickets[i].fetch_add(1) < kPerFp) parallel.OnSampleRun(fps[i]);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (uint64_t fp : fps) {
    ASSERT_EQ(parallel.AttemptCount(fp), kPerFp);
  }
  EXPECT_EQ(parallel.FiredLogBytes(), serial.FiredLogBytes())
      << "equal attempt totals must replay to identical fired bytes";
  EXPECT_EQ(parallel.faults_fired(), serial.faults_fired());
  EXPECT_EQ(parallel.delays_fired(), serial.delays_fired());
}

TEST(ScheduledFaultInjectorTest, SpuriousWakeupFiresEveryNth) {
  ScheduledFaultOptions opts;
  opts.spurious_every = 3;
  ScheduledFaultInjector injector(opts);
  int fired = 0;
  for (int i = 0; i < 12; ++i) {
    if (injector.InjectSpuriousWakeup()) ++fired;
  }
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(injector.spurious_fired(), 4u);

  ScheduledFaultInjector never({});
  for (int i = 0; i < 12; ++i) EXPECT_FALSE(never.InjectSpuriousWakeup());
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// The family table with the service's breaker counters beside it,
/// tallied the way the service's stats stripes tally them: probes from
/// Admit's decisions, opens from OnStageResult's verdicts.
struct Breaker {
  explicit Breaker(BreakerOptions opts) : table(FeedbackOptions(), opts, 8) {}

  BreakerDecision Admit(uint64_t fp) {
    const BreakerDecision d = table.Admit(fp);
    if (d.probe) ++total_probes;
    return d;
  }
  bool OnStageResult(uint64_t fp, bool ok) {
    const bool opened = table.OnStageResult(fp, ok);
    if (opened) ++total_opens;
    return opened;
  }
  /// The family's snapshot row (a zero-value row if never touched).
  FamilyFeedback Family(uint64_t fp) const {
    for (const FamilyFeedback& row : table.Snapshot()) {
      if (row.fingerprint == fp) return row;
    }
    FamilyFeedback ghost;
    ghost.fingerprint = fp;
    return ghost;
  }

  FamilyRegistry table;
  uint64_t total_opens = 0;
  uint64_t total_probes = 0;
};

TEST(CircuitBreakerTest, DisabledRegistryAdmitsEverything) {
  Breaker breaker(BreakerOptions{});  // threshold 0: disabled
  EXPECT_FALSE(breaker.table.breaker_enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(breaker.OnStageResult(1, /*ok=*/false));
    const BreakerDecision d = breaker.Admit(1);
    EXPECT_FALSE(d.shed);
    EXPECT_FALSE(d.probe);
  }
  EXPECT_EQ(breaker.total_opens, 0u);
  EXPECT_TRUE(breaker.table.Snapshot().empty())
      << "a disabled breaker keeps no family records";
}

TEST(CircuitBreakerTest, ConsecutiveFailuresOpenAtThreshold) {
  BreakerOptions opts;
  opts.failure_threshold = 3;
  opts.cooldown_requests = 4;
  Breaker breaker(opts);
  const uint64_t kFp = 21;

  EXPECT_FALSE(breaker.OnStageResult(kFp, false));
  EXPECT_FALSE(breaker.OnStageResult(kFp, false));
  EXPECT_FALSE(breaker.Admit(kFp).shed) << "still closed below threshold";
  EXPECT_TRUE(breaker.OnStageResult(kFp, false))
      << "the threshold-th consecutive failure must report the open";
  EXPECT_STREQ(breaker.Family(kFp).breaker_state, "open");
  EXPECT_EQ(breaker.total_opens, 1u);

  // A success anywhere before the threshold resets the streak.
  const uint64_t kOther = 22;
  breaker.OnStageResult(kOther, false);
  breaker.OnStageResult(kOther, true);
  breaker.OnStageResult(kOther, false);
  EXPECT_FALSE(breaker.OnStageResult(kOther, false))
      << "a success must reset the consecutive-failure streak";
  EXPECT_STREQ(breaker.Family(kOther).breaker_state, "closed");
}

TEST(CircuitBreakerTest, CooldownShedsThenProbesHalfOpen) {
  BreakerOptions opts;
  opts.failure_threshold = 2;
  opts.cooldown_requests = 3;
  Breaker breaker(opts);
  const uint64_t kFp = 33;
  breaker.OnStageResult(kFp, false);
  breaker.OnStageResult(kFp, false);  // open

  // cooldown_requests - 1 pure sheds, then the next request is the probe.
  for (int i = 0; i < opts.cooldown_requests - 1; ++i) {
    const BreakerDecision d = breaker.Admit(kFp);
    EXPECT_TRUE(d.shed) << "request " << i << " during cooldown";
    EXPECT_FALSE(d.probe);
  }
  const BreakerDecision probe = breaker.Admit(kFp);
  EXPECT_TRUE(probe.probe);
  EXPECT_FALSE(probe.shed);
  EXPECT_STREQ(breaker.Family(kFp).breaker_state, "half_open");
  EXPECT_EQ(breaker.total_probes, 1u);

  // While the probe is in flight, everyone else keeps shedding.
  EXPECT_TRUE(breaker.Admit(kFp).shed);

  // Probe success closes; the family admits freely again.
  EXPECT_FALSE(breaker.OnStageResult(kFp, true));
  EXPECT_STREQ(breaker.Family(kFp).breaker_state, "closed");
  const BreakerDecision after = breaker.Admit(kFp);
  EXPECT_FALSE(after.shed);
  EXPECT_FALSE(after.probe);
}

TEST(CircuitBreakerTest, FailedProbeReopensImmediately) {
  BreakerOptions opts;
  opts.failure_threshold = 2;
  opts.cooldown_requests = 2;
  Breaker breaker(opts);
  const uint64_t kFp = 44;
  breaker.OnStageResult(kFp, false);
  breaker.OnStageResult(kFp, false);  // open (1st)
  breaker.Admit(kFp);                 // shed 1
  const BreakerDecision probe = breaker.Admit(kFp);  // shed 2 -> probe
  ASSERT_TRUE(probe.probe);
  EXPECT_TRUE(breaker.OnStageResult(kFp, false))
      << "a failed half-open probe must re-open (and report it)";
  EXPECT_STREQ(breaker.Family(kFp).breaker_state, "open");
  EXPECT_EQ(breaker.Family(kFp).breaker_opens, 2u);
  EXPECT_EQ(breaker.total_opens, 2u);
  // The cooldown restarts from zero after the re-open.
  EXPECT_TRUE(breaker.Admit(kFp).shed);
  EXPECT_TRUE(breaker.Admit(kFp).probe);
}

TEST(CircuitBreakerTest, SnapshotIsSortedAndComplete) {
  BreakerOptions opts;
  opts.failure_threshold = 1;
  opts.cooldown_requests = 8;
  Breaker breaker(opts);
  // Touch families across several shards, out of order.
  for (uint64_t fp : {19u, 3u, 8u, 200u}) breaker.OnStageResult(fp, false);
  breaker.Admit(19);  // one shed for family 19
  const std::vector<FamilyFeedback> rows = breaker.table.Snapshot();
  ASSERT_EQ(rows.size(), 4u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].fingerprint, rows[i].fingerprint)
        << "snapshot must be sorted by fingerprint";
  }
  for (const FamilyFeedback& row : rows) {
    EXPECT_STREQ(row.breaker_state, "open");
    EXPECT_EQ(row.breaker_opens, 1u);
    EXPECT_EQ(row.breaker_shed, row.fingerprint == 19 ? 1u : 0u);
  }
  // An untouched family reads as a zero-value closed row.
  const FamilyFeedback ghost = breaker.Family(777);
  EXPECT_STREQ(ghost.breaker_state, ToString(BreakerState::kClosed));
  EXPECT_EQ(ghost.breaker_opens, 0u);
  EXPECT_STREQ(ghost.breaker_state, "closed");
  EXPECT_STREQ(ToString(BreakerState::kHalfOpen), "half_open");
}

}  // namespace
}  // namespace uqp
