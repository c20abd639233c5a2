// Tests for the §8 future-work extension: interference between concurrent
// queries modeled as a change in the cost-unit distributions — plus the
// intra-plan race suite: concurrent predictions that each fan their
// sample run out across the shared worker pool (this file runs under TSan
// and ASan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/variance.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "math/stats.h"
#include "sampling/sample_db.h"
#include "service/fault.h"
#include "service/prediction_service.h"
#include "workload/common.h"

namespace uqp {
namespace {

TEST(Concurrency, TimeGrowsWithMultiprogrammingLevel) {
  SimulatedMachine machine(MachineProfile::PC1(), 5);
  ResourceVector work;
  work.ns = 1000;
  work.nt = 50000;
  double prev = 0.0;
  for (int mpl : {1, 2, 4, 8}) {
    const double t = machine.ExecuteAveraged({work}, 30, mpl);
    EXPECT_GT(t, prev) << "MPL " << mpl;
    prev = t;
  }
}

TEST(Concurrency, CpuUnitsUnaffectedBelowCoreCount) {
  // PC2 has 8 cores: a pure-CPU workload at MPL 4 costs the same as idle.
  SimulatedMachine machine(MachineProfile::PC2(), 6);
  ResourceVector work;
  work.nt = 200000;
  const double idle = machine.ExecuteAveraged({work}, 50, 1);
  const double mpl4 = machine.ExecuteAveraged({work}, 50, 4);
  EXPECT_NEAR(mpl4, idle, 0.06 * idle);
  // ... but at MPL 16 the cores are oversubscribed 2x.
  const double mpl16 = machine.ExecuteAveraged({work}, 50, 16);
  EXPECT_GT(mpl16, 1.4 * idle);
}

TEST(Concurrency, IoContentionBitesImmediately) {
  SimulatedMachine machine(MachineProfile::PC2(), 7);
  ResourceVector work;
  work.ns = 5000;
  const double idle = machine.ExecuteAveraged({work}, 50, 1);
  const double mpl2 = machine.ExecuteAveraged({work}, 50, 2);
  EXPECT_GT(mpl2, 1.25 * idle);  // io_contention = 0.45 per extra query
}

TEST(Concurrency, DispersionGrowsWithMpl) {
  SimulatedMachine machine(MachineProfile::PC1(), 8);
  ResourceVector work;
  work.nr = 300;
  RunningStats idle, busy;
  for (int i = 0; i < 500; ++i) idle.Add(machine.ExecuteOnce({work}, 1));
  for (int i = 0; i < 500; ++i) busy.Add(machine.ExecuteOnce({work}, 4));
  // Relative dispersion grows under contention.
  EXPECT_GT(busy.stddev() / busy.mean(), idle.stddev() / idle.mean());
}

TEST(Concurrency, CalibrationTracksInflatedUnits) {
  SimulatedMachine machine(MachineProfile::PC1(), 9);
  Calibrator calibrator(&machine);
  const CostUnits idle = calibrator.CalibrateAt(1);
  const CostUnits mpl4 = calibrator.CalibrateAt(4);
  // I/O units inflate roughly by 1 + 0.45 * 3 = 2.35.
  EXPECT_GT(mpl4.Get(kCostSeqPage).mean, 1.8 * idle.Get(kCostSeqPage).mean);
  EXPECT_LT(mpl4.Get(kCostSeqPage).mean, 3.2 * idle.Get(kCostSeqPage).mean);
  // CPU on the 2-core PC1 oversubscribes at MPL 4 as well.
  EXPECT_GT(mpl4.Get(kCostTuple).mean, 1.3 * idle.Get(kCostTuple).mean);
  // Variances inflate too (the distribution changes, not just the mean).
  EXPECT_GT(mpl4.Get(kCostSeqPage).variance, idle.Get(kCostSeqPage).variance);
}

TEST(Concurrency, MplAwareUnitsPredictMplWorkloads) {
  // A synthetic "query" with known counters: the MPL-aware units must
  // predict its MPL-4 latency far better than the idle units do.
  SimulatedMachine machine(MachineProfile::PC1(), 10);
  Calibrator calibrator(&machine);
  const CostUnits idle = calibrator.CalibrateAt(1);
  const CostUnits busy = calibrator.CalibrateAt(4);

  ResourceVector work;
  work.ns = 2000;
  work.nt = 80000;
  work.no = 120000;
  const double actual = machine.ExecuteAveraged({work}, 60, 4);
  auto predict = [&work](const CostUnits& units) {
    return units.MeanDot(work.ns, work.nr, work.nt, work.ni, work.no);
  };
  const double err_busy = std::fabs(predict(busy) - actual) / actual;
  const double err_idle = std::fabs(predict(idle) - actual) / actual;
  EXPECT_LT(err_busy, 0.25);
  EXPECT_GT(err_idle, 2.0 * err_busy);
}

TEST(Concurrency, InvalidMplRejected) {
  SimulatedMachine machine(MachineProfile::PC1(), 11);
  EXPECT_DEATH(machine.ExecuteOnce({ResourceVector{}}, 0), "concurrency");
}

// ---------------------------------------------------------------------------
// Intra-plan races: predictions whose sample runs themselves fan out
// across the service's worker pool, racing each other and the cache
// machinery. Full-ratio samples make the big relations span several
// execution batches, so the shard paths genuinely run.
// ---------------------------------------------------------------------------

class IntraPlanRaceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(MakeTpchDatabase(TpchConfig::Profile("tiny")));
    SampleOptions sample_options;
    sample_options.sampling_ratio = 1.0;
    samples_ = new SampleDb(SampleDb::Build(*db_, sample_options));
    SimulatedMachine machine(MachineProfile::PC1(), 17);
    Calibrator calibrator(&machine);
    units_ = new CostUnits(calibrator.Calibrate());

    plans_ = new std::vector<Plan>();
    SelJoinOptions wopts;
    wopts.instances_per_template = 2;
    auto queries = MakeSelJoinWorkload(*db_, wopts);
    for (auto& q : queries) {
      auto plan_or = OptimizePlan(std::move(q.logical), *db_);
      if (plan_or.ok()) plans_->push_back(std::move(plan_or).value());
    }
    ASSERT_GE(plans_->size(), 4u);
  }

  static void TearDownTestSuite() {
    delete plans_;
    delete units_;
    delete samples_;
    delete db_;
    plans_ = nullptr;
    units_ = nullptr;
    samples_ = nullptr;
    db_ = nullptr;
  }

  static Database* db_;
  static SampleDb* samples_;
  static CostUnits* units_;
  static std::vector<Plan>* plans_;
};

Database* IntraPlanRaceTest::db_ = nullptr;
SampleDb* IntraPlanRaceTest::samples_ = nullptr;
CostUnits* IntraPlanRaceTest::units_ = nullptr;
std::vector<Plan>* IntraPlanRaceTest::plans_ = nullptr;

// Concurrent PredictAsync on distinct plans, each sharding its sample run
// across the same pool the plan-level tasks run on: every future resolves,
// every result is bit-identical to the sequential reference, and dedup
// still collapses repeats to one stage-1 run per distinct plan.
TEST_F(IntraPlanRaceTest, ConcurrentAsyncPredictionsFanOutShards) {
  PredictorOptions seq_opts;
  PredictionPipeline reference(db_, samples_, *units_, seq_opts);
  std::vector<Prediction> expected;
  for (const Plan& plan : *plans_) {
    auto ref = reference.Predict(plan);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    expected.push_back(std::move(ref).value());
  }

  ServiceOptions options;
  options.num_workers = 4;
  options.predictor.num_threads = 4;
  PredictionService service(db_, samples_, *units_, options);
  const int kRepeats = 3;
  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const Plan& plan : *plans_) {
      futures.push_back(service.PredictAsync(plan));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const Prediction& ref = expected[i % plans_->size()];
    EXPECT_EQ(got->mean(), ref.mean()) << "future " << i;
    EXPECT_EQ(got->breakdown.variance, ref.breakdown.variance) << "future " << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sample_runs, plans_->size());
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.predictions);
  EXPECT_EQ(service.plan_registry_size(), 0u);
}

// InvalidateCache hammered from another thread while parallel sample runs
// are mid-flight: no run may crash, lose its waiters, or serve a result
// that differs from the deterministic reference; late cache inserts from
// flushed generations are dropped, never resurrected.
TEST_F(IntraPlanRaceTest, InvalidateCacheMidParallelRun) {
  PredictorOptions seq_opts;
  PredictionPipeline reference(db_, samples_, *units_, seq_opts);
  auto ref = reference.Predict((*plans_)[0]);
  ASSERT_TRUE(ref.ok());

  ServiceOptions options;
  options.num_workers = 3;
  options.predictor.num_threads = 3;
  PredictionService service(db_, samples_, *units_, options);

  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load()) {
      service.InvalidateCache();
      std::this_thread::yield();
    }
  });

  const int kWaves = 6;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::future<StatusOr<Prediction>>> futures;
    for (const Plan& plan : *plans_) {
      futures.push_back(service.PredictAsync(plan));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      auto got = futures[i].get();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (i == 0) {
        EXPECT_EQ(got->mean(), ref->mean()) << "wave " << wave;
        EXPECT_EQ(got->breakdown.variance, ref->breakdown.variance);
      }
    }
  }
  stop.store(true);
  invalidator.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.predictions);
  // The invalidator raced real inserts: anything it beat was re-run, so
  // the sum of surviving inserts and dropped ones covers every stage-1
  // execution.
  EXPECT_GE(stats.sample_runs, plans_->size());
  EXPECT_EQ(service.plan_registry_size(), 0u);
}

// InvalidateCache hammered while parallel SORTS and aggregations are
// mid-flight: the fixed-shape merge sort, the per-chunk aggregation
// tables and the merge-join group emission all dispatch onto the same
// shared pool as the plan-level work, at a small batch size so one sample
// run fans out into many leaf/merge/placement tasks. No run may crash,
// lose its waiters, or serve a result differing from the sequential
// reference.
TEST_F(IntraPlanRaceTest, InvalidateCacheMidParallelSort) {
  // ORDER BY + GROUP BY + merge-join stack over the full-ratio lineitem
  // sample (~6k rows): scan -> sort -> merge join -> aggregate -> sort.
  auto join = MakeMergeJoin(MakeSort(MakeSeqScan("orders", nullptr), {0}),
                            MakeSort(MakeSeqScan("lineitem", nullptr), {0}),
                            {{0, 0}});
  auto agg = MakeAggregate(std::move(join), {1},
                           {{AggSpec::Kind::kSum, 12, "revenue"}});
  Plan plan(MakeSort(std::move(agg), {1}));
  ASSERT_TRUE(plan.Finalize(*db_).ok());

  PredictorOptions seq_opts;
  seq_opts.max_batch_size = 64;
  PredictionPipeline reference(db_, samples_, *units_, seq_opts);
  auto ref = reference.Predict(plan);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  ServiceOptions options;
  options.num_workers = 3;
  options.predictor.num_threads = 3;
  options.predictor.max_batch_size = 64;  // many sort/agg tasks per run
  PredictionService service(db_, samples_, *units_, options);

  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load()) {
      service.InvalidateCache();
      std::this_thread::yield();
    }
  });

  const int kWaves = 4;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::future<StatusOr<Prediction>>> futures;
    futures.push_back(service.PredictAsync(plan));
    for (size_t i = 0; i < 2 && i < plans_->size(); ++i) {
      futures.push_back(service.PredictAsync((*plans_)[i]));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      auto got = futures[i].get();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (i == 0) {
        EXPECT_EQ(got->mean(), ref->mean()) << "wave " << wave;
        EXPECT_EQ(got->breakdown.variance, ref->breakdown.variance);
      }
    }
  }
  stop.store(true);
  invalidator.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.predictions);
  EXPECT_EQ(service.plan_registry_size(), 0u);
}

// A deterministic mid-run flush: the post-stages hook fires between the
// stages finishing and the artifacts being published, so the insert is
// provably stale. The prediction must still complete (with the pre-flush
// result) and the stale insert must be counted and dropped.
TEST_F(IntraPlanRaceTest, DeterministicFlushBetweenStagesAndPublish) {
  ServiceOptions options;
  options.num_workers = 2;
  options.predictor.num_threads = 2;
  std::atomic<int> hook_calls{0};
  PredictionService* service_ptr = nullptr;
  options.post_stages_hook = [&] {
    if (hook_calls.fetch_add(1) == 0) service_ptr->InvalidateCache();
  };
  PredictionService service(db_, samples_, *units_, options);
  service_ptr = &service;

  auto got = service.PredictAsync((*plans_)[1]).get();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.stale_drops, 1u);
  EXPECT_EQ(service.cache_size(), 0u);

  PredictorOptions seq_opts;
  PredictionPipeline reference(db_, samples_, *units_, seq_opts);
  auto ref = reference.Predict((*plans_)[1]);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(got->mean(), ref->mean());
  EXPECT_EQ(got->breakdown.variance, ref->breakdown.variance);
}

// The sharded lock-free read path under fire (run under TSan in CI):
// hardware_concurrency reader threads hammer hot-cache Predict across
// every shard while another thread invalidates the whole cache over and
// over. The published-slot loads, generation checks and relaxed recency
// ticks must be data-race-free, every result bit-identical to the
// sequential reference, and the striped classification exact. A quiet
// tail then proves the mutex-free probe actually serves hits (acceptance:
// hot hits take no global lock, concurrent with InvalidateCache).
TEST_F(IntraPlanRaceTest, LockFreeHitsRaceInvalidateCacheAcrossShards) {
  PredictorOptions seq_opts;
  PredictionPipeline reference(db_, samples_, *units_, seq_opts);
  std::vector<Prediction> expected;
  for (const Plan& plan : *plans_) {
    auto ref = reference.Predict(plan);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    expected.push_back(std::move(ref).value());
  }

  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(db_, samples_, *units_, options);
  for (const Plan& plan : *plans_) ASSERT_TRUE(service.Predict(plan).ok());

  const unsigned hw = std::max(4u, std::thread::hardware_concurrency());
  const int kReaders = static_cast<int>(std::min(hw, 8u));
  const int kRounds = 12;
  std::atomic<bool> mismatch{false};
  std::atomic<bool> stop_invalidator{false};
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(kReaders));
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      const size_t idx = static_cast<size_t>(i) % plans_->size();
      for (int r = 0; r < kRounds; ++r) {
        auto got = service.Predict((*plans_)[idx]);
        if (!got.ok() || got->mean() != expected[idx].mean() ||
            got->breakdown.variance != expected[idx].breakdown.variance) {
          mismatch.store(true);
        }
      }
    });
  }
  std::thread invalidator([&] {
    while (!stop_invalidator.load()) {
      service.InvalidateCache();
      std::this_thread::yield();
    }
  });
  for (auto& t : readers) t.join();
  stop_invalidator.store(true);
  invalidator.join();

  EXPECT_FALSE(mismatch.load())
      << "a hit raced InvalidateCache into a wrong or failed prediction";
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.predictions);

  // Quiet tail: with the invalidator gone, a re-warmed plan's repeat MUST
  // travel the mutex-free published-slot path.
  const uint64_t lockfree_before = stats.lockfree_hits;
  ASSERT_TRUE(service.Predict((*plans_)[0]).ok());  // re-warm (or hit)
  ASSERT_TRUE(service.Predict((*plans_)[0]).ok());  // published-slot hit
  stats = service.stats();
  EXPECT_GT(stats.lockfree_hits, lockfree_before);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.predictions);
}

// Calibration-epoch swaps under fire (run under TSan in CI): one thread
// publishes new snapshots as fast as it can — both directly and through
// ReportObserved-triggered drift recalibration — while reader threads
// hammer lock-free hot hits and an async storm keeps cold runs in flight.
// Correctness contract: every served prediction is internally consistent
// (recomputing stage 3 under the prediction's OWN pinned snapshot must
// reproduce the served breakdown bit-for-bit — a combination that mixed
// units from two epochs cannot survive this check), no prediction is ever
// served without a calibration stamp, and the expensive stage-1/2
// artifacts survive every swap: stage 1 runs exactly once per distinct
// plan and the served sample-run pointer never changes.
TEST_F(IntraPlanRaceTest, EpochSwapsRaceLockFreeHitsAndColdRuns) {
  ServiceOptions options;
  options.num_workers = 4;
  options.predictor.num_threads = 2;
  options.feedback.enabled = true;
  options.feedback.window_size = 4;
  options.feedback.converge_threshold = 0.02;
  options.feedback.drift_threshold = 0.25;
  options.feedback.cooldown_reports = 8;
  options.feedback.probe_interval = 4;
  CostUnits* base_units = units_;
  std::atomic<int> recal_calls{0};
  options.feedback.recalibrate = [base_units, &recal_calls]() {
    const int n = recal_calls.fetch_add(1);
    CostUnits scaled = *base_units;
    const double factor = 1.0 + 0.25 * static_cast<double>(n % 4);
    for (int u = 0; u < kNumCostUnits; ++u) scaled.units[u].mean *= factor;
    return scaled;
  };
  PredictionService service(db_, samples_, *units_, options);
  const PredictorVariant variant = options.predictor.variant;
  const CovarianceBoundKind bound = options.predictor.bound;

  // Phase 1: a cold async storm races the publisher — in-flight stage-1/2
  // runs must resolve against whatever snapshot is current when their
  // stage 3 happens, never a mix.
  std::atomic<bool> stop_publisher{false};
  std::thread publisher([&] {
    uint64_t flips = 0;
    while (!stop_publisher.load()) {
      CostUnits scaled = *base_units;
      const double factor = (flips++ % 2 == 0) ? 1.5 : 0.75;
      for (int u = 0; u < kNumCostUnits; ++u) scaled.units[u].mean *= factor;
      service.PublishCalibration(std::move(scaled), "race");
      std::this_thread::yield();
    }
  });

  std::atomic<bool> bad{false};
  auto check_consistent = [&](const StatusOr<Prediction>& got) {
    if (!got.ok() || got->calibration == nullptr || got->sample_run == nullptr) {
      bad.store(true);
      return;
    }
    const VarianceBreakdown re = service.Recompute(*got, variant, bound);
    if (re.mean != got->breakdown.mean ||
        re.variance != got->breakdown.variance) {
      bad.store(true);  // epoch-mixed combination detected
    }
  };

  {
    std::vector<std::future<StatusOr<Prediction>>> futures;
    for (int rep = 0; rep < 3; ++rep) {
      for (const Plan& plan : *plans_) {
        futures.push_back(service.PredictAsync(plan));
      }
    }
    for (auto& f : futures) check_consistent(f.get());
  }

  // Pin the first-seen stage-1 artifact per plan: epoch swaps must never
  // evict or re-run them.
  std::vector<const SampleRunOutput*> first_seen(plans_->size(), nullptr);
  for (size_t i = 0; i < plans_->size(); ++i) {
    auto got = service.Predict((*plans_)[i]);
    ASSERT_TRUE(got.ok());
    first_seen[i] = got->sample_run.get();
  }

  // Phase 2: lock-free hitters + a feedback reporter whose drifting
  // observations trigger recalibration publishes, all concurrent.
  const int kReaders = 4;
  const int kRounds = 60;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      const size_t idx = static_cast<size_t>(i) % plans_->size();
      for (int r = 0; r < kRounds; ++r) {
        auto got = service.Predict((*plans_)[idx]);
        check_consistent(got);
        if (got.ok() && got->sample_run.get() != first_seen[idx]) {
          bad.store(true);  // a swap cost us a stage-1 artifact
        }
      }
    });
  }
  std::thread reporter([&] {
    for (int r = 0; r < 80; ++r) {
      // Alternate accurate and badly-drifted observations so windows both
      // fill and trip the drift detector while hits stream.
      const double scale = (r % 2 == 0) ? 1.0 : 3.0;
      auto got = service.Predict((*plans_)[0]);
      if (got.ok()) service.ReportObserved((*plans_)[0], got->mean() * scale);
    }
  });
  for (auto& t : readers) t.join();
  reporter.join();
  stop_publisher.store(true);
  publisher.join();

  EXPECT_FALSE(bad.load())
      << "a prediction mixed units from two epochs, lost its calibration "
         "stamp, or lost a stage-1 artifact across a swap";
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sample_runs, plans_->size())
      << "epoch swaps must not re-run stage 1";
  EXPECT_EQ(stats.fit_runs, plans_->size())
      << "epoch swaps must not re-run stage 2";
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.predictions);
  EXPECT_EQ(service.plan_registry_size(), 0u);
  // Final sweep: artifacts are still the originals, served under the
  // final epoch.
  const uint64_t final_epoch = service.calibration_epoch();
  EXPECT_GT(final_epoch, 1u);
  for (size_t i = 0; i < plans_->size(); ++i) {
    auto got = service.Predict((*plans_)[i]);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->sample_run.get(), first_seen[i]) << "plan " << i;
    EXPECT_EQ(got->calibration_epoch(), final_epoch) << "plan " << i;
  }
}

// The fault-injection chaos mix (run under TSan and ASan in CI):
// probabilistically injected stage failures and stalls race lock-free hot
// hits, a full-cache invalidator, mixed sync/async/degraded traffic, and a
// stats poller asserting the outcome-matrix conservation invariants at
// every snapshot. Each request bumps exactly ONE cell of the striped
// [hit|miss] x [ok|failed|degraded|deadline] matrix at resolution, so both
// partitions must hold mid-flight, not just at quiescence — and the
// derived totals must be monotone across polls.
TEST_F(IntraPlanRaceTest, FaultChaosKeepsTheOutcomeMatrixConserved) {
  ScheduledFaultOptions fopts;
  fopts.seed = 99;
  fopts.default_rule.fail_prob = 0.25;
  fopts.default_rule.latency_prob = 0.25;
  fopts.default_rule.latency_ms = 0.2;
  fopts.spurious_every = 7;
  ScheduledFaultInjector injector(fopts);

  ServiceOptions options;
  options.num_workers = 3;
  options.predictor.num_threads = 2;
  options.fault_injector = &injector;
  PredictionService service(db_, samples_, *units_, options);

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread poller([&] {
    uint64_t last_predictions = 0;
    while (!stop.load()) {
      const ServiceStats st = service.stats();
      if (st.cache_hits + st.cache_misses != st.predictions) {
        violation.store(true);
      }
      if (st.ok_served + st.failed + st.degraded_served +
              st.deadline_exceeded !=
          st.predictions) {
        violation.store(true);
      }
      if (st.predictions < last_predictions) violation.store(true);
      last_predictions = st.predictions;
      std::this_thread::yield();
    }
  });
  std::thread invalidator([&] {
    while (!stop.load()) {
      service.InvalidateCache();
      std::this_thread::yield();
    }
  });

  // The storm: async waves across every plan (alternating the degraded
  // opt-in) interleaved with blocking sync repeats that ride whatever the
  // cache or in-flight table holds at that instant. Failures are never
  // negatively cached, so a plan that faulted in wave k can hit in wave
  // k+1 — every terminal state is legal, but it must be terminal.
  RequestOptions degraded_ok;
  degraded_ok.allow_degraded = true;
  const int kWaves = 6;
  uint64_t failed_seen = 0;
  uint64_t degraded_seen = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::future<StatusOr<Prediction>>> futures;
    for (size_t i = 0; i < plans_->size(); ++i) {
      const bool soft = (wave + static_cast<int>(i)) % 2 == 0;
      futures.push_back(soft
                            ? service.PredictAsync((*plans_)[i], degraded_ok)
                            : service.PredictAsync((*plans_)[i]));
    }
    std::thread sync_hitter([&] {
      for (int r = 0; r < 4; ++r) {
        auto got = service.Predict((*plans_)[0], degraded_ok);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
      }
    });
    for (auto& f : futures) {
      auto got = f.get();
      if (got.ok()) {
        if (got->degraded) ++degraded_seen;
      } else {
        // The only hard failure in this storm is the injected one.
        EXPECT_EQ(got.status().code(), StatusCode::kUnavailable)
            << got.status().ToString();
        ++failed_seen;
      }
    }
    sync_hitter.join();
  }
  stop.store(true);
  poller.join();
  invalidator.join();

  EXPECT_FALSE(violation.load())
      << "a stats snapshot tore the conservation invariants mid-flight";
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.cache_hits + st.cache_misses, st.predictions);
  EXPECT_EQ(st.ok_served + st.failed + st.degraded_served +
                st.deadline_exceeded,
            st.predictions);
  EXPECT_EQ(st.failed, failed_seen);
  EXPECT_GE(st.degraded_served, degraded_seen);
  // Every injected fault the service observed came from this injector,
  // and nothing else failed.
  EXPECT_EQ(st.faults_injected, injector.faults_fired());
  EXPECT_GT(st.faults_injected, 0u) << "the chaos seed must actually bite";
  EXPECT_EQ(service.plan_registry_size(), 0u);
}

}  // namespace
}  // namespace uqp
