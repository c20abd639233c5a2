// Service-layer throughput: single sequential predictions (the seed's
// monolithic PredictionPipeline path, one sample run per call) versus the
// staged PredictionService with batched execution, fingerprint dedup and
// sample-run caching.
//
// The workload models a multi-user admission path: a stream of queries in
// which each distinct plan recurs a few times (recurring dashboards /
// templated queries), which is exactly where the service's fingerprint
// cache converts repeated sample runs into cheap fit/combine stages.
//
//   build/bench/bench_service_throughput

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "cost/calibration.h"
#include "datagen/tpch.h"
#include "engine/planner.h"
#include "hw/machine.h"
#include "common/status.h"
#include "math/rng.h"
#include "sampling/sample_db.h"
#include "service/fault.h"
#include "service/prediction_service.h"
#include "workload/arrivals.h"
#include "workload/common.h"

using namespace uqp;

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// open_loop_storm machinery: scheduled (open-loop) arrival traces replayed
// against the service, the way an admission controller actually sees
// traffic — requests arrive on the trace's clock whether or not earlier
// ones finished. Latency is measured from the SCHEDULED arrival, so a
// service that falls behind is charged for its backlog instead of the
// trace silently re-anchoring (no coordinated omission).
// ---------------------------------------------------------------------------

// Arrival traces come from workload/arrivals.h (MakeArrivalSeconds was
// promoted there so the scheduling simulator replays the same seeded
// schedules); "uniform" is constant gaps, "poisson" memoryless arrivals,
// "randwalk" bursty load following a clamped geometric walk.

struct OpenLoopResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool parity = true;  ///< every prediction bit-identical to the reference
};

/// Replays `arrivals` against the service from `clients` threads (thread c
/// owns arrivals c, c+clients, ...). Each request is checked bit-exact
/// against the sequential reference for its plan.
OpenLoopResult RunOpenLoop(PredictionService& service,
                           const std::vector<const Plan*>& pool,
                           const std::vector<size_t>& req_plan,
                           const std::vector<Prediction>& expected,
                           const std::vector<double>& arrivals, int clients) {
  const size_t n = arrivals.size();
  std::vector<double> latency(n, 0.0);
  std::atomic<bool> parity{true};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < n;
           i += static_cast<size_t>(clients)) {
        const auto scheduled =
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(arrivals[i]));
        std::this_thread::sleep_until(scheduled);
        const size_t p = req_plan[i];
        auto got = service.PredictAsync(*pool[p]).get();
        if (!got.ok() || got->mean() != expected[p].mean() ||
            got->breakdown.variance != expected[p].breakdown.variance) {
          parity.store(false);
        }
        latency[i] = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - scheduled)
                         .count();
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_ms = MsSince(t0);
  OpenLoopResult out;
  out.parity = parity.load();
  out.achieved_qps = 1000.0 * static_cast<double>(n) / elapsed_ms;
  out.offered_qps =
      arrivals.back() > 0.0 ? static_cast<double>(n) / arrivals.back() : 0.0;
  std::sort(latency.begin(), latency.end());
  out.p50_ms = latency[n / 2];
  out.p99_ms = latency[std::min(n - 1, (n * 99) / 100)];
  return out;
}

/// Closed-loop peak: `clients` threads submit as fast as completions
/// allow. Calibrates the arrival rates the open-loop traces are scaled to.
double MeasureClosedLoopQps(PredictionService& service,
                            const std::vector<const Plan*>& pool,
                            const std::vector<size_t>& req_plan, int clients) {
  const size_t n = req_plan.size();
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        (void)service.PredictAsync(*pool[req_plan[i]]).get();
      }
    });
  }
  for (auto& t : threads) t.join();
  return 1000.0 * static_cast<double>(n) / MsSince(t0);
}

}  // namespace

int main() {
  Database db = MakeTpchDatabase(TpchConfig::Profile("tiny"));
  SimulatedMachine machine(MachineProfile::PC1(), 23);
  Calibrator calibrator(&machine);
  const CostUnits units = calibrator.Calibrate();
  SampleOptions sample_options;
  sample_options.sampling_ratio = 0.05;
  const SampleDb samples = SampleDb::Build(db, sample_options);

  // Distinct plans from the SELJOIN templates...
  SelJoinOptions wopts;
  wopts.instances_per_template = 2;
  auto queries = MakeSelJoinWorkload(db, wopts);
  std::vector<Plan> distinct;
  for (auto& q : queries) {
    auto plan_or = OptimizePlan(std::move(q.logical), db);
    if (plan_or.ok()) distinct.push_back(std::move(plan_or).value());
  }
  // ... each recurring kRepeats times, interleaved round-robin.
  const int kRepeats = 4;
  std::vector<const Plan*> stream;
  for (int r = 0; r < kRepeats; ++r) {
    for (const Plan& p : distinct) stream.push_back(&p);
  }
  std::printf("workload: %zu predictions (%zu distinct plans x %d repeats)\n\n",
              stream.size(), distinct.size(), kRepeats);

  const int kReps = 3;

  // --- baseline: sequential single-plan Predict, no service layer -------
  // One full pipeline run (sample + fit + combine) per prediction.
  double seq_ms = 0.0;
  {
    PredictionPipeline predictor(&db, &samples, units);
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (const Plan* p : stream) {
        auto pred = predictor.Predict(*p);
        if (!pred.ok()) {
          std::fprintf(stderr, "predict failed: %s\n",
                       pred.status().ToString().c_str());
          return 1;
        }
      }
      seq_ms += MsSince(t0);
    }
    seq_ms /= kReps;
  }

  // --- service: PredictBatch, cold cache each rep -----------------------
  // Fingerprint dedup means each distinct plan samples once per rep.
  double batch_ms = 0.0;
  {
    for (int rep = 0; rep < kReps; ++rep) {
      PredictionService service(&db, &samples, units);
      const auto t0 = std::chrono::steady_clock::now();
      const auto results = service.PredictBatch(stream);
      batch_ms += MsSince(t0);
      for (const auto& r : results) {
        if (!r.ok()) {
          std::fprintf(stderr, "batch predict failed: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
      }
    }
    batch_ms /= kReps;
  }

  // --- service: hot cache (recurring plans already sampled) -------------
  double hot_ms = 0.0;
  {
    PredictionService service(&db, &samples, units);
    auto warm = service.PredictBatch(stream);  // populate the cache
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto results = service.PredictBatch(stream);
      hot_ms += MsSince(t0);
      for (const auto& r : results) {
        if (!r.ok()) return 1;
      }
    }
    hot_ms /= kReps;
  }

  // --- service: contended recurring-query storm via PredictAsync --------
  // Every request in the stream is submitted at once against a cold
  // service, the way concurrent arrivals of recurring dashboard queries
  // hit an admission path. The in-flight dedup table must collapse the
  // storm to ONE stage-1 execution per distinct fingerprint — every other
  // request rides the winner's shared future or the cache.
  double storm_ms = 0.0;
  uint64_t storm_runs = 0, storm_joins = 0, storm_hits = 0;
  bool dedup_ok = true;
  {
    for (int rep = 0; rep < kReps; ++rep) {
      PredictionService service(&db, &samples, units);
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::future<StatusOr<Prediction>>> futures;
      futures.reserve(stream.size());
      for (const Plan* p : stream) futures.push_back(service.PredictAsync(*p));
      for (auto& f : futures) {
        auto r = f.get();
        if (!r.ok()) {
          std::fprintf(stderr, "async predict failed: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
      }
      storm_ms += MsSince(t0);
      const ServiceStats st = service.stats();
      storm_runs += st.sample_runs;
      storm_joins += st.inflight_joins;
      storm_hits += st.cache_hits;
      dedup_ok = dedup_ok && st.sample_runs == distinct.size();
    }
    storm_ms /= kReps;
  }

  // --- lifetime gate: drop-plan-early PredictAsync storm ----------------
  // Every submission's Plan is a clone destroyed the moment PredictAsync
  // returns — the fire-and-forget contract. The service must predict from
  // its registry clones (one per distinct plan, interned across the
  // storm), satisfy every future, and drain the registry afterwards.
  double drop_ms = 0.0;
  uint64_t drop_runs = 0, drop_clones = 0;
  bool drop_ok = true;
  {
    for (int rep = 0; rep < kReps; ++rep) {
      PredictionService service(&db, &samples, units);
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::future<StatusOr<Prediction>>> futures;
      futures.reserve(stream.size());
      for (const Plan* p : stream) {
        Plan doomed = p->Clone();
        futures.push_back(service.PredictAsync(doomed));
      }  // doomed destroyed here, long before most workers run
      for (auto& f : futures) {
        auto r = f.get();
        if (!r.ok()) {
          std::fprintf(stderr, "drop-plan predict failed: %s\n",
                       r.status().ToString().c_str());
          drop_ok = false;
        }
      }
      drop_ms += MsSince(t0);
      const ServiceStats st = service.stats();
      drop_runs += st.sample_runs;
      drop_clones += st.plan_clones;
      // The registry drains per-request, so a repeat submitted after its
      // predecessor already completed legitimately re-clones: clones land
      // between one per distinct plan (fully overlapped storm) and one
      // per request (fully sequential), never more.
      drop_ok = drop_ok && st.sample_runs == distinct.size() &&
                st.plan_clones >= distinct.size() &&
                st.plan_clones <= stream.size() &&
                service.plan_registry_size() == 0;
    }
    drop_ms /= kReps;
  }

  // --- pool-progress gate: dedup losers must not block workers ----------
  // The winner of a same-fingerprint storm is gated mid-stages on one of
  // TWO workers. The losers must park continuations and return the second
  // worker to the pool, so unrelated predictions keep flowing while the
  // winner is gated; if any loser sat in future::get(), the pool would be
  // dead and the unrelated futures below would time out.
  bool progress_ok = true;
  {
    ServiceOptions o;
    o.num_workers = 2;
    std::mutex mu;
    std::condition_variable cv;
    bool winner_parked = false;
    bool release = false;
    std::atomic<int> hook_calls{0};
    o.post_stages_hook = [&] {
      if (hook_calls.fetch_add(1) == 0) {
        std::unique_lock<std::mutex> lock(mu);
        winner_parked = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      }
    };
    PredictionService service(&db, &samples, units, o);
    auto winner = service.PredictAsync(distinct[0]);
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return winner_parked; });
    }
    std::vector<std::future<StatusOr<Prediction>>> losers;
    for (int i = 0; i < 16; ++i) {
      losers.push_back(service.PredictAsync(distinct[0]));
    }
    for (size_t i = 1; i < distinct.size(); ++i) {
      auto f = service.PredictAsync(distinct[i]);
      if (f.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
        std::fprintf(stderr,
                     "pool starved: unrelated prediction stuck behind "
                     "dedup losers\n");
        progress_ok = false;
        break;
      }
      progress_ok = progress_ok && f.get().ok();
    }
    for (auto& f : losers) {
      // Parked, not finished: their artifacts exist only once the winner
      // completes.
      progress_ok = progress_ok &&
                    f.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
      cv.notify_all();
    }
    progress_ok = progress_ok && winner.get().ok();
    for (auto& f : losers) progress_ok = progress_ok && f.get().ok();
    progress_ok =
        progress_ok && service.stats().inflight_joins == losers.size();
  }

  // --- single-plan cold latency: intra-query parallel sample run --------
  // Admission control is gated by per-query COLD latency, not batch
  // throughput: the service's plan-level sharding cannot help the first
  // prediction of one plan. Intra-query parallelism can. Heavier samples
  // (full ratio) make stage 1 dominate; take the slowest plan and compare
  // cold Predict at num_threads = 1 vs 4. Bit-identical results are a
  // hard gate everywhere; the speedup gate applies only where the runner
  // actually has cores (hardware_concurrency >= 2).
  // A dedicated 1gb-profile database with full-ratio samples, shared by
  // both cold-latency scenarios below: stage 1 is tens of milliseconds of
  // real operator work, so shard dispatch overhead is noise and the
  // speedups measure actual parallelism.
  Database heavy_db = MakeTpchDatabase(TpchConfig::Profile("1gb"));
  SampleOptions heavy;
  heavy.sampling_ratio = 1.0;
  const SampleDb heavy_samples = SampleDb::Build(heavy_db, heavy);

  double lat1_ms = 0.0, lat4_ms = 0.0;
  bool parallel_parity_ok = true;
  {
    SelJoinOptions heavy_wopts;
    heavy_wopts.instances_per_template = 1;
    auto heavy_queries = MakeSelJoinWorkload(heavy_db, heavy_wopts);
    std::vector<Plan> heavy_plans;
    for (auto& q : heavy_queries) {
      auto plan_or = OptimizePlan(std::move(q.logical), heavy_db);
      if (plan_or.ok()) heavy_plans.push_back(std::move(plan_or).value());
    }
    PredictionPipeline sequential(&heavy_db, &heavy_samples, units);
    size_t heaviest = 0;
    double worst_ms = -1.0;
    for (size_t i = 0; i < heavy_plans.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      auto pred = sequential.Predict(heavy_plans[i]);
      const double ms = MsSince(t0);
      if (pred.ok() && ms > worst_ms) {
        worst_ms = ms;
        heaviest = i;
      }
    }
    // Long-lived pool, as the service would hold: per-prediction cost is
    // shard dispatch, not thread spawning.
    MorselPool pool(4);
    PredictorOptions par_opts;
    par_opts.num_threads = 4;
    PredictionPipeline parallel(&heavy_db, &heavy_samples, units, par_opts,
                                &pool);
    const Plan& plan = heavy_plans[heaviest];
    const int kLatReps = 5;
    for (int rep = 0; rep < kLatReps; ++rep) {
      const auto t1 = std::chrono::steady_clock::now();
      auto seq_pred = sequential.Predict(plan);
      lat1_ms += MsSince(t1);
      const auto t4 = std::chrono::steady_clock::now();
      auto par_pred = parallel.Predict(plan);
      lat4_ms += MsSince(t4);
      parallel_parity_ok =
          parallel_parity_ok && seq_pred.ok() && par_pred.ok() &&
          seq_pred->mean() == par_pred->mean() &&
          seq_pred->breakdown.variance == par_pred->breakdown.variance;
    }
    lat1_ms /= kLatReps;
    lat4_ms /= kLatReps;
  }
  const double single_plan_speedup = lat1_ms > 0.0 ? lat1_ms / lat4_ms : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();

  // --- sort/agg cold latency: the parallel operator tail ----------------
  // The seljoin plans above are scan/join-shaped; TPC-H-style reporting
  // queries hang an ORDER BY + GROUP BY tail over the joins, and until
  // this scenario's operators went parallel (fixed-shape merge sort,
  // per-chunk aggregation tables, sharded merge-join emission) a cold
  // prediction of such a plan stayed pinned near single-core latency no
  // matter how many workers the service had. Scan -> sort -> aggregate
  // over the full-ratio 1gb lineitem sample (~60k rows), num_threads 1 vs
  // 4. Bit-identical N(mu, sigma^2) is a hard gate everywhere; the
  // speedup gate scales with the cores the runner actually has.
  double sa1_ms = 0.0, sa4_ms = 0.0;
  bool sort_agg_parity_ok = true;
  {
    // ORDER BY (l_shipdate, l_orderkey) under GROUP BY l_suppkey: the
    // always-true filter keeps the scan on the sharded path, the sort
    // carries the full ~60k rows, and the aggregation's ~100 groups keep
    // its sequential chunk-table merge negligible next to the parallel
    // accumulation phase.
    auto scan = MakeSeqScan(
        "lineitem", Expr::Cmp(4, CmpOp::kGe, Value::Double(0.0)));
    auto sort = MakeSort(std::move(scan), {10, 0});
    auto agg = MakeAggregate(std::move(sort), {2},
                             {{AggSpec::Kind::kCount, -1, "cnt"},
                              {AggSpec::Kind::kSum, 5, "sum_price"},
                              {AggSpec::Kind::kMin, 4, "min_qty"},
                              {AggSpec::Kind::kMax, 6, "max_disc"},
                              {AggSpec::Kind::kAvg, 7, "avg_tax"}});
    Plan sort_agg_plan(std::move(agg));
    if (!sort_agg_plan.Finalize(heavy_db).ok()) {
      std::fprintf(stderr, "sort/agg plan failed to finalize\n");
      return 1;
    }
    PredictionPipeline sequential(&heavy_db, &heavy_samples, units);
    MorselPool pool(4);
    PredictorOptions par_opts;
    par_opts.num_threads = 4;
    PredictionPipeline parallel(&heavy_db, &heavy_samples, units, par_opts,
                                &pool);
    // One untimed warmup per predictor so rep 0's sequential measurement
    // doesn't absorb first-touch/allocator costs the parallel measurement
    // right after it never pays (which would inflate the speedup).
    (void)sequential.Predict(sort_agg_plan);
    (void)parallel.Predict(sort_agg_plan);
    const int kLatReps = 5;
    for (int rep = 0; rep < kLatReps; ++rep) {
      const auto t1 = std::chrono::steady_clock::now();
      auto seq_pred = sequential.Predict(sort_agg_plan);
      sa1_ms += MsSince(t1);
      const auto t4 = std::chrono::steady_clock::now();
      auto par_pred = parallel.Predict(sort_agg_plan);
      sa4_ms += MsSince(t4);
      sort_agg_parity_ok =
          sort_agg_parity_ok && seq_pred.ok() && par_pred.ok() &&
          seq_pred->mean() == par_pred->mean() &&
          seq_pred->breakdown.variance == par_pred->breakdown.variance;
    }
    sa1_ms /= kLatReps;
    sa4_ms /= kLatReps;
  }
  const double sort_agg_speedup = sa4_ms > 0.0 ? sa1_ms / sa4_ms : 0.0;

  // --- open_loop_storm: arrival traces against the sharded read path ----
  // Uniform / Poisson / bursty random-walk traces at 0.25x/0.5x/1.0x the
  // calibrated closed-loop peak, replayed against (a) a fully hot cache
  // and (b) a mixed hot/cold workload whose plan pool exceeds the cache
  // capacity (70% of requests hit a 2-plan hot set, 30% churn through the
  // rest). A 2x-peak uniform probe measures saturation throughput, run on
  // both the sharded lock-free configuration and the pre-PR single-mutex
  // baseline (cache_shards=1, lock_free_hits=false) — the hard gate is
  // sharded >= single at hw >= 4, with bit-exact prediction parity gated
  // everywhere.
  struct StormRow {
    const char* workload;
    const char* trace;
    double rate_frac;
    OpenLoopResult r;
  };
  std::vector<StormRow> storm_rows;
  double hot_peak_qps = 0.0, mixed_peak_qps = 0.0;
  double sat_hot_sharded_qps = 0.0, sat_hot_single_qps = 0.0;
  double sat_mixed_sharded_qps = 0.0;
  bool open_loop_parity = true;
  int sharded_shards = 0;
  {
    std::vector<const Plan*> pool;
    pool.reserve(distinct.size());
    for (const Plan& p : distinct) pool.push_back(&p);
    PredictionPipeline reference(&db, &samples, units);
    std::vector<Prediction> expected;
    expected.reserve(pool.size());
    for (const Plan* p : pool) {
      auto r = reference.Predict(*p);
      if (!r.ok()) {
        std::fprintf(stderr, "open-loop reference failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      expected.push_back(std::move(r).value());
    }
    const int clients = static_cast<int>(std::min(16u, std::max(4u, hw)));

    const size_t kHotN = 1024;
    const size_t kMixedN = 384;
    std::vector<size_t> hot_req(kHotN);
    for (size_t i = 0; i < kHotN; ++i) hot_req[i] = i % pool.size();
    // Mixed: 7 of 10 requests on a 2-plan hot set, the rest round-robin
    // over the cold tail — against a cache half the pool size, so the
    // tail churns through evictions while the hot set stays resident.
    std::vector<size_t> mixed_req(kMixedN);
    const size_t hot_set = std::min<size_t>(2, pool.size());
    const size_t cold_tail = std::max<size_t>(1, pool.size() - hot_set);
    for (size_t i = 0; i < kMixedN; ++i) {
      mixed_req[i] = (i % 10) < 7 ? i % hot_set
                                  : (hot_set + i % cold_tail) % pool.size();
    }
    const size_t mixed_capacity = std::max<size_t>(1, pool.size() / 2);

    ServiceOptions sharded_opts;  // defaults: auto shards, lock-free hits
    ServiceOptions single_opts;
    single_opts.cache_shards = 1;
    single_opts.lock_free_hits = false;

    // Long-lived services, the deployment shape: hot ones pre-warmed once.
    PredictionService hot_sharded(&db, &samples, units, sharded_opts);
    PredictionService hot_single(&db, &samples, units, single_opts);
    sharded_shards = hot_sharded.num_shards();
    for (const Plan* p : pool) {
      if (!hot_sharded.Predict(*p).ok() || !hot_single.Predict(*p).ok()) {
        std::fprintf(stderr, "open-loop warmup failed\n");
        return 1;
      }
    }
    ServiceOptions mixed_opts = sharded_opts;
    mixed_opts.cache_capacity = mixed_capacity;
    PredictionService mixed_sharded(&db, &samples, units, mixed_opts);

    hot_peak_qps = MeasureClosedLoopQps(hot_sharded, pool, hot_req, clients);
    mixed_peak_qps =
        MeasureClosedLoopQps(mixed_sharded, pool, mixed_req, clients);

    const double kRateFracs[] = {0.25, 0.5, 1.0};
    const char* kTraces[] = {"uniform", "poisson", "randwalk"};
    uint64_t trace_seed = 71;
    for (const char* trace : kTraces) {
      for (const double frac : kRateFracs) {
        const auto hot_at = MakeArrivalSeconds(trace, frac * hot_peak_qps,
                                               kHotN, trace_seed++);
        auto r = RunOpenLoop(hot_sharded, pool, hot_req, expected, hot_at,
                             clients);
        open_loop_parity = open_loop_parity && r.parity;
        storm_rows.push_back({"hot", trace, frac, r});

        const auto mixed_at = MakeArrivalSeconds(trace, frac * mixed_peak_qps,
                                                 kMixedN, trace_seed++);
        r = RunOpenLoop(mixed_sharded, pool, mixed_req, expected, mixed_at,
                        clients);
        open_loop_parity = open_loop_parity && r.parity;
        storm_rows.push_back({"mixed", trace, frac, r});
      }
    }

    // Saturation probes: uniform arrivals offered at 2x the calibrated
    // peak, so achieved throughput measures the service's ceiling. Best
    // of two probes per configuration to damp scheduler noise.
    const auto sat_hot_at =
        MakeArrivalSeconds("uniform", 2.0 * hot_peak_qps, kHotN, 977);
    const auto sat_mixed_at =
        MakeArrivalSeconds("uniform", 2.0 * mixed_peak_qps, kMixedN, 978);
    for (int probe = 0; probe < 2; ++probe) {
      auto rs = RunOpenLoop(hot_sharded, pool, hot_req, expected, sat_hot_at,
                            clients);
      auto r1 = RunOpenLoop(hot_single, pool, hot_req, expected, sat_hot_at,
                            clients);
      auto rm = RunOpenLoop(mixed_sharded, pool, mixed_req, expected,
                            sat_mixed_at, clients);
      open_loop_parity =
          open_loop_parity && rs.parity && r1.parity && rm.parity;
      sat_hot_sharded_qps = std::max(sat_hot_sharded_qps, rs.achieved_qps);
      sat_hot_single_qps = std::max(sat_hot_single_qps, r1.achieved_qps);
      sat_mixed_sharded_qps = std::max(sat_mixed_sharded_qps, rm.achieved_qps);
    }
  }

  // --- drift_storm: the online feedback loop under hardware drift -------
  // A recurring-plan storm is humming along on a warmed service when the
  // machine drifts (every latent cost-unit mean scales 3.5x: thermal
  // throttling, a failing disk, a noisy neighbour). A frozen service keeps
  // serving stale predictions; the feedback-enabled service watches
  // observed runtimes, detects the drift from windowed relative error,
  // re-derives the cost units through the standard calibration machinery
  // and publishes a new epoch — WITHOUT flushing stage-1/2 artifacts:
  // every cached plan re-combines lazily under the new snapshot. Both
  // services replay the SAME observation trace, so the comparison is
  // exact.
  const double kDriftFactor = 3.5;
  const int kPreRounds = 6;    // accurate phase: families converge
  const int kDriftRounds = 8;  // probes fail, windows refill, drift fires
  double ds_err_pre = 0.0, ds_err_frozen = 0.0;
  double ds_err_adaptive_pre = 0.0, ds_err_adaptive_post = 0.0;
  double ds_recombine_ms = 0.0, ds_full_miss_ms = 0.0;
  uint64_t ds_recalibrations = 0, ds_recombines = 0, ds_sample_runs = 0;
  uint64_t ds_reports = 0, ds_converged = 0, ds_epoch = 0;
  size_t ds_plan_count = 0;
  int ds_post_n = 0;
  bool ds_freeze_ok = true, ds_identity_ok = true;
  {
    // Ground truth: execute each distinct plan once, then replay its
    // operator resource profile on a dedicated truth machine (the paper's
    // averaged-runs protocol).
    Executor executor(&db);
    std::vector<ExecResult> all_execs;
    all_execs.reserve(distinct.size());
    for (const Plan& p : distinct) {
      auto r = executor.Execute(p, ExecOptions{});
      if (!r.ok()) {
        std::fprintf(stderr, "drift_storm execute failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      all_execs.push_back(std::move(r).value());
    }
    SimulatedMachine truth(MachineProfile::PC1(), 131);

    // Screen the storm to plans the offline calibration predicts well
    // (baseline model bias <= 0.25, at least 6 plans). The drift detector
    // keys on good-predictions-turned-bad; a plan whose cost model is
    // structurally biased past drift_threshold would trip it with no
    // drift at all — real deployments tune drift_threshold above their
    // known model bias, the bench selects its families instead.
    std::vector<const Plan*> ds_plans;
    std::vector<const ExecResult*> execs;
    {
      PredictionPipeline screen(&db, &samples, units);
      std::vector<std::pair<double, size_t>> by_bias;
      for (size_t i = 0; i < distinct.size(); ++i) {
        auto p = screen.Predict(distinct[i]);
        if (!p.ok()) continue;
        const double obs = truth.ExecuteAveraged(all_execs[i], 5);
        by_bias.emplace_back(std::fabs(obs - p->mean()) / obs, i);
      }
      std::sort(by_bias.begin(), by_bias.end());
      const size_t kMinPlans = std::min<size_t>(6, by_bias.size());
      for (size_t k = 0; k < by_bias.size(); ++k) {
        if (k >= kMinPlans && by_bias[k].first > 0.25) break;
        ds_plans.push_back(&distinct[by_bias[k].second]);
        execs.push_back(&all_execs[by_bias[k].second]);
      }
    }
    ds_plan_count = ds_plans.size();
    if (ds_plan_count == 0) {
      std::fprintf(stderr, "drift_storm: no predictable plans\n");
      return 1;
    }

    std::vector<std::vector<double>> obs_pre(kPreRounds),
        obs_drift(kDriftRounds);
    for (int r = 0; r < kPreRounds; ++r) {
      for (const ExecResult* e : execs) {
        obs_pre[r].push_back(truth.ExecuteAveraged(*e, 3));
      }
    }
    truth.ApplyDrift(kDriftFactor);  // mid-storm hardware drift
    for (int r = 0; r < kDriftRounds; ++r) {
      for (const ExecResult* e : execs) {
        obs_drift[r].push_back(truth.ExecuteAveraged(*e, 3));
      }
    }

    ServiceOptions frozen_opts;  // feedback disabled: the pre-PR world
    PredictionService frozen(&db, &samples, units, frozen_opts);
    ServiceOptions adaptive_opts;
    adaptive_opts.feedback.enabled = true;
    adaptive_opts.feedback.window_size = 4;
    adaptive_opts.feedback.converge_threshold = 0.35;
    adaptive_opts.feedback.drift_threshold = 0.55;
    // Probe on every 4th report: report 4 is the converge decision itself
    // and report 8 is mid-drift, so no probe can resume a family on one
    // noisy observation during the accurate phase.
    adaptive_opts.feedback.probe_interval = 4;
    adaptive_opts.feedback.cooldown_reports = 8 * ds_plan_count;
    adaptive_opts.feedback.recalibrate = [kDriftFactor]() {
      // Re-run the calibration suite on the now-drifted hardware.
      SimulatedMachine drifted(
          MachineProfile::PC1().WithUnitMeansScaled(kDriftFactor), 211);
      Calibrator recal(&drifted);
      return recal.Calibrate();
    };
    PredictionService adaptive(&db, &samples, units, adaptive_opts);
    std::vector<const SampleRunOutput*> first_runs;
    first_runs.reserve(ds_plan_count);
    for (const Plan* p : ds_plans) {
      auto f = frozen.Predict(*p);
      auto a = adaptive.Predict(*p);
      if (!f.ok() || !a.ok()) {
        std::fprintf(stderr, "drift_storm warmup failed\n");
        return 1;
      }
      first_runs.push_back(a->sample_run.get());
    }

    const auto rel_err = [](double predicted, double observed) {
      return std::fabs(observed - predicted) / observed;
    };
    int pre_n = 0, frozen_n = 0, apre_n = 0;
    std::vector<FamilyFeedback> at_freeze;
    for (int r = 0; r < kPreRounds; ++r) {
      for (size_t i = 0; i < ds_plan_count; ++i) {
        const double obs = obs_pre[r][i];
        auto f = frozen.Predict(*ds_plans[i]);
        if (f.ok()) {
          ds_err_pre += rel_err(f->mean(), obs);
          ++pre_n;
        }
        adaptive.ReportObserved(*ds_plans[i], obs);
      }
      if (r == kPreRounds - 2) at_freeze = adaptive.FeedbackSnapshot();
    }
    // Converged families must have stopped updating their error windows:
    // the last accurate round changed no converged window.
    {
      const auto now = adaptive.FeedbackSnapshot();
      for (const auto& then_f : at_freeze) {
        if (!then_f.converged) continue;
        for (const auto& now_f : now) {
          if (now_f.fingerprint != then_f.fingerprint) continue;
          ds_freeze_ok = ds_freeze_ok && now_f.converged &&
                         now_f.window_updates == then_f.window_updates;
        }
      }
      for (const auto& f : now) ds_converged += f.converged ? 1 : 0;
      ds_freeze_ok = ds_freeze_ok && ds_converged >= 1;
    }

    for (int r = 0; r < kDriftRounds; ++r) {
      for (size_t i = 0; i < ds_plan_count; ++i) {
        const double obs = obs_drift[r][i];
        auto f = frozen.Predict(*ds_plans[i]);
        if (f.ok()) {
          ds_err_frozen += rel_err(f->mean(), obs);
          ++frozen_n;
        }
        const bool recalibrated = adaptive.stats().recalibrations > 0;
        auto a = adaptive.Predict(*ds_plans[i]);
        if (a.ok()) {
          const double err = rel_err(a->mean(), obs);
          if (recalibrated) {
            ds_err_adaptive_post += err;
            ++ds_post_n;
          } else {
            ds_err_adaptive_pre += err;
            ++apre_n;
          }
        }
        adaptive.ReportObserved(*ds_plans[i], obs);
      }
    }
    ds_err_pre = pre_n > 0 ? ds_err_pre / pre_n : 0.0;
    ds_err_frozen = frozen_n > 0 ? ds_err_frozen / frozen_n : 0.0;
    ds_err_adaptive_pre = apre_n > 0 ? ds_err_adaptive_pre / apre_n : 0.0;
    ds_err_adaptive_post =
        ds_post_n > 0 ? ds_err_adaptive_post / ds_post_n : 0.0;

    const ServiceStats ast = adaptive.stats();
    ds_recalibrations = ast.recalibrations;
    ds_recombines = ast.recombines;
    ds_sample_runs = ast.sample_runs;
    ds_reports = ast.feedback_reports;
    ds_epoch = adaptive.calibration_epoch();
    // Epoch swaps must not have cost a single stage-1/2 artifact: one
    // sample run per distinct plan, and every post-recalibration hit still
    // serves the first-seen artifact object.
    ds_identity_ok = ast.sample_runs == ds_plan_count;
    for (size_t i = 0; i < ds_plan_count; ++i) {
      auto a = adaptive.Predict(*ds_plans[i]);
      ds_identity_ok =
          ds_identity_ok && a.ok() && a->sample_run.get() == first_runs[i];
    }

    // Recombine vs full miss: a calibration swap costs each cached entry
    // one stage-3 re-combination; a cache flush re-runs all three stages.
    const int kSwapReps = 3;
    for (int rep = 0; rep < kSwapReps; ++rep) {
      adaptive.PublishCalibration(adaptive.calibration()->units, "bench");
      const auto t0 = std::chrono::steady_clock::now();
      for (const Plan* p : ds_plans) (void)adaptive.Predict(*p);
      ds_recombine_ms += MsSince(t0);
      adaptive.InvalidateCache();
      const auto t1 = std::chrono::steady_clock::now();
      for (const Plan* p : ds_plans) (void)adaptive.Predict(*p);
      ds_full_miss_ms += MsSince(t1);
    }
    const double per = static_cast<double>(kSwapReps) *
                       static_cast<double>(ds_plan_count);
    ds_recombine_ms /= per;
    ds_full_miss_ms /= per;
  }
  const double ds_error_cut =
      ds_err_adaptive_post > 0.0 ? ds_err_frozen / ds_err_adaptive_post : 0.0;

  // --- chaos_storm: fault injection against the full service stack ------
  // Two identically-seeded fault schedules drive two services through the
  // same request stream: A opts into cost-only degradation and runs the
  // per-family circuit breaker, B is the no-fallback baseline. A poisoned
  // plan family never heals, a flaky family heals after two attempts, a
  // slow family stalls 20ms per stage-1 run. Gates: (a) the striped
  // outcome matrix stays conserved at every concurrent stats snapshot,
  // (b) degraded availability >= the baseline with strictly more
  // successful responses, (c) the quarantined family stops consuming
  // fault-schedule attempts while the breaker is open, and (d) the fault
  // schedule and fired log replay bit-identically across worker counts.
  const int kChaosWaves = 6;
  const int kBreakerThreshold = 3;
  size_t cs_requests = 0;
  uint64_t cs_a_ok = 0, cs_a_degraded = 0, cs_a_failed = 0;
  uint64_t cs_b_ok = 0, cs_b_failed = 0;
  uint64_t cs_poison_requests = 0, cs_poison_attempts = 0;
  uint64_t cs_opens = 0, cs_shed = 0, cs_probes = 0;
  uint64_t cs_faults = 0, cs_deadline = 0, cs_spurious = 0;
  bool cs_conservation_ok = true;
  bool cs_poison_never_cached = false;
  bool cs_flaky_healed = false;
  bool cs_deadline_ok = true;
  bool cs_schedule_ok = false, cs_replay_ok = false;
  {
    if (distinct.size() < 4) {
      std::fprintf(stderr, "chaos_storm needs >= 4 distinct plans\n");
      return 1;
    }
    const uint64_t poison_fp = PlanFingerprint(distinct[0]);
    const uint64_t flaky_fp = PlanFingerprint(distinct[1]);
    const uint64_t slow_fp = PlanFingerprint(distinct[2]);
    const auto chaos_rules = [&] {
      ScheduledFaultOptions fo;
      fo.seed = 4242;
      fo.spurious_every = 5;
      FaultRule poison;
      poison.fail_attempts = 1000;  // never heals
      fo.rules[poison_fp] = poison;
      FaultRule flaky;
      flaky.fail_attempts = 2;  // heals on the third attempt
      fo.rules[flaky_fp] = flaky;
      FaultRule slow;
      slow.latency_prob = 1.0;
      slow.latency_ms = 20.0;
      fo.rules[slow_fp] = slow;
      return fo;
    };

    ScheduledFaultInjector inj_a(chaos_rules());
    ScheduledFaultInjector inj_b(chaos_rules());
    ServiceOptions a_opts;
    a_opts.num_workers = 2;
    a_opts.fault_injector = &inj_a;
    a_opts.breaker.failure_threshold = kBreakerThreshold;
    a_opts.breaker.cooldown_requests = 4;
    PredictionService a(&db, &samples, units, a_opts);
    ServiceOptions b_opts;
    b_opts.num_workers = 2;
    b_opts.fault_injector = &inj_b;
    PredictionService b(&db, &samples, units, b_opts);

    // (a) the conservation poller: both partitions of the striped outcome
    // matrix must hold at EVERY concurrent snapshot, not just quiescence.
    std::atomic<bool> stop_poller{false};
    std::thread poller([&] {
      while (!stop_poller.load()) {
        for (PredictionService* s : {&a, &b}) {
          const ServiceStats st = s->stats();
          if (st.cache_hits + st.cache_misses != st.predictions ||
              st.ok_served + st.failed + st.degraded_served +
                      st.deadline_exceeded !=
                  st.predictions) {
            cs_conservation_ok = false;
          }
        }
        std::this_thread::yield();
      }
    });

    RequestOptions degraded_ok;
    degraded_ok.allow_degraded = true;
    for (int wave = 0; wave < kChaosWaves; ++wave) {
      std::vector<std::future<StatusOr<Prediction>>> fa, fb;
      for (const Plan& p : distinct) {
        fa.push_back(a.PredictAsync(p, degraded_ok));
        fb.push_back(b.PredictAsync(p));
      }
      // Extra pressure on the poisoned family: the breaker's cooldown
      // counts requests, so the storm must keep asking to reach probes.
      for (int extra = 0; extra < 2; ++extra) {
        fa.push_back(a.PredictAsync(distinct[0], degraded_ok));
        fb.push_back(b.PredictAsync(distinct[0]));
      }
      cs_poison_requests += 3;
      for (auto& f : fa) {
        auto r = f.get();
        ++cs_requests;
        if (r.ok()) {
          if (r->degraded) {
            ++cs_a_degraded;
          } else {
            ++cs_a_ok;
          }
        } else {
          ++cs_a_failed;
        }
      }
      for (auto& f : fb) {
        auto r = f.get();
        if (r.ok()) {
          ++cs_b_ok;
        } else {
          ++cs_b_failed;
        }
      }
    }

    // The poisoned family must never be served from the cache without the
    // degraded opt-in — a plain request still fails (injected fault or
    // quarantine shed, depending on the breaker's phase) — while the
    // healed flaky family serves a real, non-degraded prediction.
    cs_poison_never_cached = !a.Predict(distinct[0]).ok();
    ++cs_poison_requests;
    auto healed = a.Predict(distinct[1]);
    cs_flaky_healed = healed.ok() && !healed->degraded;

    // The deadline channel: flush the cache so the slow family's 20ms
    // stall is real again, then two 2ms-deadline requests (kept below the
    // breaker threshold — deadline cancellations count as family
    // failures) must resolve DeadlineExceeded without poisoning anything,
    // and the follow-up unbounded request succeeds and resets the streak.
    a.InvalidateCache();
    const uint64_t deadline_before = a.stats().deadline_exceeded;
    RequestOptions tight;
    tight.deadline_ms = 2.0;
    for (int i = 0; i < 2; ++i) {
      auto r = a.Predict(distinct[2], tight);
      cs_deadline_ok = cs_deadline_ok && !r.ok() &&
                       r.status().code() == StatusCode::kDeadlineExceeded;
    }
    cs_deadline_ok = cs_deadline_ok && a.Predict(distinct[2]).ok();
    stop_poller.store(true);
    poller.join();
    cs_deadline = a.stats().deadline_exceeded - deadline_before;
    cs_deadline_ok = cs_deadline_ok && cs_deadline == 2;

    const ServiceStats sta = a.stats();
    cs_opens = sta.breaker_opens;
    cs_shed = sta.breaker_shed;
    cs_probes = sta.breaker_probes;
    cs_faults = sta.faults_injected;
    cs_spurious = sta.spurious_wakeups;
    cs_poison_attempts = inj_a.AttemptCount(poison_fp);

    // (d) replay determinism: the same seeded schedule driven by the same
    // per-family attempt sequence produces byte-identical schedules AND
    // fired logs at num_workers = 1 and hardware_concurrency. Synchronous
    // round-robin traffic pins the attempt sequence; the cache is flushed
    // between rounds so the healed family keeps consuming schedule draws.
    const auto replay = [&](int workers) {
      ScheduledFaultInjector inj(chaos_rules());
      ServiceOptions o;
      o.num_workers = workers;
      o.fault_injector = &inj;
      PredictionService s(&db, &samples, units, o);
      RequestOptions deg;
      deg.allow_degraded = true;
      for (int round = 0; round < 4; ++round) {
        (void)s.Predict(distinct[0], deg);
        (void)s.Predict(distinct[1], deg);
        s.InvalidateCache();
      }
      const std::vector<uint64_t> fps = {poison_fp, flaky_fp};
      return std::make_pair(inj.ScheduleBytes(fps, 16), inj.FiredLogBytes());
    };
    const auto serial = replay(1);
    const auto wide = replay(static_cast<int>(std::max(2u, hw)));
    cs_schedule_ok = serial.first == wide.first;
    cs_replay_ok = serial.second == wide.second;
  }
  const double cs_avail_a =
      cs_requests > 0
          ? static_cast<double>(cs_a_ok + cs_a_degraded) /
                static_cast<double>(cs_requests)
          : 0.0;
  const double cs_avail_b =
      cs_requests > 0
          ? static_cast<double>(cs_b_ok) / static_cast<double>(cs_requests)
          : 0.0;

  const double n = static_cast<double>(stream.size());
  const double seq_qps = 1000.0 * n / seq_ms;
  const double batch_qps = 1000.0 * n / batch_ms;
  const double hot_qps = 1000.0 * n / hot_ms;
  const double storm_qps = 1000.0 * n / storm_ms;
  const double drop_qps = 1000.0 * n / drop_ms;
  std::printf("%-38s %10s %14s %8s\n", "mode", "ms/stream", "predictions/s",
              "speedup");
  std::printf("%-38s %10.1f %14.1f %8s\n", "sequential Predict (no service)",
              seq_ms, seq_qps, "1.00x");
  std::printf("%-38s %10.1f %14.1f %7.2fx\n",
              "PredictBatch (cold cache, dedup)", batch_ms, batch_qps,
              batch_qps / seq_qps);
  std::printf("%-38s %10.1f %14.1f %7.2fx\n", "PredictBatch (hot cache)",
              hot_ms, hot_qps, hot_qps / seq_qps);
  std::printf("%-38s %10.1f %14.1f %7.2fx\n",
              "PredictAsync storm (cold, in-flight)", storm_ms, storm_qps,
              storm_qps / seq_qps);
  std::printf("%-38s %10.1f %14.1f %7.2fx\n",
              "PredictAsync storm (plans dropped)", drop_ms, drop_qps,
              drop_qps / seq_qps);
  std::printf("\nasync storm: %.1f stage-1 runs/rep for %zu requests over %zu "
              "distinct plans (%.1f in-flight joins + %.1f cache hits per rep)\n",
              static_cast<double>(storm_runs) / kReps, stream.size(),
              distinct.size(), static_cast<double>(storm_joins) / kReps,
              static_cast<double>(storm_hits) / kReps);
  std::printf("drop-plan storm: %.1f stage-1 runs and %.1f registry clones/rep "
              "(callers destroyed every plan at submit)\n",
              static_cast<double>(drop_runs) / kReps,
              static_cast<double>(drop_clones) / kReps);
  std::printf("single-plan cold latency (full-ratio samples): %.2f ms at "
              "num_threads=1, %.2f ms at num_threads=4 (%.2fx, %u hw threads)\n",
              lat1_ms, lat4_ms, single_plan_speedup, hw);
  std::printf("sort/agg cold latency (ORDER BY + GROUP BY tail): %.2f ms at "
              "num_threads=1, %.2f ms at num_threads=4 (%.2fx)\n",
              sa1_ms, sa4_ms, sort_agg_speedup);

  std::printf("\nopen-loop storm (%d shards, peaks: hot %.0f q/s, mixed %.0f "
              "q/s):\n",
              sharded_shards, hot_peak_qps, mixed_peak_qps);
  std::printf("%-8s %-9s %6s %12s %13s %9s %9s\n", "workload", "trace", "rate",
              "offered q/s", "achieved q/s", "p50 ms", "p99 ms");
  for (const auto& row : storm_rows) {
    std::printf("%-8s %-9s %5.2fx %12.1f %13.1f %9.3f %9.3f\n", row.workload,
                row.trace, row.rate_frac, row.r.offered_qps,
                row.r.achieved_qps, row.r.p50_ms, row.r.p99_ms);
  }
  std::printf("saturation (2x peak, uniform): hot sharded %.1f q/s, hot "
              "single-mutex %.1f q/s (%.2fx), mixed sharded %.1f q/s\n",
              sat_hot_sharded_qps, sat_hot_single_qps,
              sat_hot_single_qps > 0.0
                  ? sat_hot_sharded_qps / sat_hot_single_qps
                  : 0.0,
              sat_mixed_sharded_qps);

  std::printf("\ndrift_storm (%zu plans, %.1fx mid-storm drift, %d+%d rounds, "
              "epoch %llu after %llu recalibration(s) from %llu reports):\n",
              ds_plan_count, kDriftFactor, kPreRounds, kDriftRounds,
              static_cast<unsigned long long>(ds_epoch),
              static_cast<unsigned long long>(ds_recalibrations),
              static_cast<unsigned long long>(ds_reports));
  std::printf("  windowed mean relative error: pre-drift %.3f | drifted "
              "frozen %.3f | adaptive pre-recal %.3f | adaptive post-recal "
              "%.3f (%.1fx cut)\n",
              ds_err_pre, ds_err_frozen, ds_err_adaptive_pre,
              ds_err_adaptive_post, ds_error_cut);
  std::printf("  swap cost: %.3f ms/plan lazy re-combine vs %.3f ms/plan "
              "full miss (%.1fx cheaper); %llu recombines, %llu sample runs, "
              "%llu converged families\n",
              ds_recombine_ms, ds_full_miss_ms,
              ds_recombine_ms > 0.0 ? ds_full_miss_ms / ds_recombine_ms : 0.0,
              static_cast<unsigned long long>(ds_recombines),
              static_cast<unsigned long long>(ds_sample_runs),
              static_cast<unsigned long long>(ds_converged));

  std::printf("\nchaos_storm (%d waves, %zu requests/service: poisoned + "
              "flaky + slow families):\n",
              kChaosWaves, cs_requests);
  std::printf("  degraded+breaker service: %llu ok, %llu degraded, %llu "
              "failed (availability %.3f) | no-fallback baseline: %llu ok, "
              "%llu failed (availability %.3f)\n",
              static_cast<unsigned long long>(cs_a_ok),
              static_cast<unsigned long long>(cs_a_degraded),
              static_cast<unsigned long long>(cs_a_failed), cs_avail_a,
              static_cast<unsigned long long>(cs_b_ok),
              static_cast<unsigned long long>(cs_b_failed), cs_avail_b);
  std::printf("  breaker: %llu open(s), %llu shed, %llu probe(s); poisoned "
              "family consumed %llu schedule attempts for %llu requests; "
              "%llu faults injected, %llu deadline expirations, %llu "
              "spurious wakeups\n",
              static_cast<unsigned long long>(cs_opens),
              static_cast<unsigned long long>(cs_shed),
              static_cast<unsigned long long>(cs_probes),
              static_cast<unsigned long long>(cs_poison_attempts),
              static_cast<unsigned long long>(cs_poison_requests),
              static_cast<unsigned long long>(cs_faults),
              static_cast<unsigned long long>(cs_deadline),
              static_cast<unsigned long long>(cs_spurious));

  const bool batch_pass = batch_qps >= 2.0 * seq_qps;
  std::printf("\nbatched/sequential = %.2fx (target >= 2x): %s\n",
              batch_qps / seq_qps, batch_pass ? "PASS" : "FAIL");
  std::printf("async dedup: one stage-1 run per distinct fingerprint: %s\n",
              dedup_ok ? "PASS" : "FAIL");
  std::printf("plan lifetime: futures outlive dropped caller plans: %s\n",
              drop_ok ? "PASS" : "FAIL");
  std::printf("continuation handoff: losers block zero workers: %s\n",
              progress_ok ? "PASS" : "FAIL");
  // Parity is a hard gate; speedup only gates multi-core runners (a
  // single-core box can't speed up, but must stay bit-identical).
  const bool single_plan_pass =
      parallel_parity_ok && (hw < 2 || single_plan_speedup > 1.0);
  std::printf("single-plan cold latency: parallel bit-identical%s: %s\n",
              hw >= 2 ? " and faster at num_threads=4" : "",
              single_plan_pass ? "PASS" : "FAIL");
  // The operator-tail gate: parity unconditionally; the speedup bar
  // scales with the runner — >= 1.5x where 4 threads have 4 cores to run
  // on, merely faster where there are 2-3, parity-only on single-core.
  const bool sort_agg_pass =
      sort_agg_parity_ok &&
      (hw < 2 || (hw >= 4 ? sort_agg_speedup >= 1.5 : sort_agg_speedup > 1.0));
  std::printf("sort/agg cold latency: parallel bit-identical%s: %s\n",
              hw >= 4 ? " and >= 1.5x at num_threads=4"
                      : (hw >= 2 ? " and faster at num_threads=4" : ""),
              sort_agg_pass ? "PASS" : "FAIL");
  // Open-loop gates: parity is hard everywhere; the throughput gate —
  // sharded must at least match the single-mutex baseline at saturation —
  // applies where there are >= 4 hardware threads to contend (on fewer
  // cores the mutex never becomes the bottleneck, so the comparison is
  // noise).
  const bool open_loop_throughput_pass =
      hw < 4 || sat_hot_sharded_qps >= sat_hot_single_qps;
  const bool open_loop_pass = open_loop_parity && open_loop_throughput_pass;
  std::printf("open-loop parity: every storm prediction bit-identical: %s\n",
              open_loop_parity ? "PASS" : "FAIL");
  std::printf("open-loop saturation: sharded >= single-mutex%s: %s\n",
              hw >= 4 ? " (gated, hw >= 4)" : " (parity-only, hw < 4)",
              open_loop_throughput_pass ? "PASS" : "FAIL");
  // drift_storm gates: the recalibration must cut the windowed error at
  // least 2x vs the frozen baseline; the swap must preserve every stage-1/2
  // artifact (pointer identity, one sample run per plan, >= one lazy
  // re-combination per cached plan); converged families must have frozen
  // their error windows.
  const bool drift_error_pass = ds_recalibrations >= 1 && ds_post_n > 0 &&
                                ds_err_adaptive_post * 2.0 <= ds_err_frozen;
  const bool drift_artifact_pass =
      ds_identity_ok && ds_recombines >= ds_plan_count;
  std::printf("drift_storm error: recalibration cuts error >= 2x vs frozen "
              "(%.1fx): %s\n",
              ds_error_cut, drift_error_pass ? "PASS" : "FAIL");
  std::printf("drift_storm artifacts: swap re-serves cached plans without "
              "re-running stage 1/2: %s\n",
              drift_artifact_pass ? "PASS" : "FAIL");
  std::printf("drift_storm convergence: converged families froze their "
              "windows: %s\n",
              ds_freeze_ok ? "PASS" : "FAIL");
  const bool drift_storm_pass =
      drift_error_pass && drift_artifact_pass && ds_freeze_ok;
  // chaos_storm gates: conservation at every snapshot; degraded
  // availability dominates the no-fallback baseline with strictly more
  // successes; the open breaker bounds the poisoned family's stage-1
  // consumption at threshold + probes (sheds are invisible to the fault
  // schedule); the schedule and fired log replay bit-identically across
  // worker counts; and the failure semantics hold (failures never cached,
  // heals served for real, deadline accounting exact, zero hard failures
  // once degradation is on).
  const bool chaos_conservation_pass = cs_conservation_ok;
  const bool chaos_availability_pass =
      cs_avail_a >= cs_avail_b && (cs_a_ok + cs_a_degraded) > cs_b_ok;
  const bool chaos_quarantine_pass =
      cs_opens >= 1 && cs_shed >= 1 &&
      cs_poison_attempts <=
          static_cast<uint64_t>(kBreakerThreshold) + cs_probes &&
      cs_poison_attempts < cs_poison_requests;
  const bool chaos_replay_pass = cs_schedule_ok && cs_replay_ok;
  const bool chaos_semantics_pass = cs_poison_never_cached &&
                                    cs_flaky_healed && cs_deadline_ok &&
                                    cs_a_failed == 0;
  std::printf("chaos_storm conservation: outcome matrix exact at every "
              "concurrent snapshot: %s\n",
              chaos_conservation_pass ? "PASS" : "FAIL");
  std::printf("chaos_storm availability: degraded >= baseline with strictly "
              "more successes: %s\n",
              chaos_availability_pass ? "PASS" : "FAIL");
  std::printf("chaos_storm quarantine: open breaker stops stage-1 "
              "consumption (%llu attempts <= %d + %llu probes): %s\n",
              static_cast<unsigned long long>(cs_poison_attempts),
              kBreakerThreshold, static_cast<unsigned long long>(cs_probes),
              chaos_quarantine_pass ? "PASS" : "FAIL");
  std::printf("chaos_storm replay: fault schedule and fired log "
              "bit-identical at 1 vs %u workers: %s\n",
              std::max(2u, hw), chaos_replay_pass ? "PASS" : "FAIL");
  std::printf("chaos_storm semantics: failures uncached, heals real, "
              "deadlines exact, no hard failures under degradation: %s\n",
              chaos_semantics_pass ? "PASS" : "FAIL");
  const bool chaos_storm_pass = chaos_conservation_pass &&
                                chaos_availability_pass &&
                                chaos_quarantine_pass && chaos_replay_pass &&
                                chaos_semantics_pass;
  const bool pass = batch_pass && dedup_ok && drop_ok && progress_ok &&
                    single_plan_pass && sort_agg_pass && open_loop_pass &&
                    drift_storm_pass && chaos_storm_pass;

  // Machine-readable summary (one JSON object on its own line) so future
  // PRs can track the perf trajectory: grep '^{' and parse. The
  // open_loop_storm series rides in a nested array; the line stays one
  // line.
  char chaos_json[1024];
  std::snprintf(
      chaos_json, sizeof chaos_json,
      "{\"waves\":%d,\"requests_per_service\":%zu,"
      "\"degraded_ok\":%llu,\"degraded_served\":%llu,\"degraded_failed\":%llu,"
      "\"baseline_ok\":%llu,\"baseline_failed\":%llu,"
      "\"availability_degraded\":%.4f,\"availability_baseline\":%.4f,"
      "\"breaker_opens\":%llu,\"breaker_shed\":%llu,\"breaker_probes\":%llu,"
      "\"poison_attempts\":%llu,\"poison_requests\":%llu,"
      "\"faults_injected\":%llu,\"deadline_exceeded\":%llu,"
      "\"spurious_wakeups\":%llu,"
      "\"conservation_pass\":%s,\"availability_pass\":%s,"
      "\"quarantine_pass\":%s,\"replay_schedule_ok\":%s,"
      "\"replay_fired_ok\":%s,\"replay_pass\":%s,\"semantics_pass\":%s,"
      "\"pass\":%s}",
      kChaosWaves, cs_requests, static_cast<unsigned long long>(cs_a_ok),
      static_cast<unsigned long long>(cs_a_degraded),
      static_cast<unsigned long long>(cs_a_failed),
      static_cast<unsigned long long>(cs_b_ok),
      static_cast<unsigned long long>(cs_b_failed), cs_avail_a, cs_avail_b,
      static_cast<unsigned long long>(cs_opens),
      static_cast<unsigned long long>(cs_shed),
      static_cast<unsigned long long>(cs_probes),
      static_cast<unsigned long long>(cs_poison_attempts),
      static_cast<unsigned long long>(cs_poison_requests),
      static_cast<unsigned long long>(cs_faults),
      static_cast<unsigned long long>(cs_deadline),
      static_cast<unsigned long long>(cs_spurious),
      chaos_conservation_pass ? "true" : "false",
      chaos_availability_pass ? "true" : "false",
      chaos_quarantine_pass ? "true" : "false",
      cs_schedule_ok ? "true" : "false", cs_replay_ok ? "true" : "false",
      chaos_replay_pass ? "true" : "false",
      chaos_semantics_pass ? "true" : "false",
      chaos_storm_pass ? "true" : "false");
  std::string storm_json = "[";
  for (size_t i = 0; i < storm_rows.size(); ++i) {
    const auto& row = storm_rows[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"workload\":\"%s\",\"trace\":\"%s\","
                  "\"rate_frac\":%.2f,\"offered_qps\":%.1f,"
                  "\"achieved_qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
                  i == 0 ? "" : ",", row.workload, row.trace, row.rate_frac,
                  row.r.offered_qps, row.r.achieved_qps, row.r.p50_ms,
                  row.r.p99_ms);
    storm_json += buf;
  }
  storm_json += "]";
  std::printf(
      "{\"bench\":\"service_throughput\",\"predictions\":%zu,"
      "\"distinct_plans\":%zu,\"repeats\":%d,\"reps\":%d,"
      "\"sequential_ms\":%.3f,\"batch_cold_ms\":%.3f,\"batch_hot_ms\":%.3f,"
      "\"async_storm_ms\":%.3f,\"drop_plan_storm_ms\":%.3f,"
      "\"sequential_qps\":%.1f,\"batch_cold_qps\":%.1f,\"batch_hot_qps\":%.1f,"
      "\"async_storm_qps\":%.1f,\"drop_plan_storm_qps\":%.1f,"
      "\"speedup_batch_cold\":%.3f,\"speedup_batch_hot\":%.3f,"
      "\"speedup_async_storm\":%.3f,\"storm_stage1_runs_per_rep\":%.2f,"
      "\"drop_storm_registry_clones_per_rep\":%.2f,"
      "\"single_plan_cold_ms_t1\":%.3f,\"single_plan_cold_ms_t4\":%.3f,"
      "\"single_plan_cold_speedup\":%.3f,"
      "\"sort_agg_cold_ms_t1\":%.3f,\"sort_agg_cold_ms_t4\":%.3f,"
      "\"sort_agg_cold_speedup\":%.3f,\"hardware_concurrency\":%u,"
      "\"single_plan_parallel_parity\":%s,\"single_plan_pass\":%s,"
      "\"sort_agg_parallel_parity\":%s,\"sort_agg_pass\":%s,"
      "\"batch_pass\":%s,\"dedup_ok\":%s,\"drop_plan_ok\":%s,"
      "\"pool_progress_ok\":%s,\"cache_shards\":%d,"
      "\"open_loop_storm\":%s,"
      "\"open_loop_hot_peak_qps\":%.1f,\"open_loop_mixed_peak_qps\":%.1f,"
      "\"open_loop_saturation_hot_sharded_qps\":%.1f,"
      "\"open_loop_saturation_hot_single_qps\":%.1f,"
      "\"open_loop_saturation_mixed_sharded_qps\":%.1f,"
      "\"open_loop_parity\":%s,\"open_loop_pass\":%s,"
      "\"drift_storm\":{\"plans\":%zu,\"drift_factor\":%.2f,\"pre_rounds\":%d,"
      "\"drift_rounds\":%d,\"err_pre\":%.4f,\"err_drift_frozen\":%.4f,"
      "\"err_adaptive_pre_recal\":%.4f,\"err_adaptive_post_recal\":%.4f,"
      "\"error_cut_x\":%.2f,\"recalibrations\":%llu,\"feedback_reports\":%llu,"
      "\"converged_families\":%llu,\"final_epoch\":%llu,"
      "\"sample_runs\":%llu,\"recombines\":%llu,"
      "\"recombine_ms_per_plan\":%.4f,\"full_miss_ms_per_plan\":%.4f,"
      "\"artifact_identity_ok\":%s,\"converged_freeze_ok\":%s,"
      "\"error_pass\":%s,\"artifact_pass\":%s,\"pass\":%s},"
      "\"chaos_storm\":%s,"
      "\"pass\":%s}\n",
      stream.size(), distinct.size(), kRepeats, kReps, seq_ms, batch_ms,
      hot_ms, storm_ms, drop_ms, seq_qps, batch_qps, hot_qps, storm_qps,
      drop_qps, batch_qps / seq_qps, hot_qps / seq_qps, storm_qps / seq_qps,
      static_cast<double>(storm_runs) / kReps,
      static_cast<double>(drop_clones) / kReps, lat1_ms, lat4_ms,
      single_plan_speedup, sa1_ms, sa4_ms, sort_agg_speedup, hw,
      parallel_parity_ok ? "true" : "false",
      single_plan_pass ? "true" : "false",
      sort_agg_parity_ok ? "true" : "false", sort_agg_pass ? "true" : "false",
      batch_pass ? "true" : "false", dedup_ok ? "true" : "false",
      drop_ok ? "true" : "false", progress_ok ? "true" : "false",
      sharded_shards, storm_json.c_str(), hot_peak_qps, mixed_peak_qps,
      sat_hot_sharded_qps, sat_hot_single_qps, sat_mixed_sharded_qps,
      open_loop_parity ? "true" : "false", open_loop_pass ? "true" : "false",
      ds_plan_count, kDriftFactor, kPreRounds, kDriftRounds, ds_err_pre,
      ds_err_frozen,
      ds_err_adaptive_pre, ds_err_adaptive_post, ds_error_cut,
      static_cast<unsigned long long>(ds_recalibrations),
      static_cast<unsigned long long>(ds_reports),
      static_cast<unsigned long long>(ds_converged),
      static_cast<unsigned long long>(ds_epoch),
      static_cast<unsigned long long>(ds_sample_runs),
      static_cast<unsigned long long>(ds_recombines), ds_recombine_ms,
      ds_full_miss_ms, ds_identity_ok ? "true" : "false",
      ds_freeze_ok ? "true" : "false", drift_error_pass ? "true" : "false",
      drift_artifact_pass ? "true" : "false",
      drift_storm_pass ? "true" : "false", chaos_json,
      pass ? "true" : "false");
  return pass ? 0 : 1;
}
