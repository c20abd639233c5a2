// The repository benchmark program: one workload, one seed, one run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [key=value ...]
//
// perfbench/run.py builds this binary and passes the workload's parameters
// from perfbench/workloads.json as key=value arguments. The last line of
// standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Everything above it is a human-readable report.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cost/calibration.h"
#include "engine/executor.h"
#include "hw/machine.h"
#include "math/rng.h"
#include "math/zipf.h"
#include "service/prediction_service.h"

#include "classify.h"
#include "layers.h"
#include "params.h"
#include "setup.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace uqp;

// ------------------------------------------------------------ machine

int NprocAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  }
  return CPU_COUNT(&set);
}

std::string CpuInfoField(const std::string& field) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string v = line.substr(colon + 1);
    v.erase(0, v.find_first_not_of(" \t"));
    return v;
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string MachineDescriptor() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\":%d,\"hardware_concurrency\":%u,\"cpu_model\":\"%s\","
                "\"cpu_mhz\":\"%s\",\"build_type\":\"%s\",\"compiler\":\"%s\"}",
                NprocAvailable(), std::thread::hardware_concurrency(),
                JsonEscape(CpuInfoField("model name")).c_str(),
                JsonEscape(CpuInfoField("cpu MHz")).c_str(), PERFBENCH_BUILD_TYPE,
                JsonEscape(compiler).c_str());
  return buf;
}

// ------------------------------------------------------------ workloads

/// How the load threads drive the service.
enum class Mode {
  kColdPasses,    ///< 1 client, sync Predict, InvalidateCache before each pass
  kZipfAsync,     ///< zipf stream, PredictAsync(...).get()
  kZipfFeedback,  ///< zipf stream, sync Predict then ReportObserved
};

/// Threads generating load: one client in a closed loop. With 2 clients
/// against 2 workers, 4 threads on 4 vCPUs, the spread of 10 runs of the
/// same code reached 0.27 of the median for recurring_zipf throughput and
/// 0.31 for feedback_drift p99 on a shared host; scheduling the threads
/// set the numbers more than the service did.
constexpr int kLoadThreads = 1;
/// Set-ups per untraced run. Where a fresh set-up's memory lands moves
/// the speed of a memory-heavy workload by up to 25% on a shared host, so
/// an untraced run sets up this many times, runs 1/kRounds of its seconds
/// on each set-up, and reports medians and pooled percentiles.
constexpr int kRounds = 5;
/// Spans the traced loop can hold; the loop stops when its lane is full.
constexpr size_t kSpanCapacity = 262144;
/// Cache shards of every workload's service: fixed, where the service's
/// default (0) would size them to the host's hardware concurrency.
constexpr int kCacheShards = 4;
/// Fewer traced requests of a latency class than this, and the class's
/// per-layer latency comes from the probe instead of the loop.
constexpr size_t kMinClassSamples = 50;

/// Span tag of a served prediction: plan index and hit/miss class.
constexpr int64_t kHit = 1;
constexpr int64_t kMiss = 2;
int64_t Tag(size_t plan, int64_t cls) { return static_cast<int64_t>(plan) << 2 | cls; }
size_t TagPlan(int64_t tag) { return static_cast<size_t>(tag >> 2); }
int64_t TagClass(int64_t tag) { return tag & 3; }

/// Everything one run of a workload serves from. Built by SetUp.
struct Served {
  Mode mode = Mode::kColdPasses;
  Bundle bundle;  ///< the workload's database and plan pool
  ServiceOptions options;

  /// Calibrations a served prediction may carry, and the sequential
  /// reference prediction of every plan under each.
  std::vector<CostUnits> regime_units;
  std::vector<std::vector<VarianceBreakdown>> reference;

  // kColdPasses: the current pass's plan order, reshuffled every pass.
  Rng pass_rng{1};
  std::vector<uint32_t> pass_order;

  // Zipf modes: the pre-drawn plan stream.
  std::vector<uint32_t> stream;

  // kZipfFeedback: observed runtimes pre-drawn per (regime, plan), and the
  // truth schedule: the regime flips every `switch_every` requests. The
  // recalibration callback counts the calls that return the units already
  // published, so a drift claim that no flip caused shows.
  std::vector<std::vector<std::vector<double>>> runtimes;
  uint64_t switch_every = 1;
  std::atomic<uint64_t> served{0};
  std::atomic<size_t> published_regime{0};
  std::atomic<uint64_t> unchanged_recalibrations{0};

  /// Declared last so it is destroyed first: it points into the bundle
  /// and its recalibration callback reads the fields above.
  std::unique_ptr<PredictionService> service;

  size_t regime_now() const {
    return static_cast<size_t>(served.load(std::memory_order_relaxed) / switch_every) %
           regime_units.size();
  }
};

/// Which calibration `pred` combined under, or -1 if none of the known ones.
int RegimeOf(const Served& s, const Prediction& pred) {
  if (pred.calibration == nullptr) return -1;
  for (size_t r = 0; r < s.regime_units.size(); ++r) {
    if (std::memcmp(&pred.calibration->units, &s.regime_units[r], sizeof(CostUnits)) == 0) {
      return static_cast<int>(r);
    }
  }
  return -1;
}

/// 0 when `pred` is OK and bit-identical to the reference of its plan
/// under the calibration it carries; 1 otherwise.
int CheckPrediction(const Served& s, size_t plan, const StatusOr<Prediction>& pred) {
  if (!pred.ok() || pred->degraded) return 1;
  const int r = RegimeOf(s, *pred);
  if (r < 0) return 1;
  return SameBits(pred->breakdown, s.reference[static_cast<size_t>(r)][plan]) ? 0 : 1;
}

void Shuffle(std::vector<uint32_t>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBelow(i)]);
  }
}

/// Request number `i` of the client. Writes the request's latency (ns,
/// timed around the service calls) and returns the number of failures (0
/// or 1). With a lane, records a "request" span with a child per service
/// call, the prediction tagged hit or miss.
int Request(Served& s, uint64_t i, Lane* lane, SampleRunTracker* tracker, int64_t* lat_ns) {
  const uint64_t req = i;
  size_t plan = 0;
  if (s.mode == Mode::kColdPasses) {
    const size_t n = s.pass_order.size();
    if (i % n == 0) {
      const int64_t t0 = NowNs();
      s.service->InvalidateCache();
      Shuffle(&s.pass_order, &s.pass_rng);
      if (lane != nullptr) lane->Record("service.invalidate", 0, req, t0, NowNs());
    }
    plan = s.pass_order[i % n];
  } else {
    plan = s.stream[i % s.stream.size()];
  }
  const Plan& p = s.bundle.pool[plan];
  const uint64_t root = lane != nullptr ? lane->Open("request", 0, req) : 0;

  const int64_t t0 = NowNs();
  StatusOr<Prediction> pred = s.mode == Mode::kZipfAsync ? s.service->PredictAsync(p).get()
                                                         : s.service->Predict(p);
  const int64_t t1 = NowNs();
  int64_t t2 = t1;
  if (s.mode == Mode::kZipfFeedback) {
    const uint64_t g = s.served.fetch_add(1, std::memory_order_relaxed);
    const size_t regime = static_cast<size_t>(g / s.switch_every) % s.regime_units.size();
    const auto& ring = s.runtimes[regime][plan];
    s.service->ReportObserved(p, ring[i % ring.size()]);
    t2 = NowNs();
  }
  *lat_ns = t2 - t0;

  const int failed = CheckPrediction(s, plan, pred);
  if (lane != nullptr) {
    int64_t cls = 0;
    if (pred.ok() && tracker != nullptr) {
      const HitMiss how = tracker->Classify(plan, pred->sample_run);
      cls = how == HitMiss::kHit ? kHit : how == HitMiss::kMiss ? kMiss : 0;
    }
    lane->Record("service.predict", root, req, t0, t1, Tag(plan, cls));
    if (t2 != t1) lane->Record("service.report", root, req, t1, t2, Tag(plan, 0));
    lane->Close(root);
  }
  return failed;
}

ServiceOptions MakeServiceOptions(const Params& prm) {
  ServiceOptions o;
  o.num_workers = static_cast<int>(prm.Int("workers"));
  o.cache_capacity = static_cast<size_t>(prm.Int("cache_capacity"));
  o.cache_shards = kCacheShards;
  o.predictor.num_threads = static_cast<int>(prm.Int("num_threads"));
  return o;
}

std::vector<uint32_t> ZipfStream(const Params& prm, size_t pool_size, uint64_t seed) {
  // The zipf ranks land on a fixed permutation of the pool (its own seed
  // is a workload parameter), so the hot set does not follow the pool's
  // build order; --seed draws the request sequence over it.
  Rng perm_rng(static_cast<uint64_t>(prm.Int("zipf_rank_seed")));
  std::vector<uint32_t> rank_to_plan(pool_size);
  for (size_t i = 0; i < pool_size; ++i) rank_to_plan[i] = static_cast<uint32_t>(i);
  Shuffle(&rank_to_plan, &perm_rng);
  const ZipfDistribution zipf(pool_size, prm.Num("zipf_z"));
  const size_t len = static_cast<size_t>(prm.Int("stream_length"));
  Rng rng(seed * 1000003ULL + 7);
  std::vector<uint32_t> stream(len);
  for (size_t i = 0; i < len; ++i) stream[i] = rank_to_plan[zipf.Sample(&rng)];
  return stream;
}

/// Builds every input of the workload and warms the service up; `*failed`
/// counts wrong warm-up predictions.
std::unique_ptr<Served> SetUp(const Params& prm, uint64_t seed, PhaseTimes* times,
                              uint64_t* attempted, uint64_t* failed) {
  auto s = std::make_unique<Served>();
  const std::string mode = prm.Str("mode");
  s->mode = mode == "cold_passes"  ? Mode::kColdPasses
            : mode == "zipf_async" ? Mode::kZipfAsync
                                   : Mode::kZipfFeedback;
  s->options = MakeServiceOptions(prm);

  s->bundle = BuildBundle(prm, "pool", times);
  s->regime_units = {s->bundle.units};
  const Bundle& b = s->bundle;

  if (s->mode == Mode::kZipfFeedback) {
    // Truth: base-table executions, then runtimes drawn per regime from a
    // simulated machine whose unit means are scaled by that regime's factor.
    int64_t t0 = NowNs();
    Executor executor(b.db.get());
    std::vector<ExecResult> executed;
    for (const Plan& plan : b.pool) {
      auto full = executor.Execute(plan, ExecOptions{});
      if (!full.ok()) {
        std::fprintf(stderr, "perfbench: truth execution failed\n");
        std::exit(2);
      }
      executed.push_back(std::move(full).value());
    }
    const size_t ring = static_cast<size_t>(prm.Int("runtimes_per_plan"));
    const uint64_t machine_seed = static_cast<uint64_t>(prm.Int("pool.machine_seed"));
    s->regime_units.clear();
    for (int r = 0; prm.Has("drift_factors." + std::to_string(r)); ++r) {
      const double factor = prm.Num("drift_factors." + std::to_string(r));
      const MachineProfile profile = MachineProfile::PC1().WithUnitMeansScaled(factor);
      SimulatedMachine calib_machine(profile, machine_seed);
      s->regime_units.push_back(r == 0 ? b.units : Calibrator(&calib_machine).Calibrate());
      SimulatedMachine truth(profile, seed * 7919ULL + static_cast<uint64_t>(r));
      std::vector<std::vector<double>> per_plan(executed.size());
      for (size_t p = 0; p < executed.size(); ++p) {
        for (size_t k = 0; k < ring; ++k) per_plan[p].push_back(truth.ExecuteOnce(executed[p]));
      }
      s->runtimes.push_back(std::move(per_plan));
    }
    s->switch_every = static_cast<uint64_t>(prm.Int("switch_every_requests"));
    times->truth_ms += static_cast<double>(NowNs() - t0) / 1e6;

    s->options.feedback.enabled = true;
    s->options.feedback.window_size = static_cast<size_t>(prm.Int("feedback.window_size"));
    s->options.feedback.converge_threshold = prm.Num("feedback.converge_threshold");
    s->options.feedback.drift_threshold = prm.Num("feedback.drift_threshold");
    s->options.feedback.probe_interval = static_cast<uint64_t>(prm.Int("feedback.probe_interval"));
    s->options.feedback.cooldown_reports =
        static_cast<uint64_t>(prm.Int("feedback.cooldown_reports"));
    Served* raw = s.get();
    s->options.feedback.recalibrate = [raw] {
      const size_t regime = raw->regime_now();
      if (raw->published_regime.exchange(regime) == regime) ++raw->unchanged_recalibrations;
      return raw->regime_units[regime];
    };
  }

  {
    const int64_t t0 = NowNs();
    for (const CostUnits& u : s->regime_units) {
      s->reference.push_back(ReferencePredictions(b, u, s->options.predictor));
    }
    times->reference_ms += static_cast<double>(NowNs() - t0) / 1e6;
  }

  const int64_t t0 = NowNs();
  s->pass_rng = Rng(seed * 2654435761ULL + 3);
  s->pass_order.resize(b.pool.size());
  for (size_t i = 0; i < b.pool.size(); ++i) s->pass_order[i] = static_cast<uint32_t>(i);
  if (s->mode != Mode::kColdPasses) {
    s->stream = ZipfStream(prm, b.pool.size(), seed);
  }
  s->service = std::make_unique<PredictionService>(b.db.get(), b.samples.get(), b.units,
                                                   s->options);
  const uint64_t warmup = static_cast<uint64_t>(prm.Int("warmup_requests"));
  for (uint64_t i = 0; i < warmup; ++i) {
    int64_t lat = 0;
    *failed += static_cast<uint64_t>(Request(*s, i, nullptr, nullptr, &lat));
    ++*attempted;
  }
  times->warmup_ms += static_cast<double>(NowNs() - t0) / 1e6;
  return s;
}

// ------------------------------------------------------------ closed loop

struct LoopResult {
  LatencyHistogram lat;  ///< every request
  uint64_t requests = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;

  double qps() const { return wall_s > 0.0 ? static_cast<double>(requests) / wall_s : 0.0; }
};

/// Runs the client as a closed loop (next request only after the previous
/// one returned) for `seconds`, continuing its sequence at `*next_index`.
/// Cold passes run to the end of the pass under way, so every plan is
/// sampled equally often and the tail percentiles fall on the same plans in
/// every run. With a lane, every request is traced and the loop also stops
/// once the lane is full.
LoopResult RunLoop(Served& s, double seconds, uint64_t* next_index, Lane* lane,
                   SampleRunTracker* tracker) {
  LoopResult r;
  const int64_t start_ns = NowNs();
  const int64_t deadline = start_ns + static_cast<int64_t>(seconds * 1e9);
  const uint64_t pass = s.mode == Mode::kColdPasses ? s.pass_order.size() : 1;
  uint64_t i = *next_index;
  int64_t now = start_ns;
  while ((now < deadline || i % pass != 0) && (lane == nullptr || !lane->full())) {
    int64_t ns = 0;
    r.failed += static_cast<uint64_t>(Request(s, i++, lane, tracker, &ns));
    now = NowNs();
    r.lat.Add(ns);
  }
  r.requests = r.lat.size();
  r.wall_s = static_cast<double>(now - start_ns) / 1e9;
  *next_index = i;
  return r;
}

// ------------------------------------------------------------ checks

struct Delta {
  ServiceStats before, after;
  uint64_t combines = 0;
  uint64_t d(uint64_t ServiceStats::*f) const { return after.*f - before.*f; }
};

/// Counts broken invariants: both conservation identities of the service
/// counters, every timed request counted as exactly one prediction, and,
/// for cold passes, no request served from the cache.
uint64_t CheckInvariants(const Served& s, const Delta& d, uint64_t requests,
                         std::vector<std::string>* why) {
  uint64_t broken = 0;
  const ServiceStats& st = d.after;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++broken;
      why->push_back(what);
    }
  };
  expect(st.cache_hits + st.cache_misses == st.predictions, "hits + misses != predictions");
  expect(st.ok_served + st.failed + st.degraded_served + st.deadline_exceeded == st.predictions,
         "outcome split != predictions");
  expect(d.d(&ServiceStats::predictions) == requests, "predictions != timed requests");
  if (s.mode == Mode::kColdPasses) {
    expect(d.d(&ServiceStats::cache_hits) == 0, "cold pass served a cache hit");
  }
  return broken;
}

// ------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string better;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %-8s (%s is better)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.better.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string PercentileName(int64_t bp) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", static_cast<double>(bp) / 100.0);
  return buf;
}

void PrintLatencySummary(const char* label, LatencyHistogram& lat) {
  const size_t n = lat.size();
  const int64_t tail = HighestReportablePercentile(n);
  std::printf("%s: %zu requests; p50 %.4f ms, p99 %.4f ms (%zu samples beyond p99); "
              "highest percentile with >= %zu samples beyond: %s = %.4f ms\n",
              label, n, lat.PercentileMs(kP50), lat.PercentileMs(kP99), SamplesBeyond(n, kP99),
              kMinSamplesBeyond, tail > 0 ? PercentileName(tail).c_str() : "none",
              tail > 0 ? lat.PercentileMs(tail) : 0.0);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  Params params;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--workload" && (v = value())) {
      a->workload = v;
    } else if (arg == "--seed" && (v = value())) {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      a->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = value())) {
      a->trace = std::atoi(v);
    } else if (arg == "--trace-out" && (v = value())) {
      a->trace_out = v;
    } else if (!a->params.Add(arg)) {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0 && (a->trace == 0 || a->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] key=value...\n");
    return 2;
  }
  const Params& prm = args.params;
  const int nproc = NprocAvailable();
  const int workers = static_cast<int>(prm.Int("workers"));
  std::printf("machine: %s\n", MachineDescriptor().c_str());
  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n", args.workload.c_str(),
              args.seed, args.seconds, args.trace);
  std::printf("parameters:");
  for (const auto& [k, v] : prm.all()) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");
  if (kLoadThreads + workers > nproc) {
    std::fprintf(stderr,
                 "perfbench: %d load thread + %d service workers exceed the %d "
                 "available processors\n",
                 kLoadThreads, workers, nproc);
    return 2;
  }

  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> broken;

  // The quality protocol runs first, once per process: string values are
  // interned into a process-wide pool whose ids feed the engine's hash
  // functions, so the protocol sees the same ids, and reports the same
  // numbers, only if it interns first. Its inputs are freed before the
  // workload's set-up, which setup_s times alone.
  PhaseTimes quality_phases;
  const int64_t quality_t0 = NowNs();
  const QualityResult q = RunQuality(BuildQualityInputs(prm, &quality_phases), prm);
  attempted += q.attempted;
  failed += q.failed;
  std::printf("quality protocol %.4f s: r_s %.6f, d_n %.6f, rel_err_p50 %.6f, "
              "violations %" PRIu64 "/%" PRIu64 "\n",
              static_cast<double>(NowNs() - quality_t0) / 1e9, q.r_s, q.d_n, q.rel_err_p50,
              q.violations[0], q.admitted[0]);

  // One timed loop on the current set-up, with its invariant checks.
  auto timed_loop = [&](Served& served, double seconds, uint64_t* next_index, Delta* delta) {
    delta->before = served.service->stats();
    const uint64_t combines0 = served.service->pipeline().combine_count();
    const uint64_t served0 = served.served.load();
    const uint64_t unchanged0 = served.unchanged_recalibrations.load();
    LoopResult loop = RunLoop(served, seconds, next_index, nullptr, nullptr);
    delta->after = served.service->stats();
    delta->combines = served.service->pipeline().combine_count() - combines0;
    attempted += loop.requests;
    failed += loop.failed + CheckInvariants(served, *delta, loop.requests, &broken);
    PrintLatencySummary("  timed loop", loop.lat);
    std::printf("  throughput %.2f requests/s over %.3f s, 1 client, %d worker(s)\n",
                loop.qps(), loop.wall_s, workers);
    if (served.mode == Mode::kZipfFeedback) {
      std::printf("  feedback: %" PRIu64 " regime flips, %" PRIu64 " recalibrations (%" PRIu64
                  " returned the units already published), %" PRIu64 " recombines, epoch %" PRIu64
                  "\n",
                  served.served.load() / served.switch_every - served0 / served.switch_every,
                  delta->d(&ServiceStats::recalibrations),
                  served.unchanged_recalibrations.load() - unchanged0,
                  delta->d(&ServiceStats::recombines), served.service->calibration_epoch());
    }
    return loop;
  };
  auto set_up = [&](PhaseTimes* phases) {
    const int64_t t0 = NowNs();
    auto served = SetUp(prm, args.seed, phases, &attempted, &failed);
    const double secs = static_cast<double>(NowNs() - t0) / 1e9;
    std::printf("set-up %.4f s: db %.1f, samples %.1f, plans %.1f, truth %.1f, reference %.1f, "
                "warm-up %.1f ms\n",
                secs, phases->db_ms, phases->samples_ms, phases->plans_ms, phases->truth_ms,
                phases->reference_ms, phases->warmup_ms);
    return std::make_pair(std::move(served), secs);
  };
  const uint64_t warmup = static_cast<uint64_t>(prm.Int("warmup_requests"));

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // Rounds: each sets the workload up anew, then runs its share of the
    // timed seconds. Throughput is the median over rounds; p50 and p99 are
    // taken over the requests of all rounds together.
    std::vector<double> setup_s, round_qps;
    LatencyHistogram pooled;
    for (int r = 0; r < kRounds; ++r) {
      PhaseTimes phases;
      auto [s, secs] = set_up(&phases);
      setup_s.push_back(secs);
      uint64_t next_index = warmup;
      Delta delta;
      const LoopResult loop = timed_loop(*s, args.seconds / kRounds, &next_index, &delta);
      round_qps.push_back(loop.qps());
      pooled.Merge(loop.lat);
    }
    PrintLatencySummary("all rounds", pooled);
    if (SamplesBeyond(pooled.size(), kP99) < kMinSamplesBeyond) {
      std::printf("WARNING: %zu requests are too few for p99\n", pooled.size());
    }
    for (const std::string& w : broken) std::printf("BROKEN INVARIANT: %s\n", w.c_str());
    std::printf("fail_frac %.6g (%" PRIu64 " failed of %" PRIu64 " attempted)\n",
                attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                              : 0.0,
                failed, attempted);
    metrics = {
        {"setup_s", Median(setup_s), "s", "lower"},
        {"throughput_qps", Median(round_qps), "1/s", "higher"},
        {"p50_ms", pooled.PercentileMs(kP50), "ms", "lower"},
        {"p99_ms", pooled.PercentileMs(kP99), "ms", "lower"},
        {"r_s", q.r_s, "coef", "higher"},
        {"d_n", q.d_n, "coef", "lower"},
        {"rel_err_p50", q.rel_err_p50, "ratio", "lower"},
        {"violation_rate", q.violation_rate, "ratio", "lower"},
        {"goodput_per_s", q.goodput, "1/sim_s", "higher"},
    };
    PrintResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
  }

  // ----- traced run: one set-up, the loop untraced for half the time (the
  // per-layer counters and the tracing-overhead base), then traced.
  PhaseTimes phases;
  std::unique_ptr<Served> s = set_up(&phases).first;
  uint64_t next_index = warmup;
  const double loop_s = args.seconds / 2.0;
  Delta delta;
  const LoopResult loop = timed_loop(*s, loop_s, &next_index, &delta);

  // The traced half, then probes and the layer replay.
  Lane lane(1, kSpanCapacity);
  SampleRunTracker tracker(s->bundle.pool.size());
  const ServiceStats traced_before = s->service->stats();
  LoopResult traced = RunLoop(*s, loop_s, &next_index, &lane, &tracker);
  attempted += traced.requests;
  failed += traced.failed;
  Delta traced_delta;
  traced_delta.before = traced_before;
  traced_delta.after = s->service->stats();
  failed += CheckInvariants(*s, traced_delta, traced.requests, &broken);
  std::printf("traced loop: %" PRIu64 " requests, %.2f requests/s\n", traced.requests,
              traced.qps());

  // Probe: every plan once cold, once cached, and one report, for the
  // latency classes the loop did not produce.
  Lane probe_lane(2, 8 * s->bundle.pool.size() + 16);
  s->service->InvalidateCache();
  for (size_t p = 0; p < s->bundle.pool.size(); ++p) {
    const Plan& plan = s->bundle.pool[p];
    for (int64_t cls : {kMiss, kHit}) {
      const int64_t t0 = NowNs();
      auto pred = s->service->Predict(plan);
      probe_lane.Record(cls == kMiss ? "probe.miss" : "probe.hit", 0, p, t0, NowNs(), Tag(p, cls));
      failed += static_cast<uint64_t>(CheckPrediction(*s, p, pred));
      ++attempted;
    }
    const int64_t t0 = NowNs();
    s->service->ReportObserved(plan, s->reference[0][p].mean);
    probe_lane.Record("probe.report", 0, p, t0, NowNs(), Tag(p, 0));
  }

  Lane replay_lane(3, 64 * s->bundle.pool.size() + 16);
  const ReplayResult rep = ReplayLayers(*s->bundle.db, *s->bundle.samples, s->bundle.pool,
                                        s->bundle.units, s->options.predictor, &replay_lane);
  if (!rep.ok) {
    ++failed;
    broken.push_back("layer replay failed");
  }

  // Per-layer numbers from the spans.
  std::vector<Span> spans;
  spans.insert(spans.end(), lane.spans().begin(), lane.spans().end());
  const size_t loop_spans = spans.size();
  spans.insert(spans.end(), probe_lane.spans().begin(), probe_lane.spans().end());
  spans.insert(spans.end(), replay_lane.spans().begin(), replay_lane.spans().end());
  const std::vector<int64_t> self_ns = SelfTimesNs(spans);
  std::vector<double> hit_ms, miss_ms, report_ms, request_self_ms;
  std::vector<double> probe_hit_ms, probe_miss_ms, probe_report_ms;
  std::vector<std::pair<size_t, double>> misses, probe_misses;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    const double ms = static_cast<double>(sp.duration_ns()) / 1e6;
    const std::string name = sp.name;
    if (i < loop_spans) {
      if (name == "request") request_self_ms.push_back(static_cast<double>(self_ns[i]) / 1e6);
      if (name == "service.report") report_ms.push_back(ms);
      if (name == "service.predict" && TagClass(sp.tag) == kHit) hit_ms.push_back(ms);
      if (name == "service.predict" && TagClass(sp.tag) == kMiss) {
        miss_ms.push_back(ms);
        misses.emplace_back(TagPlan(sp.tag), ms);
      }
    } else if (name == "probe.hit") {
      probe_hit_ms.push_back(ms);
    } else if (name == "probe.miss") {
      probe_miss_ms.push_back(ms);
      probe_misses.emplace_back(TagPlan(sp.tag), ms);
    } else if (name == "probe.report") {
      probe_report_ms.push_back(ms);
    }
  }
  if (hit_ms.size() < kMinClassSamples) hit_ms = probe_hit_ms;
  if (miss_ms.size() < kMinClassSamples) {
    miss_ms = probe_miss_ms;
    misses = probe_misses;
  }
  if (report_ms.size() < kMinClassSamples) report_ms = probe_report_ms;
  std::vector<double> miss_overhead_ms, stage1_minus_exec;
  for (const auto& [plan, ms] : misses) {
    if (plan >= rep.stage3_ms.size()) continue;
    miss_overhead_ms.push_back(ms - rep.stage1_ms[plan] - rep.stage2_ms[plan] -
                               rep.stage3_ms[plan]);
  }
  for (size_t p = 0; p < rep.stage1_ms.size() && p < rep.exec_ms.size(); ++p) {
    stage1_minus_exec.push_back(rep.stage1_ms[p] - rep.exec_ms[p]);
  }

  if (!args.trace_out.empty()) {
    if (!WriteSpans(args.trace_out, spans, self_ns)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    } else {
      std::printf("spans: %zu written to %s\n", spans.size(), args.trace_out.c_str());
    }
  }
  for (const std::string& w : broken) std::printf("BROKEN INVARIANT: %s\n", w.c_str());

  auto ratio = [](uint64_t a, uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const Delta& d = delta;
  metrics = {
      {"sampling.stage1_ms", Median(rep.stage1_ms), "ms", "lower"},
      {"sampling.stage1_total_ms", Sum(rep.stage1_ms), "ms", "lower"},
      {"engine.exec_ms", Median(rep.exec_ms), "ms", "lower"},
      {"sampling.overhead_ms", Median(stage1_minus_exec), "ms", "lower"},
      {"engine.scan_self_ms", rep.scan_self_ms, "ms", "lower"},
      {"engine.join_self_ms", rep.join_self_ms, "ms", "lower"},
      {"engine.sort_self_ms", rep.sort_self_ms, "ms", "lower"},
      {"engine.agg_self_ms", rep.agg_self_ms, "ms", "lower"},
      {"engine.par_speedup", Sum(rep.exec4_ms) > 0.0 ? Sum(rep.exec1_ms) / Sum(rep.exec4_ms) : 0.0,
       "ratio", "higher"},
      {"engine.sort_cmps", rep.sort_cmps, "count", "lower"},
      {"engine.rows_out", rep.rows_out, "count", "lower"},
      {"costfunc.stage2_ms", Median(rep.stage2_ms), "ms", "lower"},
      {"core.stage3_us", Median(rep.stage3_ms) * 1e3, "us", "lower"},
      {"core.combines_per_req", ratio(d.combines, loop.requests), "ratio", "lower"},
      {"service.hit_ratio", ratio(d.d(&ServiceStats::cache_hits), d.d(&ServiceStats::predictions)),
       "ratio", "higher"},
      {"service.lockfree_share",
       ratio(d.d(&ServiceStats::lockfree_hits), d.d(&ServiceStats::cache_hits)), "ratio", "higher"},
      {"service.joins_per_miss",
       ratio(d.d(&ServiceStats::inflight_joins), d.d(&ServiceStats::cache_misses)), "ratio",
       "lower"},
      {"service.hit_us", Median(hit_ms) * 1e3, "us", "lower"},
      {"service.miss_ms", Median(miss_ms), "ms", "lower"},
      {"service.miss_overhead_ms", Median(miss_overhead_ms), "ms", "lower"},
      {"service.report_us", Median(report_ms) * 1e3, "us", "lower"},
      {"service.recombines", static_cast<double>(d.d(&ServiceStats::recombines)), "count", "lower"},
      {"service.recalibrations", static_cast<double>(d.d(&ServiceStats::recalibrations)), "count",
       "lower"},
      {"trace.overhead", loop.qps() > 0.0 ? traced.qps() / loop.qps() : 0.0, "ratio", "higher"},
      {"trace.request_self_us", Median(request_self_ms) * 1e3, "us", "lower"},
  };
  for (int k = 0; k < kNumPolicies; ++k) {
    metrics.push_back({std::string("schedule.admitted.") + kPolicyNames[k],
                       static_cast<double>(q.admitted[k]), "count", "higher"});
    metrics.push_back({std::string("schedule.violations.") + kPolicyNames[k],
                       static_cast<double>(q.violations[k]), "count", "lower"});
  }
  // Set-up phases of the whole process: the quality inputs and the workload.
  auto phase = [&](double PhaseTimes::*f) { return phases.*f + quality_phases.*f; };
  metrics.push_back({"setup.db_ms", phase(&PhaseTimes::db_ms), "ms", "lower"});
  metrics.push_back({"setup.samples_ms", phase(&PhaseTimes::samples_ms), "ms", "lower"});
  metrics.push_back({"setup.plans_ms", phase(&PhaseTimes::plans_ms), "ms", "lower"});
  metrics.push_back({"setup.truth_ms", phase(&PhaseTimes::truth_ms), "ms", "lower"});
  metrics.push_back({"setup.reference_ms", phase(&PhaseTimes::reference_ms), "ms", "lower"});
  metrics.push_back({"setup.warmup_ms", phase(&PhaseTimes::warmup_ms), "ms", "lower"});
  PrintResult(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
