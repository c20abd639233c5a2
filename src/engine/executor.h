#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/cost_model.h"
#include "engine/plan.h"
#include "storage/database.h"

namespace uqp {

/// Abstract fan-out primitive for intra-query parallelism: runs every task
/// index in [0, n) exactly once, possibly on multiple threads, and returns
/// only when all of them finished. The calling thread participates, so an
/// implementation backed by a saturated pool degrades to the caller doing
/// all the work itself — never to a deadlock. Implementations must support
/// nested RunTasks calls from inside a task (the executor fans out both
/// join children and, within each, table chunks).
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;
  virtual void RunTasks(int64_t n, const std::function<void(int64_t)>& fn) = 0;
};

/// Work-sharing pool implementing TaskRunner: `num_threads - 1` helper
/// threads plus the calling thread pull task indexes from a shared atomic
/// counter (morsel-driven dispatch: skewed tasks rebalance dynamically,
/// while merge order stays the deterministic task-index order chosen by
/// the caller). The executor spins one up per Execute call when
/// ExecOptions asks for parallelism without supplying a pool; long-lived
/// callers (the sampling estimator, benches, the prediction service) can
/// share one instance across runs.
///
/// Besides RunTasks fan-outs, the helpers serve a FIFO lane of independent
/// tasks (Submit) — the prediction service's plan-level requests. A
/// helper takes the oldest queued task before helping a fan-out, whose
/// caller works through its own indexes anyway.
class MorselPool : public TaskRunner {
 public:
  explicit MorselPool(int num_threads);
  ~MorselPool() override;

  MorselPool(const MorselPool&) = delete;
  MorselPool& operator=(const MorselPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()) + 1; }

  void RunTasks(int64_t n, const std::function<void(int64_t)>& fn) override;

  /// Queues `task` for the next free helper, in submission order. Returns
  /// false (dropping the task) once Shutdown has begun.
  bool Submit(std::function<void()> task);

  /// Refuses further Submits, lets the helpers drain every task already
  /// queued, and joins them. RunTasks keeps working afterwards (the caller
  /// runs every index). Idempotent; the destructor calls it.
  void Shutdown();

  /// Wakes every helper with nothing new to do; each must fall back asleep
  /// through its predicate loop (a fault-injection seam).
  void WakeAll() { cv_.NotifyAll(); }

 private:
  struct Batch;
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  /// Helper threads; written only by the constructor and joined by the
  /// destructor, so concurrent readers (num_threads) race with nothing.
  std::vector<std::thread> threads_;
  /// Batches still attracting helpers. Workers prune exhausted fronts
  /// under the lock; RunTasks appends under the lock.
  std::deque<std::shared_ptr<Batch>> active_ UQP_GUARDED_BY(mu_);
  /// Submitted tasks; helpers pop the front, Submit pushes the back.
  std::deque<std::function<void()>> tasks_ UQP_GUARDED_BY(mu_);
  bool stop_ UQP_GUARDED_BY(mu_) = false;
};

/// Resolves a num_threads knob: <= 0 means "use the hardware concurrency",
/// anything else is taken literally (floored at 1).
int ResolveNumThreads(int num_threads);

/// The runner one run fans out on. Resolves `num_threads`; above one
/// thread it is `runner` when given, else a MorselPool owned for this
/// object's lifetime. At one thread there is no pool and every task runs
/// inline on the calling thread.
class ScopedTaskRunner {
 public:
  ScopedTaskRunner(int num_threads, TaskRunner* runner);

  ScopedTaskRunner(const ScopedTaskRunner&) = delete;
  ScopedTaskRunner& operator=(const ScopedTaskRunner&) = delete;

  int threads() const { return threads_; }
  /// The pool, or null at one thread.
  TaskRunner* pool() const { return pool_; }

  /// Runs `fn(i)` for every i in [0, n): on the pool when there is one and
  /// n > 1, else inline in index order.
  void RunTasks(int64_t n, const std::function<void(int64_t)>& fn) const;

 private:
  int threads_;
  std::unique_ptr<MorselPool> owned_;
  TaskRunner* pool_;
};

/// Materialized intermediate result: schema + flat row-major values, plus
/// optional provenance. Provenance row i holds, for each leaf position in
/// the subtree that produced the block, the row index of the source tuple
/// in that leaf's (sample) table — the tuple annotations of paper §3.2.2
/// used to maintain the Q_{k,j,n} counters.
struct RowBlock {
  Schema schema;
  std::vector<Value> values;
  int prov_width = 0;
  std::vector<uint32_t> prov;

  int64_t num_rows() const {
    const int n = schema.num_columns();
    return n == 0 ? 0 : static_cast<int64_t>(values.size()) / n;
  }
  RowRef row(int64_t r) const {
    return RowRef{values.data() + r * schema.num_columns(), schema.num_columns()};
  }
  const uint32_t* prov_row(int64_t r) const {
    return prov.data() + r * prov_width;
  }
};

/// Per-operator execution statistics: the observed resource counters (the
/// ground-truth n's of paper Eq. 1) and cardinalities.
struct OpStats {
  int id = -1;
  OpType type = OpType::kSeqScan;
  ResourceVector actual;     ///< observed counter values
  double left_rows = 0.0;    ///< Nl
  double right_rows = 0.0;   ///< Nr
  double out_rows = 0.0;     ///< M
  /// Product of source-table row counts over the subtree's leaves (the
  /// |R| of paper Eq. 3, computed against whatever tables were bound —
  /// base tables for real runs, sample tables for estimation runs).
  double leaf_row_product = 1.0;
  /// M / leaf_row_product.
  double selectivity() const {
    return leaf_row_product > 0.0 ? out_rows / leaf_row_product : 0.0;
  }
};

/// Execution options.
struct ExecOptions {
  /// Collect per-row provenance (enabled for sampling-estimation runs).
  bool collect_provenance = false;
  /// If non-null, leaf scan i reads from (*leaf_overrides)[i] instead of
  /// the base table — this is how the estimator runs the plan over sample
  /// tables, binding a distinct sample per leaf occurrence.
  const std::vector<const Table*>* leaf_overrides = nullptr;
  /// Keep every operator's output block in ExecResult::blocks (sampling-
  /// estimation runs post-process them into the Q_{k,j,n} counters). Each
  /// parent moves its children's blocks there once it has read them, so
  /// retention copies only a materialize's input (which is also its
  /// output) and the root's output.
  bool retain_intermediates = false;
  /// Rows per inner-loop chunk: filters and join probes process their
  /// input in RowBlock chunks of at most this many rows (vectorized-style
  /// batched execution — predicates evaluate column-at-a-time into a
  /// selection mask, survivors are copied in runs). A seq-scan filter
  /// reads the table's contiguous column arrays through branch-free
  /// kernels where the column types allow (EvalPredicateColumns); index-
  /// scan residuals and every other comparison read the row cells
  /// (EvalPredicateBatch). 1 reproduces the historical tuple-at-a-time
  /// loop; output and counters are identical for every value.
  int64_t max_batch_size = 1024;
  /// Intra-query parallelism: with more than one thread, filter scans,
  /// index-scan gathers, hash-join builds/probes, nest-loop outer loops,
  /// sort leaf blocks + merge-tree levels, per-chunk aggregation tables
  /// and merge-join group emission are sharded across a task pool, and
  /// independent join children run concurrently. 1 runs the same loops
  /// inline, task by task; <= 0 means hardware concurrency. The determinism
  /// contract (enforced by tests/parallel_parity_test.cc): output rows,
  /// provenance, retained blocks and every resource counter are
  /// bit-identical at every value. Three ingredients: task results merge
  /// (or place in-place) in task order; task-accumulated counters are
  /// integer-valued, so double addition regroups exactly; and operators
  /// whose algorithm shape matters — sort's merge tree, aggregation's
  /// per-chunk tables — run the SAME fixed shape (determined by row count
  /// and max_batch_size, never thread count) at num_threads == 1 too.
  /// Sort comparison counts are therefore defined by the blocked merge
  /// tree over std::sort-sorted leaf blocks (deterministic for a given
  /// standard library, invariant to thread count — though not portable
  /// across standard-library implementations, whose introsorts compare
  /// differently), and aggregate output order by first appearance in the
  /// input.
  int num_threads = 1;
  /// Pool the shards run on. When null and num_threads > 1, the executor
  /// spins up an ephemeral MorselPool for the duration of the Execute
  /// call; callers owning a pool (PredictionService shares its worker
  /// pool between plan-level and intra-plan tasks) pass it here.
  TaskRunner* task_runner = nullptr;
  /// Cooperative cancellation probe. When set, the executor polls it at
  /// operator boundaries and before every task of a sharded loop, at
  /// every thread count; once it returns true the run stops
  /// consuming pool time (remaining shard bodies become no-ops) and
  /// Execute resolves with Status::DeadlineExceeded. The probe must be
  /// callable from any pool thread. Cancellation never yields a partial
  /// result — a cancelled run returns only the error. Null means "never
  /// cancelled" and costs nothing on the hot path.
  std::function<bool()> cancelled;
  EngineConfig engine;
};

/// Result of executing a plan.
struct ExecResult {
  RowBlock output;
  std::vector<OpStats> ops;  ///< indexed by operator id
  /// Per-operator output blocks when retain_intermediates was set.
  std::vector<RowBlock> blocks;
};

/// Single-threaded materializing executor. Operators maintain the exact
/// PostgreSQL-style resource counters; these deliberately deviate from the
/// optimizer's closed-form estimates (hash-chain visits, true distinct heap
/// pages, true sort comparisons) so that the cost model carries a realistic
/// "error in g" as in the paper.
class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  StatusOr<ExecResult> Execute(const Plan& plan, const ExecOptions& options) const;

 private:
  const Database* db_;
};

}  // namespace uqp
