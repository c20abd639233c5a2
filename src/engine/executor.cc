#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace uqp {

int ResolveNumThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::max(1u, hw));
}

ScopedTaskRunner::ScopedTaskRunner(int num_threads, TaskRunner* runner)
    : threads_(ResolveNumThreads(num_threads)),
      pool_(threads_ > 1 ? runner : nullptr) {
  if (threads_ > 1 && pool_ == nullptr) {
    owned_ = std::make_unique<MorselPool>(threads_);
    pool_ = owned_.get();
  }
}

void ScopedTaskRunner::RunTasks(int64_t n,
                                const std::function<void(int64_t)>& fn) const {
  if (pool_ != nullptr && n > 1) {
    pool_->RunTasks(n, fn);
    return;
  }
  for (int64_t i = 0; i < n; ++i) fn(i);
}

/// Shared pull-state of one RunTasks call: threads claim indexes from
/// `next` until exhausted; the last finisher wakes the waiting caller.
struct MorselPool::Batch {
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  int64_t total = 0;
  const std::function<void(int64_t)>* fn = nullptr;
  /// Guards nothing directly (`next`/`done` are atomics) — it exists so
  /// the completion notify and the caller's wait agree on one lock and a
  /// wakeup can never be lost between the final done increment and the
  /// caller parking on the condition variable.
  Mutex mu;
  CondVar cv;

  void Pull() {
    for (;;) {
      const int64_t i = next.fetch_add(1);
      if (i >= total) return;
      (*fn)(i);
      if (done.fetch_add(1) + 1 == total) {
        MutexLock lock(&mu);
        cv.NotifyAll();
      }
    }
  }

  bool exhausted() const { return next.load() >= total; }
};

MorselPool::MorselPool(int num_threads) {
  const int n = std::max(1, ResolveNumThreads(num_threads));
  threads_.reserve(static_cast<size_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) {
    threads_.emplace_back(&MorselPool::WorkerLoop, this);
  }
}

MorselPool::~MorselPool() { Shutdown(); }

void MorselPool::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.NotifyAll();
  // The joined threads stay in threads_: the vector is never mutated after
  // construction, so concurrent readers (num_threads) race with nothing.
  for (std::thread& t : threads_) t.join();
}

bool MorselPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    if (stop_) return false;
    tasks_.push_back(std::move(task));
  }
  cv_.NotifyOne();
  return true;
}

void MorselPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      // Explicit predicate loop (not the wait-with-lambda overload): the
      // thread-safety analysis checks guarded accesses here, in the
      // function that provably holds mu_. Prune batches every thread has
      // already claimed out: they only sit in the list to attract helpers.
      for (;;) {
        while (!active_.empty() && active_.front()->exhausted()) {
          active_.pop_front();
        }
        if (stop_ || !tasks_.empty() || !active_.empty()) break;
        cv_.Wait(mu_);
      }
      if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else if (!active_.empty()) {
        batch = active_.front();
      } else {
        return;  // stop_ set and nothing left to run or help
      }
    }
    if (task) {
      task();
    } else {
      batch->Pull();
    }
  }
}

void MorselPool::RunTasks(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (n == 1 || threads_.empty()) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->total = n;
  batch->fn = &fn;  // outlives the call: we wait for completion below
  {
    MutexLock lock(&mu_);
    if (!stop_) active_.push_back(batch);
  }
  cv_.NotifyAll();
  batch->Pull();  // the calling thread shards too (incl. nested calls)
  MutexLock lock(&batch->mu);
  while (batch->done.load() != batch->total) batch->cv.Wait(batch->mu);
}

namespace {

uint64_t HashKeys(RowRef row, const std::vector<int>& cols) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int c : cols) h = HashMix64(h, row[c].Hash());
  return h;
}

bool KeysEqual(RowRef a, const std::vector<int>& acols, RowRef b,
               const std::vector<int>& bcols) {
  for (size_t i = 0; i < acols.size(); ++i) {
    if (!a[acols[i]].Equals(b[bcols[i]])) return false;
  }
  return true;
}

/// Total order used by Sort/MergeJoin: numeric order for numbers,
/// lexicographic for strings.
int ValueCompare3(const Value& a, const Value& b) {
  if (a.type == ValueType::kString && b.type == ValueType::kString) {
    if (a.s == b.s) return 0;
    const int cmp = a.AsString().compare(b.AsString());
    return (cmp > 0) - (cmp < 0);
  }
  return a.Compare(b);
}

/// Hash-join build table: open addressing over the distinct 64-bit key
/// hashes of the build rows. Each slot heads a chain of build rids linked
/// through `next_` in build-row order, so a probe walks exactly the rids
/// whose key hash matches, in the order they were inserted.
class JoinHashTable {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  explicit JoinHashTable(const std::vector<uint64_t>& hashes)
      : next_(hashes.size(), kNone) {
    size_t capacity = 16;
    shift_ = 60;
    while (capacity < 2 * hashes.size()) {
      capacity *= 2;
      --shift_;
    }
    slots_.assign(capacity, Slot{0, kNone, kNone});
    for (size_t r = 0; r < hashes.size(); ++r) {
      Slot& slot = slots_[Find(hashes[r])];
      if (slot.head == kNone) {
        slot.hash = hashes[r];
        slot.head = static_cast<uint32_t>(r);
      } else {
        next_[slot.tail] = static_cast<uint32_t>(r);
      }
      slot.tail = static_cast<uint32_t>(r);
    }
  }

  /// First build rid whose key hash is `h`, or kNone.
  uint32_t Head(uint64_t h) const { return slots_[Find(h)].head; }
  /// The build rid after `rid` in its chain, or kNone.
  uint32_t Next(uint32_t rid) const { return next_[rid]; }

 private:
  struct Slot {
    uint64_t hash;
    uint32_t head;  ///< kNone marks an empty slot
    uint32_t tail;
  };

  /// Index of the slot holding `h`, or of the empty slot where it would
  /// go. The table is at most half full, so the linear probe always ends.
  size_t Find(uint64_t h) const {
    size_t i = static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
    const size_t mask = slots_.size() - 1;
    while (slots_[i].head != kNone && slots_[i].hash != h) i = (i + 1) & mask;
    return i;
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;
  int shift_;
};

double PagesFor(double rows, double width_bytes) {
  if (rows <= 0.0) return 0.0;
  return std::ceil(rows * std::max(8.0, width_bytes) / kPageSizeBytes);
}

struct GroupAccumulator {
  uint64_t hash = 0;  ///< group-key hash, kept so chunk tables merge cheaply
  std::vector<Value> group_values;
  std::vector<double> sums;
  std::vector<double> mins;
  std::vector<double> maxs;
  int64_t count = 0;
};

/// One aggregation hash table: accumulators in first-appearance order plus
/// a hash index into them. Aggregation builds one table per input chunk and
/// merges the chunk tables in chunk order, so the global first-appearance
/// order equals the sequential scan's regardless of thread count.
struct GroupTable {
  std::vector<GroupAccumulator> groups;
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;  ///< hash -> idx

  /// The group with key hash `h` whose g-th key value equals `key(g)` for
  /// every g in [0, width), or null.
  template <typename KeyFn>
  GroupAccumulator* Find(uint64_t h, size_t width, const KeyFn& key) {
    auto it = buckets.find(h);
    if (it == buckets.end()) return nullptr;
    for (uint32_t idx : it->second) {
      GroupAccumulator& cand = groups[idx];
      size_t g = 0;
      while (g < width && cand.group_values[g].Equals(key(g))) ++g;
      if (g == width) return &cand;
    }
    return nullptr;
  }

  GroupAccumulator* Append(GroupAccumulator&& acc) {
    buckets[acc.hash].push_back(static_cast<uint32_t>(groups.size()));
    groups.push_back(std::move(acc));
    return &groups.back();
  }
};

class ExecContext {
 public:
  ExecContext(const Database* db, const ExecOptions& options, int num_operators,
              int num_leaves, const ScopedTaskRunner& runner)
      : db_(db), options_(options), runner_(runner) {
    stats_.resize(static_cast<size_t>(num_operators));
    leaf_source_rows_.resize(static_cast<size_t>(num_leaves), 1.0);
  }

  const Table& SourceTable(const PlanNode& node) const {
    if (options_.leaf_overrides != nullptr) {
      const auto& overrides = *options_.leaf_overrides;
      UQP_CHECK(node.leaf_begin >= 0 &&
                node.leaf_begin < static_cast<int>(overrides.size()))
          << "leaf override vector too short";
      return *overrides[static_cast<size_t>(node.leaf_begin)];
    }
    return db_->GetTable(node.table_name);
  }

  bool prov() const { return options_.collect_provenance; }
  const EngineConfig& engine() const { return options_.engine; }
  int64_t batch() const { return std::max<int64_t>(1, options_.max_batch_size); }

  /// Cooperative cancellation probe, latched: once the caller's token
  /// fires, every subsequent check short-circuits on the atomic without
  /// re-invoking the (potentially costlier) std::function. The latch is a
  /// monotonic flag, so relaxed ordering suffices — a stale `false` read
  /// merely delays the stop by one morsel boundary.
  bool Cancelled() {
    if (!options_.cancelled) return false;
    // Plain atomic flag, deliberately outside the mutex capability model:
    // it carries no data dependency, only a monotonic "stop" signal.
    if (cancel_seen_.load(std::memory_order_relaxed)) return true;
    if (options_.cancelled()) {
      cancel_seen_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  const ScopedTaskRunner& runner() const { return runner_; }

  OpStats& stats(const PlanNode& node) {
    return stats_[static_cast<size_t>(node.id)];
  }

  void RecordLeafRows(int leaf_pos, double rows) {
    leaf_source_rows_[static_cast<size_t>(leaf_pos)] = rows;
  }
  double LeafProduct(int begin, int end) const {
    double p = 1.0;
    for (int i = begin; i < end; ++i) p *= leaf_source_rows_[static_cast<size_t>(i)];
    return p;
  }

  std::vector<OpStats> TakeStats() { return std::move(stats_); }

 private:
  const Database* db_;
  const ExecOptions& options_;
  const ScopedTaskRunner& runner_;
  std::atomic<bool> cancel_seen_{false};
  std::vector<OpStats> stats_;
  std::vector<double> leaf_source_rows_;
};

class NodeRunner {
 public:
  NodeRunner(ExecContext* ctx, std::vector<RowBlock>* retained)
      : ctx_(ctx), retained_(retained) {}

  StatusOr<RowBlock> Run(const PlanNode& node) {
    // Operator-boundary cancellation checks. The entry check stops a
    // cancelled run before it charges the next operator; the exit check
    // discards output whose shard bodies were skipped mid-flight (a
    // cancelled RunTaskRange leaves partially-built blocks behind).
    if (ctx_->Cancelled()) {
      return Status::DeadlineExceeded("execution cancelled at operator boundary");
    }
    UQP_ASSIGN_OR_RETURN(RowBlock block, RunImpl(node));
    if (ctx_->Cancelled()) {
      return Status::DeadlineExceeded("execution cancelled at operator boundary");
    }
    return block;
  }

 private:
  StatusOr<RowBlock> RunImpl(const PlanNode& node) {
    switch (node.type) {
      case OpType::kSeqScan:
        return RunSeqScan(node);
      case OpType::kIndexScan:
        return RunIndexScan(node);
      case OpType::kHashJoin:
        return RunHashJoin(node);
      case OpType::kMergeJoin:
        return RunMergeJoin(node);
      case OpType::kNestLoopJoin:
        return RunNestLoopJoin(node);
      case OpType::kSort:
        return RunSort(node);
      case OpType::kAggregate:
        return RunAggregate(node);
      case OpType::kMaterialize:
        return RunMaterialize(node);
    }
    return Status::Internal("unknown operator type");
  }

  /// Hands a child's output block to the retained set once its parent has
  /// finished reading it. Every parent retains its children this way, so
  /// retention copies only a materialize's input and (in Execute) the
  /// root's output.
  void Retain(const PlanNode& child, RowBlock* block) {
    if (retained_ != nullptr) {
      (*retained_)[static_cast<size_t>(child.id)] = std::move(*block);
    }
  }

  /// Appends the rows of a gathered chunk whose selection-mask lane is
  /// set, bulk-copying consecutive runs of survivors; provenance ids come
  /// from the parallel `rids` array (the rows' source-table indexes).
  void AppendSelected(RowBlock* out, const Value* rows, int ncols, int64_t n,
                      const uint8_t* mask, const uint32_t* rids) {
    int64_t i = 0;
    while (i < n) {
      if (mask[i] == 0) {
        ++i;
        continue;
      }
      int64_t j = i + 1;
      while (j < n && mask[j] != 0) ++j;
      out->values.insert(out->values.end(), rows + i * ncols, rows + j * ncols);
      if (out->prov_width > 0) {
        out->prov.insert(out->prov.end(), rids + i, rids + j);
      }
      i = j;
    }
  }

  // ----- intra-query sharding helpers -------------------------------------
  //
  // Every sharded loop has one body, a task: one max_batch_size-row chunk
  // (or one batch of merge-join groups). The same tasks run at every
  // thread count: inline in task order when there is no pool, on the pool
  // otherwise, and their outputs land in task order either way. Every
  // counter a task accumulates is an integer-valued count (hash ops,
  // chain visits, qual evaluations, sort comparisons), so summing
  // per-task partials regroups the same double additions exactly, and the
  // run is bit-identical at every thread count. Each task re-probes the
  // cancellation token before its body, so a run past its deadline stops
  // within one task of the expiry.

  int64_t NumChunks(int64_t total) const {
    const int64_t chunk = ctx_->batch();
    return (total + chunk - 1) / chunk;
  }

  /// Runs task indexes [0, n), skipping every body once the run is
  /// cancelled.
  void RunTaskRange(int64_t n, const std::function<void(int64_t)>& fn) {
    ctx_->runner().RunTasks(n, [&](int64_t t) {
      if (!ctx_->Cancelled()) fn(t);
    });
  }

  /// Runs `task_fn(t, block, stats)` for every task t in [0, ntasks) and
  /// appends the tasks' rows to `out` and their counters to `st` in task
  /// order. Without a pool (or with one task) every task appends straight
  /// into `out` and `st`. With a pool the output is assembled two-pass:
  /// tasks fill private blocks, exact per-task offsets are prefix-summed,
  /// `out` is resized once, and every task's rows are placed in-place —
  /// concurrently, into disjoint spans — with no merge copy. A cancelled
  /// run leaves a partial `out` behind; Run discards it at the operator
  /// boundary, so no partial block escapes.
  void EmitTasks(int64_t ntasks, RowBlock* out, OpStats* st,
                 const std::function<void(int64_t, RowBlock*, OpStats*)>& task_fn) {
    if (ctx_->runner().pool() == nullptr || ntasks < 2) {
      RunTaskRange(ntasks, [&](int64_t t) { task_fn(t, out, st); });
      return;
    }
    std::vector<RowBlock> blocks(static_cast<size_t>(ntasks));
    std::vector<OpStats> partials(static_cast<size_t>(ntasks));
    RunTaskRange(ntasks, [&](int64_t t) {
      RowBlock& local = blocks[static_cast<size_t>(t)];
      local.prov_width = out->prov_width;
      task_fn(t, &local, &partials[static_cast<size_t>(t)]);
    });
    // Sizing: exact prefix offsets per task, one resize of the output.
    const size_t vbase = out->values.size();
    const size_t pbase = out->prov.size();
    std::vector<size_t> voff(static_cast<size_t>(ntasks) + 1, 0);
    std::vector<size_t> poff(static_cast<size_t>(ntasks) + 1, 0);
    for (int64_t t = 0; t < ntasks; ++t) {
      voff[static_cast<size_t>(t) + 1] =
          voff[static_cast<size_t>(t)] + blocks[static_cast<size_t>(t)].values.size();
      poff[static_cast<size_t>(t) + 1] =
          poff[static_cast<size_t>(t)] + blocks[static_cast<size_t>(t)].prov.size();
    }
    out->values.resize(vbase + voff[static_cast<size_t>(ntasks)]);
    out->prov.resize(pbase + poff[static_cast<size_t>(ntasks)]);
    // Placement: every task writes its span of the pre-sized output.
    ctx_->runner().RunTasks(ntasks, [&](int64_t t) {
      const RowBlock& b = blocks[static_cast<size_t>(t)];
      std::copy(b.values.begin(), b.values.end(),
                out->values.begin() + vbase + voff[static_cast<size_t>(t)]);
      std::copy(b.prov.begin(), b.prov.end(),
                out->prov.begin() + pbase + poff[static_cast<size_t>(t)]);
    });
    for (int64_t t = 0; t < ntasks; ++t) {
      st->actual += partials[static_cast<size_t>(t)].actual;
    }
  }

  /// In-place flavor of AppendSelected for a contiguous chunk of source
  /// rows: writes the selected rows at `vdst` and their provenance ids
  /// (base + lane, the source-table row indexes) at `pdst` unless it is
  /// null; both must have room for every survivor. Value is a trivially
  /// copyable 16-byte cell, so the run copies lower to memmove.
  static void PlaceSelected(Value* vdst, uint32_t* pdst, const Value* rows,
                            int ncols, int64_t n, const uint8_t* mask,
                            int64_t base) {
    int64_t written = 0;
    int64_t i = 0;
    while (i < n) {
      if (mask[i] == 0) {
        ++i;
        continue;
      }
      int64_t j = i + 1;
      while (j < n && mask[j] != 0) ++j;
      std::copy(rows + i * ncols, rows + j * ncols, vdst + written * ncols);
      if (pdst != nullptr) {
        for (int64_t r = i; r < j; ++r) {
          pdst[written + (r - i)] = static_cast<uint32_t>(base + r);
        }
      }
      written += j - i;
      i = j;
    }
  }

  /// Runs both children of a binary operator: left then right inline, or
  /// concurrently on the pool (independent subtrees touch disjoint stats /
  /// retained-block slots). The left child's status wins. Run's own entry
  /// check covers cancellation, so this dispatch has no per-task guard.
  Status RunChildren(const PlanNode& node, RowBlock* left, RowBlock* right) {
    StatusOr<RowBlock> l = Status::Internal("left child did not run");
    StatusOr<RowBlock> r = Status::Internal("right child did not run");
    ctx_->runner().RunTasks(2, [&](int64_t i) {
      if (i == 0) {
        l = Run(*node.left);
      } else {
        r = Run(*node.right);
      }
    });
    if (!l.ok()) return l.status();
    if (!r.ok()) return r.status();
    *left = std::move(l).value();
    *right = std::move(r).value();
    return Status::OK();
  }

  /// Assembles one join output row directly in the output block: appends
  /// lrow then rrow, evaluates the residual predicate in place (rolling
  /// back on reject, charging `quals` ops), then appends provenance.
  void AppendJoinRow(RowBlock* out, int out_cols, const RowBlock& left,
                     int64_t l, const RowBlock& right, int64_t r,
                     const PlanNode& node, int quals, OpStats* st) {
    const RowRef lrow = left.row(l);
    const RowRef rrow = right.row(r);
    const size_t row_start = out->values.size();
    out->values.insert(out->values.end(), lrow.data,
                       lrow.data + lrow.num_columns);
    out->values.insert(out->values.end(), rrow.data,
                       rrow.data + rrow.num_columns);
    if (node.predicate != nullptr) {
      st->actual.no += quals;
      const RowRef jrow{out->values.data() + row_start, out_cols};
      if (!EvalPredicate(*node.predicate, jrow)) {
        out->values.resize(row_start);
        return;
      }
    }
    if (ctx_->prov()) {
      const uint32_t* lp = left.prov_row(l);
      const uint32_t* rp = right.prov_row(r);
      out->prov.insert(out->prov.end(), lp, lp + left.prov_width);
      out->prov.insert(out->prov.end(), rp, rp + right.prov_width);
    }
  }

  StatusOr<RowBlock> RunSeqScan(const PlanNode& node) {
    const Table& src = ctx_->SourceTable(node);
    OpStats& st = ctx_->stats(node);
    st.id = node.id;
    st.type = node.type;
    ctx_->RecordLeafRows(node.leaf_begin, static_cast<double>(src.num_rows()));

    RowBlock out;
    out.schema = node.output_schema;
    out.prov_width = ctx_->prov() ? 1 : 0;
    const int quals = PredicateOpCount(node.predicate.get());
    const int64_t rows = src.num_rows();
    st.actual.ns += static_cast<double>(src.num_pages());
    st.actual.nt += static_cast<double>(rows);
    st.actual.no += static_cast<double>(rows) * quals;

    const int ncols = out.schema.num_columns();
    const Value* data = src.raw_values().data();
    if (node.predicate == nullptr) {
      out.values.assign(data, data + rows * ncols);
      if (out.prov_width > 0) {
        out.prov.resize(static_cast<size_t>(rows));
        for (int64_t r = 0; r < rows; ++r) {
          out.prov[static_cast<size_t>(r)] = static_cast<uint32_t>(r);
        }
      }
    } else {
      // Filter fully in place, at every thread count: a sizing pass
      // evaluates the predicate chunk by chunk over the table's column
      // arrays (EvalPredicateColumns) into one shared mask and counts
      // survivors per chunk, then the output is sized once and a placement
      // pass copies each chunk's surviving source rows directly into its
      // span — no intermediate chunk blocks, no merge copy, no regrowth.
      // Chunks run on the pool when there is one; survivors land in chunk
      // order either way.
      const int64_t chunk = ctx_->batch();
      const int64_t nchunks = NumChunks(rows);
      std::vector<uint8_t> mask(static_cast<size_t>(rows));
      std::vector<int64_t> survivors(static_cast<size_t>(nchunks), 0);
      RunTaskRange(nchunks, [&](int64_t c) {
        const int64_t base = c * chunk;
        const int64_t nb = std::min(chunk, rows - base);
        uint8_t* chunk_mask = mask.data() + base;
        EvalPredicateColumns(*node.predicate, src, base, nb, chunk_mask);
        int64_t count = 0;
        for (int64_t i = 0; i < nb; ++i) count += chunk_mask[i] != 0;
        survivors[static_cast<size_t>(c)] = count;
      });
      std::vector<int64_t> offsets(static_cast<size_t>(nchunks) + 1, 0);
      for (int64_t c = 0; c < nchunks; ++c) {
        offsets[static_cast<size_t>(c) + 1] =
            offsets[static_cast<size_t>(c)] + survivors[static_cast<size_t>(c)];
      }
      const int64_t total = offsets[static_cast<size_t>(nchunks)];
      out.values.resize(static_cast<size_t>(total * ncols));
      if (out.prov_width > 0) out.prov.resize(static_cast<size_t>(total));
      RunTaskRange(nchunks, [&](int64_t c) {
        const int64_t base = c * chunk;
        const int64_t nb = std::min(chunk, rows - base);
        const int64_t off = offsets[static_cast<size_t>(c)];
        PlaceSelected(out.values.data() + off * ncols,
                      out.prov_width > 0 ? out.prov.data() + off : nullptr,
                      data + base * ncols, ncols, nb, mask.data() + base, base);
      });
    }
    st.out_rows = static_cast<double>(out.num_rows());
    return out;
  }

  StatusOr<RowBlock> RunIndexScan(const PlanNode& node) {
    const Table& src = ctx_->SourceTable(node);
    OpStats& st = ctx_->stats(node);
    st.id = node.id;
    st.type = node.type;
    ctx_->RecordLeafRows(node.leaf_begin, static_cast<double>(src.num_rows()));

    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool has_range = false, pure = true;
    CollectIndexRange(node.predicate.get(), node.index_column, &lo, &hi,
                      &has_range, &pure);
    if (!has_range) {
      return Status::InvalidArgument(
          "index scan predicate has no range over the indexed column");
    }
    const std::vector<uint32_t>& index = src.OrderedIndex(node.index_column);
    const int64_t n = src.num_rows();

    // Binary search for the boundaries in the ordered index.
    auto value_at = [&src, &node](uint32_t rid) {
      return src.at(rid, node.index_column).AsDouble();
    };
    const auto begin_it =
        std::lower_bound(index.begin(), index.end(), lo,
                         [&](uint32_t rid, double v) { return value_at(rid) < v; });
    const auto end_it =
        std::upper_bound(begin_it, index.end(), hi,
                         [&](double v, uint32_t rid) { return v < value_at(rid); });

    RowBlock out;
    out.schema = node.output_schema;
    out.prov_width = ctx_->prov() ? 1 : 0;
    const int quals = PredicateOpCount(node.predicate.get());
    const int64_t chunk = ctx_->batch();
    const int64_t matches = end_it - begin_it;
    const int ncols = out.schema.num_columns();
    const bool residual = !pure && node.predicate != nullptr;

    // Gather matched rows a chunk at a time into a contiguous block, then
    // run the residual filter column-at-a-time over the chunk and bulk-copy
    // survivor runs (mirroring the seq-scan/hash-join batched inner loops).
    // Chunks index the ordered-index range directly.
    EmitTasks(NumChunks(matches), &out, &st,
              [&](int64_t c, RowBlock* dst, OpStats*) {
                const int64_t base = c * chunk;
                const int64_t nb = std::min(chunk, matches - base);
                std::vector<Value> gathered(static_cast<size_t>(nb * ncols));
                std::vector<uint32_t> rids(static_cast<size_t>(nb));
                std::vector<uint8_t> mask(static_cast<size_t>(nb), 1);
                for (int64_t i = 0; i < nb; ++i) {
                  const uint32_t rid = *(begin_it + base + i);
                  const RowRef row = src.row(rid);
                  std::copy(row.data, row.data + ncols,
                            gathered.begin() + i * ncols);
                  rids[static_cast<size_t>(i)] = rid;
                }
                if (residual) {
                  // Residual filter: re-evaluate the full predicate.
                  EvalPredicateBatch(*node.predicate, gathered.data(), ncols,
                                     nb, mask.data());
                }
                AppendSelected(dst, gathered.data(), ncols, nb, mask.data(),
                               rids.data());
              });
    // Distinct heap pages the matches touch, counted in one pass.
    const int64_t rows_per_page = src.rows_per_page();
    std::vector<bool> page_seen(
        static_cast<size_t>((n + rows_per_page - 1) / rows_per_page));
    int64_t pages_touched = 0;
    for (auto it = begin_it; it != end_it; ++it) {
      const size_t page = static_cast<size_t>(*it / rows_per_page);
      pages_touched += page_seen[page] ? 0 : 1;
      page_seen[page] = true;
    }
    st.actual.ni += static_cast<double>(matches) + std::log2(std::max<double>(2.0, static_cast<double>(n)));
    st.actual.nr += static_cast<double>(pages_touched);
    st.actual.nt += static_cast<double>(matches);
    st.actual.no += static_cast<double>(matches) * quals;
    st.out_rows = static_cast<double>(out.num_rows());
    return out;
  }

  StatusOr<RowBlock> RunHashJoin(const PlanNode& node) {
    RowBlock left, right;
    UQP_RETURN_IF_ERROR(RunChildren(node, &left, &right));
    OpStats& st = ctx_->stats(node);
    st.id = node.id;
    st.type = node.type;
    st.left_rows = static_cast<double>(left.num_rows());
    st.right_rows = static_cast<double>(right.num_rows());

    std::vector<int> lcols, rcols;
    for (const auto& [l, r] : node.join_keys) {
      lcols.push_back(l);
      rcols.push_back(r);
    }

    const int64_t chunk = ctx_->batch();

    // Build on the right input. Key hashing shards across the pool; the
    // chain inserts stay in build-row order (one sequential pass), so
    // every chain lists the same rids in the same order at every thread
    // count — which is what keeps the probe output order bit-identical.
    const int64_t build_rows = right.num_rows();
    std::vector<uint64_t> build_hashes(static_cast<size_t>(build_rows));
    RunTaskRange(NumChunks(build_rows), [&](int64_t c) {
      const int64_t base = c * chunk;
      const int64_t nb = std::min(chunk, build_rows - base);
      for (int64_t i = 0; i < nb; ++i) {
        build_hashes[static_cast<size_t>(base + i)] =
            HashKeys(right.row(base + i), rcols);
      }
    });
    const JoinHashTable table(build_hashes);
    st.actual.no += static_cast<double>(build_rows);  // build hash ops

    RowBlock out;
    out.schema = node.output_schema;
    out.prov_width = ctx_->prov() ? left.prov_width + right.prov_width : 0;
    const int quals = PredicateOpCount(node.predicate.get());
    const int out_cols = out.schema.num_columns();
    // Probe in chunks: hash a chunk of probe keys, then walk the chains,
    // assembling join rows directly in the chunk's output block.
    const int64_t probe_rows = left.num_rows();
    EmitTasks(NumChunks(probe_rows), &out, &st, [&](int64_t c, RowBlock* dst,
                                                    OpStats* pst) {
      const int64_t base = c * chunk;
      const int64_t nb = std::min(chunk, probe_rows - base);
      std::vector<uint64_t> hashes(static_cast<size_t>(nb));
      for (int64_t i = 0; i < nb; ++i) {
        hashes[static_cast<size_t>(i)] = HashKeys(left.row(base + i), lcols);
      }
      pst->actual.no += static_cast<double>(nb);  // probe-side hash ops
      for (int64_t i = 0; i < nb; ++i) {
        uint32_t r = table.Head(hashes[static_cast<size_t>(i)]);
        if (r == JoinHashTable::kNone) continue;
        const int64_t l = base + i;
        const RowRef lrow = left.row(l);
        for (; r != JoinHashTable::kNone; r = table.Next(r)) {
          pst->actual.no += 1.0;  // chain visit / key compare
          if (!KeysEqual(lrow, lcols, right.row(r), rcols)) continue;
          AppendJoinRow(dst, out_cols, left, l, right, r, node, quals, pst);
        }
      }
    });
    st.out_rows = static_cast<double>(out.num_rows());
    st.actual.nt += st.out_rows;
    // Grace-hash spill I/O if the build side exceeds work_mem.
    const double build_bytes =
        st.right_rows * node.right->output_schema.TupleWidthBytes();
    if (build_bytes > ctx_->engine().work_mem_bytes) {
      st.actual.ns +=
          2.0 * (PagesFor(st.left_rows, node.left->output_schema.TupleWidthBytes()) +
                 PagesFor(st.right_rows, node.right->output_schema.TupleWidthBytes()));
    }
    Retain(*node.left, &left);
    Retain(*node.right, &right);
    return out;
  }

  StatusOr<RowBlock> RunMergeJoin(const PlanNode& node) {
    RowBlock left, right;
    UQP_RETURN_IF_ERROR(RunChildren(node, &left, &right));
    OpStats& st = ctx_->stats(node);
    st.id = node.id;
    st.type = node.type;
    st.left_rows = static_cast<double>(left.num_rows());
    st.right_rows = static_cast<double>(right.num_rows());

    UQP_CHECK(node.join_keys.size() == 1)
        << "merge join supports exactly one key";
    const int lc = node.join_keys[0].first;
    const int rc = node.join_keys[0].second;

    RowBlock out;
    out.schema = node.output_schema;
    out.prov_width = ctx_->prov() ? left.prov_width + right.prov_width : 0;
    const int quals = PredicateOpCount(node.predicate.get());
    const int out_cols = out.schema.num_columns();

    // Phase 1 — the two-pointer walk stays sequential and defines the
    // comparison counter exactly as before; it now only records the
    // equal-group boundaries instead of emitting inside the loop.
    struct EqualGroup {
      int64_t li, le, ri, re;
    };
    std::vector<EqualGroup> eq_groups;
    int64_t li = 0, ri = 0;
    const int64_t ln = left.num_rows(), rn = right.num_rows();
    while (li < ln && ri < rn) {
      st.actual.no += 1.0;
      const int cmp = ValueCompare3(left.row(li)[lc], right.row(ri)[rc]);
      if (cmp < 0) {
        ++li;
        continue;
      }
      if (cmp > 0) {
        ++ri;
        continue;
      }
      // Equal group: [li, le) x [ri, re).
      int64_t le = li + 1;
      while (le < ln) {
        st.actual.no += 1.0;
        if (ValueCompare3(left.row(le)[lc], left.row(li)[lc]) != 0) break;
        ++le;
      }
      int64_t re = ri + 1;
      while (re < rn) {
        st.actual.no += 1.0;
        if (ValueCompare3(right.row(re)[rc], right.row(ri)[rc]) != 0) break;
        ++re;
      }
      eq_groups.push_back({li, le, ri, re});
      li = le;
      ri = re;
    }

    // Phase 2 — cross-product emission, sharded: consecutive groups batch
    // into tasks of roughly max_batch_size output pairs (an input-derived
    // decomposition — thread count never shapes it), each task emits its
    // groups in order, and task outputs land in task order.
    std::vector<size_t> task_bounds{0};
    int64_t pending_pairs = 0;
    for (size_t g = 0; g < eq_groups.size(); ++g) {
      const EqualGroup& eq = eq_groups[g];
      pending_pairs += (eq.le - eq.li) * (eq.re - eq.ri);
      if (pending_pairs >= ctx_->batch()) {
        task_bounds.push_back(g + 1);
        pending_pairs = 0;
      }
    }
    if (task_bounds.back() < eq_groups.size()) {
      task_bounds.push_back(eq_groups.size());
    }
    const int64_t ntasks = static_cast<int64_t>(task_bounds.size()) - 1;
    EmitTasks(ntasks, &out, &st, [&](int64_t t, RowBlock* dst, OpStats* pst) {
      for (size_t g = task_bounds[static_cast<size_t>(t)];
           g < task_bounds[static_cast<size_t>(t) + 1]; ++g) {
        const EqualGroup& eq = eq_groups[g];
        for (int64_t a = eq.li; a < eq.le; ++a) {
          for (int64_t b = eq.ri; b < eq.re; ++b) {
            AppendJoinRow(dst, out_cols, left, a, right, b, node, quals, pst);
          }
        }
      }
    });
    st.out_rows = static_cast<double>(out.num_rows());
    st.actual.nt += st.out_rows;
    Retain(*node.left, &left);
    Retain(*node.right, &right);
    return out;
  }

  StatusOr<RowBlock> RunNestLoopJoin(const PlanNode& node) {
    RowBlock left, right;
    UQP_RETURN_IF_ERROR(RunChildren(node, &left, &right));
    OpStats& st = ctx_->stats(node);
    st.id = node.id;
    st.type = node.type;
    st.left_rows = static_cast<double>(left.num_rows());
    st.right_rows = static_cast<double>(right.num_rows());

    std::vector<int> lcols, rcols;
    for (const auto& [l, r] : node.join_keys) {
      lcols.push_back(l);
      rcols.push_back(r);
    }

    RowBlock out;
    out.schema = node.output_schema;
    out.prov_width = ctx_->prov() ? left.prov_width + right.prov_width : 0;
    const int quals = PredicateOpCount(node.predicate.get());
    const int out_cols = out.schema.num_columns();
    const int64_t rn = right.num_rows();
    // Outer loop sharded over left-row chunks (output order is left-row
    // order, so chunk-order output is bit-identical).
    const int64_t chunk = ctx_->batch();
    const int64_t ln = left.num_rows();
    EmitTasks(NumChunks(ln), &out, &st, [&](int64_t c, RowBlock* dst,
                                            OpStats* pst) {
      for (int64_t l = c * chunk; l < std::min(ln, (c + 1) * chunk); ++l) {
        const RowRef lrow = left.row(l);
        pst->actual.no += static_cast<double>(rn);  // per-pair key comparisons
        for (int64_t r = 0; r < rn; ++r) {
          if (!lcols.empty() && !KeysEqual(lrow, lcols, right.row(r), rcols)) {
            continue;
          }
          AppendJoinRow(dst, out_cols, left, l, right, r, node, quals, pst);
        }
      }
    });
    st.out_rows = static_cast<double>(out.num_rows());
    st.actual.nt += st.out_rows;
    Retain(*node.left, &left);
    Retain(*node.right, &right);
    return out;
  }

  StatusOr<RowBlock> RunSort(const PlanNode& node) {
    UQP_ASSIGN_OR_RETURN(RowBlock in, Run(*node.left));
    OpStats& st = ctx_->stats(node);
    st.id = node.id;
    st.type = node.type;
    st.left_rows = static_cast<double>(in.num_rows());

    // Fixed-shape blocked merge sort. Leaf blocks of max_batch_size rows
    // are sorted independently, then merged pairwise up a tree whose shape
    // is fully determined by (row count, batch size) — never by thread
    // count. Leaf sorts, same-level merges and the permuted output writes
    // all dispatch as independent tasks; the comparison count is the sum
    // of per-task integer counts accumulated in task order, so the counter
    // and the output are bit-identical at every num_threads value.
    const int64_t n = in.num_rows();
    const int64_t block = ctx_->batch();
    const int64_t nleaves = n > 0 ? NumChunks(n) : 0;
    // Total order: sort columns first, original row index as tiebreak —
    // no two indexes compare equal, so the sorted permutation is unique.
    const auto row_less = [&](uint32_t a, uint32_t b) {
      const RowRef ra = in.row(a);
      const RowRef rb = in.row(b);
      for (int c : node.sort_columns) {
        const int cmp = ValueCompare3(ra[c], rb[c]);
        if (cmp != 0) return cmp < 0;
      }
      return a < b;
    };

    std::vector<uint32_t> order(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      order[static_cast<size_t>(i)] = static_cast<uint32_t>(i);
    }
    int64_t comparisons = 0;
    {
      // Leaf sorts: each block sorted independently, counting comparisons
      // into its own slot.
      std::vector<int64_t> leaf_comps(static_cast<size_t>(nleaves), 0);
      RunTaskRange(nleaves, [&](int64_t l) {
        const int64_t lo = l * block;
        const int64_t hi = std::min(n, lo + block);
        int64_t* comps = &leaf_comps[static_cast<size_t>(l)];
        // Leaf blocks are carved by max_batch_size only (never thread
        // count), each is sorted with a total order (row_less tie-breaks
        // on rid), and the counter sums per-leaf slots in leaf order.
        // det-lint: fixed-shape
        std::sort(order.begin() + lo, order.begin() + hi,
                  [&](uint32_t a, uint32_t b) {
                    ++*comps;
                    return row_less(a, b);
                  });
      });
      for (int64_t l = 0; l < nleaves; ++l) {
        comparisons += leaf_comps[static_cast<size_t>(l)];
      }
    }
    // Merge tree: at each level, runs of `width` rows merge pairwise; an
    // unpaired tail run carries over untouched. Same-level merges are
    // independent tasks with per-merge comparison counts.
    std::vector<uint32_t> buffer(static_cast<size_t>(n));
    uint32_t* src = order.data();
    uint32_t* dst = buffer.data();
    for (int64_t width = block; width < n; width *= 2) {
      const int64_t nmerges = (n + 2 * width - 1) / (2 * width);
      std::vector<int64_t> merge_comps(static_cast<size_t>(nmerges), 0);
      RunTaskRange(nmerges, [&](int64_t m) {
        const int64_t lo = m * 2 * width;
        const int64_t mid = std::min(n, lo + width);
        const int64_t hi = std::min(n, lo + 2 * width);
        if (mid >= hi) {  // unpaired tail: carry over, no comparisons
          std::copy(src + lo, src + hi, dst + lo);
          return;
        }
        int64_t comps = 0;
        int64_t i = lo, j = mid, k = lo;
        while (i < mid && j < hi) {
          ++comps;
          if (row_less(src[j], src[i])) {
            dst[k++] = src[j++];
          } else {
            dst[k++] = src[i++];
          }
        }
        std::copy(src + i, src + mid, dst + k);
        std::copy(src + j, src + hi, dst + k + (mid - i));
        merge_comps[static_cast<size_t>(m)] = comps;
      });
      for (int64_t m = 0; m < nmerges; ++m) {
        comparisons += merge_comps[static_cast<size_t>(m)];
      }
      std::swap(src, dst);
    }
    const uint32_t* sorted = src;

    // Permuted output, written in place: size the output once, then each
    // chunk of the permutation bulk-copies its rows' contiguous Value (and
    // provenance) spans into its span of the output.
    RowBlock out;
    out.schema = in.schema;
    out.prov_width = in.prov_width;
    const int ncols = in.schema.num_columns();
    out.values.resize(static_cast<size_t>(n * ncols));
    out.prov.resize(static_cast<size_t>(n) * out.prov_width);
    RunTaskRange(nleaves, [&](int64_t c) {
      const int64_t base = c * block;
      const int64_t nb = std::min(block, n - base);
      Value* vdst = out.values.data() + base * ncols;
      for (int64_t i = 0; i < nb; ++i) {
        const RowRef row = in.row(sorted[base + i]);
        std::copy(row.data, row.data + ncols, vdst + i * ncols);
      }
      if (out.prov_width > 0) {
        uint32_t* pdst = out.prov.data() + base * out.prov_width;
        for (int64_t i = 0; i < nb; ++i) {
          const uint32_t* p = in.prov_row(sorted[base + i]);
          std::copy(p, p + out.prov_width, pdst + i * out.prov_width);
        }
      }
    });
    st.actual.no += static_cast<double>(comparisons);
    st.actual.nt += static_cast<double>(n);
    const double bytes = static_cast<double>(n) * in.schema.TupleWidthBytes();
    if (bytes > ctx_->engine().work_mem_bytes) {
      st.actual.ns += 3.0 * PagesFor(static_cast<double>(n),
                                     in.schema.TupleWidthBytes());
    }
    st.out_rows = static_cast<double>(n);
    Retain(*node.left, &in);
    return out;
  }

  StatusOr<RowBlock> RunAggregate(const PlanNode& node) {
    UQP_ASSIGN_OR_RETURN(RowBlock in, Run(*node.left));
    OpStats& st = ctx_->stats(node);
    st.id = node.id;
    st.type = node.type;
    st.left_rows = static_cast<double>(in.num_rows());

    // Sharded aggregation with a pinned output contract: groups emit in
    // FIRST-APPEARANCE order of their key in the input (stable across
    // standard-library implementations — the old code followed
    // unordered_map bucket iteration order). Each max_batch_size-row chunk
    // builds a private hash table in chunk-local first-appearance order;
    // the chunk tables then combine through a width-doubling pairwise
    // merge tree (same fixed-shape contract as the sort's merge tree): the
    // tree's shape depends only on the chunk count — i.e. on row count and
    // max_batch_size — never on thread count, so the same merges happen in
    // the same pairing at every thread count and the output is
    // bit-identical. Ordered-union merging (left table's order wins, the
    // right table's new groups append in their local first-appearance
    // order) is associative, so the tree reproduces the sequential scan's
    // global first-appearance order exactly.
    const size_t nagg = node.aggregates.size();
    const int64_t rows = in.num_rows();
    const int64_t chunk = ctx_->batch();
    const int64_t nchunks = rows > 0 ? NumChunks(rows) : 0;
    st.actual.no += static_cast<double>(rows);  // group hash / transition ops

    std::vector<GroupTable> locals(static_cast<size_t>(nchunks));
    RunTaskRange(nchunks, [&](int64_t c) {
      const int64_t base = c * chunk;
      const int64_t nb = std::min(chunk, rows - base);
      GroupTable& table = locals[static_cast<size_t>(c)];
      for (int64_t i = 0; i < nb; ++i) {
        const RowRef row = in.row(base + i);
        const uint64_t h = HashKeys(row, node.group_columns);
        GroupAccumulator* acc =
            table.Find(h, node.group_columns.size(), [&](size_t g) -> const Value& {
              return row[node.group_columns[g]];
            });
        if (acc == nullptr) {
          GroupAccumulator fresh;
          fresh.hash = h;
          for (int g : node.group_columns) fresh.group_values.push_back(row[g]);
          fresh.sums.assign(nagg, 0.0);
          fresh.mins.assign(nagg, std::numeric_limits<double>::infinity());
          fresh.maxs.assign(nagg, -std::numeric_limits<double>::infinity());
          acc = table.Append(std::move(fresh));
        }
        ++acc->count;
        for (size_t a = 0; a < nagg; ++a) {
          const AggSpec& spec = node.aggregates[a];
          if (spec.kind == AggSpec::Kind::kCount) continue;
          const double v = row[spec.column].AsDouble();
          acc->sums[a] += v;
          acc->mins[a] = std::min(acc->mins[a], v);
          acc->maxs[a] = std::max(acc->maxs[a], v);
        }
      }
    });

    // Pairwise tree-merge of the chunk tables. Each level pairs
    // locals[lo] with locals[lo + width] and folds the right table into
    // the left (first chunk that saw a key keeps its output position);
    // pairs at one level touch disjoint tables, so they merge in
    // parallel. This replaces the old sequential chunk-order fold, whose
    // O(nchunks * groups) rescans dominated when group count approaches
    // row count; the tree does O(log nchunks) levels of halving work.
    const auto merge_pair = [&](GroupTable* left, GroupTable* right) {
      for (GroupAccumulator& acc : right->groups) {
        GroupAccumulator* into =
            left->Find(acc.hash, acc.group_values.size(),
                       [&](size_t g) -> const Value& { return acc.group_values[g]; });
        if (into == nullptr) {
          left->Append(std::move(acc));
          continue;
        }
        into->count += acc.count;
        for (size_t a = 0; a < nagg; ++a) {
          into->sums[a] += acc.sums[a];
          into->mins[a] = std::min(into->mins[a], acc.mins[a]);
          into->maxs[a] = std::max(into->maxs[a], acc.maxs[a]);
        }
      }
      right->groups.clear();
      right->buckets.clear();
    };
    for (int64_t width = 1; width < nchunks; width *= 2) {
      std::vector<int64_t> lefts;
      for (int64_t lo = 0; lo + width < nchunks; lo += 2 * width) {
        lefts.push_back(lo);
      }
      // Tables without a partner at this level carry over untouched.
      RunTaskRange(static_cast<int64_t>(lefts.size()), [&](int64_t p) {
        const int64_t lo = lefts[static_cast<size_t>(p)];
        merge_pair(&locals[static_cast<size_t>(lo)],
                   &locals[static_cast<size_t>(lo + width)]);
      });
    }
    GroupTable merged;
    if (nchunks > 0) merged = std::move(locals[0]);

    RowBlock out;
    out.schema = node.output_schema;
    out.prov_width = 0;  // provenance does not flow through aggregates
    out.values.reserve(merged.groups.size() *
                       (node.group_columns.size() + nagg));
    for (const GroupAccumulator& acc : merged.groups) {
      for (const Value& v : acc.group_values) out.values.push_back(v);
      for (size_t a = 0; a < nagg; ++a) {
        const AggSpec& spec = node.aggregates[a];
        double v = 0.0;
        switch (spec.kind) {
          case AggSpec::Kind::kCount:
            v = static_cast<double>(acc.count);
            break;
          case AggSpec::Kind::kSum:
            v = acc.sums[a];
            break;
          case AggSpec::Kind::kMin:
            v = acc.mins[a];
            break;
          case AggSpec::Kind::kMax:
            v = acc.maxs[a];
            break;
          case AggSpec::Kind::kAvg:
            v = acc.count > 0 ? acc.sums[a] / static_cast<double>(acc.count)
                              : 0.0;
            break;
        }
        out.values.push_back(Value::Double(v));
      }
      st.actual.no += 1.0;  // finalize op
    }
    st.out_rows = static_cast<double>(out.num_rows());
    st.actual.nt += st.out_rows;
    Retain(*node.left, &in);
    return out;
  }

  StatusOr<RowBlock> RunMaterialize(const PlanNode& node) {
    UQP_ASSIGN_OR_RETURN(RowBlock in, Run(*node.left));
    OpStats& st = ctx_->stats(node);
    st.id = node.id;
    st.type = node.type;
    st.left_rows = static_cast<double>(in.num_rows());
    st.actual.no += static_cast<double>(in.num_rows());
    st.actual.nt += static_cast<double>(in.num_rows());
    const double bytes =
        static_cast<double>(in.num_rows()) * in.schema.TupleWidthBytes();
    if (bytes > ctx_->engine().work_mem_bytes) {
      st.actual.ns += 2.0 * PagesFor(static_cast<double>(in.num_rows()),
                                     in.schema.TupleWidthBytes());
    }
    st.out_rows = static_cast<double>(in.num_rows());
    // The input is also this operator's output, so its retained copy is
    // the one block retention still copies below the root.
    if (retained_ != nullptr) {
      (*retained_)[static_cast<size_t>(node.left->id)] = in;
    }
    return in;
  }

  ExecContext* ctx_;
  std::vector<RowBlock>* retained_;
};

}  // namespace

StatusOr<ExecResult> Executor::Execute(const Plan& plan,
                                       const ExecOptions& options) const {
  if (plan.root() == nullptr) return Status::InvalidArgument("empty plan");
  if (plan.root()->id != 0) {
    return Status::FailedPrecondition("plan must be finalized before execution");
  }
  if (options.leaf_overrides != nullptr &&
      static_cast<int>(options.leaf_overrides->size()) != plan.num_leaves()) {
    return Status::InvalidArgument("leaf override count mismatch");
  }
  // Intra-query parallelism: use the caller's pool when provided (the
  // service layer shares one pool between plan-level and intra-plan
  // tasks), otherwise spin up an ephemeral one for this Execute call.
  const ScopedTaskRunner task_runner(options.num_threads, options.task_runner);
  ExecContext ctx(db_, options, plan.num_operators(), plan.num_leaves(),
                  task_runner);
  ExecResult result;
  if (options.retain_intermediates) {
    result.blocks.resize(static_cast<size_t>(plan.num_operators()));
  }
  NodeRunner runner(&ctx, options.retain_intermediates ? &result.blocks : nullptr);
  UQP_ASSIGN_OR_RETURN(RowBlock output, runner.Run(*plan.root()));

  // Parents retain their children's blocks; the root has no parent.
  if (options.retain_intermediates) result.blocks[0] = output;
  result.output = std::move(output);
  result.ops = ctx.TakeStats();
  // Fill leaf-row products per node from the bound source tables.
  for (const PlanNode* node : plan.NodesPreorder()) {
    result.ops[static_cast<size_t>(node->id)].leaf_row_product =
        ctx.LeafProduct(node->leaf_begin, node->leaf_end);
  }
  return result;
}

}  // namespace uqp
