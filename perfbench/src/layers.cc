#include "layers.h"

#include <memory>
#include <string>
#include <unordered_map>

#include "engine/executor.h"

namespace perfbench {

using namespace uqp;

namespace {

/// The sample tables a sample run binds, one per leaf position: repeated
/// relations get distinct copies, as SamplingEstimator::Estimate binds them.
std::vector<const Table*> BindSamples(const Plan& plan, const SampleDb& samples) {
  const std::vector<const PlanNode*> leaves = plan.Leaves();
  std::vector<const Table*> out(leaves.size(), nullptr);
  std::unordered_map<std::string, int> occurrence;
  for (size_t i = 0; i < leaves.size(); ++i) {
    const int occ = occurrence[leaves[i]->table_name]++;
    out[i] = &samples.Get(leaves[i]->table_name, occ);
  }
  return out;
}

double Ms(int64_t t0, int64_t t1) { return static_cast<double>(t1 - t0) / 1e6; }

}  // namespace

ReplayResult ReplayLayers(const Database& db, const SampleDb& samples,
                          const std::vector<Plan>& pool, const CostUnits& units,
                          const PredictorOptions& options, Lane* lane) {
  ReplayResult r;
  const int threads = ResolveNumThreads(options.num_threads);
  std::unique_ptr<MorselPool> pool_t = threads > 1 ? std::make_unique<MorselPool>(threads)
                                                   : nullptr;
  MorselPool pool4(4);
  const SampleRunStage stage1(&db, &samples, options.aggregate_mode, options.scan_mode,
                              threads, pool_t.get(), options.max_batch_size);
  const CostFitStage stage2(&db, options.fit);
  const VarianceCombineStage stage3;
  const Executor executor(&db);

  for (size_t i = 0; i < pool.size(); ++i) {
    const Plan& plan = pool[i];
    const uint64_t parent = lane->Open("replay", 0, i);
    // Records one layer call as a child span and returns its duration.
    auto timed = [&](const char* name, int64_t tag, auto&& call) {
      const int64_t t0 = NowNs();
      call();
      const int64_t t1 = NowNs();
      lane->Record(name, parent, i, t0, t1, tag);
      return Ms(t0, t1);
    };

    StatusOr<SampleRunOutput> run = Status::FailedPrecondition("not run");
    r.stage1_ms.push_back(timed("sampling.stage1", 0, [&] { run = stage1.Run({&plan, nullptr}); }));
    if (!run.ok()) {
      r.ok = false;
      lane->Close(parent);
      break;
    }
    StatusOr<CostFitOutput> fit = Status::FailedPrecondition("not run");
    r.stage2_ms.push_back(timed("costfunc.stage2", 0, [&] { fit = stage2.Run({&plan, &*run}); }));
    if (!fit.ok()) {
      r.ok = false;
      lane->Close(parent);
      break;
    }
    VarianceCombineInput combine;
    combine.sample_run = &*run;
    combine.cost_fit = &*fit;
    combine.units = &units;
    combine.variant = options.variant;
    combine.bound = options.bound;
    r.stage3_ms.push_back(timed("core.stage3", 0, [&] { (void)stage3.Run(combine); }));

    // Bare execution over the same sample tables: no provenance, no
    // retained blocks, so the difference to stage 1 is the estimator's own
    // work.
    const std::vector<const Table*> leaves = BindSamples(plan, samples);
    ExecOptions bare;
    bare.leaf_overrides = &leaves;
    bare.max_batch_size = options.max_batch_size > 0 ? options.max_batch_size : 1024;
    auto execute = [&](const Plan& p, const std::vector<const Table*>* bound,
                       int num_threads, TaskRunner* runner) {
      ExecOptions o = bare;
      o.leaf_overrides = bound;
      o.num_threads = num_threads;
      o.task_runner = runner;
      auto res = executor.Execute(p, o);
      if (!res.ok()) r.ok = false;
      return res;
    };
    r.exec_ms.push_back(timed("engine.exec", threads, [&] {
      (void)execute(plan, &leaves, threads, pool_t.get());
    }));
    StatusOr<ExecResult> exec1 = Status::FailedPrecondition("not run");
    r.exec1_ms.push_back(timed("engine.exec", 1, [&] { exec1 = execute(plan, &leaves, 1, nullptr); }));
    r.exec4_ms.push_back(timed("engine.exec", 4, [&] { (void)execute(plan, &leaves, 4, &pool4); }));
    if (exec1.ok()) {
      for (const OpStats& st : exec1->ops) {
        r.rows_out += st.out_rows;
        if (st.type == OpType::kSort) r.sort_cmps += st.actual.no;
      }
    }

    // Operator self time: every subtree is cloned, finalized and executed
    // alone over its own leaves' sample tables; a node's self time is its
    // subtree's time minus its children's subtree times.
    const std::vector<const PlanNode*> nodes = plan.NodesPreorder();
    std::vector<double> subtree_ms(nodes.size(), 0.0);
    for (const PlanNode* node : nodes) {
      Plan sub(ClonePlanTree(*node));
      if (!sub.Finalize(db).ok()) {
        r.ok = false;
        continue;
      }
      const std::vector<const Table*> sub_leaves(leaves.begin() + node->leaf_begin,
                                                 leaves.begin() + node->leaf_end);
      subtree_ms[static_cast<size_t>(node->id)] = timed("engine.subtree", node->id, [&] {
        (void)execute(sub, &sub_leaves, 1, nullptr);
      });
    }
    for (const PlanNode* node : nodes) {
      double self = subtree_ms[static_cast<size_t>(node->id)];
      if (node->left) self -= subtree_ms[static_cast<size_t>(node->left->id)];
      if (node->right) self -= subtree_ms[static_cast<size_t>(node->right->id)];
      if (IsScan(node->type)) {
        r.scan_self_ms += self;
      } else if (IsJoin(node->type)) {
        r.join_self_ms += self;
      } else if (node->type == OpType::kSort) {
        r.sort_self_ms += self;
      } else if (node->type == OpType::kAggregate) {
        r.agg_self_ms += self;
      }
    }
    lane->Close(parent);
  }
  return r;
}

}  // namespace perfbench
