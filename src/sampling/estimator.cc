#include "sampling/estimator.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "sampling/gee.h"

namespace uqp {

namespace {

double SafeSel(double rho) { return std::clamp(rho, 0.0, 1.0); }

/// Rows per Q-counting shard: the provenance scan of one join output is
/// sharded into ranges of this many rows.
constexpr int64_t kCountMorselRows = 8192;

}  // namespace

int64_t AutoSampleBatchSize(int64_t max_leaf_sample_rows) {
  // Samples small enough to be one cache-friendly block run as a single
  // morsel per operator: dispatch/merge overhead would dominate any
  // sharding gain at this size.
  if (max_leaf_sample_rows <= 4096) return std::max<int64_t>(1, max_leaf_sample_rows);
  // Larger samples target ~64 morsels over the widest scan so a pool has
  // work to steal, clamped to keep chunks in a vectorization-friendly
  // range. Depends only on sample cardinality, never on thread count.
  return std::clamp<int64_t>(max_leaf_sample_rows / 64, 1024, 16384);
}

StatusOr<PlanEstimates> SamplingEstimator::Estimate(
    const Plan& plan, const std::function<bool()>* cancelled) const {
  if (plan.root() == nullptr || plan.root()->id != 0) {
    return Status::FailedPrecondition("plan must be finalized");
  }

  // Bind one sample table per leaf occurrence; repeated appearances of the
  // same relation get distinct copies so their estimates stay independent
  // (paper §5.1.2).
  const std::vector<const PlanNode*> leaves = plan.Leaves();
  std::vector<const Table*> overrides(leaves.size(), nullptr);
  std::unordered_map<std::string, int> occurrence;
  for (size_t i = 0; i < leaves.size(); ++i) {
    const int occ = occurrence[leaves[i]->table_name]++;
    overrides[i] = &samples_->Get(leaves[i]->table_name, occ);
  }

  // One pool covers the whole estimate: the executor's intra-query shards
  // and the Q-counting shards below. When the caller supplied a runner
  // (the service layer sharing its worker pool), use it; otherwise an
  // ephemeral pool lives for this call.
  const ScopedTaskRunner runner(num_threads_, task_runner_);

  ExecOptions options;
  options.collect_provenance = true;
  options.retain_intermediates = true;
  options.leaf_overrides = &overrides;
  options.num_threads = runner.threads();
  options.task_runner = runner.pool();
  int64_t batch = max_batch_size_;
  if (batch <= 0) {
    int64_t max_rows = 0;
    for (const Table* t : overrides) {
      max_rows = std::max(max_rows, t->num_rows());
    }
    batch = AutoSampleBatchSize(max_rows);
  }
  options.max_batch_size = batch;
  if (cancelled != nullptr && *cancelled) {
    options.cancelled = *cancelled;
  }
  Executor executor(db_);
  UQP_ASSIGN_OR_RETURN(ExecResult run, executor.Execute(plan, options));

  PlanEstimates out;
  out.ops.resize(static_cast<size_t>(plan.num_operators()));
  out.variable_of_node.assign(static_cast<size_t>(plan.num_operators()), -1);
  out.leaf_sample_rows.resize(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    out.leaf_sample_rows[i] = static_cast<double>(overrides[i]->num_rows());
  }
  out.sample_ops = run.ops;

  // Optimizer cardinalities, computed on the first aggregate fallback:
  // most plans never take it.
  CardinalityEstimator cards(db_);
  std::vector<double> opt_rows;

  // Process children before parents: in preorder ids, every child id is
  // greater than its parent's, so reverse id order works.
  const std::vector<const PlanNode*> nodes = plan.NodesPreorder();
  std::vector<const PlanNode*> by_id(nodes.size());
  for (const PlanNode* n : nodes) by_id[static_cast<size_t>(n->id)] = n;

  for (int id = plan.num_operators() - 1; id >= 0; --id) {
    const PlanNode* node = by_id[static_cast<size_t>(id)];
    SelectivityEstimate& est = out.ops[static_cast<size_t>(id)];
    est.leaf_begin = node->leaf_begin;
    est.leaf_end = node->leaf_end;
    const int span = node->leaf_end - node->leaf_begin;
    est.var_components.assign(static_cast<size_t>(span), 0.0);

    if (IsPassThrough(node->type)) {
      // Sort / materialize emit exactly their input: same variable.
      const int child_id = node->left->id;
      out.variable_of_node[static_cast<size_t>(id)] =
          out.variable_of_node[static_cast<size_t>(child_id)];
      est = out.ops[static_cast<size_t>(child_id)];
      continue;
    }
    out.variable_of_node[static_cast<size_t>(id)] = id;

    if (node->type == OpType::kAggregate || node->has_aggregate_below) {
      // GEE extension (§3.2.2 future work): an aggregate whose input
      // subtree is itself sampled can estimate its group count from the
      // sampled input via the GEE distinct-value estimator.
      const bool gee_applicable =
          aggregate_mode_ == AggregateEstimateMode::kGee &&
          node->type == OpType::kAggregate && !node->has_aggregate_below;
      if (gee_applicable) {
        const RowBlock& input = run.blocks[static_cast<size_t>(node->left->id)];
        const SelectivityEstimate& child =
            out.ops[static_cast<size_t>(node->left->id)];
        const double full_input_rows =
            std::max(1.0, child.rho * node->left->leaf_row_product);
        double distinct = 1.0, distinct_var = 0.0;
        if (!node->group_columns.empty() && input.num_rows() > 0) {
          GeeDistinctCounter counter;
          for (int64_t r = 0; r < input.num_rows(); ++r) {
            uint64_t h = 0x9e3779b97f4a7c15ULL;
            for (int c : node->group_columns) {
              h = HashMix64(h, input.row(r)[c].Hash());
            }
            counter.Add(h);
          }
          const GeeResult gee = counter.Estimate(full_input_rows);
          distinct = std::max(1.0, gee.distinct);
          distinct_var = gee.variance;
        }
        const double denom = std::max(1.0, node->leaf_row_product);
        est.rho = SafeSel(distinct / denom);
        est.variance = distinct_var / (denom * denom);
        // Spread the variance across the leaf span so the partial-variance
        // machinery (covariance bounds vs descendants) sees it.
        if (span > 0) {
          const double per_leaf = est.variance / span;
          for (int k = 0; k < span; ++k) {
            est.var_components[static_cast<size_t>(k)] = per_leaf;
          }
        }
        continue;
      }
      // Algorithm 1 lines 2-5: optimizer estimate, zero variance.
      if (opt_rows.empty()) opt_rows = cards.EstimatePlan(plan);
      est.from_optimizer = true;
      est.rho = SafeSel(opt_rows[static_cast<size_t>(id)] /
                        std::max(1.0, node->leaf_row_product));
      est.variance = 0.0;
      continue;
    }

    const OpStats& sample_stats = run.ops[static_cast<size_t>(id)];
    est.rho = SafeSel(sample_stats.selectivity());

    if (IsScan(node->type)) {
      if (scan_mode_ == ScanEstimateMode::kHistogram &&
          node->predicate != nullptr) {
        // §3.2 alternative: histogram estimate + resolution-based variance.
        est.rho = SafeSel(cards.PredicateSelectivity(node->predicate.get(),
                                                     node->table_name));
        int buckets = 64;
        const TableStats& stats = db_->catalog().Get(node->table_name);
        for (const ColumnStats& cs : stats.columns) {
          if (cs.numeric && !cs.histogram.empty()) {
            buckets = std::max(1, cs.histogram.num_buckets());
            break;
          }
        }
        const double w = 1.0 / static_cast<double>(buckets);
        const double conjuncts =
            std::max(1, PredicateOpCount(node->predicate.get()));
        const double vk = conjuncts * w * w / 12.0;
        est.var_components[0] = vk;
        est.variance = vk;
        continue;
      }
      // Algorithm 1 lines 6-8: S²_n = ρ_n (1 - ρ_n); Var ≈ S²_n / n.
      const double n = out.leaf_sample_rows[static_cast<size_t>(node->leaf_begin)];
      const double vk = n > 0.0 ? est.rho * (1.0 - est.rho) / n : 0.0;
      est.var_components[0] = vk;
      est.variance = vk;
      continue;
    }

    UQP_CHECK(IsJoin(node->type)) << "unexpected operator in estimation";
    // Algorithm 1 lines 9-14: scan the join result once, incrementing the
    // Q_{k, i_k, n} counters via the provenance annotations.
    const RowBlock& block = run.blocks[static_cast<size_t>(id)];
    UQP_CHECK(block.prov_width == span)
        << "provenance width mismatch: " << block.prov_width << " vs " << span;

    // Q counters: for each relative leaf k, a dense count vector indexed
    // by sample tuple id (provenance ids index the leaf's sample table
    // directly, so tuple ids are < n_k). Dense counts make the
    // accumulation shard-mergeable — per-shard counts add exactly (they
    // are integers) — and give the variance pass below a fixed, thread-
    // count-independent tuple order.
    std::vector<std::vector<double>> q(static_cast<size_t>(span));
    for (int k = 0; k < span; ++k) {
      const double nk =
          out.leaf_sample_rows[static_cast<size_t>(node->leaf_begin + k)];
      q[static_cast<size_t>(k)].assign(static_cast<size_t>(nk), 0.0);
    }
    // The provenance scan shards into contiguous row ranges when a pool
    // is on: shard 0 counts straight into q, shards 1..n into their own
    // count vectors, added to q in shard order.
    const int64_t block_rows = block.num_rows();
    const int64_t count_shards =
        runner.pool() != nullptr
            ? std::clamp<int64_t>((block_rows + kCountMorselRows - 1) /
                                      kCountMorselRows,
                                  1, runner.threads())
            : 1;
    const int64_t per_shard = (block_rows + count_shards - 1) / count_shards;
    std::vector<std::vector<std::vector<double>>> parts(
        static_cast<size_t>(count_shards - 1));
    runner.RunTasks(count_shards, [&](int64_t s) {
      auto& counts = s == 0 ? q : parts[static_cast<size_t>(s - 1)];
      if (s > 0) {
        counts.resize(static_cast<size_t>(span));
        for (int k = 0; k < span; ++k) {
          counts[static_cast<size_t>(k)].assign(
              q[static_cast<size_t>(k)].size(), 0.0);
        }
      }
      const int64_t end = std::min(block_rows, (s + 1) * per_shard);
      for (int64_t r = s * per_shard; r < end; ++r) {
        const uint32_t* prov = block.prov_row(r);
        for (int k = 0; k < span; ++k) {
          counts[static_cast<size_t>(k)][prov[k]] += 1.0;
        }
      }
    });
    for (const auto& part : parts) {
      for (int k = 0; k < span; ++k) {
        auto& qk = q[static_cast<size_t>(k)];
        const auto& pk = part[static_cast<size_t>(k)];
        for (size_t j = 0; j < qk.size(); ++j) qk[j] += pk[j];
      }
    }

    // Product of sample sizes over the span.
    double sample_product = 1.0;
    for (int k = 0; k < span; ++k) {
      sample_product *=
          out.leaf_sample_rows[static_cast<size_t>(node->leaf_begin + k)];
    }

    double total_var = 0.0;
    for (int k = 0; k < span; ++k) {
      const double nk =
          out.leaf_sample_rows[static_cast<size_t>(node->leaf_begin + k)];
      if (nk < 2.0) continue;  // S²_1 = 0 by convention
      const double dk = sample_product / nk;  // Π_{k' != k} n_k'
      double acc = 0.0;
      int64_t present = 0;
      const auto& qk = q[static_cast<size_t>(k)];
      for (const double count : qk) {
        if (count == 0.0) continue;
        ++present;
        const double diff = count / dk - est.rho;
        acc += diff * diff;
      }
      // Sample tuples never seen in the join output contribute (0 - ρ)².
      const double absent = nk - static_cast<double>(present);
      acc += absent * est.rho * est.rho;
      const double vk = acc / (nk - 1.0);  // per-relation S² component
      est.var_components[static_cast<size_t>(k)] = vk / nk;
      total_var += vk / nk;
    }
    est.variance = total_var;
  }

  return out;
}

double SamplingEstimator::PartialVariance(const SelectivityEstimate& e,
                                          int begin, int end) {
  double acc = 0.0;
  const int lo = std::max(begin, e.leaf_begin);
  const int hi = std::min(end, e.leaf_end);
  for (int k = lo; k < hi; ++k) {
    acc += e.var_components[static_cast<size_t>(k - e.leaf_begin)];
  }
  return acc;
}

CovarianceBounds SamplingEstimator::CovarianceBoundsFor(
    const SelectivityEstimate& desc, const SelectivityEstimate& anc,
    const std::vector<double>& leaf_sample_rows) {
  CovarianceBounds bounds;
  if (desc.from_optimizer || anc.from_optimizer) return bounds;

  const int begin = desc.leaf_begin;
  const int end = desc.leaf_end;
  // B2: Cauchy–Schwarz on the full variances.
  bounds.b2 = std::sqrt(desc.variance * anc.variance);
  // B1: partial variances restricted to the shared relations (Theorem 7).
  bounds.b1 = std::sqrt(PartialVariance(desc, begin, end) *
                        PartialVariance(anc, begin, end));
  // B3: f(n, m) g(ρ) g(ρ') (Theorem 8), with f generalized to per-relation
  // sample sizes: f = 1 - Π_{k shared} (1 - 1/n_k).
  double keep = 1.0;
  for (int k = begin; k < end; ++k) {
    const double nk = leaf_sample_rows[static_cast<size_t>(k)];
    if (nk > 0.0) keep *= 1.0 - 1.0 / nk;
  }
  const double f = 1.0 - keep;
  auto g = [](double rho) { return std::sqrt(std::max(0.0, rho * (1.0 - rho))); };
  bounds.b3 = f * g(desc.rho) * g(anc.rho);
  return bounds;
}

}  // namespace uqp
