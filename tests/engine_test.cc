// Executor correctness tests: every physical operator is checked against a
// naive reference evaluation on small synthetic tables, and the resource
// counters are checked against their defining formulas.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datagen/tpch.h"
#include "engine/cardinality.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "math/rng.h"
#include "storage/database.h"

namespace uqp {
namespace {

/// Small deterministic test database:
///   t1(a int, b double, tag string)  -- 200 rows, a = i % 50, b = i
///   t2(k int, w double)              -- 40 rows,  k = i % 50, w = 2 i
Database MakeTestDb() {
  Database db("engine-test");
  {
    Table t1("t1", Schema({{"a", ValueType::kInt64},
                           {"b", ValueType::kDouble},
                           {"tag", ValueType::kString, 4}}));
    for (int i = 0; i < 200; ++i) {
      t1.AppendRow({Value::Int64(i % 50), Value::Double(i),
                    Value::String(i % 3 == 0 ? "x" : "y")});
    }
    t1.DeclareIndex(1);
    db.AddTable(std::move(t1));
  }
  {
    Table t2("t2", Schema({{"k", ValueType::kInt64}, {"w", ValueType::kDouble}}));
    for (int i = 0; i < 40; ++i) {
      t2.AppendRow({Value::Int64(i % 50), Value::Double(2 * i)});
    }
    db.AddTable(std::move(t2));
  }
  db.AnalyzeAll(16);
  return db;
}

ExecResult MustExecute(const Database& db, Plan* plan,
                       ExecOptions options = ExecOptions()) {
  EXPECT_TRUE(plan->Finalize(db).ok());
  Executor executor(&db);
  auto result = executor.Execute(*plan, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Order-insensitive multiset comparison of result rows.
std::multiset<std::string> RowFingerprints(const RowBlock& block) {
  std::multiset<std::string> out;
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    std::string key;
    for (int c = 0; c < block.schema.num_columns(); ++c) {
      key += block.row(r)[c].ToString();
      key += "|";
    }
    out.insert(key);
  }
  return out;
}

// ---------- Scans ----------

TEST(Executor, SeqScanFilterMatchesReference) {
  Database db = MakeTestDb();
  Plan plan(MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(10))));
  const ExecResult result = MustExecute(db, &plan);
  // Reference: a = i % 50 < 10 <-> i % 50 in [0, 10) -> 4 * 10 = 40 rows.
  EXPECT_EQ(result.output.num_rows(), 40);
  for (int64_t r = 0; r < result.output.num_rows(); ++r) {
    EXPECT_LT(result.output.row(r)[0].AsInt64(), 10);
  }
}

TEST(Executor, SeqScanCountersMatchFormulas) {
  Database db = MakeTestDb();
  Plan plan(MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(10))));
  const ExecResult result = MustExecute(db, &plan);
  const Table& t1 = db.GetTable("t1");
  const OpStats& st = result.ops[0];
  EXPECT_DOUBLE_EQ(st.actual.ns, static_cast<double>(t1.num_pages()));
  EXPECT_DOUBLE_EQ(st.actual.nt, 200.0);
  EXPECT_DOUBLE_EQ(st.actual.no, 200.0);  // one comparison per tuple
  EXPECT_DOUBLE_EQ(st.actual.nr, 0.0);
  EXPECT_DOUBLE_EQ(st.out_rows, 40.0);
  EXPECT_DOUBLE_EQ(st.leaf_row_product, 200.0);
  EXPECT_DOUBLE_EQ(st.selectivity(), 0.2);
}

class IndexVsSeqScan : public ::testing::TestWithParam<double> {};

TEST_P(IndexVsSeqScan, SameResults) {
  // Index scan over b <= v must return exactly what the seq scan returns.
  const double v = GetParam();
  Database db = MakeTestDb();
  Plan seq(MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(v))));
  Plan idx(MakeIndexScan("t1", 1, Expr::Cmp(1, CmpOp::kLe, Value::Double(v))));
  const ExecResult rs = MustExecute(db, &seq);
  const ExecResult ri = MustExecute(db, &idx);
  EXPECT_EQ(RowFingerprints(rs.output), RowFingerprints(ri.output));
}

INSTANTIATE_TEST_SUITE_P(Selectivities, IndexVsSeqScan,
                         ::testing::Values(-1.0, 0.0, 10.0, 99.5, 150.0, 500.0));

TEST(Executor, IndexScanWithResidualFilter) {
  Database db = MakeTestDb();
  // Range on b plus residual on tag.
  ExprPtr pred = Expr::And(Expr::Cmp(1, CmpOp::kLe, Value::Double(29.0)),
                           Expr::StrEq(2, "x"));
  Plan seq(MakeSeqScan("t1", pred));
  Plan idx(MakeIndexScan("t1", 1, pred));
  const ExecResult rs = MustExecute(db, &seq);
  const ExecResult ri = MustExecute(db, &idx);
  EXPECT_EQ(RowFingerprints(rs.output), RowFingerprints(ri.output));
  // Index counters scale with range matches (30), output is smaller.
  EXPECT_DOUBLE_EQ(ri.ops[0].actual.nt, 30.0);
  EXPECT_EQ(ri.output.num_rows(), 10);  // i % 3 == 0 among 0..29
  EXPECT_GT(ri.ops[0].actual.nr, 0.0);
  EXPECT_LE(ri.ops[0].actual.nr, static_cast<double>(db.GetTable("t1").num_pages()));
}

TEST(Executor, IndexScanResidualBatchParity) {
  // The batched residual-filter path (gather + EvalPredicateBatch +
  // run-copy) must be indistinguishable from tuple-at-a-time execution:
  // same rows in the same order, same provenance, same counters.
  Database db = MakeTestDb();
  ExprPtr pred = Expr::And(Expr::Cmp(1, CmpOp::kLe, Value::Double(97.0)),
                           Expr::StrEq(2, "x"));
  Plan tuple_plan(MakeIndexScan("t1", 1, pred));
  Plan batch_plan(MakeIndexScan("t1", 1, pred));

  ExecOptions tuple_opts;
  tuple_opts.max_batch_size = 1;  // reproduces the historical per-row loop
  tuple_opts.collect_provenance = true;
  ExecOptions batch_opts;
  batch_opts.max_batch_size = 7;  // odd chunk: exercises the tail chunk
  batch_opts.collect_provenance = true;

  const ExecResult rt = MustExecute(db, &tuple_plan, tuple_opts);
  const ExecResult rb = MustExecute(db, &batch_plan, batch_opts);

  EXPECT_EQ(rb.output.values.size(), rt.output.values.size());
  EXPECT_EQ(RowFingerprints(rb.output), RowFingerprints(rt.output));
  EXPECT_EQ(rb.output.prov, rt.output.prov);
  ASSERT_EQ(rb.ops.size(), rt.ops.size());
  const OpStats& st = rt.ops[0];
  const OpStats& sb = rb.ops[0];
  EXPECT_DOUBLE_EQ(sb.out_rows, st.out_rows);
  EXPECT_DOUBLE_EQ(sb.actual.ni, st.actual.ni);
  EXPECT_DOUBLE_EQ(sb.actual.nr, st.actual.nr);
  EXPECT_DOUBLE_EQ(sb.actual.nt, st.actual.nt);
  EXPECT_DOUBLE_EQ(sb.actual.no, st.actual.no);
}

TEST(Executor, AppendSelectedProvenanceModesBatchParity) {
  // The selected-row copies serve both provenance modes: contiguous
  // chunks (seq scans, ids = base + lane) and gathered rows (index scans,
  // ids from the rid array). Both modes must produce identical rows,
  // provenance and counters at every batch size, with provenance on and
  // off.
  Database db = MakeTestDb();
  ExprPtr pred = Expr::And(Expr::Cmp(1, CmpOp::kLe, Value::Double(97.0)),
                           Expr::StrEq(2, "x"));
  for (const bool prov : {false, true}) {
    ExecOptions base_opts;
    base_opts.collect_provenance = prov;
    base_opts.max_batch_size = 1;

    Plan seq_ref(MakeSeqScan("t1", pred));
    Plan idx_ref(MakeIndexScan("t1", 1, pred));
    const ExecResult seq_baseline = MustExecute(db, &seq_ref, base_opts);
    const ExecResult idx_baseline = MustExecute(db, &idx_ref, base_opts);

    for (const int64_t batch : {int64_t{1}, int64_t{7}, int64_t{1024}}) {
      ExecOptions opts = base_opts;
      opts.max_batch_size = batch;
      Plan seq_plan(MakeSeqScan("t1", pred));
      Plan idx_plan(MakeIndexScan("t1", 1, pred));
      const ExecResult rs = MustExecute(db, &seq_plan, opts);
      const ExecResult ri = MustExecute(db, &idx_plan, opts);

      // Contiguous mode vs its tuple-at-a-time baseline.
      EXPECT_EQ(RowFingerprints(rs.output), RowFingerprints(seq_baseline.output))
          << "seq batch " << batch << " prov " << prov;
      EXPECT_EQ(rs.output.prov, seq_baseline.output.prov);
      EXPECT_EQ(rs.output.prov_width, prov ? 1 : 0);
      // Rid mode vs its baseline.
      EXPECT_EQ(RowFingerprints(ri.output), RowFingerprints(idx_baseline.output))
          << "idx batch " << batch << " prov " << prov;
      EXPECT_EQ(ri.output.prov, idx_baseline.output.prov);
      // Across modes: same rows in the same (b-ordered == row-ordered for
      // MakeTestDb's monotone b column) order, same provenance ids.
      EXPECT_EQ(RowFingerprints(ri.output), RowFingerprints(rs.output));
      if (prov) EXPECT_EQ(ri.output.prov, rs.output.prov);
      EXPECT_DOUBLE_EQ(rs.ops[0].out_rows, ri.ops[0].out_rows);
    }
  }
}

// ---------- Joins ----------

ExprPtr NoPred() { return nullptr; }

std::multiset<std::string> ReferenceJoin(const Database& db, double t1_b_max) {
  // t1 (b <= max) equi-join t2 on a = k.
  std::multiset<std::string> out;
  const Table& t1 = db.GetTable("t1");
  const Table& t2 = db.GetTable("t2");
  for (int64_t i = 0; i < t1.num_rows(); ++i) {
    if (t1.at(i, 1).AsDouble() > t1_b_max) continue;
    for (int64_t j = 0; j < t2.num_rows(); ++j) {
      if (t1.at(i, 0).AsInt64() != t2.at(j, 0).AsInt64()) continue;
      std::string key;
      for (int c = 0; c < 3; ++c) key += t1.at(i, c).ToString() + "|";
      for (int c = 0; c < 2; ++c) key += t2.at(j, c).ToString() + "|";
      out.insert(key);
    }
  }
  return out;
}

class JoinAlgorithms : public ::testing::TestWithParam<OpType> {};

TEST_P(JoinAlgorithms, MatchReferenceJoin) {
  Database db = MakeTestDb();
  const OpType type = GetParam();
  auto left = MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(120.0)));
  auto right = MakeSeqScan("t2", NoPred());
  std::unique_ptr<PlanNode> join;
  if (type == OpType::kHashJoin) {
    join = MakeHashJoin(std::move(left), std::move(right), {{0, 0}});
  } else if (type == OpType::kNestLoopJoin) {
    join = MakeNestLoopJoin(std::move(left), std::move(right), {{0, 0}});
  } else {
    // Merge join needs sorted inputs.
    join = MakeMergeJoin(MakeSort(std::move(left), {0}),
                         MakeSort(std::move(right), {0}), {{0, 0}});
  }
  Plan plan(std::move(join));
  const ExecResult result = MustExecute(db, &plan);
  EXPECT_EQ(RowFingerprints(result.output), ReferenceJoin(db, 120.0));
}

INSTANTIATE_TEST_SUITE_P(Types, JoinAlgorithms,
                         ::testing::Values(OpType::kHashJoin,
                                           OpType::kNestLoopJoin,
                                           OpType::kMergeJoin));

TEST(Executor, MultiKeyHashJoin) {
  Database db = MakeTestDb();
  // Self-join t2 on (k, w): each row matches only itself.
  Plan plan(MakeHashJoin(MakeSeqScan("t2", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}, {1, 1}}));
  const ExecResult result = MustExecute(db, &plan);
  EXPECT_EQ(result.output.num_rows(), 40);
}

TEST(Executor, JoinResidualPredicate) {
  Database db = MakeTestDb();
  // Join t1 x t2 on a = k with residual w > b (column 4 vs column 1 in the
  // concatenated schema).
  ExprPtr residual = Expr::CmpColumns(4, CmpOp::kGt, 1);
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}, residual));
  const ExecResult result = MustExecute(db, &plan);
  for (int64_t r = 0; r < result.output.num_rows(); ++r) {
    EXPECT_GT(result.output.row(r)[4].AsDouble(), result.output.row(r)[1].AsDouble());
  }
  // Same with nested loop.
  Plan nlj(MakeNestLoopJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                            {{0, 0}}, residual));
  const ExecResult nlj_result = MustExecute(db, &nlj);
  EXPECT_EQ(RowFingerprints(result.output), RowFingerprints(nlj_result.output));
}

TEST(Executor, CrossJoinViaNestLoop) {
  Database db = MakeTestDb();
  Plan plan(MakeNestLoopJoin(MakeSeqScan("t2", NoPred()),
                             MakeSeqScan("t2", NoPred()), {}));
  const ExecResult result = MustExecute(db, &plan);
  EXPECT_EQ(result.output.num_rows(), 40 * 40);
  EXPECT_DOUBLE_EQ(result.ops[0].actual.no, 1600.0);  // one visit per pair
}

TEST(Executor, HashJoinCounters) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}));
  const ExecResult result = MustExecute(db, &plan);
  const OpStats& join = result.ops[0];
  EXPECT_DOUBLE_EQ(join.left_rows, 200.0);
  EXPECT_DOUBLE_EQ(join.right_rows, 40.0);
  // Each t1 row with a < 40 matches exactly one t2 row: 4 * 40 = 160.
  EXPECT_DOUBLE_EQ(join.out_rows, 160.0);
  EXPECT_DOUBLE_EQ(join.actual.nt, 160.0);
  // Build + probe hash ops at minimum.
  EXPECT_GE(join.actual.no, 240.0);
  EXPECT_DOUBLE_EQ(join.leaf_row_product, 200.0 * 40.0);
}

// ---------- Sort / Aggregate / Materialize ----------

TEST(Executor, SortOrdersRows) {
  Database db = MakeTestDb();
  Plan plan(MakeSort(MakeSeqScan("t1", NoPred()), {0, 1}));
  const ExecResult result = MustExecute(db, &plan);
  ASSERT_EQ(result.output.num_rows(), 200);
  for (int64_t r = 1; r < result.output.num_rows(); ++r) {
    const auto prev = result.output.row(r - 1);
    const auto cur = result.output.row(r);
    const bool ordered =
        prev[0].AsInt64() < cur[0].AsInt64() ||
        (prev[0].AsInt64() == cur[0].AsInt64() &&
         prev[1].AsDouble() <= cur[1].AsDouble());
    EXPECT_TRUE(ordered) << "row " << r;
  }
  // Comparison counter: at least n log2 n / 2, at most n log2 n * 2 + n.
  const double n = 200.0;
  EXPECT_GT(result.ops[0].actual.no, 0.5 * n * std::log2(n));
  EXPECT_LT(result.ops[0].actual.no, 2.0 * n * std::log2(n) + n);
}

TEST(Executor, SortOnStringColumn) {
  Database db = MakeTestDb();
  Plan plan(MakeSort(MakeSeqScan("t1", NoPred()), {2}));
  const ExecResult result = MustExecute(db, &plan);
  for (int64_t r = 1; r < result.output.num_rows(); ++r) {
    EXPECT_LE(result.output.row(r - 1)[2].AsString(),
              result.output.row(r)[2].AsString());
  }
}

TEST(Executor, AggregateGroupsAndFunctions) {
  Database db = MakeTestDb();
  // Group t2 rows by k % ... -> each k in 0..39 has exactly one row; group
  // by constant-ish column instead: group t1 by tag.
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  aggs.push_back({AggSpec::Kind::kSum, 1, "sum_b"});
  aggs.push_back({AggSpec::Kind::kMin, 1, "min_b"});
  aggs.push_back({AggSpec::Kind::kMax, 1, "max_b"});
  aggs.push_back({AggSpec::Kind::kAvg, 1, "avg_b"});
  Plan plan(MakeAggregate(MakeSeqScan("t1", NoPred()), {2}, aggs));
  const ExecResult result = MustExecute(db, &plan);
  ASSERT_EQ(result.output.num_rows(), 2);  // tags "x" and "y"
  std::map<std::string, std::vector<double>> by_tag;
  for (int64_t r = 0; r < 2; ++r) {
    const auto row = result.output.row(r);
    by_tag[row[0].AsString()] = {row[1].AsDouble(), row[2].AsDouble(),
                                 row[3].AsDouble(), row[4].AsDouble(),
                                 row[5].AsDouble()};
  }
  // Reference for tag "x": i in {0,3,...,198}, 67 rows, sum = 3*(0+..+66).
  const double cnt_x = 67.0;
  const double sum_x = 3.0 * (66.0 * 67.0 / 2.0);
  ASSERT_TRUE(by_tag.count("x"));
  EXPECT_DOUBLE_EQ(by_tag["x"][0], cnt_x);
  EXPECT_DOUBLE_EQ(by_tag["x"][1], sum_x);
  EXPECT_DOUBLE_EQ(by_tag["x"][2], 0.0);
  EXPECT_DOUBLE_EQ(by_tag["x"][3], 198.0);
  EXPECT_DOUBLE_EQ(by_tag["x"][4], sum_x / cnt_x);
}

TEST(Executor, AggregateOutputsGroupsInFirstAppearanceOrder) {
  Database db = MakeTestDb();
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  // t1.a = i % 50, so grouping by a sees keys 0, 1, ..., 49 in row order.
  // The pinned contract: groups emit in FIRST-APPEARANCE order of their
  // key in the input — stable across standard-library implementations
  // (the old code followed unordered_map bucket iteration order) — and
  // independent of the chunking, so the same rows come back at every
  // batch size.
  for (int64_t batch : {int64_t{1024}, int64_t{7}, int64_t{1}}) {
    Plan plan(MakeAggregate(MakeSeqScan("t1", NoPred()), {0}, aggs));
    ExecOptions options;
    options.max_batch_size = batch;
    const ExecResult result = MustExecute(db, &plan, options);
    ASSERT_EQ(result.output.num_rows(), 50) << "batch " << batch;
    for (int64_t r = 0; r < 50; ++r) {
      EXPECT_EQ(result.output.row(r)[0].AsInt64(), r) << "batch " << batch;
      EXPECT_DOUBLE_EQ(result.output.row(r)[1].AsDouble(), 4.0);
    }
  }
  // String keys too: tag "x" appears at row 0, "y" at row 1.
  Plan by_tag(MakeAggregate(MakeSeqScan("t1", NoPred()), {2}, aggs));
  const ExecResult result = MustExecute(db, &by_tag);
  ASSERT_EQ(result.output.num_rows(), 2);
  EXPECT_EQ(result.output.row(0)[0].AsString(), "x");
  EXPECT_EQ(result.output.row(1)[0].AsString(), "y");
}

TEST(Executor, SortOutputIdenticalAcrossBatchSizes) {
  // The blocked merge sort's leaf/merge shape follows max_batch_size, but
  // its comparator is a total order (sort keys, then row index), so the
  // sorted permutation — and hence every output row — is unique: batch
  // size may change the comparison counter, never the rows.
  Database db = MakeTestDb();
  ExecOptions reference_options;
  reference_options.collect_provenance = true;
  Plan reference_plan(MakeSort(MakeSeqScan("t1", NoPred()), {0, 1}));
  const ExecResult reference = MustExecute(db, &reference_plan, reference_options);
  for (int64_t batch : {int64_t{3}, int64_t{64}}) {
    Plan plan(MakeSort(MakeSeqScan("t1", NoPred()), {0, 1}));
    ExecOptions options = reference_options;
    options.max_batch_size = batch;
    const ExecResult result = MustExecute(db, &plan, options);
    ASSERT_EQ(result.output.values.size(), reference.output.values.size());
    for (size_t i = 0; i < reference.output.values.size(); ++i) {
      ASSERT_TRUE(result.output.values[i].Equals(reference.output.values[i]))
          << "batch " << batch << " value " << i;
    }
    EXPECT_EQ(result.output.prov, reference.output.prov) << "batch " << batch;
  }
}

TEST(Executor, GlobalAggregateWithoutGroups) {
  Database db = MakeTestDb();
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  Plan plan(MakeAggregate(MakeSeqScan("t1", NoPred()), {}, aggs));
  const ExecResult result = MustExecute(db, &plan);
  ASSERT_EQ(result.output.num_rows(), 1);
  EXPECT_DOUBLE_EQ(result.output.row(0)[0].AsDouble(), 200.0);
}

TEST(Executor, MaterializePassesThrough) {
  Database db = MakeTestDb();
  Plan plain(MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(5))));
  Plan mat(MakeMaterialize(
      MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(5)))));
  const ExecResult a = MustExecute(db, &plain);
  const ExecResult b = MustExecute(db, &mat);
  EXPECT_EQ(RowFingerprints(a.output), RowFingerprints(b.output));
}

// ---------- Provenance ----------

TEST(Executor, ScanProvenancePointsAtSourceRows) {
  Database db = MakeTestDb();
  Plan plan(MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(3))));
  ExecOptions options;
  options.collect_provenance = true;
  const ExecResult result = MustExecute(db, &plan, options);
  const Table& t1 = db.GetTable("t1");
  ASSERT_EQ(result.output.prov_width, 1);
  for (int64_t r = 0; r < result.output.num_rows(); ++r) {
    const uint32_t src = result.output.prov_row(r)[0];
    for (int c = 0; c < 3; ++c) {
      EXPECT_TRUE(result.output.row(r)[c].Equals(t1.at(src, c)));
    }
  }
}

TEST(Executor, JoinProvenanceConcatenatesLeafIds) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}));
  ExecOptions options;
  options.collect_provenance = true;
  options.retain_intermediates = true;
  const ExecResult result = MustExecute(db, &plan, options);
  const Table& t1 = db.GetTable("t1");
  const Table& t2 = db.GetTable("t2");
  ASSERT_EQ(result.output.prov_width, 2);
  for (int64_t r = 0; r < result.output.num_rows(); ++r) {
    const uint32_t* prov = result.output.prov_row(r);
    EXPECT_TRUE(result.output.row(r)[0].Equals(t1.at(prov[0], 0)));
    EXPECT_TRUE(result.output.row(r)[3].Equals(t2.at(prov[1], 0)));
  }
  // Retained blocks exist for every operator.
  ASSERT_EQ(result.blocks.size(), 3u);
  EXPECT_EQ(result.blocks[0].num_rows(), result.output.num_rows());
}

TEST(Executor, AggregateDropsProvenance) {
  Database db = MakeTestDb();
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  Plan plan(MakeAggregate(MakeSeqScan("t1", NoPred()), {0}, aggs));
  ExecOptions options;
  options.collect_provenance = true;
  const ExecResult result = MustExecute(db, &plan, options);
  EXPECT_EQ(result.output.prov_width, 0);
}

// ---------- Leaf overrides ----------

TEST(Executor, LeafOverridesBindPerOccurrence) {
  Database db = MakeTestDb();
  // Tiny replacement tables with distinct contents per occurrence.
  Table small1("t2#a", db.GetTable("t2").schema());
  small1.AppendRow({Value::Int64(1), Value::Double(1.0)});
  Table small2("t2#b", db.GetTable("t2").schema());
  small2.AppendRow({Value::Int64(1), Value::Double(2.0)});
  small2.AppendRow({Value::Int64(2), Value::Double(3.0)});

  Plan plan(MakeHashJoin(MakeSeqScan("t2", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  std::vector<const Table*> overrides = {&small1, &small2};
  ExecOptions options;
  options.leaf_overrides = &overrides;
  Executor executor(&db);
  auto result = executor.Execute(plan, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 1);  // k=1 matches k=1 only
  EXPECT_DOUBLE_EQ(result->ops[0].leaf_row_product, 1.0 * 2.0);
}

TEST(Executor, LeafOverrideCountMismatchFails) {
  Database db = MakeTestDb();
  Plan plan(MakeSeqScan("t1", NoPred()));
  ASSERT_TRUE(plan.Finalize(db).ok());
  std::vector<const Table*> overrides;
  ExecOptions options;
  options.leaf_overrides = &overrides;
  Executor executor(&db);
  EXPECT_FALSE(executor.Execute(plan, options).ok());
}

// ---------- Golden digest and retention ----------

const Database& TinyTpch() {
  static const Database* db =
      new Database(MakeTpchDatabase(TpchConfig::Profile("tiny")));
  return *db;
}

/// FNV-1a over everything an execution produces that later stages read.
/// String cells hash by content, so the digest does not depend on the
/// order strings were interned in.
class ExecDigest {
 public:
  uint64_t value() const { return h_; }

  void Add(const RowBlock& b) {
    Pod(b.num_rows());
    Pod(b.schema.num_columns());
    for (const Value& v : b.values) Add(v);
    Pod(b.prov_width);
    Pod(b.prov.size());
    Bytes(b.prov.data(), b.prov.size() * sizeof(uint32_t));
  }

  void Add(const OpStats& s) {
    Pod(s.id);
    Pod(static_cast<int>(s.type));
    for (double d : {s.actual.ns, s.actual.nr, s.actual.nt, s.actual.ni,
                     s.actual.no, s.left_rows, s.right_rows, s.out_rows,
                     s.leaf_row_product}) {
      Pod(d);
    }
  }

 private:
  void Add(const Value& v) {
    Pod(static_cast<uint8_t>(v.type));
    switch (v.type) {
      case ValueType::kInt64:
        Pod(v.i);
        break;
      case ValueType::kDouble:
        Pod(v.d);
        break;
      case ValueType::kString: {
        const std::string& s = v.AsString();
        Pod(s.size());
        Bytes(s.data(), s.size());
        break;
      }
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Bytes(const void* p, size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 0x100000001b3ULL;
    }
  }

  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Plans over the tiny TPC-H profile that between them run every operator
/// and the predicate shapes the batched paths special-case.
std::vector<Plan> GoldenPlans() {
  std::vector<std::unique_ptr<PlanNode>> roots;
  // Filtered scan with AND / OR / NOT over lineitem:
  // (l_quantity < 10 OR l_returnflag = 'R') AND NOT l_linenumber > 3.
  roots.push_back(MakeSeqScan(
      "lineitem",
      Expr::And(Expr::Or(Expr::Cmp(4, CmpOp::kLt, Value::Double(10)),
                         Expr::StrEq(8, "R")),
                Expr::Not(Expr::Cmp(3, CmpOp::kGt, Value::Int64(3))))));
  // Index scan with a residual filter.
  roots.push_back(MakeIndexScan(
      "orders", 3,
      Expr::And(Expr::Between(3, Value::Double(1000), Value::Double(120000)),
                Expr::StrEq(2, "F"))));
  // Hash join on a two-column key (partkey, suppkey) whose build side
  // (lineitem) repeats keys, with a residual
  // ps_supplycost < 500 OR ps_availqty < l_extendedprice.
  roots.push_back(MakeHashJoin(
      MakeSeqScan("partsupp", nullptr),
      MakeSeqScan("lineitem", Expr::Cmp(3, CmpOp::kLe, Value::Int64(2))),
      {{0, 1}, {1, 2}},
      Expr::Or(Expr::Cmp(3, CmpOp::kLt, Value::Double(500)),
               Expr::CmpColumns(2, CmpOp::kLt, 9))));
  // Sort over an aggregate over a hash join whose build side is a
  // materialized filter of orders (many orders per customer key).
  roots.push_back(MakeSort(
      MakeAggregate(
          MakeHashJoin(MakeSeqScan("customer", nullptr),
                       MakeMaterialize(MakeSeqScan(
                           "orders",
                           Expr::Cmp(3, CmpOp::kLt, Value::Double(200000)))),
                       {{0, 1}}),
          {3}, {{AggSpec::Kind::kCount, -1, "cnt"},
                {AggSpec::Kind::kSum, 8, "total"}}),
      {1}));
  // Merge join of two sorted inputs, one-to-many on orderkey.
  roots.push_back(MakeMergeJoin(
      MakeSort(MakeSeqScan("orders", nullptr), {0}),
      MakeSort(MakeSeqScan("lineitem",
                           Expr::Cmp(4, CmpOp::kLt, Value::Double(25))),
               {0}),
      {{0, 0}}));
  // Nest-loop join on n_regionkey = r_regionkey with a residual.
  roots.push_back(MakeNestLoopJoin(
      MakeSeqScan("nation", nullptr), MakeSeqScan("region", nullptr), {{2, 0}},
      Expr::Not(Expr::Cmp(3, CmpOp::kEq, Value::Int64(3)))));
  // Sort on a string column, then a double.
  roots.push_back(MakeSort(MakeSeqScan("customer", nullptr), {3, 4}));
  // Aggregate with every function kind over a string-pair group key.
  roots.push_back(MakeAggregate(
      MakeSeqScan("lineitem", nullptr), {8, 9},
      {{AggSpec::Kind::kCount, -1, "cnt"},
       {AggSpec::Kind::kSum, 5, "sum_price"},
       {AggSpec::Kind::kMin, 4, "min_qty"},
       {AggSpec::Kind::kMax, 6, "max_disc"},
       {AggSpec::Kind::kAvg, 7, "avg_tax"}}));
  std::vector<Plan> plans;
  for (auto& root : roots) {
    Plan plan(std::move(root));
    EXPECT_TRUE(plan.Finalize(TinyTpch()).ok()) << plan.ToString();
    plans.push_back(std::move(plan));
  }
  return plans;
}

ExecOptions GoldenOptions(int num_threads) {
  ExecOptions options;
  options.collect_provenance = true;
  options.retain_intermediates = true;
  options.max_batch_size = 256;  // several chunks per big input
  options.num_threads = num_threads;
  return options;
}

// Pins the engine's observable behaviour across versions: output rows,
// provenance, retained blocks and every OpStats counter of a fixed plan
// set. The thread-count parity suites compare runs of one build against
// each other, so a change that moves every thread count alike passes
// them; this digest was recorded from the executor before the flat
// hash-join table, the single sized scan path and move-based retention,
// and it must not change when the engine is only made faster.
TEST(Executor, GoldenDigestOverTinyProfile) {
  constexpr uint64_t kGolden = 0x657410015883baf4ULL;
  const std::vector<Plan> plans = GoldenPlans();
  ASSERT_EQ(plans.size(), 8u);
  Executor executor(&TinyTpch());
  for (int threads : {1, 3}) {
    ExecDigest digest;
    for (const Plan& plan : plans) {
      auto result = executor.Execute(plan, GoldenOptions(threads));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_GT(result->output.num_rows(), 0) << plan.ToString();
      digest.Add(result->output);
      for (const OpStats& s : result->ops) digest.Add(s);
      for (const RowBlock& b : result->blocks) digest.Add(b);
    }
    EXPECT_EQ(digest.value(), kGolden)
        << "num_threads=" << threads << " digest 0x" << std::hex
        << digest.value();
  }
}

bool SameBlock(const RowBlock& a, const RowBlock& b) {
  if (a.schema.num_columns() != b.schema.num_columns() ||
      a.values.size() != b.values.size() || a.prov_width != b.prov_width ||
      a.prov != b.prov) {
    return false;
  }
  for (size_t i = 0; i < a.values.size(); ++i) {
    // The int64 member spans the whole union, so this compares bits.
    if (a.values[i].type != b.values[i].type ||
        a.values[i].i != b.values[i].i) {
      return false;
    }
  }
  return true;
}

// Each parent hands its children's blocks to ExecResult::blocks once it
// has read them; the retained block of every operator must still equal
// what that operator's subtree produces when executed on its own.
TEST(Executor, RetainedBlocksEqualSubtreeOutputs) {
  const Database& db = TinyTpch();
  Plan plan(MakeSort(
      MakeHashJoin(MakeSeqScan("customer",
                               Expr::Cmp(4, CmpOp::kGt, Value::Double(0))),
                   MakeMaterialize(MakeSeqScan(
                       "orders", Expr::StrEq(2, "F"))),
                   {{0, 1}}),
      {2, 0}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  Executor executor(&db);
  for (int threads : {1, 3}) {
    const ExecOptions options = GoldenOptions(threads);
    auto result = executor.Execute(plan, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->blocks.size(), 5u);
    EXPECT_TRUE(SameBlock(result->blocks[0], result->output));
    for (const PlanNode* node : plan.NodesPreorder()) {
      Plan sub(ClonePlanTree(*node));
      ASSERT_TRUE(sub.Finalize(db).ok());
      auto alone = executor.Execute(sub, options);
      ASSERT_TRUE(alone.ok()) << alone.status().ToString();
      EXPECT_GT(alone->output.num_rows(), 0) << "operator " << node->id;
      EXPECT_TRUE(SameBlock(
          result->blocks[static_cast<size_t>(node->id)], alone->output))
          << "operator " << node->id << " at num_threads=" << threads;
    }
  }
}

// ---------- Cooperative cancellation ----------

/// t1 (200 rows) joined to t2 (40 rows) on a = k over unfiltered scans.
Plan CancellationJoinPlan(const Database& db, OpType type) {
  auto left = MakeSeqScan("t1", NoPred());
  auto right = MakeSeqScan("t2", NoPred());
  Plan plan(type == OpType::kHashJoin
                ? MakeHashJoin(std::move(left), std::move(right), {{0, 0}})
                : MakeNestLoopJoin(std::move(left), std::move(right), {{0, 0}}));
  EXPECT_TRUE(plan.Finalize(db).ok());
  return plan;
}

ExecOptions CancellationOptions(int num_threads, std::atomic<int>* polls,
                                int fire_after) {
  ExecOptions options;
  options.max_batch_size = 7;  // 29 chunks over t1's 200 rows
  options.num_threads = num_threads;
  options.cancelled = [polls, fire_after] { return ++*polls > fire_after; };
  return options;
}

TEST(ExecutorCancellation, CancelledFromTheStartReturnsOnlyTheError) {
  Database db = MakeTestDb();
  const Plan plan = CancellationJoinPlan(db, OpType::kHashJoin);
  Executor executor(&db);
  for (int threads : {1, 3}) {
    std::atomic<int> polls{0};
    auto result = executor.Execute(plan, CancellationOptions(threads, &polls, 0));
    ASSERT_FALSE(result.ok()) << "num_threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
}

// At one thread the outer loop runs inline, chunk by chunk, and must still
// poll the token before every chunk, not only at operator boundaries.
TEST(ExecutorCancellation, OneThreadNestLoopPollsEveryOuterChunk) {
  Database db = MakeTestDb();
  const Plan plan = CancellationJoinPlan(db, OpType::kNestLoopJoin);
  Executor executor(&db);
  std::atomic<int> polls{0};
  auto result = executor.Execute(
      plan, CancellationOptions(1, &polls, std::numeric_limits<int>::max()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExecOptions plain;
  plain.max_batch_size = 7;
  auto reference = executor.Execute(plan, plain);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(RowFingerprints(result->output), RowFingerprints(reference->output));
  const int outer_chunks = (200 + 7 - 1) / 7;
  EXPECT_GE(polls.load(), outer_chunks);
}

TEST(ExecutorCancellation, DeadlineDuringHashProbeNeverYieldsPartialResult) {
  Database db = MakeTestDb();
  const Plan plan = CancellationJoinPlan(db, OpType::kHashJoin);
  Executor executor(&db);
  for (int threads : {1, 3}) {
    // A probe that never fires counts the polls of a whole run. The 29
    // probe chunks poll last, before only the join's exit check, so firing
    // ten polls before the end lands inside the probe.
    std::atomic<int> total{0};
    ASSERT_TRUE(executor
                    .Execute(plan, CancellationOptions(
                                       threads, &total,
                                       std::numeric_limits<int>::max()))
                    .ok());
    ASSERT_GE(total.load(), 29 + 10) << "num_threads=" << threads;
    std::atomic<int> polls{0};
    auto result = executor.Execute(
        plan, CancellationOptions(threads, &polls, total.load() - 10));
    ASSERT_FALSE(result.ok()) << "num_threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
}

// ---------- Numeric accessors ----------

TEST(ValueDeathTest, StringIsNotNumeric) {
  EXPECT_DEATH(Value::String("x").AsDouble(), "not numeric");
}

TEST(ValueDeathTest, RangePredicateOverStringColumnAborts) {
  const std::vector<Value> rows = {Value::String("x"), Value::String("y")};
  std::vector<uint8_t> mask(rows.size());
  const ExprPtr lt = Expr::Cmp(0, CmpOp::kLt, Value::Int64(1));
  EXPECT_DEATH(EvalPredicateBatch(*lt, rows.data(), 1, 2, mask.data()),
               "not numeric");
}

// ---------- Plan validation ----------

TEST(Plan, FinalizeRejectsUnknownTable) {
  Database db = MakeTestDb();
  Plan plan(MakeSeqScan("nonexistent", NoPred()));
  EXPECT_FALSE(plan.Finalize(db).ok());
}

TEST(Plan, FinalizeRejectsBadJoinKey) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{99, 0}}));
  EXPECT_FALSE(plan.Finalize(db).ok());
}

TEST(Plan, PreorderIdsAndLeafSpans) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  EXPECT_EQ(plan.num_operators(), 3);
  EXPECT_EQ(plan.num_leaves(), 2);
  const auto nodes = plan.NodesPreorder();
  EXPECT_EQ(nodes[0]->id, 0);
  EXPECT_TRUE(IsJoin(nodes[0]->type));
  EXPECT_EQ(nodes[0]->leaf_begin, 0);
  EXPECT_EQ(nodes[0]->leaf_end, 2);
  EXPECT_EQ(nodes[1]->leaf_begin, 0);
  EXPECT_EQ(nodes[1]->leaf_end, 1);
  EXPECT_DOUBLE_EQ(nodes[0]->leaf_row_product, 8000.0);
}

TEST(Plan, ClonePreservesStructure) {
  Database db = MakeTestDb();
  auto original = MakeHashJoin(
      MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(10))),
      MakeSeqScan("t2", NoPred()), {{0, 0}});
  auto clone = ClonePlanTree(*original);
  Plan p1(std::move(original)), p2(std::move(clone));
  const ExecResult a = MustExecute(db, &p1);
  const ExecResult b = MustExecute(db, &p2);
  EXPECT_EQ(RowFingerprints(a.output), RowFingerprints(b.output));
}

TEST(Plan, CloneCarriesFinalizedStateAndSharesNothing) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(
      MakeSeqScan("t1", Expr::And(Expr::Cmp(0, CmpOp::kLt, Value::Int64(10)),
                                  Expr::Cmp(1, CmpOp::kGe, Value::Double(2.0)))),
      MakeSeqScan("t2", NoPred()), {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());

  const Plan clone = plan.Clone();
  // Finalized state survives without re-running Finalize.
  EXPECT_EQ(clone.num_operators(), plan.num_operators());
  EXPECT_EQ(clone.num_leaves(), plan.num_leaves());
  const auto orig_nodes = plan.NodesPreorder();
  const auto clone_nodes = clone.NodesPreorder();
  ASSERT_EQ(clone_nodes.size(), orig_nodes.size());
  for (size_t i = 0; i < orig_nodes.size(); ++i) {
    EXPECT_EQ(clone_nodes[i]->id, orig_nodes[i]->id);
    EXPECT_EQ(clone_nodes[i]->leaf_begin, orig_nodes[i]->leaf_begin);
    EXPECT_EQ(clone_nodes[i]->leaf_end, orig_nodes[i]->leaf_end);
    EXPECT_EQ(clone_nodes[i]->output_schema.num_columns(),
              orig_nodes[i]->output_schema.num_columns());
    EXPECT_DOUBLE_EQ(clone_nodes[i]->leaf_row_product,
                     orig_nodes[i]->leaf_row_product);
    // A deep copy: no PlanNode and no Expr node is shared.
    EXPECT_NE(clone_nodes[i], orig_nodes[i]);
    if (orig_nodes[i]->predicate != nullptr) {
      EXPECT_NE(clone_nodes[i]->predicate.get(), orig_nodes[i]->predicate.get());
    }
  }
  // Identical structural identity: same fingerprint and canonical key.
  EXPECT_EQ(PlanFingerprint(clone), PlanFingerprint(plan));
  EXPECT_EQ(PlanStructuralKey(clone), PlanStructuralKey(plan));
  EXPECT_EQ(clone.ToString(), plan.ToString());

  // The clone executes standalone, WITHOUT re-running Finalize — and keeps
  // working after every plan it was cloned from is gone (the lifetime
  // contract PredictAsync's registry relies on).
  const ExecResult a = MustExecute(db, &plan);
  Plan survivor;
  {
    Plan doomed = plan.Clone();
    survivor = doomed.Clone();
  }  // doomed destroyed; survivor must share nothing with it
  Executor executor(&db);
  auto b = executor.Execute(survivor, ExecOptions{});
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(RowFingerprints(a.output), RowFingerprints(b->output));
}

// ---------- Planner ----------

TEST(Planner, PicksIndexScanForSelectiveRange) {
  Database db = MakeTestDb();
  auto plan = OptimizePlan(
      MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(3.0))), db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kIndexScan);
  EXPECT_EQ(plan->root()->index_column, 1);
}

TEST(Planner, KeepsSeqScanForWideRange) {
  Database db = MakeTestDb();
  auto plan = OptimizePlan(
      MakeSeqScan("t1", Expr::Cmp(1, CmpOp::kLe, Value::Double(180.0))), db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kSeqScan);
}

TEST(Planner, KeepsSeqScanForUnindexedColumn) {
  Database db = MakeTestDb();
  // Column 0 has no declared index.
  auto plan = OptimizePlan(
      MakeSeqScan("t1", Expr::Cmp(0, CmpOp::kLt, Value::Int64(1))), db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kSeqScan);
}

TEST(Planner, SmallInnerBecomesNestLoop) {
  Database db = MakeTestDb();
  auto plan = OptimizePlan(
      MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                   {{0, 0}}),
      db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kNestLoopJoin);  // t2 has 40 rows
}

TEST(Planner, LargeInnerStaysHashJoin) {
  Database db = MakeTestDb();
  auto plan = OptimizePlan(
      MakeHashJoin(MakeSeqScan("t2", NoPred()), MakeSeqScan("t1", NoPred()),
                   {{0, 0}}),
      db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kHashJoin);  // t1 has 200 rows
}

TEST(Planner, KeylessJoinBecomesNestLoop) {
  Database db = MakeTestDb();
  auto plan = OptimizePlan(
      MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t1", NoPred()), {}),
      db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root()->type, OpType::kNestLoopJoin);
}

// ---------- Cardinality ----------

TEST(Cardinality, RangePairingAvoidsIndependenceBlowup) {
  Database db = MakeTestDb();
  CardinalityEstimator cards(&db);
  // b BETWEEN 100 AND 120 covers ~10% of rows; independence on the two
  // endpoint comparisons would claim ~30%.
  const auto pred = Expr::Between(1, Value::Double(100.0), Value::Double(120.0));
  const double sel = cards.PredicateSelectivity(pred.get(), "t1");
  EXPECT_NEAR(sel, 21.0 / 200.0, 0.04);
}

TEST(Cardinality, StringEqualityUsesFrequency) {
  Database db = MakeTestDb();
  CardinalityEstimator cards(&db);
  const auto pred = Expr::StrEq(2, "x");
  EXPECT_NEAR(cards.PredicateSelectivity(pred.get(), "t1"), 67.0 / 200.0, 0.01);
  const auto none = Expr::StrEq(2, "never-seen");
  EXPECT_DOUBLE_EQ(cards.PredicateSelectivity(none.get(), "t1"), 0.0);
}

TEST(Cardinality, EquiJoinUsesDistinctCounts) {
  Database db = MakeTestDb();
  Plan plan(MakeHashJoin(MakeSeqScan("t1", NoPred()), MakeSeqScan("t2", NoPred()),
                         {{0, 0}}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  CardinalityEstimator cards(&db);
  const auto rows = cards.EstimatePlan(plan);
  // |t1 x t2| / max(d(a), d(k)) = 200 * 40 / 50 = 160 — matches the truth.
  EXPECT_NEAR(rows[0], 160.0, 1.0);
}

TEST(Cardinality, AggregateGroupEstimate) {
  Database db = MakeTestDb();
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kCount, -1, "cnt"});
  Plan plan(MakeAggregate(MakeSeqScan("t1", NoPred()), {0}, aggs));
  ASSERT_TRUE(plan.Finalize(db).ok());
  CardinalityEstimator cards(&db);
  const auto rows = cards.EstimatePlan(plan);
  EXPECT_NEAR(rows[0], 50.0, 1.0);  // 50 distinct a values
}

TEST(Cardinality, PassThroughKeepsRows) {
  Database db = MakeTestDb();
  Plan plan(MakeSort(MakeSeqScan("t1", NoPred()), {0}));
  ASSERT_TRUE(plan.Finalize(db).ok());
  CardinalityEstimator cards(&db);
  const auto rows = cards.EstimatePlan(plan);
  EXPECT_DOUBLE_EQ(rows[0], rows[1]);
}

// ---------- Cost model ----------

TEST(CostModel, SeqScanResources) {
  OperatorContext ctx;
  ctx.type = OpType::kSeqScan;
  ctx.table_rows = 1000;
  ctx.table_pages = 25;
  ctx.qual_ops = 2;
  const ResourceVector r = EstimateResources(ctx, EngineConfig{});
  EXPECT_DOUBLE_EQ(r.ns, 25.0);
  EXPECT_DOUBLE_EQ(r.nt, 1000.0);
  EXPECT_DOUBLE_EQ(r.no, 2000.0);
}

TEST(CostModel, IndexScanUsesRangeRatio) {
  OperatorContext ctx;
  ctx.type = OpType::kIndexScan;
  ctx.table_rows = 10000;
  ctx.table_pages = 100;
  ctx.out_rows = 50;
  ctx.qual_ops = 1;
  ctx.index_range_ratio = 4.0;
  const ResourceVector r = EstimateResources(ctx, EngineConfig{});
  EXPECT_DOUBLE_EQ(r.nt, 200.0);  // 50 * 4 range matches
  EXPECT_GT(r.nr, 0.0);
  EXPECT_LE(r.nr, 100.0);
}

TEST(CostModel, HashJoinSpillsAboveWorkMem) {
  OperatorContext ctx;
  ctx.type = OpType::kHashJoin;
  ctx.left_rows = 10000;
  ctx.right_rows = 10000;
  ctx.left_width = 100;
  ctx.right_width = 100;
  ctx.out_rows = 100;
  EngineConfig small_mem;
  small_mem.work_mem_bytes = 1024;
  EngineConfig big_mem;
  big_mem.work_mem_bytes = 1e9;
  EXPECT_GT(EstimateResources(ctx, small_mem).ns, 0.0);
  EXPECT_DOUBLE_EQ(EstimateResources(ctx, big_mem).ns, 0.0);
}

TEST(CostModel, ExpectedPageFetchesSaturates) {
  EXPECT_DOUBLE_EQ(ExpectedPageFetches(0, 100), 0.0);
  EXPECT_NEAR(ExpectedPageFetches(1, 100), 1.0, 0.01);
  EXPECT_LE(ExpectedPageFetches(1e6, 100), 100.0);
  EXPECT_NEAR(ExpectedPageFetches(1e6, 100), 100.0, 0.1);
  // Monotone in rows.
  EXPECT_LT(ExpectedPageFetches(10, 100), ExpectedPageFetches(50, 100));
}

TEST(CostModel, ResourceVectorDotMatchesEq1) {
  ResourceVector r;
  r.ns = 1;
  r.nr = 2;
  r.nt = 3;
  r.ni = 4;
  r.no = 5;
  // t = ns cs + nr cr + nt ct + ni ci + no co.
  EXPECT_DOUBLE_EQ(r.Dot(1, 10, 100, 1000, 10000), 1 + 20 + 300 + 4000 + 50000);
  for (int u = 0; u < 5; ++u) {
    EXPECT_DOUBLE_EQ(r.Get(u), static_cast<double>(u + 1));
  }
}

}  // namespace
}  // namespace uqp
