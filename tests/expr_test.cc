// Tests for the predicate expression language.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "engine/expr.h"

namespace uqp {
namespace {

std::vector<Value> Row(int64_t a, double b, const std::string& s) {
  return {Value::Int64(a), Value::Double(b), Value::String(s)};
}

bool Eval(const ExprPtr& e, const std::vector<Value>& row) {
  return EvalPredicate(*e, RowRef{row.data(), static_cast<int>(row.size())});
}

TEST(Expr, NumericComparisons) {
  const auto row = Row(5, 2.5, "x");
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kEq, Value::Int64(5)), row));
  EXPECT_FALSE(Eval(Expr::Cmp(0, CmpOp::kNe, Value::Int64(5)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kLt, Value::Int64(6)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kLe, Value::Int64(5)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kGt, Value::Int64(4)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kGe, Value::Int64(5)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(1, CmpOp::kLt, Value::Double(3.0)), row));
}

TEST(Expr, CrossTypeNumericComparison) {
  const auto row = Row(5, 5.0, "x");
  EXPECT_TRUE(Eval(Expr::Cmp(0, CmpOp::kEq, Value::Double(5.0)), row));
  EXPECT_TRUE(Eval(Expr::Cmp(1, CmpOp::kEq, Value::Int64(5)), row));
}

TEST(Expr, StringEquality) {
  const auto row = Row(1, 1.0, "BUILDING");
  EXPECT_TRUE(Eval(Expr::StrEq(2, "BUILDING"), row));
  EXPECT_FALSE(Eval(Expr::StrEq(2, "AUTOMOBILE"), row));
  EXPECT_TRUE(Eval(Expr::Cmp(2, CmpOp::kNe, Value::String("AUTOMOBILE")), row));
}

TEST(Expr, ColumnColumnComparison) {
  const auto row = Row(3, 4.0, "x");
  EXPECT_TRUE(Eval(Expr::CmpColumns(0, CmpOp::kLt, 1), row));
  EXPECT_FALSE(Eval(Expr::CmpColumns(0, CmpOp::kGe, 1), row));
  EXPECT_TRUE(Eval(Expr::CmpColumns(1, CmpOp::kGt, 0), row));
  EXPECT_FALSE(Eval(Expr::CmpColumns(0, CmpOp::kEq, 1), row));
}

TEST(Expr, BooleanConnectives) {
  const auto row = Row(5, 2.5, "x");
  const auto t = Expr::Cmp(0, CmpOp::kEq, Value::Int64(5));
  const auto f = Expr::Cmp(0, CmpOp::kEq, Value::Int64(6));
  EXPECT_TRUE(Eval(Expr::And(t, t), row));
  EXPECT_FALSE(Eval(Expr::And(t, f), row));
  EXPECT_TRUE(Eval(Expr::Or(t, f), row));
  EXPECT_FALSE(Eval(Expr::Or(f, f), row));
  EXPECT_TRUE(Eval(Expr::Not(f), row));
  EXPECT_FALSE(Eval(Expr::Not(t), row));
}

TEST(Expr, AndWithNullBranchesCollapses) {
  const auto t = Expr::Cmp(0, CmpOp::kEq, Value::Int64(5));
  EXPECT_EQ(Expr::And(nullptr, t), t);
  EXPECT_EQ(Expr::And(t, nullptr), t);
}

TEST(Expr, Between) {
  const auto row = Row(5, 2.5, "x");
  EXPECT_TRUE(Eval(Expr::Between(0, Value::Int64(5), Value::Int64(7)), row));
  EXPECT_TRUE(Eval(Expr::Between(0, Value::Int64(3), Value::Int64(5)), row));
  EXPECT_FALSE(Eval(Expr::Between(0, Value::Int64(6), Value::Int64(7)), row));
}

TEST(Expr, PredicateOpCount) {
  EXPECT_EQ(PredicateOpCount(nullptr), 0);
  const auto c = Expr::Cmp(0, CmpOp::kEq, Value::Int64(1));
  EXPECT_EQ(PredicateOpCount(c.get()), 1);
  EXPECT_EQ(PredicateOpCount(Expr::And(c, c).get()), 2);
  EXPECT_EQ(PredicateOpCount(Expr::Not(Expr::Or(c, Expr::And(c, c))).get()), 3);
  EXPECT_EQ(PredicateOpCount(Expr::CmpColumns(0, CmpOp::kLt, 1).get()), 1);
}

TEST(Expr, ShiftColumns) {
  const auto e = Expr::And(Expr::Cmp(1, CmpOp::kEq, Value::Int64(9)),
                           Expr::CmpColumns(0, CmpOp::kLt, 2));
  const auto shifted = ShiftColumns(e, 10);
  EXPECT_EQ(shifted->lhs->column, 11);
  EXPECT_EQ(shifted->rhs->column, 10);
  EXPECT_EQ(shifted->rhs->column2, 12);
  // Original untouched.
  EXPECT_EQ(e->lhs->column, 1);
}

TEST(Expr, TryExtractRangePure) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  const auto e = Expr::Between(3, Value::Double(2.0), Value::Double(8.0));
  EXPECT_TRUE(TryExtractRange(e.get(), 3, &lo, &hi));
  EXPECT_DOUBLE_EQ(lo, 2.0);
  EXPECT_DOUBLE_EQ(hi, 8.0);
}

TEST(Expr, TryExtractRangeStrictBoundsUseNextafter) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  const auto e = Expr::And(Expr::Cmp(0, CmpOp::kGt, Value::Double(1.0)),
                           Expr::Cmp(0, CmpOp::kLt, Value::Double(2.0)));
  EXPECT_TRUE(TryExtractRange(e.get(), 0, &lo, &hi));
  EXPECT_GT(lo, 1.0);
  EXPECT_LT(hi, 2.0);
}

TEST(Expr, TryExtractRangeRejectsOtherColumns) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  const auto e = Expr::And(Expr::Cmp(0, CmpOp::kGe, Value::Double(1.0)),
                           Expr::Cmp(1, CmpOp::kLe, Value::Double(2.0)));
  EXPECT_FALSE(TryExtractRange(e.get(), 0, &lo, &hi));
}

TEST(Expr, CollectIndexRangeResidual) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool has_range = false, pure = true;
  // Range on col 0 plus a string-eq residual on col 2.
  const auto e = Expr::And(Expr::Between(0, Value::Double(3.0), Value::Double(9.0)),
                           Expr::StrEq(2, "FOO"));
  CollectIndexRange(e.get(), 0, &lo, &hi, &has_range, &pure);
  EXPECT_TRUE(has_range);
  EXPECT_FALSE(pure);
  EXPECT_DOUBLE_EQ(lo, 3.0);
  EXPECT_DOUBLE_EQ(hi, 9.0);
}

TEST(Expr, CollectIndexRangePureWhenOnlyRange) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool has_range = false, pure = true;
  const auto e = Expr::Between(1, Value::Double(0.0), Value::Double(1.0));
  CollectIndexRange(e.get(), 1, &lo, &hi, &has_range, &pure);
  EXPECT_TRUE(has_range);
  EXPECT_TRUE(pure);
}

TEST(Expr, CollectIndexRangeNoRange) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool has_range = false, pure = true;
  const auto e = Expr::StrEq(2, "FOO");
  CollectIndexRange(e.get(), 0, &lo, &hi, &has_range, &pure);
  EXPECT_FALSE(has_range);
  EXPECT_FALSE(pure);
}

TEST(Expr, CollectIndexRangeOrIsResidual) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool has_range = false, pure = true;
  const auto range = Expr::Cmp(0, CmpOp::kLe, Value::Double(5.0));
  const auto ored = Expr::Or(Expr::Cmp(0, CmpOp::kLe, Value::Double(1.0)),
                             Expr::Cmp(0, CmpOp::kGe, Value::Double(9.0)));
  CollectIndexRange(Expr::And(range, ored).get(), 0, &lo, &hi, &has_range, &pure);
  EXPECT_TRUE(has_range);
  EXPECT_FALSE(pure);
  EXPECT_DOUBLE_EQ(hi, 5.0);  // only the conjunct range tightened
}

TEST(Expr, ToStringRendersReadably) {
  Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
  const auto e = Expr::And(Expr::Cmp(0, CmpOp::kLe, Value::Int64(9)),
                           Expr::CmpColumns(0, CmpOp::kLt, 1));
  EXPECT_EQ(e->ToString(&schema), "(a <= 9 AND a < b)");
}

// ---------- column kernels ----------

constexpr CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                             CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

/// Columns: 0 int64 (values past 2^53), 1 double (NaN, +-inf, -0),
/// 2 all-string, 3 mixed int64/string, 4 int64.
Table MakeKernelTable() {
  const int64_t p53 = int64_t{1} << 53;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<int64_t> ints = {0, 1, -1, 42, p53, p53 + 1, p53 + 2,
                                     -(p53 + 1), std::numeric_limits<int64_t>::max(),
                                     std::numeric_limits<int64_t>::min(), 7};
  const std::vector<double> dbls = {nan, inf, -inf, 0.0, -0.0, 1.5, 42.0,
                                    static_cast<double>(p53), -7.25,
                                    std::numeric_limits<double>::max(),
                                    std::numeric_limits<double>::denorm_min()};
  const std::vector<std::string> strs = {"BUILDING", "AUTOMOBILE", "MACHINERY"};
  Table t("kernels", Schema({{"i", ValueType::kInt64},
                             {"d", ValueType::kDouble},
                             {"s", ValueType::kString},
                             {"m", ValueType::kInt64},
                             {"j", ValueType::kInt64}}));
  for (size_t r = 0; r < 53; ++r) {
    t.AppendRow({Value::Int64(ints[r % ints.size()]),
                 Value::Double(dbls[(r * 5) % dbls.size()]),
                 Value::String(strs[r % strs.size()]),
                 r % 4 == 3 ? Value::String(strs[r % strs.size()])
                            : Value::Int64(ints[(r * 3) % ints.size()]),
                 Value::Int64(ints[(r * 7) % ints.size()])});
  }
  return t;
}

/// EvalPredicateColumns over the whole table and in 7-row chunks must equal
/// EvalPredicate row by row, and EvalPredicateBatch over the same cells.
void ExpectColumnParity(const Table& t, const ExprPtr& e) {
  const int64_t rows = t.num_rows();
  const int stride = t.schema().num_columns();
  std::vector<uint8_t> whole(static_cast<size_t>(rows));
  std::vector<uint8_t> chunked(static_cast<size_t>(rows), 0xff);
  std::vector<uint8_t> cells(static_cast<size_t>(rows));
  EvalPredicateColumns(*e, t, 0, rows, whole.data());
  for (int64_t base = 0; base < rows; base += 7) {
    EvalPredicateColumns(*e, t, base, std::min<int64_t>(7, rows - base),
                         chunked.data() + base);
  }
  EvalPredicateBatch(*e, t.raw_values().data(), stride, rows, cells.data());
  for (int64_t r = 0; r < rows; ++r) {
    const uint8_t want = EvalPredicate(*e, t.row(r)) ? 1 : 0;
    const size_t i = static_cast<size_t>(r);
    ASSERT_EQ(whole[i], want) << e->ToString() << " row " << r;
    ASSERT_EQ(chunked[i], want) << e->ToString() << " row " << r;
    ASSERT_EQ(cells[i], want) << e->ToString() << " row " << r;
  }
}

/// Comparisons that cannot abort on MakeKernelTable: each kernel case plus
/// the fallbacks (numeric constant on the string column, string constant
/// on a numeric column, the mixed column).
std::vector<ExprPtr> SafeLeaves() {
  const int64_t p53 = int64_t{1} << 53;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> constants = {
      Value::Int64(p53 + 1), Value::Int64(p53), Value::Int64(42),
      Value::Int64(-1), Value::Int64(std::numeric_limits<int64_t>::max()),
      Value::Double(std::numeric_limits<double>::quiet_NaN()),
      Value::Double(inf), Value::Double(-inf), Value::Double(0.0),
      Value::Double(-0.0), Value::Double(static_cast<double>(p53)),
      Value::Double(1.5)};
  std::vector<ExprPtr> out;
  for (CmpOp op : kAllOps) {
    for (const Value& c : constants) {
      out.push_back(Expr::Cmp(0, op, c));
      out.push_back(Expr::Cmp(1, op, c));
    }
    out.push_back(Expr::CmpColumns(0, op, 1));
    out.push_back(Expr::CmpColumns(1, op, 4));
    out.push_back(Expr::CmpColumns(4, op, 0));
  }
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe}) {
    out.push_back(Expr::Cmp(2, op, Value::String("BUILDING")));
    out.push_back(Expr::Cmp(2, op, Value::String("NOT-IN-TABLE")));
    out.push_back(Expr::Cmp(2, op, Value::Int64(0)));
    out.push_back(Expr::Cmp(0, op, Value::String("BUILDING")));
    out.push_back(Expr::Cmp(1, op, Value::String("BUILDING")));
    out.push_back(Expr::Cmp(3, op, Value::Int64(42)));
    out.push_back(Expr::Cmp(3, op, Value::String("BUILDING")));
  }
  return out;
}

TEST(ExprColumns, TableColumnKinds) {
  const Table t = MakeKernelTable();
  EXPECT_EQ(t.column_kind(0), ColumnKind::kNumeric);
  EXPECT_EQ(t.column_kind(1), ColumnKind::kNumeric);
  EXPECT_EQ(t.column_kind(2), ColumnKind::kString);
  EXPECT_EQ(t.column_kind(3), ColumnKind::kMixed);
  EXPECT_EQ(t.column_kind(4), ColumnKind::kNumeric);
}

TEST(ExprColumns, EveryComparisonMatchesEvalPredicate) {
  const Table t = MakeKernelTable();
  for (const ExprPtr& e : SafeLeaves()) ExpectColumnParity(t, e);
}

TEST(ExprColumns, NestedConnectivesMatchEvalPredicate) {
  // Pairs of leaves under every connective shape, so each comparison runs
  // in every mask mode: fill (left of AND/OR, under NOT), narrow (right of
  // AND, inside AND under AND) and widen (right of OR), plus the scratch
  // masks of AND under OR and OR under AND.
  const Table t = MakeKernelTable();
  const std::vector<ExprPtr> leaves = SafeLeaves();
  const size_t n = leaves.size();
  for (size_t k = 0; k < n; ++k) {
    const ExprPtr& a = leaves[k];
    const ExprPtr& b = leaves[(k * 7 + 3) % n];
    const ExprPtr& c = leaves[(k * 13 + 5) % n];
    ExpectColumnParity(t, Expr::And(a, b));
    ExpectColumnParity(t, Expr::Or(a, b));
    ExpectColumnParity(t, Expr::Not(a));
    ExpectColumnParity(t, Expr::Or(c, Expr::And(a, b)));
    ExpectColumnParity(t, Expr::And(c, Expr::Or(a, b)));
    ExpectColumnParity(t, Expr::And(c, Expr::Not(Expr::Or(a, b))));
    ExpectColumnParity(t, Expr::Or(c, Expr::Not(Expr::And(a, b))));
    ExpectColumnParity(t, Expr::And(Expr::And(a, b), Expr::Or(c, a)));
    ExpectColumnParity(t, Expr::Or(Expr::Or(a, b), Expr::And(c, b)));
  }
}

TEST(ExprColumnsDeathTest, RangeOnStringColumnStillAborts) {
  const Table t = MakeKernelTable();
  std::vector<uint8_t> mask(static_cast<size_t>(t.num_rows()));
  EXPECT_DEATH(EvalPredicateColumns(*Expr::Cmp(2, CmpOp::kLt, Value::String("M")),
                                    t, 0, t.num_rows(), mask.data()),
               "not numeric");
  EXPECT_DEATH(EvalPredicateColumns(*Expr::Cmp(0, CmpOp::kGe, Value::String("M")),
                                    t, 0, t.num_rows(), mask.data()),
               "not numeric");
}

}  // namespace
}  // namespace uqp
