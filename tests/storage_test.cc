// Tests for the storage substrate: values, schemas, tables with the page
// model, equi-depth histograms and catalog statistics.

#include <gtest/gtest.h>

#include <cmath>

#include "storage/catalog.h"
#include "storage/database.h"
#include "storage/histogram.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "math/rng.h"
#include "storage/value.h"

namespace uqp {
namespace {

// ---------- Value / StringPool ----------

TEST(StringPool, InternIsIdempotent) {
  StringPool& pool = StringPool::Global();
  const int32_t a = pool.Intern("uqp-test-token-1");
  const int32_t b = pool.Intern("uqp-test-token-1");
  const int32_t c = pool.Intern("uqp-test-token-2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(pool.Lookup(a), "uqp-test-token-1");
}

TEST(Value, NumericEqualityCrossType) {
  EXPECT_TRUE(Value::Int64(5).Equals(Value::Double(5.0)));
  EXPECT_FALSE(Value::Int64(5).Equals(Value::Double(5.5)));
  EXPECT_TRUE(Value::Int64(5).Equals(Value::Int64(5)));
}

TEST(Value, StringEqualityByPoolId) {
  EXPECT_TRUE(Value::String("abc").Equals(Value::String("abc")));
  EXPECT_FALSE(Value::String("abc").Equals(Value::String("abd")));
  EXPECT_FALSE(Value::String("5").Equals(Value::Int64(5)));
}

TEST(Value, HashConsistentWithEquality) {
  // Int-valued doubles must hash like the equal int64 (equi-join support).
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Double(42.0).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
}

TEST(Value, NumericCompare) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(2.0).Compare(Value::Int64(1)), 0);
  EXPECT_EQ(Value::Int64(3).Compare(Value::Int64(3)), 0);
}

TEST(Value, ToString) {
  EXPECT_EQ(Value::Int64(7).ToString(), "7");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
}

// ---------- Schema ----------

TEST(Schema, IndexOfAndWidth) {
  Schema s({{"a", ValueType::kInt64}, {"b", ValueType::kString, 20}});
  EXPECT_EQ(s.num_columns(), 2);
  EXPECT_EQ(s.IndexOf("a"), 0);
  EXPECT_EQ(s.IndexOf("b"), 1);
  EXPECT_EQ(s.IndexOf("c"), -1);
  EXPECT_EQ(s.TupleWidthBytes(), 24 + 8 + 20);
}

TEST(Schema, Concat) {
  Schema l({{"a", ValueType::kInt64}});
  Schema r({{"b", ValueType::kDouble}, {"c", ValueType::kInt64}});
  const Schema j = Schema::Concat(l, r);
  EXPECT_EQ(j.num_columns(), 3);
  EXPECT_EQ(j.column(0).name, "a");
  EXPECT_EQ(j.column(2).name, "c");
}

// ---------- Table ----------

Table MakeNumbersTable(int64_t rows) {
  Table t("numbers", Schema({{"id", ValueType::kInt64},
                             {"val", ValueType::kDouble}}));
  for (int64_t i = 0; i < rows; ++i) {
    // val descends so the ordered index differs from row order.
    t.AppendRow({Value::Int64(i), Value::Double(static_cast<double>(rows - i))});
  }
  return t;
}

TEST(Table, PageModel) {
  Table t = MakeNumbersTable(1000);
  // width = 24 + 8 + 8 = 40 bytes -> 204 rows/page.
  EXPECT_EQ(t.rows_per_page(), kPageSizeBytes / 40);
  EXPECT_EQ(t.num_pages(), (1000 + t.rows_per_page() - 1) / t.rows_per_page());
}

TEST(Table, EmptyTableHasOnePage) {
  Table t("empty", Schema({{"a", ValueType::kInt64}}));
  EXPECT_EQ(t.num_rows(), 0);
  EXPECT_EQ(t.num_pages(), 1);
}

TEST(Table, OrderedIndexSortsByValue) {
  Table t = MakeNumbersTable(100);
  const auto& index = t.OrderedIndex(1);
  ASSERT_EQ(index.size(), 100u);
  for (size_t i = 1; i < index.size(); ++i) {
    EXPECT_LE(t.at(index[i - 1], 1).AsDouble(), t.at(index[i], 1).AsDouble());
  }
  // val is descending in row order, so index 0 of the ordered index must be
  // the last row.
  EXPECT_EQ(index[0], 99u);
}

TEST(Table, DeclareIndex) {
  Table t = MakeNumbersTable(10);
  EXPECT_FALSE(t.HasIndex(1));
  t.DeclareIndex(1);
  EXPECT_TRUE(t.HasIndex(1));
}

TEST(Table, RowAccess) {
  Table t = MakeNumbersTable(5);
  const RowRef r = t.row(2);
  EXPECT_EQ(r[0].AsInt64(), 2);
  EXPECT_DOUBLE_EQ(r[1].AsDouble(), 3.0);
}

/// Every column array has num_rows() entries, each the cell's AsDouble().
void ExpectNumericColumnsMatchCells(const Table& t) {
  for (int c = 0; c < t.schema().num_columns(); ++c) {
    ASSERT_EQ(t.column_kind(c), ColumnKind::kNumeric) << "column " << c;
    const std::vector<double>& col = t.column(c);
    ASSERT_EQ(static_cast<int64_t>(col.size()), t.num_rows()) << "column " << c;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(col[static_cast<size_t>(r)], t.at(r, c).AsDouble());
    }
  }
}

TEST(Table, ColumnArraysSurviveCopyAndMoveAssign) {
  const Table src = MakeNumbersTable(50);
  Table copy;
  copy = src;
  ExpectNumericColumnsMatchCells(copy);
  ExpectNumericColumnsMatchCells(src);
  Table moved;
  moved = std::move(copy);
  ExpectNumericColumnsMatchCells(moved);
  EXPECT_EQ(moved.num_rows(), 50);
  EXPECT_EQ(moved.column(1)[0], 50.0);
}

TEST(Table, StringCellTurnsNumericColumnMixed) {
  Table t("kinds", Schema({{"a", ValueType::kInt64},
                           {"s", ValueType::kString}}));
  EXPECT_EQ(t.column_kind(0), ColumnKind::kNumeric);  // no rows yet
  t.AppendRow({Value::Int64(3), Value::String("x")});
  EXPECT_EQ(t.column_kind(0), ColumnKind::kNumeric);
  EXPECT_EQ(t.column_kind(1), ColumnKind::kString);
  EXPECT_EQ(t.column(1)[0], static_cast<double>(Value::String("x").s));
  t.AppendRow({Value::String("y"), Value::String("z")});
  EXPECT_EQ(t.column_kind(0), ColumnKind::kMixed);
  EXPECT_EQ(t.column_kind(1), ColumnKind::kString);
}

TEST(Table, ReserveAndAppendKeepColumnsInStepWithRows) {
  Table t("step", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kDouble}}));
  t.Reserve(100);
  EXPECT_EQ(t.num_rows(), 0);
  EXPECT_TRUE(t.column(0).empty());
  EXPECT_TRUE(t.column(1).empty());
  const std::vector<Value> row = {Value::Int64(int64_t{1} << 60), Value::Double(-2.5)};
  t.AppendRow(row);
  t.AppendRow(row.data());
  t.Reserve(1);
  ASSERT_EQ(t.num_rows(), 2);
  ExpectNumericColumnsMatchCells(t);
  EXPECT_EQ(t.column(0)[1], static_cast<double>(int64_t{1} << 60));
}

// ---------- Histogram ----------

TEST(Histogram, EmptyBehaviour) {
  EquiDepthHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.FractionLessEq(1.0), 0.0);
}

TEST(Histogram, UniformFractions) {
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(i);
  const auto h = EquiDepthHistogram::Build(std::move(values), 64);
  EXPECT_EQ(h.count(), 10000);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 9999.0);
  EXPECT_NEAR(h.FractionLessEq(4999.5), 0.5, 0.02);
  EXPECT_NEAR(h.FractionLessEq(999.5), 0.1, 0.02);
  EXPECT_EQ(h.FractionLessEq(-1.0), 0.0);
  EXPECT_EQ(h.FractionLessEq(1e9), 1.0);
}

TEST(Histogram, FractionLessEqIsMonotone) {
  std::vector<double> values;
  Rng rng_seedless;  // default-seeded deterministic
  for (int i = 0; i < 5000; ++i) values.push_back(rng_seedless.NextDouble() * 100);
  const auto h = EquiDepthHistogram::Build(std::move(values), 32);
  double prev = 0.0;
  for (double v = -5.0; v <= 105.0; v += 0.5) {
    const double f = h.FractionLessEq(v);
    EXPECT_GE(f, prev - 1e-12);
    prev = f;
  }
}

class HistogramInverse : public ::testing::TestWithParam<double> {};

TEST_P(HistogramInverse, ValueAtFractionInvertsFraction) {
  const double q = GetParam();
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) values.push_back(std::sqrt(i));  // skewed
  const auto h = EquiDepthHistogram::Build(std::move(values), 64);
  const double v = h.ValueAtFraction(q);
  EXPECT_NEAR(h.FractionLessEq(v), q, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Fractions, HistogramInverse,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           0.95));

TEST(Histogram, SkewedDistributionFractions) {
  // 90% of mass at small values.
  std::vector<double> values;
  for (int i = 0; i < 9000; ++i) values.push_back(i % 10);
  for (int i = 0; i < 1000; ++i) values.push_back(1000.0 + i);
  const auto h = EquiDepthHistogram::Build(std::move(values), 64);
  EXPECT_NEAR(h.FractionLessEq(9.5), 0.9, 0.03);
}

TEST(Histogram, RangeFraction) {
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(i);
  const auto h = EquiDepthHistogram::Build(std::move(values), 64);
  EXPECT_NEAR(h.FractionRange(2000, 3000), 0.1, 0.02);
  EXPECT_EQ(h.FractionRange(5, 1), 0.0);  // inverted range
}

TEST(Histogram, NumDistinct) {
  std::vector<double> values = {1, 1, 2, 2, 3};
  const auto h = EquiDepthHistogram::Build(std::move(values), 4);
  EXPECT_EQ(h.num_distinct(), 3);
}

// ---------- Catalog / Database ----------

TEST(Catalog, AnalyzeNumericAndString) {
  Table t("mixed", Schema({{"n", ValueType::kInt64},
                           {"s", ValueType::kString, 8}}));
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({Value::Int64(i % 10), Value::String(i % 2 == 0 ? "even" : "odd")});
  }
  const TableStats stats = Catalog::Analyze(t, 16);
  EXPECT_EQ(stats.row_count, 100);
  ASSERT_EQ(stats.columns.size(), 2u);
  EXPECT_TRUE(stats.columns[0].numeric);
  EXPECT_EQ(stats.columns[0].num_distinct, 10);
  EXPECT_DOUBLE_EQ(stats.columns[0].min, 0.0);
  EXPECT_DOUBLE_EQ(stats.columns[0].max, 9.0);
  EXPECT_FALSE(stats.columns[1].numeric);
  EXPECT_EQ(stats.columns[1].num_distinct, 2);
  EXPECT_EQ(stats.columns[1].string_freq.at(StringPool::Global().Intern("even")),
            50);
}

TEST(Database, AddAnalyzeAndLookup) {
  Database db("testdb");
  db.AddTable(MakeNumbersTable(500));
  EXPECT_TRUE(db.HasTable("numbers"));
  EXPECT_FALSE(db.HasTable("nope"));
  db.AnalyzeAll(16);
  EXPECT_TRUE(db.catalog().Has("numbers"));
  EXPECT_EQ(db.catalog().Get("numbers").row_count, 500);
  EXPECT_EQ(db.TableNames(), std::vector<std::string>{"numbers"});
  EXPECT_EQ(db.TotalPages(), db.GetTable("numbers").num_pages());
}

}  // namespace
}  // namespace uqp
