#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace uqp {

/// Size of one storage page in bytes (PostgreSQL default).
inline constexpr int kPageSizeBytes = 8192;

/// Lightweight non-owning view of one row inside a flat value array.
struct RowRef {
  const Value* data = nullptr;
  int num_columns = 0;

  const Value& operator[](int i) const { return data[i]; }
};

/// What a table column's double array holds (see Table::column).
enum class ColumnKind : uint8_t {
  kNumeric,  ///< every cell is numeric: the array holds each cell's AsDouble()
  kString,   ///< every cell is a string: the array holds its pool id
  kMixed,    ///< numeric and string cells: only the Value cells are usable
};

/// A row-major in-memory relation: schema + flat value array, plus one
/// contiguous double array per column for the scan's column kernels
/// (8 bytes more per cell).
///
/// The page model (rows per page derived from tuple width) is what the cost
/// model and the simulated machine use to translate scans into I/O counts,
/// mirroring how PostgreSQL charges seq_page_cost / random_page_cost.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        columns_(static_cast<size_t>(schema_.num_columns())),
        column_types_(static_cast<size_t>(schema_.num_columns()), 0) {}

  // Copy/move are explicit because of the index-build mutex: the data and
  // any already-built indexes transfer, the new table gets a fresh mutex.
  Table(const Table& other) { *this = other; }
  Table& operator=(const Table& other);
  Table(Table&& other) { *this = std::move(other); }
  Table& operator=(Table&& other);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  int64_t num_rows() const {
    const int n = schema_.num_columns();
    return n == 0 ? 0 : static_cast<int64_t>(values_.size()) / n;
  }

  /// Number of pages the relation occupies under the page model.
  int64_t num_pages() const;

  /// Rows that fit on one page (>= 1).
  int64_t rows_per_page() const;

  RowRef row(int64_t r) const {
    const int n = schema_.num_columns();
    return RowRef{values_.data() + r * n, n};
  }

  const Value& at(int64_t r, int c) const {
    return values_[r * schema_.num_columns() + c];
  }

  /// Appends one row; `row` must match the schema arity.
  void AppendRow(const std::vector<Value>& row);

  /// Appends from a raw pointer of schema arity.
  void AppendRow(const Value* row);

  void Reserve(int64_t rows);

  /// Column `c` as one contiguous array of num_rows() doubles, appended in
  /// step with the rows. Its contents are meaningful as column_kind says.
  const std::vector<double>& column(int c) const {
    return columns_[static_cast<size_t>(c)];
  }

  /// What column(c) holds. A column with no rows reads kNumeric.
  ColumnKind column_kind(int c) const {
    switch (column_types_[static_cast<size_t>(c)]) {
      case kStringSeen:
        return ColumnKind::kString;
      case kNumericSeen | kStringSeen:
        return ColumnKind::kMixed;
      default:
        return ColumnKind::kNumeric;
    }
  }

  /// Returns (building lazily) a B-tree-like ordered index on a numeric
  /// column: row ids sorted ascending by the column value. Used by the
  /// index-scan operator. Thread-safe: concurrent sample runs in the
  /// service layer may race to first use of an index; the build is
  /// serialized and the returned reference stays valid (map nodes are
  /// stable and entries are never erased).
  const std::vector<uint32_t>& OrderedIndex(int column) const;

  /// True if an ordered index has been declared for the column. Indexes are
  /// declared by the data generator on key/date columns; the planner only
  /// considers index scans on declared columns.
  bool HasIndex(int column) const { return declared_indexes_.count(column) > 0; }
  void DeclareIndex(int column) { declared_indexes_.emplace(column, true); }

  const std::vector<Value>& raw_values() const { return values_; }

 private:
  /// Bits of column_types_: which cell types a column has seen.
  static constexpr uint8_t kNumericSeen = 1;
  static constexpr uint8_t kStringSeen = 2;

  std::string name_;
  Schema schema_;
  std::vector<Value> values_;
  std::vector<std::vector<double>> columns_;
  std::vector<uint8_t> column_types_;
  std::map<int, bool> declared_indexes_;
  /// Guards the lazy build of ordered_indexes_ (see OrderedIndex). The
  /// references OrderedIndex hands out outlive the lock by design: map
  /// nodes are stable and entries are never erased, so only the build and
  /// the first lookup need serialization.
  mutable Mutex index_mu_;
  mutable std::map<int, std::vector<uint32_t>> ordered_indexes_
      UQP_GUARDED_BY(index_mu_);
};

}  // namespace uqp
