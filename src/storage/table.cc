#include "storage/table.h"

#include <algorithm>

#include "common/logging.h"

namespace uqp {

int64_t Table::rows_per_page() const {
  const int width = schema_.TupleWidthBytes();
  return std::max<int64_t>(1, kPageSizeBytes / std::max(1, width));
}

int64_t Table::num_pages() const {
  const int64_t rows = num_rows();
  if (rows == 0) return 1;
  const int64_t rpp = rows_per_page();
  return (rows + rpp - 1) / rpp;
}

void Table::AppendRow(const std::vector<Value>& row) {
  UQP_DCHECK(static_cast<int>(row.size()) == schema_.num_columns());
  AppendRow(row.data());
}

void Table::AppendRow(const Value* row) {
  const int n = schema_.num_columns();
  values_.insert(values_.end(), row, row + n);
  for (int c = 0; c < n; ++c) {
    const Value& v = row[c];
    const bool str = v.type == ValueType::kString;
    columns_[static_cast<size_t>(c)].push_back(str ? static_cast<double>(v.s)
                                                   : v.AsDouble());
    column_types_[static_cast<size_t>(c)] |= str ? kStringSeen : kNumericSeen;
  }
}

void Table::Reserve(int64_t rows) {
  values_.reserve(static_cast<size_t>(rows) * schema_.num_columns());
  for (std::vector<double>& col : columns_) col.reserve(static_cast<size_t>(rows));
}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  // Stage the guarded state under the source's lock, then install it under
  // our own: the two critical sections never nest, so two threads
  // cross-assigning a pair of tables cannot deadlock — and each guarded
  // access happens under exactly its own table's mutex.
  std::map<int, std::vector<uint32_t>> indexes;
  {
    MutexLock lock(&other.index_mu_);
    indexes = other.ordered_indexes_;
  }
  name_ = other.name_;
  schema_ = other.schema_;
  values_ = other.values_;
  columns_ = other.columns_;
  column_types_ = other.column_types_;
  declared_indexes_ = other.declared_indexes_;
  MutexLock lock(&index_mu_);
  ordered_indexes_ = std::move(indexes);
  return *this;
}

Table& Table::operator=(Table&& other) {
  if (this == &other) return *this;
  std::map<int, std::vector<uint32_t>> indexes;
  {
    MutexLock lock(&other.index_mu_);
    indexes = std::move(other.ordered_indexes_);
    other.ordered_indexes_.clear();
  }
  name_ = std::move(other.name_);
  schema_ = std::move(other.schema_);
  values_ = std::move(other.values_);
  columns_ = std::move(other.columns_);
  column_types_ = std::move(other.column_types_);
  declared_indexes_ = std::move(other.declared_indexes_);
  MutexLock lock(&index_mu_);
  ordered_indexes_ = std::move(indexes);
  return *this;
}

const std::vector<uint32_t>& Table::OrderedIndex(int column) const {
  MutexLock lock(&index_mu_);
  auto it = ordered_indexes_.find(column);
  if (it != ordered_indexes_.end()) return it->second;
  const int64_t rows = num_rows();
  std::vector<uint32_t> idx(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) idx[static_cast<size_t>(r)] = static_cast<uint32_t>(r);
  std::sort(idx.begin(), idx.end(), [this, column](uint32_t a, uint32_t b) {
    return at(a, column).AsDouble() < at(b, column).AsDouble();
  });
  auto [pos, _] = ordered_indexes_.emplace(column, std::move(idx));
  return pos->second;
}

}  // namespace uqp
