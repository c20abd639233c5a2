#include "engine/expr.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace uqp {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

ExprPtr Expr::Cmp(int column, CmpOp op, Value constant) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kCmp;
  e->column = column;
  e->op = op;
  e->constant = constant;
  return e;
}

ExprPtr Expr::CmpColumns(int column, CmpOp op, int column2) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kCmpCol;
  e->column = column;
  e->op = op;
  e->column2 = column2;
  return e;
}

ExprPtr Expr::And(ExprPtr a, ExprPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kAnd;
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr Expr::Or(ExprPtr a, ExprPtr b) {
  UQP_CHECK(a != nullptr && b != nullptr);
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kOr;
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr Expr::Not(ExprPtr a) {
  UQP_CHECK(a != nullptr);
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kNot;
  e->lhs = std::move(a);
  return e;
}

ExprPtr Expr::Between(int column, Value lo, Value hi) {
  return And(Cmp(column, CmpOp::kGe, lo), Cmp(column, CmpOp::kLe, hi));
}

ExprPtr Expr::StrEq(int column, const std::string& s) {
  return Cmp(column, CmpOp::kEq, Value::String(s));
}

std::string Expr::ToString(const Schema* schema) const {
  switch (kind) {
    case Kind::kCmp: {
      std::string col = schema != nullptr && column < schema->num_columns()
                            ? schema->column(column).name
                            : "$" + std::to_string(column);
      return col + " " + CmpOpName(op) + " " + constant.ToString();
    }
    case Kind::kCmpCol: {
      auto name = [schema](int c) {
        return schema != nullptr && c < schema->num_columns()
                   ? schema->column(c).name
                   : "$" + std::to_string(c);
      };
      return name(column) + " " + CmpOpName(op) + " " + name(column2);
    }
    case Kind::kAnd:
      return "(" + lhs->ToString(schema) + " AND " + rhs->ToString(schema) + ")";
    case Kind::kOr:
      return "(" + lhs->ToString(schema) + " OR " + rhs->ToString(schema) + ")";
    case Kind::kNot:
      return "NOT (" + lhs->ToString(schema) + ")";
  }
  return "?";
}

bool EvalPredicate(const Expr& e, RowRef row) {
  switch (e.kind) {
    case Expr::Kind::kCmp: {
      const Value& v = row[e.column];
      switch (e.op) {
        case CmpOp::kEq:
          return v.Equals(e.constant);
        case CmpOp::kNe:
          return !v.Equals(e.constant);
        case CmpOp::kLt:
          return v.Compare(e.constant) < 0;
        case CmpOp::kLe:
          return v.Compare(e.constant) <= 0;
        case CmpOp::kGt:
          return v.Compare(e.constant) > 0;
        case CmpOp::kGe:
          return v.Compare(e.constant) >= 0;
      }
      return false;
    }
    case Expr::Kind::kCmpCol: {
      const int cmp = row[e.column].Compare(row[e.column2]);
      switch (e.op) {
        case CmpOp::kEq:
          return cmp == 0;
        case CmpOp::kNe:
          return cmp != 0;
        case CmpOp::kLt:
          return cmp < 0;
        case CmpOp::kLe:
          return cmp <= 0;
        case CmpOp::kGt:
          return cmp > 0;
        case CmpOp::kGe:
          return cmp >= 0;
      }
      return false;
    }
    case Expr::Kind::kAnd:
      return EvalPredicate(*e.lhs, row) && EvalPredicate(*e.rhs, row);
    case Expr::Kind::kOr:
      return EvalPredicate(*e.lhs, row) || EvalPredicate(*e.rhs, row);
    case Expr::Kind::kNot:
      return !EvalPredicate(*e.lhs, row);
  }
  return false;
}

namespace {

/// How a comparison node combines into the chunk mask.
enum class MaskMode {
  kFill,    ///< mask[i] = p(i)
  kNarrow,  ///< mask[i] &= p(i), lanes already clear are skipped (AND)
  kWiden,   ///< mask[i] |= p(i), lanes already set are skipped (OR)
};

/// Cell path: `pred` may abort (a range comparison on a string), so it
/// runs only on the lanes whose result can still change, as the per-row
/// short-circuit would.
template <typename RowPred>
void ApplyMask(MaskMode mode, int64_t n, uint8_t* mask, RowPred pred) {
  switch (mode) {
    case MaskMode::kFill:
      for (int64_t i = 0; i < n; ++i) mask[i] = pred(i) ? 1 : 0;
      break;
    case MaskMode::kNarrow:
      for (int64_t i = 0; i < n; ++i) {
        if (mask[i] != 0 && !pred(i)) mask[i] = 0;
      }
      break;
    case MaskMode::kWiden:
      for (int64_t i = 0; i < n; ++i) {
        if (mask[i] == 0 && pred(i)) mask[i] = 1;
      }
      break;
  }
}

/// Kernel path: `pred` cannot abort, so every lane evaluates it and the
/// loops stay branch-free. GCC vectorizes them where the target packs
/// double compares into byte masks (e.g. -mavx2); at the baseline x86-64
/// target they run as scalar compare-and-set loops.
template <typename RowPred>
void ApplyMaskDense(MaskMode mode, int64_t n, uint8_t* mask, RowPred pred) {
  switch (mode) {
    case MaskMode::kFill:
      for (int64_t i = 0; i < n; ++i) mask[i] = pred(i);
      break;
    case MaskMode::kNarrow:
      for (int64_t i = 0; i < n; ++i) mask[i] &= pred(i);
      break;
    case MaskMode::kWiden:
      for (int64_t i = 0; i < n; ++i) mask[i] |= pred(i);
      break;
  }
}

/// `a[i] <op> b(i)` over doubles with EvalPredicate's outcome on every
/// input. Ranges follow Value::Compare, which returns 0 when either side is
/// NaN: <= is "not >" and >= is "not <". A constant comparison's = and <>
/// follow Value::Equals (plain ==, false on NaN); a column-column one's
/// follow Compare == 0 (`three_way`), which holds on NaN.
template <typename Rhs>
void CompareDense(CmpOp op, bool three_way, MaskMode mode, int64_t n,
                  uint8_t* mask, const double* a, Rhs b) {
  switch (op) {
    case CmpOp::kEq:
      if (three_way) {
        ApplyMaskDense(mode, n, mask,
                       [&](int64_t i) { return !(a[i] < b(i)) & !(a[i] > b(i)); });
      } else {
        ApplyMaskDense(mode, n, mask, [&](int64_t i) { return a[i] == b(i); });
      }
      break;
    case CmpOp::kNe:
      if (three_way) {
        ApplyMaskDense(mode, n, mask,
                       [&](int64_t i) { return (a[i] < b(i)) | (a[i] > b(i)); });
      } else {
        ApplyMaskDense(mode, n, mask, [&](int64_t i) { return a[i] != b(i); });
      }
      break;
    case CmpOp::kLt:
      ApplyMaskDense(mode, n, mask, [&](int64_t i) { return a[i] < b(i); });
      break;
    case CmpOp::kLe:
      ApplyMaskDense(mode, n, mask, [&](int64_t i) { return !(a[i] > b(i)); });
      break;
    case CmpOp::kGt:
      ApplyMaskDense(mode, n, mask, [&](int64_t i) { return a[i] > b(i); });
      break;
    case CmpOp::kGe:
      ApplyMaskDense(mode, n, mask, [&](int64_t i) { return !(a[i] < b(i)); });
      break;
  }
}

/// The chunk a batch evaluation reads: `n` rows of `stride` cells from
/// `rows`, and, when they are rows [base, base + n) of `table`, that
/// table's column arrays.
struct Chunk {
  const Value* rows;
  int stride;
  const Table* table;
  int64_t base;
};

/// Runs a comparison node on the table's column arrays when its operands
/// allow it: a numeric constant against an all-numeric column, two
/// all-numeric columns, or string (in)equality on an all-string column.
/// None of these can abort. Returns false, having done nothing, otherwise.
bool TryColumnKernel(const Expr& e, const Chunk& src, int64_t n, uint8_t* mask,
                     MaskMode mode) {
  if (src.table == nullptr) return false;
  const Table& t = *src.table;
  const ColumnKind kind = t.column_kind(e.column);
  const double* a = t.column(e.column).data() + src.base;
  if (e.kind == Expr::Kind::kCmpCol) {
    if (kind != ColumnKind::kNumeric ||
        t.column_kind(e.column2) != ColumnKind::kNumeric) {
      return false;
    }
    const double* b = t.column(e.column2).data() + src.base;
    CompareDense(e.op, /*three_way=*/true, mode, n, mask, a,
                 [b](int64_t i) { return b[i]; });
    return true;
  }
  const Value& c = e.constant;
  const bool numeric = kind == ColumnKind::kNumeric && c.type != ValueType::kString;
  const bool string_eq = kind == ColumnKind::kString &&
                         c.type == ValueType::kString &&
                         (e.op == CmpOp::kEq || e.op == CmpOp::kNe);
  if (!numeric && !string_eq) return false;
  const double rhs = numeric ? c.AsDouble() : static_cast<double>(c.s);
  CompareDense(e.op, /*three_way=*/false, mode, n, mask, a,
               [rhs](int64_t) { return rhs; });
  return true;
}

void EvalBatchImpl(const Expr& e, const Chunk& src, int64_t n, uint8_t* mask,
                   MaskMode mode) {
  const int stride = src.stride;
  switch (e.kind) {
    case Expr::Kind::kCmp: {
      if (TryColumnKernel(e, src, n, mask, mode)) return;
      const Value& c = e.constant;
      const Value* col = src.rows + e.column;
      auto cell = [col, stride](int64_t i) -> const Value& {
        return col[i * stride];
      };
      switch (e.op) {
        case CmpOp::kEq:
          ApplyMask(mode, n, mask, [&](int64_t i) { return cell(i).Equals(c); });
          break;
        case CmpOp::kNe:
          ApplyMask(mode, n, mask, [&](int64_t i) { return !cell(i).Equals(c); });
          break;
        case CmpOp::kLt:
          ApplyMask(mode, n, mask,
                    [&](int64_t i) { return cell(i).Compare(c) < 0; });
          break;
        case CmpOp::kLe:
          ApplyMask(mode, n, mask,
                    [&](int64_t i) { return cell(i).Compare(c) <= 0; });
          break;
        case CmpOp::kGt:
          ApplyMask(mode, n, mask,
                    [&](int64_t i) { return cell(i).Compare(c) > 0; });
          break;
        case CmpOp::kGe:
          ApplyMask(mode, n, mask,
                    [&](int64_t i) { return cell(i).Compare(c) >= 0; });
          break;
      }
      return;
    }
    case Expr::Kind::kCmpCol: {
      if (TryColumnKernel(e, src, n, mask, mode)) return;
      const Value* a = src.rows + e.column;
      const Value* b = src.rows + e.column2;
      auto cmp3 = [a, b, stride](int64_t i) {
        return a[i * stride].Compare(b[i * stride]);
      };
      switch (e.op) {
        case CmpOp::kEq:
          ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) == 0; });
          break;
        case CmpOp::kNe:
          ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) != 0; });
          break;
        case CmpOp::kLt:
          ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) < 0; });
          break;
        case CmpOp::kLe:
          ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) <= 0; });
          break;
        case CmpOp::kGt:
          ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) > 0; });
          break;
        case CmpOp::kGe:
          ApplyMask(mode, n, mask, [&](int64_t i) { return cmp3(i) >= 0; });
          break;
      }
      return;
    }
    case Expr::Kind::kAnd:
      if (mode == MaskMode::kWiden) {
        // mask |= (a AND b): materialize the conjunction in a scratch mask.
        std::vector<uint8_t> tmp(static_cast<size_t>(n));
        EvalBatchImpl(*e.lhs, src, n, tmp.data(), MaskMode::kFill);
        EvalBatchImpl(*e.rhs, src, n, tmp.data(), MaskMode::kNarrow);
        for (int64_t i = 0; i < n; ++i) mask[i] |= tmp[static_cast<size_t>(i)];
        return;
      }
      EvalBatchImpl(*e.lhs, src, n, mask, mode);
      EvalBatchImpl(*e.rhs, src, n, mask, MaskMode::kNarrow);
      return;
    case Expr::Kind::kOr:
      if (mode == MaskMode::kNarrow) {
        // mask &= (a OR b): materialize the disjunction in a scratch mask.
        std::vector<uint8_t> tmp(static_cast<size_t>(n));
        EvalBatchImpl(*e.lhs, src, n, tmp.data(), MaskMode::kFill);
        EvalBatchImpl(*e.rhs, src, n, tmp.data(), MaskMode::kWiden);
        for (int64_t i = 0; i < n; ++i) mask[i] &= tmp[static_cast<size_t>(i)];
        return;
      }
      EvalBatchImpl(*e.lhs, src, n, mask, mode);
      EvalBatchImpl(*e.rhs, src, n, mask, MaskMode::kWiden);
      return;
    case Expr::Kind::kNot: {
      std::vector<uint8_t> tmp(static_cast<size_t>(n));
      EvalBatchImpl(*e.lhs, src, n, tmp.data(), MaskMode::kFill);
      ApplyMaskDense(mode, n, mask,
                     [&](int64_t i) { return tmp[static_cast<size_t>(i)] == 0; });
      return;
    }
  }
}

}  // namespace

void EvalPredicateBatch(const Expr& e, const Value* rows, int stride,
                        int64_t n, uint8_t* mask) {
  EvalBatchImpl(e, Chunk{rows, stride, nullptr, 0}, n, mask, MaskMode::kFill);
}

void EvalPredicateColumns(const Expr& e, const Table& table, int64_t base,
                          int64_t n, uint8_t* mask) {
  const int stride = table.schema().num_columns();
  EvalBatchImpl(e, Chunk{table.raw_values().data() + base * stride, stride, &table, base},
                n, mask, MaskMode::kFill);
}

int PredicateOpCount(const Expr* e) {
  if (e == nullptr) return 0;
  switch (e->kind) {
    case Expr::Kind::kCmp:
    case Expr::Kind::kCmpCol:
      return 1;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      return PredicateOpCount(e->lhs.get()) + PredicateOpCount(e->rhs.get());
    case Expr::Kind::kNot:
      return PredicateOpCount(e->lhs.get());
  }
  return 0;
}

uint64_t ExprFingerprint(const Expr* e) {
  if (e == nullptr) return 0x9ae16a3b2f90404fULL;  // null-predicate tag
  uint64_t h = 0xc3a5c85c97cb3127ULL;
  h = HashMix64(h, static_cast<uint64_t>(e->kind));
  switch (e->kind) {
    case Expr::Kind::kCmp:
      h = HashMix64(h, static_cast<uint64_t>(e->op));
      h = HashMix64(h, static_cast<uint64_t>(e->column));
      h = HashMix64(h, e->constant.Hash());
      break;
    case Expr::Kind::kCmpCol:
      h = HashMix64(h, static_cast<uint64_t>(e->op));
      h = HashMix64(h, static_cast<uint64_t>(e->column));
      h = HashMix64(h, static_cast<uint64_t>(e->column2));
      break;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      h = HashMix64(h, ExprFingerprint(e->lhs.get()));
      h = HashMix64(h, ExprFingerprint(e->rhs.get()));
      break;
    case Expr::Kind::kNot:
      h = HashMix64(h, ExprFingerprint(e->lhs.get()));
      break;
  }
  return h;
}

void AppendKeyU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

namespace {

void AppendKeyValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.type));
  // The union is 8 bytes for every type (string constants are interned
  // pool ids, stable within a process); serialize the widest member.
  uint64_t bits = 0;
  static_assert(sizeof(v.i) == sizeof(bits), "value payload must be 8 bytes");
  std::memcpy(&bits, &v.i, sizeof(bits));
  AppendKeyU64(out, bits);
}

}  // namespace

void AppendExprKey(const Expr* e, std::string* out) {
  if (e == nullptr) {
    out->push_back('\0');  // null-predicate tag
    return;
  }
  out->push_back(static_cast<char>(static_cast<int>(e->kind) + 1));
  switch (e->kind) {
    case Expr::Kind::kCmp:
      out->push_back(static_cast<char>(e->op));
      AppendKeyU64(out, static_cast<uint64_t>(e->column));
      AppendKeyValue(out, e->constant);
      break;
    case Expr::Kind::kCmpCol:
      out->push_back(static_cast<char>(e->op));
      AppendKeyU64(out, static_cast<uint64_t>(e->column));
      AppendKeyU64(out, static_cast<uint64_t>(e->column2));
      break;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      AppendExprKey(e->lhs.get(), out);
      AppendExprKey(e->rhs.get(), out);
      break;
    case Expr::Kind::kNot:
      AppendExprKey(e->lhs.get(), out);
      break;
  }
}

bool TryExtractRange(const Expr* e, int column, double* lo, double* hi) {
  if (e == nullptr) return true;
  switch (e->kind) {
    case Expr::Kind::kAnd:
      return TryExtractRange(e->lhs.get(), column, lo, hi) &&
             TryExtractRange(e->rhs.get(), column, lo, hi);
    case Expr::Kind::kCmp: {
      if (e->column != column || e->constant.type == ValueType::kString) {
        return false;
      }
      const double v = e->constant.AsDouble();
      switch (e->op) {
        case CmpOp::kEq:
          *lo = std::max(*lo, v);
          *hi = std::min(*hi, v);
          return true;
        case CmpOp::kLe:
          *hi = std::min(*hi, v);
          return true;
        case CmpOp::kLt:
          *hi = std::min(*hi, std::nextafter(v, -1e300));
          return true;
        case CmpOp::kGe:
          *lo = std::max(*lo, v);
          return true;
        case CmpOp::kGt:
          *lo = std::max(*lo, std::nextafter(v, 1e300));
          return true;
        default:
          return false;
      }
    }
    default:
      return false;
  }
}

void CollectIndexRange(const Expr* e, int column, double* lo, double* hi,
                       bool* has_range, bool* pure) {
  if (e == nullptr) return;
  switch (e->kind) {
    case Expr::Kind::kAnd:
      CollectIndexRange(e->lhs.get(), column, lo, hi, has_range, pure);
      CollectIndexRange(e->rhs.get(), column, lo, hi, has_range, pure);
      return;
    case Expr::Kind::kCmp: {
      double clo = -std::numeric_limits<double>::infinity();
      double chi = std::numeric_limits<double>::infinity();
      if (e->column == column && TryExtractRange(e, column, &clo, &chi)) {
        *lo = std::max(*lo, clo);
        *hi = std::min(*hi, chi);
        *has_range = true;
        return;
      }
      *pure = false;
      return;
    }
    default:
      // OR / NOT / column-column conjuncts stay in the residual filter.
      *pure = false;
      return;
  }
}

ExprPtr CloneExprTree(const ExprPtr& e) {
  if (e == nullptr) return nullptr;
  auto out = std::make_shared<Expr>(*e);
  out->lhs = CloneExprTree(e->lhs);
  out->rhs = CloneExprTree(e->rhs);
  return out;
}

ExprPtr ShiftColumns(const ExprPtr& e, int offset) {
  if (e == nullptr) return nullptr;
  auto out = std::make_shared<Expr>(*e);
  if (e->kind == Expr::Kind::kCmp) {
    out->column += offset;
  } else if (e->kind == Expr::Kind::kCmpCol) {
    out->column += offset;
    out->column2 += offset;
  } else {
    out->lhs = ShiftColumns(e->lhs, offset);
    out->rhs = ShiftColumns(e->rhs, offset);
  }
  return out;
}

}  // namespace uqp
