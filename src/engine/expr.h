#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "storage/table.h"
#include "storage/value.h"

namespace uqp {

/// Comparison operators for predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Boolean scalar expression tree over one row. Leaves compare a column
/// against a constant (range predicates are numeric-only; strings support
/// equality). Interior nodes are AND / OR / NOT.
///
/// Expressions deliberately stay simple: they are exactly the predicate
/// language the paper's workloads need (Picasso-style range selections,
/// TPC-H filters) and each comparison node counts as one CPU "operation"
/// for the c_o cost unit.
struct Expr {
  enum class Kind { kCmp, kCmpCol, kAnd, kOr, kNot };

  Kind kind = Kind::kCmp;
  // kCmp / kCmpCol:
  CmpOp op = CmpOp::kEq;
  int column = -1;
  Value constant;    // kCmp only
  int column2 = -1;  // kCmpCol only
  // kAnd / kOr / kNot:
  ExprPtr lhs;
  ExprPtr rhs;

  static ExprPtr Cmp(int column, CmpOp op, Value constant);
  /// column <op> column2 (numeric columns).
  static ExprPtr CmpColumns(int column, CmpOp op, int column2);
  static ExprPtr And(ExprPtr a, ExprPtr b);
  static ExprPtr Or(ExprPtr a, ExprPtr b);
  static ExprPtr Not(ExprPtr a);
  /// column BETWEEN lo AND hi (inclusive), as an AND of two comparisons.
  static ExprPtr Between(int column, Value lo, Value hi);
  /// String equality against an interned constant.
  static ExprPtr StrEq(int column, const std::string& s);

  std::string ToString(const Schema* schema = nullptr) const;
};

/// Evaluates a predicate against a row.
bool EvalPredicate(const Expr& e, RowRef row);

/// Vectorized predicate evaluation over a contiguous chunk of `n` rows
/// laid out row-major with `stride` values per row:
///   mask[i] = e(rows + i * stride)   for i in [0, n).
/// Column-at-a-time: each comparison node runs one tight loop over the
/// chunk instead of the per-row tree walk of EvalPredicate. ANDs narrow
/// the mask (right side only probes lanes still set), ORs widen it, so a
/// chunk evaluates the same comparisons the scalar path would up to
/// short-circuit granularity. Semantically identical to calling
/// EvalPredicate per row (predicates are pure).
///
/// This is the cell path: every comparison reads the strided 16-byte
/// Value cells. EvalPredicateColumns below adds the kernel path for
/// chunks that are rows of a Table.
void EvalPredicateBatch(const Expr& e, const Value* rows, int stride,
                        int64_t n, uint8_t* mask);

/// EvalPredicateBatch over rows [base, base + n) of `table`, with the same
/// result. Comparisons whose operands allow it run as branch-free kernels
/// over the table's contiguous column arrays (Table::column): a numeric
/// constant against an all-numeric column, two all-numeric columns, and
/// (in)equality of a string constant against an all-string column. They
/// reproduce Value::Compare / Equals on every input, NaN and int64 beyond
/// 2^53 included, and cannot abort. Every other comparison (mixed columns,
/// range comparisons on strings, type mismatches) takes the cell path, so
/// aborts and mismatch results are those of EvalPredicateBatch.
void EvalPredicateColumns(const Expr& e, const Table& table, int64_t base,
                          int64_t n, uint8_t* mask);

/// Number of comparison nodes (CPU operations charged per tuple).
int PredicateOpCount(const Expr* e);

/// Structural 64-bit fingerprint: kind, operator, columns and constants,
/// recursively. Stable within a process (string constants hash by interned
/// pool id); null hashes to a fixed tag. Used by PlanFingerprint.
uint64_t ExprFingerprint(const Expr* e);

/// Appends an unambiguous byte serialization of the expression tree to
/// `out`: two expressions serialize identically iff they are structurally
/// equal (same shape, operators, columns and constants; string constants
/// compare by interned pool id, like ExprFingerprint). Used by
/// PlanStructuralKey to confirm fingerprint cache hits exactly.
void AppendExprKey(const Expr* e, std::string* out);

/// Appends `v` to `out` as 8 little-endian bytes — the shared fixed-width
/// integer encoding of the structural-key serializations.
void AppendKeyU64(std::string* out, uint64_t v);

/// Deep copy of an expression tree: the result shares no Expr node with
/// the input (string constants still alias the process-wide intern pool,
/// which is immortal). Expressions are immutable and refcounted, so
/// sharing an ExprPtr is normally enough — this exists for owners that
/// must be independent of every allocation the builder made, e.g. the
/// service's plan registry, whose clones outlive the caller's plan.
ExprPtr CloneExprTree(const ExprPtr& e);

/// Remaps column indexes by adding `offset` (used when pushing predicates
/// above a join whose left side contributes `offset` columns).
ExprPtr ShiftColumns(const ExprPtr& e, int offset);

/// If the predicate is a conjunction of numeric comparisons that all refer
/// to `column`, intersects them into [*lo, *hi] and returns true. Used by
/// the index-scan operator and by the planner's access-path choice.
/// A null predicate is a valid (infinite) range.
bool TryExtractRange(const Expr* e, int column, double* lo, double* hi);

/// Loose variant for index scans with residual filters (PostgreSQL's
/// "Index Cond" + "Filter" split): walks top-level conjunctions, tightens
/// [*lo, *hi] from the comparisons on `column`, and reports:
///   *has_range — at least one comparison on `column` was found;
///   *pure      — the whole predicate was consumed by the range (no
///                residual conjuncts remain).
void CollectIndexRange(const Expr* e, int column, double* lo, double* hi,
                       bool* has_range, bool* pure);

}  // namespace uqp
