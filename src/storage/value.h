#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace uqp {

/// Column data types. Strings are dictionary-interned (see StringPool) so a
/// Value is a fixed-size 16-byte cell and tables can be stored as flat
/// row-major arrays.
enum class ValueType : uint8_t { kInt64, kDouble, kString };

const char* ValueTypeName(ValueType t);

/// Process-wide string interning pool. Ids are dense and stable for the
/// lifetime of the process; all randomized flows in the library are
/// deterministic, so id assignment is reproducible run to run.
class StringPool {
 public:
  static StringPool& Global();

  /// Returns the id for `s`, interning it if necessary.
  int32_t Intern(const std::string& s);

  /// Returns the string for an id; the id must be valid.
  const std::string& Lookup(int32_t id) const;

  size_t size() const { return strings_.size(); }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, int32_t> index_;
};

/// A fixed-size tagged scalar cell.
struct Value {
  ValueType type = ValueType::kInt64;
  union {
    int64_t i;
    double d;
    int32_t s;  ///< StringPool id
  };

  Value() : i(0) {}

  static Value Int64(int64_t v) {
    Value out;
    out.type = ValueType::kInt64;
    out.i = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type = ValueType::kDouble;
    out.d = v;
    return out;
  }
  static Value String(const std::string& v) {
    Value out;
    out.type = ValueType::kString;
    out.s = StringPool::Global().Intern(v);
    return out;
  }
  static Value InternedString(int32_t id) {
    Value out;
    out.type = ValueType::kString;
    out.s = id;
    return out;
  }

  int64_t AsInt64() const;
  /// Numeric coercion: int64 promotes to double; a string aborts.
  double AsDouble() const {
    if (type == ValueType::kDouble) return d;
    if (type == ValueType::kInt64) return static_cast<double>(i);
    NotNumeric();
  }
  const std::string& AsString() const;

  /// Total order within a type: numeric order for numbers, pool-id equality
  /// semantics for strings (string ordering is only used for equality and
  /// hashing; range predicates are restricted to numeric columns).
  bool Equals(const Value& o) const {
    if (type == ValueType::kString || o.type == ValueType::kString) {
      return type == o.type && s == o.s;
    }
    return AsDouble() == o.AsDouble();
  }
  /// Numeric-only three-way comparison; both values must be numeric.
  int Compare(const Value& o) const {
    const double a = AsDouble();
    const double b = o.AsDouble();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }

  /// Numeric cells hash inline (join build/probe and GEE hash every key
  /// cell); int-valued doubles hash like their int64 counterparts so
  /// cross-type equi-joins behave. Strings hash their pool id out of line.
  uint64_t Hash() const {
    if (type == ValueType::kInt64) {
      return std::hash<int64_t>{}(i) * 0x9e3779b97f4a7c15ULL;
    }
    if (type == ValueType::kDouble) {
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d)) * 0x9e3779b97f4a7c15ULL;
      }
      return std::hash<double>{}(d) * 0x9e3779b97f4a7c15ULL;
    }
    return StringHash();
  }

  std::string ToString() const;

 private:
  /// Out of line so the numeric accessors above stay small enough to
  /// inline into every per-cell loop.
  [[noreturn]] static void NotNumeric();
  uint64_t StringHash() const;
};

static_assert(sizeof(Value) == 16, "Value must stay a compact 16-byte cell");

/// Mixes one 64-bit value into a running hash (golden-ratio combine).
/// The single mixing function behind multi-column row hashing (joins,
/// grouping) and the structural expr/plan fingerprints.
inline uint64_t HashMix64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace uqp
