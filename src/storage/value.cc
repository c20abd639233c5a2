#include "storage/value.h"

#include <functional>

#include "common/logging.h"

namespace uqp {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

StringPool& StringPool::Global() {
  static StringPool* pool = new StringPool();
  return *pool;
}

int32_t StringPool::Intern(const std::string& s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const int32_t id = static_cast<int32_t>(strings_.size());
  strings_.push_back(s);
  index_.emplace(s, id);
  return id;
}

const std::string& StringPool::Lookup(int32_t id) const {
  UQP_CHECK(id >= 0 && static_cast<size_t>(id) < strings_.size())
      << "bad string pool id " << id;
  return strings_[id];
}

int64_t Value::AsInt64() const {
  UQP_DCHECK(type == ValueType::kInt64);
  return i;
}

void Value::NotNumeric() {
  UQP_CHECK(false) << "string value is not numeric";
}

const std::string& Value::AsString() const {
  UQP_DCHECK(type == ValueType::kString);
  return StringPool::Global().Lookup(s);
}

uint64_t Value::StringHash() const {
  return std::hash<int32_t>{}(s) * 0xbf58476d1ce4e5b9ULL;
}

std::string Value::ToString() const {
  switch (type) {
    case ValueType::kInt64:
      return std::to_string(i);
    case ValueType::kDouble:
      return std::to_string(d);
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

}  // namespace uqp
