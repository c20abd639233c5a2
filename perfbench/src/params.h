#pragma once

// Workload parameters, passed by run.py from perfbench/workloads.json as
// key=value pairs. Every getter fails on a missing key, so the JSON file is
// the only place a parameter's value is written down.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

namespace perfbench {

class Params {
 public:
  /// Parses one "key=value" argument; false when malformed.
  bool Add(const std::string& kv) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    values_[kv.substr(0, eq)] = kv.substr(eq + 1);
    return true;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  const std::string& Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "perfbench: missing workload parameter '%s'\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

  double Num(const std::string& key) const {
    const std::string& s = Str(key);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') {
      std::fprintf(stderr, "perfbench: parameter '%s' is not a number: %s\n",
                   key.c_str(), s.c_str());
      std::exit(2);
    }
    return v;
  }

  int64_t Int(const std::string& key) const { return static_cast<int64_t>(Num(key)); }

  const std::map<std::string, std::string>& all() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace perfbench
