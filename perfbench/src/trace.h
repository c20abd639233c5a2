#pragma once

// In-memory spans recorded by the benchmark around its calls into the
// program. Each load thread owns one Lane, so recording takes no lock; the
// lanes are merged and written out once the run is over.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval. `parent` is 0 for a root span; `request` groups the
/// spans of one request (or one replayed plan); `tag` is a span-specific
/// label (hit/miss class, plan node id).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t tag = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Fixed-capacity span buffer of one thread. Ids are unique across lanes:
/// the lane number sits in the high 32 bits.
class Lane {
 public:
  Lane(uint32_t lane_no, size_t capacity) : lane_no_(lane_no), capacity_(capacity) {
    spans_.reserve(capacity);
  }

  bool full() const { return spans_.size() >= capacity_; }

  /// Opens a span starting now and returns its id; 0 when the lane is full
  /// (the span is then not recorded, and Close(0) is a no-op).
  uint64_t Open(const char* name, uint64_t parent, uint64_t request,
                int64_t tag = 0) {
    if (full()) return 0;
    Span s;
    s.id = (static_cast<uint64_t>(lane_no_) << 32) | (spans_.size() + 1);
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.tag = tag;
    s.start_ns = NowNs();
    spans_.push_back(s);
    return s.id;
  }

  void Close(uint64_t id) {
    if (id == 0) return;
    spans_[Index(id)].end_ns = NowNs();
  }

  /// Records an interval already timed by the caller; returns its id, or 0
  /// when the lane is full.
  uint64_t Record(const char* name, uint64_t parent, uint64_t request,
                  int64_t start_ns, int64_t end_ns, int64_t tag = 0) {
    const uint64_t id = Open(name, parent, request, tag);
    if (id != 0) {
      spans_[Index(id)].start_ns = start_ns;
      spans_[Index(id)].end_ns = end_ns;
    }
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  size_t Index(uint64_t id) const { return static_cast<size_t>(id & 0xffffffffu) - 1; }

  uint32_t lane_no_;
  size_t capacity_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may overlap
/// each other (concurrent work) and may stick out of the parent; only the
/// covered part of the parent's own interval is subtracted. Aligned with
/// `spans`.
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - union_ns;
  }
  return self;
}

/// Writes spans and their self times (as SelfTimesNs computes them) as
/// tab-separated lines (id, parent, request, name, start_ns, end_ns, tag,
/// self_ns) under a header line. Returns false when the file cannot be
/// written.
inline bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                       const std::vector<int64_t>& self) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\ttag\tself_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%lld\t%lld\n",
                 (unsigned long long)s.id, (unsigned long long)s.parent,
                 (unsigned long long)s.request, s.name, (long long)s.start_ns,
                 (long long)s.end_ns, (long long)s.tag, (long long)self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
