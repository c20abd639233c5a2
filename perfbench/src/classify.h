#pragma once

// Hit/miss classification from outside the service. A prediction aliases
// the cached stage-1 artifact (Prediction::sample_run), so a request that
// returns a sample_run pointer other than the one last seen for its plan
// was served by a fresh stage-1 run: a miss. One returning the same pointer
// was served from an existing artifact: a hit. The first request seen for a
// plan cannot be classified: its artifact may predate the tracking.

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

enum class HitMiss { kUnknown, kHit, kMiss };

class SampleRunTracker {
 public:
  explicit SampleRunTracker(size_t num_plans) : slots_(num_plans) {}

  /// Classifies a request of `plan` that returned artifact `run` and
  /// records `run` as the plan's latest. The tracker keeps the latest
  /// artifact alive, so a freed artifact's address cannot be reused by a
  /// later run of the same plan and be mistaken for a hit. A hit only
  /// compares the address, without touching the artifact's reference count.
  template <typename T>
  HitMiss Classify(size_t plan, const std::shared_ptr<T>& run) {
    Slot& s = slots_[plan];
    if (run != nullptr && s.last_raw.load(std::memory_order_acquire) == run.get()) {
      return HitMiss::kHit;
    }
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.last != nullptr && s.last.get() == run.get()) return HitMiss::kHit;
    const bool first = s.last == nullptr;
    // The previous artifact is released only after last_raw has moved on,
    // so the fast path never compares against a freed address.
    std::shared_ptr<const void> previous = std::move(s.last);
    s.last = run;
    s.last_raw.store(run.get(), std::memory_order_release);
    return first ? HitMiss::kUnknown : HitMiss::kMiss;
  }

 private:
  struct Slot {
    std::atomic<const void*> last_raw{nullptr};
    std::mutex mu;
    std::shared_ptr<const void> last;  ///< guarded by mu
  };
  std::vector<Slot> slots_;
};

}  // namespace perfbench
