#include "service/feedback.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace uqp {

const char* ToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

FamilyRegistry::FamilyRegistry(FeedbackOptions feedback,
                               BreakerOptions breaker, size_t shard_count)
    : feedback_(std::move(feedback)),
      breaker_(breaker),
      shards_(shard_count),
      mask_(shard_count - 1) {}

void FamilyRegistry::Push(Family* family, double error) const {
  if (family->window.size() != feedback_.window_size) {
    family->window.assign(feedback_.window_size, 0.0);
    family->next = 0;
    family->filled = 0;
  }
  family->window[family->next] = error;
  family->next = (family->next + 1) % feedback_.window_size;
  family->filled = std::min(family->filled + 1, feedback_.window_size);
  ++family->window_updates;
}

double FamilyRegistry::WindowMeanAbs(const Family& family) const {
  if (family.filled == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < family.filled; ++i) {
    sum += std::abs(family.window[i]);
  }
  return sum / static_cast<double>(family.filled);
}

FamilyRegistry::Action FamilyRegistry::Observe(uint64_t fingerprint,
                                               const ErrorFn& error_fn) {
  if (!feedback_enabled()) return Action::kDisabled;
  total_reports_.fetch_add(1, std::memory_order_relaxed);

  Shard& shard = ShardFor(fingerprint);
  MutexLock lock(&shard.mu);
  Family& family = shard.families[fingerprint];
  ++family.reports;

  if (family.converged) {
    // Converged families skip the combine and the window update entirely;
    // only every probe_interval-th report pays for one error computation.
    if (feedback_.probe_interval == 0 ||
        family.reports % feedback_.probe_interval != 0) {
      return Action::kSkippedConverged;
    }
    double error = 0.0;
    if (!error_fn(&family.stash, &error)) return Action::kDropped;
    if (std::abs(error) < feedback_.drift_threshold) return Action::kProbed;
    // The probe blew past the drift threshold: the world moved while we
    // weren't watching. Resume tracking with a fresh window.
    family.converged = false;
    family.window.clear();
    Push(&family, error);
    return Action::kResumed;
  }

  double error = 0.0;
  if (!error_fn(&family.stash, &error)) return Action::kDropped;
  Push(&family, error);
  if (family.filled < feedback_.window_size) return Action::kTracked;

  const double mean_abs = WindowMeanAbs(family);
  if (mean_abs <= feedback_.converge_threshold) {
    family.converged = true;
    return Action::kConverged;
  }
  if (mean_abs >= feedback_.drift_threshold) return Action::kDrift;
  return Action::kTracked;
}

bool FamilyRegistry::ClaimDrift() {
  MutexLock lock(&drift_mu_);
  const uint64_t total = total_reports_.load(std::memory_order_relaxed);
  if (any_claim_ &&
      total - reports_at_last_claim_ < feedback_.cooldown_reports) {
    return false;
  }
  any_claim_ = true;
  reports_at_last_claim_ = total;
  return true;
}

void FamilyRegistry::OnPublish() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (auto& kv : shard.families) {
      Family& family = kv.second;
      if (family.converged) continue;
      // Tracked windows mixed old-epoch errors; restart them against the
      // new snapshot's predictions.
      family.window.clear();
      family.next = 0;
      family.filled = 0;
    }
  }
}

BreakerDecision FamilyRegistry::Admit(uint64_t fingerprint) {
  BreakerDecision decision;
  if (!breaker_enabled()) return decision;
  Shard& shard = ShardFor(fingerprint);
  MutexLock lock(&shard.mu);
  const auto it = shard.families.find(fingerprint);
  if (it == shard.families.end()) return decision;  // never failed: admit
  Family& f = it->second;
  switch (f.state) {
    case BreakerState::kClosed:
      return decision;
    case BreakerState::kOpen:
      ++f.sheds_since_open;
      if (f.sheds_since_open >= breaker_.cooldown_requests &&
          !f.probe_inflight) {
        f.state = BreakerState::kHalfOpen;
        f.probe_inflight = true;
        decision.probe = true;
        return decision;
      }
      break;
    case BreakerState::kHalfOpen:
      // A probe is in flight (half-open always has one); everyone else
      // keeps shedding until its verdict lands.
      break;
  }
  ++f.shed;
  decision.shed = true;
  return decision;
}

bool FamilyRegistry::OnStageResult(uint64_t fingerprint, bool ok) {
  if (!breaker_enabled()) return false;
  Shard& shard = ShardFor(fingerprint);
  MutexLock lock(&shard.mu);
  if (ok) {
    // A success only resets a family that already has a record (one that
    // failed, opened or reported); a never-failed plan leaves no row, so
    // the table does not grow with every distinct plan predicted.
    const auto it = shard.families.find(fingerprint);
    if (it == shard.families.end()) return false;
    Family& f = it->second;
    f.state = BreakerState::kClosed;
    f.consecutive_failures = 0;
    f.sheds_since_open = 0;
    f.probe_inflight = false;
    return false;
  }
  Family& f = shard.families[fingerprint];
  ++f.consecutive_failures;
  const bool was_half_open = f.state == BreakerState::kHalfOpen;
  f.probe_inflight = false;
  if (was_half_open ||
      (f.state == BreakerState::kClosed &&
       f.consecutive_failures >= breaker_.failure_threshold)) {
    f.state = BreakerState::kOpen;
    f.sheds_since_open = 0;
    ++f.opens;
    return true;
  }
  return false;
}

size_t FamilyRegistry::family_count() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (const auto& kv : shard.families) {
      if (kv.second.reports > 0) ++count;
    }
  }
  return count;
}

size_t FamilyRegistry::converged_count() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (const auto& kv : shard.families) {
      if (kv.second.converged) ++count;
    }
  }
  return count;
}

bool FamilyRegistry::WindowedError(uint64_t fingerprint, double* error) const {
  if (!feedback_enabled()) return false;
  Shard& shard = ShardFor(fingerprint);
  MutexLock lock(&shard.mu);
  const auto it = shard.families.find(fingerprint);
  if (it == shard.families.end() || it->second.filled == 0) return false;
  *error = WindowMeanAbs(it->second);
  return true;
}

std::vector<FamilyFeedback> FamilyRegistry::Snapshot() const {
  std::vector<FamilyFeedback> out;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (const auto& kv : shard.families) {
      const Family& family = kv.second;
      FamilyFeedback ff;
      ff.fingerprint = kv.first;
      ff.reports = family.reports;
      ff.window_updates = family.window_updates;
      ff.converged = family.converged;
      ff.window.reserve(family.filled);
      // Unroll the ring oldest-first.
      const size_t start =
          family.filled < feedback_.window_size ? 0 : family.next;
      for (size_t i = 0; i < family.filled; ++i) {
        ff.window.push_back(
            family.window[(start + i) % feedback_.window_size]);
      }
      ff.windowed_mean_abs_error = WindowMeanAbs(family);
      ff.stash = family.stash;
      ff.breaker_state = ToString(family.state);
      ff.breaker_consecutive_failures = family.consecutive_failures;
      ff.breaker_opens = family.opens;
      ff.breaker_shed = family.shed;
      out.push_back(std::move(ff));
    }
  }
  std::sort(out.begin(), out.end(),  // det-lint: sorted-output
            [](const FamilyFeedback& a, const FamilyFeedback& b) {
              return a.fingerprint < b.fingerprint;
            });
  return out;
}

}  // namespace uqp
