#include "service/fault.h"

#include <algorithm>
#include <cstring>

#include "engine/expr.h"  // AppendKeyU64: canonical fixed-width serialization

namespace uqp {

namespace {

/// splitmix64 finalizer: a strong 64-bit mix with no global state. Every
/// schedule draw below is Mix over (seed, fingerprint, attempt, salt) — a
/// pure function, so the whole fault schedule is pre-drawn by construction.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform draw in [0, 1) for one (seed, fingerprint, attempt, salt) cell.
double UnitDraw(uint64_t seed, uint64_t fingerprint, uint64_t attempt,
                uint64_t salt) {
  const uint64_t h = Mix(seed ^ Mix(fingerprint ^ Mix(attempt ^ Mix(salt))));
  // Top 53 bits -> [0, 1) with full double resolution.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void AppendBitsDouble(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  AppendKeyU64(out, bits);
}

void AppendDecision(std::string* out, const FaultDecision& d) {
  AppendKeyU64(out, static_cast<uint64_t>(d.status.code()));
  AppendBitsDouble(out, d.latency_ms);
}

}  // namespace

ScheduledFaultInjector::ScheduledFaultInjector(ScheduledFaultOptions options)
    : options_(std::move(options)) {}

const FaultRule& ScheduledFaultInjector::RuleFor(uint64_t fingerprint) const {
  const auto it = options_.rules.find(fingerprint);
  return it != options_.rules.end() ? it->second : options_.default_rule;
}

FaultDecision ScheduledFaultInjector::ScheduleAt(uint64_t fingerprint,
                                                 uint64_t attempt) const {
  const FaultRule& rule = RuleFor(fingerprint);
  FaultDecision d;
  const bool fail =
      attempt < rule.fail_attempts ||
      (rule.fail_prob > 0.0 &&
       UnitDraw(options_.seed, fingerprint, attempt, /*salt=*/1) <
           rule.fail_prob);
  if (fail) {
    d.status = Status::Unavailable("injected stage fault");
  }
  if (rule.latency_ms > 0.0 &&
      (rule.latency_prob >= 1.0 ||
       (rule.latency_prob > 0.0 &&
        UnitDraw(options_.seed, fingerprint, attempt, /*salt=*/2) <
            rule.latency_prob))) {
    d.latency_ms = rule.latency_ms;
  }
  return d;
}

FaultDecision ScheduledFaultInjector::OnSampleRun(uint64_t fingerprint) {
  uint64_t attempt = 0;
  {
    MutexLock lock(&mu_);
    attempt = attempts_[fingerprint]++;
  }
  const FaultDecision d = ScheduleAt(fingerprint, attempt);
  if (!d.status.ok()) faults_fired_.fetch_add(1, std::memory_order_relaxed);
  if (d.latency_ms > 0.0) {
    delays_fired_.fetch_add(1, std::memory_order_relaxed);
  }
  return d;
}

bool ScheduledFaultInjector::InjectSpuriousWakeup() {
  if (options_.spurious_every == 0) return false;
  const uint64_t n =
      spurious_probes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % options_.spurious_every != 0) return false;
  spurious_fired_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

uint64_t ScheduledFaultInjector::AttemptCount(uint64_t fingerprint) const {
  MutexLock lock(&mu_);
  const auto it = attempts_.find(fingerprint);
  return it != attempts_.end() ? it->second : 0;
}

std::string ScheduledFaultInjector::ScheduleBytes(
    const std::vector<uint64_t>& fingerprints, uint64_t attempts) const {
  std::string bytes;
  AppendKeyU64(&bytes, fingerprints.size());
  AppendKeyU64(&bytes, attempts);
  for (uint64_t fp : fingerprints) {
    AppendKeyU64(&bytes, fp);
    for (uint64_t a = 0; a < attempts; ++a) {
      AppendDecision(&bytes, ScheduleAt(fp, a));
    }
  }
  return bytes;
}

std::string ScheduledFaultInjector::FiredLogBytes() const {
  // Canonicalize: the attempt table is unordered, so collect and sort the
  // keys before serializing.
  std::vector<std::pair<uint64_t, uint64_t>> fired;
  {
    MutexLock lock(&mu_);
    fired.reserve(attempts_.size());
    for (auto it = attempts_.begin();  // det-lint: sorted-output
         it != attempts_.end(); ++it) {
      fired.emplace_back(it->first, it->second);
    }
  }
  std::sort(fired.begin(), fired.end());  // det-lint: sorted-output
  std::string bytes;
  AppendKeyU64(&bytes, fired.size());
  for (const auto& [fp, n] : fired) {
    AppendKeyU64(&bytes, fp);
    AppendKeyU64(&bytes, n);
    for (uint64_t a = 0; a < n; ++a) {
      AppendDecision(&bytes, ScheduleAt(fp, a));
    }
  }
  return bytes;
}

}  // namespace uqp
