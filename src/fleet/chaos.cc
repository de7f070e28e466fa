#include "src/fleet/chaos.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dlsys {

namespace {

/// SplitMix64 finalizer — the same full-avalanche mix the FaultInjector
/// uses, applied here to rank replicas into correlated affected sets.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr uint64_t kTargetTag = 0xF1EE7ULL;

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashStorm:
      return "crash_storm";
    case FaultKind::kSlowPartition:
      return "slow_partition";
    case FaultKind::kGrayFailure:
      return "gray_failure";
    case FaultKind::kBadVersionRollout:
      return "bad_version_rollout";
  }
  return "unknown";
}

Status ValidateChaosScenario(const ChaosScenario& scenario) {
  for (const FleetFaultEvent& e : scenario.events) {
    if (!(e.start_ms >= 0.0) || !std::isfinite(e.start_ms)) {
      return Status::InvalidArgument(
          "fault start_ms must be finite and non-negative");
    }
    if (!(e.duration_ms >= 0.0) || !std::isfinite(e.duration_ms)) {
      return Status::InvalidArgument(
          "fault duration_ms must be finite and non-negative");
    }
    if (!(e.fraction > 0.0) || e.fraction > 1.0) {
      return Status::InvalidArgument("fault fraction must be in (0, 1]");
    }
    if (!(e.severity >= 1.0) || !std::isfinite(e.severity)) {
      return Status::InvalidArgument("fault severity must be >= 1");
    }
  }
  return Status::OK();
}

Result<CompiledChaos> CompileChaos(const ChaosScenario& scenario,
                                   int replica_slots, double tick_ms) {
  DLSYS_RETURN_NOT_OK(ValidateChaosScenario(scenario));
  if (replica_slots < 1) {
    return Status::InvalidArgument("replica_slots must be >= 1");
  }
  if (!(tick_ms > 0.0)) {
    return Status::InvalidArgument("tick_ms must be positive");
  }

  CompiledChaos out;
  out.plan.seed = scenario.seed;

  for (size_t ei = 0; ei < scenario.events.size(); ++ei) {
    const FleetFaultEvent& e = scenario.events[ei];
    // Correlated affected set: rank every slot by a seeded hash and take
    // the top ceil(fraction * slots). One event, one subset — the storm
    // is correlated by construction, and the subset replays bit-for-bit.
    std::vector<int> order(static_cast<size_t>(replica_slots));
    std::iota(order.begin(), order.end(), 0);
    std::vector<uint64_t> rank(order.size());
    for (int r = 0; r < replica_slots; ++r) {
      rank[static_cast<size_t>(r)] =
          Mix64(scenario.seed ^ Mix64(kTargetTag ^ Mix64(ei) ^
                                      static_cast<uint64_t>(r)));
    }
    std::sort(order.begin(), order.end(), [&rank](int a, int b) {
      const uint64_t ra = rank[static_cast<size_t>(a)];
      const uint64_t rb = rank[static_cast<size_t>(b)];
      return ra != rb ? ra < rb : a < b;
    });
    const int hit = std::min(
        replica_slots,
        static_cast<int>(std::ceil(e.fraction * replica_slots)));
    std::vector<int> targets(order.begin(), order.begin() + hit);
    std::sort(targets.begin(), targets.end());

    if (e.kind == FaultKind::kCrashStorm) {
      const int64_t round = static_cast<int64_t>(e.start_ms / tick_ms);
      for (int r : targets) {
        out.plan.crashes.push_back(CrashEvent{round, r});
      }
    }
    out.targets.push_back(std::move(targets));
  }
  DLSYS_RETURN_NOT_OK(ValidateFaultPlan(out.plan, replica_slots));
  return out;
}

Result<ChaosScenario> MakeScenario(const std::string& name,
                                   double time_scale) {
  if (!(time_scale > 0.0)) {
    return Status::InvalidArgument("time_scale must be positive");
  }
  ChaosScenario s;
  s.name = name;
  s.seed = 0x5CE4A210ULL;
  const double t0 = 8000.0 * time_scale;  ///< canonical fault instant
  if (name == "steady" || name == "flash_crowd") {
    // No injected faults; flash_crowd differs only in the load shape the
    // harness pairs with it.
    return s;
  }
  if (name == "crash_storm") {
    FleetFaultEvent e;
    e.kind = FaultKind::kCrashStorm;
    e.start_ms = t0;
    e.fraction = 0.5;
    s.events.push_back(e);
    return s;
  }
  if (name == "slow_partition") {
    FleetFaultEvent e;
    e.kind = FaultKind::kSlowPartition;
    e.start_ms = t0;
    e.duration_ms = 6000.0 * time_scale;
    e.fraction = 0.5;
    e.severity = 40.0;  ///< per-hop latency ×40: cross-zone, not down
    s.events.push_back(e);
    return s;
  }
  if (name == "gray_failure") {
    FleetFaultEvent e;
    e.kind = FaultKind::kGrayFailure;
    e.start_ms = t0;
    e.duration_ms = 6000.0 * time_scale;
    e.fraction = 0.34;  ///< one replica of a 3-wide group
    e.severity = 8.0;
    s.events.push_back(e);
    return s;
  }
  if (name == "bad_version") {
    FleetFaultEvent e;
    e.kind = FaultKind::kBadVersionRollout;
    e.start_ms = t0;
    e.fraction = 1.0;   ///< rollout wants the whole fleet eventually
    /// The new version serves 24× slower: a full batch under the E35
    /// grid's cost model blows through the 40 ms deadline, so the canary
    /// metric sees the degradation and the bake fails. (A milder lemon
    /// that only inflates p99 inside the deadline sails through — the
    /// canary watches the degraded fraction, not latency percentiles.)
    e.severity = 24.0;
    s.events.push_back(e);
    return s;
  }
  return Status::InvalidArgument("unknown chaos scenario '" + name + "'");
}

std::vector<std::string> ScenarioNames() {
  return {"steady",       "flash_crowd",  "crash_storm",
          "slow_partition", "gray_failure", "bad_version"};
}

}  // namespace dlsys
