#include "src/fleet/router.h"

namespace dlsys {

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr uint64_t kRouteTag = 0x2070ULL;

}  // namespace

const char* RoutePolicyName(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kRoundRobin:
      return "round_robin";
    case RoutePolicy::kLeastLoaded:
      return "least_loaded";
    case RoutePolicy::kPowerOfTwo:
      return "power_of_two";
  }
  return "unknown";
}

bool Router::LighterThan(const ReplicaView& a, int ia, const ReplicaView& b,
                         int ib) {
  if (a.queue_depth != b.queue_depth) return a.queue_depth < b.queue_depth;
  if (a.backlog_ms != b.backlog_ms) return a.backlog_ms < b.backlog_ms;
  return ia < ib;
}

int Router::Pick(const std::vector<ReplicaView>& view, int64_t request_index) {
  const int n = static_cast<int>(view.size());
  std::vector<int>& routable = routable_;
  routable.clear();
  for (int i = 0; i < n; ++i) {
    if (view[static_cast<size_t>(i)].routable) routable.push_back(i);
  }
  if (routable.empty()) return -1;

  switch (policy_) {
    case RoutePolicy::kRoundRobin: {
      // The cursor walks replica *slots*, not the routable subset, so a
      // replica rejoining the rotation lands back in its old turn order.
      for (int step = 0; step < n; ++step) {
        const int candidate = static_cast<int>((rr_cursor_ + step) % n);
        if (view[static_cast<size_t>(candidate)].routable) {
          rr_cursor_ = candidate + 1;
          return candidate;
        }
      }
      return -1;  // unreachable: routable is non-empty
    }
    case RoutePolicy::kLeastLoaded: {
      int best = routable[0];
      for (size_t i = 1; i < routable.size(); ++i) {
        const int c = routable[i];
        if (LighterThan(view[static_cast<size_t>(c)], c,
                        view[static_cast<size_t>(best)], best)) {
          best = c;
        }
      }
      return best;
    }
    case RoutePolicy::kPowerOfTwo: {
      const uint64_t m = static_cast<uint64_t>(routable.size());
      const uint64_t d1 =
          Mix64(seed_ ^ Mix64(kRouteTag ^
                              static_cast<uint64_t>(request_index))) % m;
      uint64_t d2 =
          Mix64(seed_ ^ Mix64(kRouteTag ^ 0x9D5ULL ^
                              static_cast<uint64_t>(request_index))) % m;
      if (m > 1 && d2 == d1) d2 = (d2 + 1) % m;  // force distinct choices
      const int a = routable[d1];
      const int b = routable[d2];
      return LighterThan(view[static_cast<size_t>(a)], a,
                         view[static_cast<size_t>(b)], b)
                 ? a
                 : b;
    }
  }
  return -1;
}

Status ValidateHealthCheckConfig(const HealthCheckConfig& config) {
  if (!(config.interval_ms > 0.0)) {
    return Status::InvalidArgument("health interval_ms must be positive");
  }
  if (config.failure_threshold < 1) {
    return Status::InvalidArgument("failure_threshold must be >= 1");
  }
  if (config.recovery_threshold < 1) {
    return Status::InvalidArgument("recovery_threshold must be >= 1");
  }
  return Status::OK();
}

HealthTracker::HealthTracker(const HealthCheckConfig& config, int replicas)
    : config_(config), state_(static_cast<size_t>(replicas)) {}

void HealthTracker::Probe(int replica, bool ok) {
  State& s = state_[static_cast<size_t>(replica)];
  if (ok) {
    s.fail_streak = 0;
    ++s.ok_streak;
    if (!s.healthy && s.ok_streak >= config_.recovery_threshold) {
      s.healthy = true;
    }
  } else {
    s.ok_streak = 0;
    ++s.fail_streak;
    if (s.healthy && s.fail_streak >= config_.failure_threshold) {
      s.healthy = false;
    }
  }
}

void HealthTracker::Reset(int replica) {
  state_[static_cast<size_t>(replica)] = State{};
}

void HealthTracker::MarkUnhealthy(int replica) {
  State& s = state_[static_cast<size_t>(replica)];
  s.healthy = false;
  s.ok_streak = 0;
  s.fail_streak = config_.failure_threshold;
}

}  // namespace dlsys
