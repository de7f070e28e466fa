#ifndef DLSYS_FLEET_ROUTER_H_
#define DLSYS_FLEET_ROUTER_H_

#include <cstdint>
#include <vector>

#include "src/core/status.h"

/// \file router.h
/// \brief Deterministic health-checked request routing for the fleet.
///
/// Three classic policies, all pure functions of (policy state, replica
/// view, request index) so routing replays bit-for-bit:
///
///  - **round_robin** — a cursor over routable replicas; blind to load,
///    which is exactly why gray failures hurt it (E35).
///  - **least_loaded** — minimum queue depth, backlog time and then the
///    lowest index as deterministic tiebreaks; routes around replicas
///    whose queues balloon even when health checks still pass.
///  - **power_of_two** — two seeded hash draws, pick the less loaded;
///    the classic O(1) approximation of least-loaded whose draws come
///    from the same SplitMix64 family as the fault injector, so they
///    replay at any DLSYS_THREADS.
///
/// Health is tracked by a probe state machine on the simulated clock: a
/// replica leaves the routable set after `failure_threshold` consecutive
/// failed probes and rejoins after `recovery_threshold` consecutive
/// successes. The window between a crash and its detection is real: the
/// router keeps sending to a dead-but-undetected replica and those
/// requests fail, which is what the fleet's availability metrics charge
/// for slow health checking. Gray failures answer probes by design.

namespace dlsys {

/// \brief Routing policy of a fleet front door.
enum class RoutePolicy {
  kRoundRobin,
  kLeastLoaded,
  kPowerOfTwo,
};

/// \brief Stable lowercase name ("round_robin", ...).
const char* RoutePolicyName(RoutePolicy policy);

/// \brief The router's per-replica view at one pick.
struct ReplicaView {
  bool routable = false;     ///< in the rotation (healthy, active)
  int64_t queue_depth = 0;   ///< admitted-but-undispatched requests
  double backlog_ms = 0.0;   ///< earliest worker free time minus now
};

/// \brief Deterministic policy router. Not thread-safe (the fleet driver
/// is a single-threaded event loop).
class Router {
 public:
  Router(RoutePolicy policy, uint64_t seed)
      : policy_(policy), seed_(seed) {}

  /// \brief Picks a routable replica for request \p request_index, or -1
  /// when none is routable. Deterministic for a fixed (seed, view
  /// sequence, request_index sequence). Allocates only when \p view is
  /// longer than every earlier one.
  int Pick(const std::vector<ReplicaView>& view, int64_t request_index);

  RoutePolicy policy() const { return policy_; }

 private:
  /// Less-loaded comparison: queue depth, then backlog, then index.
  static bool LighterThan(const ReplicaView& a, int ia,
                          const ReplicaView& b, int ib);

  RoutePolicy policy_;
  uint64_t seed_;
  int64_t rr_cursor_ = 0;
  std::vector<int> routable_;  ///< Pick's scratch: routable replica indices
};

/// \brief Probe-driven health state machine for the fleet's replicas.
struct HealthCheckConfig {
  double interval_ms = 200.0;  ///< probe period on the simulated clock
  int failure_threshold = 2;   ///< consecutive failures → unroutable
  int recovery_threshold = 2;  ///< consecutive successes → routable
};

/// \brief Validates probe interval > 0 and thresholds >= 1.
Status ValidateHealthCheckConfig(const HealthCheckConfig& config);

/// \brief Tracks per-replica probe streaks and the resulting routable
/// verdict. Replicas start healthy (a freshly provisioned replica joins
/// the rotation once its server exists).
class HealthTracker {
 public:
  HealthTracker(const HealthCheckConfig& config, int replicas);

  /// \brief Feeds one probe result for \p replica.
  void Probe(int replica, bool ok);

  /// \brief Current routable verdict for \p replica.
  bool healthy(int replica) const {
    return state_[static_cast<size_t>(replica)].healthy;
  }

  /// \brief Resets \p replica to the initial healthy state (used when a
  /// fresh incarnation replaces a crashed one after its probes pass; the
  /// fleet instead calls MarkUnhealthy at crash detection).
  void Reset(int replica);

  /// \brief Forces \p replica out of the rotation immediately (e.g. the
  /// drain path, where the fleet *knows* rather than probes).
  void MarkUnhealthy(int replica);

 private:
  struct State {
    bool healthy = true;
    int ok_streak = 0;
    int fail_streak = 0;
  };
  HealthCheckConfig config_;
  std::vector<State> state_;
};

}  // namespace dlsys

#endif  // DLSYS_FLEET_ROUTER_H_
