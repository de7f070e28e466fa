#ifndef DLSYS_FLEET_CHAOS_H_
#define DLSYS_FLEET_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/distributed/faults.h"

/// \file chaos.h
/// \brief Taxonomy-driven fault grammar for the serving fleet.
///
/// The scenario vocabulary is lifted from the Taxonomy of Real Faults in
/// DL Systems (1910.11015) and the distributed-training fault taxonomy
/// (2007.03970), projected onto a serving fleet:
///
///  - **Crash storm** — a correlated subset of replicas dies at once
///    (rack power, bad kernel rollout). Queued work is lost; recovery is
///    governed by the fleet's restart policy.
///  - **Slow-network partition** — a subset's request/response hops see
///    NetworkModel latency inflated by `severity`; the replicas stay
///    healthy and correct, just far away.
///  - **Gray failure** — a subset keeps answering health checks but
///    serves `severity`× slower (the classic differential-observability
///    failure: probes see liveness, clients see latency).
///  - **Bad-version rollout** — a new model version whose service cost is
///    `severity`× the declared model is canaried onto one replica; the
///    fleet's canary metric decides rollback (through the registry's
///    hot-swap path) or fleet-wide rollout.
///
/// A scenario *compiles* onto the PR-2 `FaultPlan`/`FaultInjector`
/// machinery with serving replicas standing where training workers stood
/// and fleet driver ticks standing where rounds stood: crash storms
/// become scheduled CrashEvents that the injector fires at their
/// (replica, tick). The same (seed, scenario) therefore replays the
/// exact same fault trace bit-for-bit at any DLSYS_THREADS.

namespace dlsys {

/// \brief The four serving-fleet fault archetypes.
enum class FaultKind {
  kCrashStorm,
  kSlowPartition,
  kGrayFailure,
  kBadVersionRollout,
};

/// \brief Stable lowercase name ("crash_storm", ...).
const char* FaultKindName(FaultKind kind);

/// \brief One staged fault: \p kind hits a deterministic \p fraction of
/// the replica slots at \p start_ms. Interval faults (slow partition,
/// gray failure) lift after \p duration_ms; crash storms ignore it (the
/// recovery policy owns the timeline) and bad-version rollouts run the
/// canary state machine from \p start_ms on.
struct FleetFaultEvent {
  FaultKind kind = FaultKind::kCrashStorm;
  double start_ms = 0.0;
  double duration_ms = 0.0;
  double fraction = 0.5;   ///< of replica slots affected, ceil'd to >= 1
  double severity = 4.0;   ///< slowdown / latency multiplier (>= 1)
};

/// \brief Declarative, seed-replayable chaos for one fleet run.
struct ChaosScenario {
  std::string name = "steady";
  uint64_t seed = 0;  ///< folded into every affected-set draw
  std::vector<FleetFaultEvent> events;
};

/// \brief Validates event times, fractions in (0, 1] and severities >= 1.
/// InvalidArgument otherwise.
Status ValidateChaosScenario(const ChaosScenario& scenario);

/// \brief A scenario lowered onto replica slots and driver ticks.
struct CompiledChaos {
  /// Replicas-as-workers fault plan: scheduled crashes for every crash
  /// storm target (round = tick index). Feed to
  /// FaultInjector(plan, replica_slots).
  FaultPlan plan;
  /// Per event (same order as scenario.events), the affected replicas.
  std::vector<std::vector<int>> targets;
};

/// \brief Compiles \p scenario for \p replica_slots replicas with the
/// fleet driver ticking every \p tick_ms. Affected sets are chosen by a
/// seeded ranking over (scenario.seed, event index, replica), so they
/// are correlated (one event hits one deterministic subset) and stable
/// under replay. Requires a validated scenario; replica_slots >= 1,
/// tick_ms > 0.
Result<CompiledChaos> CompileChaos(const ChaosScenario& scenario,
                                   int replica_slots, double tick_ms);

/// \brief Named scenario library shared by bench_fleet, test_fleet, and
/// examples/fleet_chaos: "steady", "flash_crowd" (load-side only),
/// "crash_storm", "slow_partition", "gray_failure", "bad_version".
/// Times assume the canonical E35 run: load from 0 with faults landing
/// at 8 s into a ~24 s window (scaled by \p time_scale; smoke passes
/// < 1). InvalidArgument for unknown names.
Result<ChaosScenario> MakeScenario(const std::string& name,
                                   double time_scale = 1.0);

/// \brief All MakeScenario names, in E35 grid order.
std::vector<std::string> ScenarioNames();

}  // namespace dlsys

#endif  // DLSYS_FLEET_CHAOS_H_
