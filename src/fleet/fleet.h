#ifndef DLSYS_FLEET_FLEET_H_
#define DLSYS_FLEET_FLEET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/distributed/faults.h"
#include "src/distributed/network_model.h"
#include "src/fleet/autoscaler.h"
#include "src/fleet/chaos.h"
#include "src/fleet/router.h"
#include "src/nn/sequential.h"
#include "src/obs/attribution.h"
#include "src/obs/slo.h"
#include "src/serve/loadgen.h"
#include "src/serve/server.h"

/// \file fleet.h
/// \brief Datacenter-scale serving simulation: replica groups of the
/// PR-4 Server behind a health-checked router, autoscaled and chaos-
/// tested on one shared simulated clock.
///
/// ## Composition
///
/// Each replica slot owns a full PR-4 serving stack (ModelRegistry +
/// Server). The fleet driver is a single-threaded loop over fixed
/// simulated ticks. Per tick, in this order, it:
///
///  1. fires replica timers: provisioning and restarts complete, drains
///     finish;
///  2. applies the chaos event transitions due (a scenario compiles onto
///     the distributed FaultInjector with replicas as workers and ticks
///     as rounds); a bad-version rollout starts the canary;
///  3. takes the canary's bake verdict: roll back, or push fleet-wide;
///  4. crashes the replicas the fault plan schedules for this tick;
///  5. runs the health probes due;
///  6. runs the autoscaler decisions due;
///  7. routes and submits this tick's trace arrivals;
///  8. advances every serving replica to the tick end and hands what it
///     dispatched to the request ledger;
///  9. lands the responses due by the tick end.
///
/// Two components own one decision each. The *request ledger* is the
/// only code that records how a request ends: offered, admitted, shed,
/// delivered in time, late, lost on a dead route, or lost in a crash. It
/// holds the responses in flight, tallies the SLO windows, tenant rows,
/// attribution and burn-rate alerts, and checks request conservation
/// before Run returns. The *canary* owns the bake: its replica, start,
/// severity, the traffic it was offered and how much of it degraded,
/// and the per-replica latency history its p99 check compares. The
/// replica lifecycle steps (timers, crashes, scaling) use the health
/// tracker, the report, the canary and republishing, which is all the
/// driver holds, so they stay inline in the loop, each in one place.
///
/// Request *execution* stays real — dispatched batches run through each
/// server's compiled engine replicas — while every *decision* (routing,
/// admission, scaling, rollback) is a function of simulated quantities
/// only. The same (seed, scenario, load) therefore replays bit-for-bit
/// at any DLSYS_THREADS: FleetReportJson exports and the sim-track trace
/// slice are byte-identical (test-enforced).
///
/// ## SLO accounting
///
/// A request's client-observed latency is forward network hop + server
/// completion + return hop, all simulated; it misses when that exceeds
/// its end-to-end deadline. Requests routed to a crashed-but-undetected
/// replica fail after the network timeout; requests queued or executing
/// on a replica when it crashes die with it. Windowed goodput / p99 /
/// miss / shed series feed the recovery metric: time-to-recover is the
/// first post-fault window where the served fraction (completed_ok /
/// offered, which is robust to diurnal load swings) returns to >= 90%
/// of its pre-fault mean and stays there for `recover_streak` windows.

namespace dlsys {

/// \brief How a crashed replica comes back.
enum class FleetRecovery {
  /// Rejoin after a short restart: the replica slot keeps its compiled
  /// registry (the checkpointed state) and only pays `restart_ms`.
  kCheckpointedRestart,
  /// Replace the instance: a fresh server is provisioned and the model
  /// republished, paying the full `replace_ms` provision time.
  kColdReplace,
};

/// \brief Stable lowercase name ("checkpointed_restart", "cold_replace").
const char* FleetRecoveryName(FleetRecovery recovery);

/// \brief Canary watchdog for bad-version rollouts.
struct CanaryConfig {
  bool auto_rollback = true;   ///< roll back on a failed bake, vs push on
  double bake_ms = 1500.0;     ///< observe the canary replica this long
  /// The canary fails its bake when (missed + shed) / offered on the
  /// canary replica since rollout exceeds this.
  double max_degraded_fraction = 0.2;
  /// The canary also fails its bake when the windowed p99 of its
  /// client-observed latency during the bake exceeds this factor times
  /// its pre-rollout p99 — catching latency lemons whose responses still
  /// land inside the deadline (so max_degraded_fraction never fires).
  /// 0 disables the check.
  double max_p99_regression = 3.0;
  /// Minimum latency samples in both the pre-rollout baseline and the
  /// bake window before the p99 comparison is trusted.
  int min_p99_samples = 30;
};

struct FleetConfig {
  int replica_slots = 4;      ///< autoscaler ceiling; servers prebuilt
  int initial_replicas = 2;   ///< active at t = 0
  ServerConfig server;        ///< every replica's front-door config
  RoutePolicy route = RoutePolicy::kRoundRobin;
  HealthCheckConfig health;
  AutoscalerConfig autoscale;
  NetworkModel network;       ///< request/response hop cost model
  int64_t request_bytes = 4096;
  int64_t response_bytes = 512;
  FleetRecovery recovery = FleetRecovery::kCheckpointedRestart;
  double restart_ms = 1500.0;  ///< checkpointed-restart downtime
  double replace_ms = 4000.0;  ///< cold-replace provisioning time
  CanaryConfig canary;
  double tick_ms = 50.0;    ///< driver tick == chaos round quantum
  double window_ms = 500.0; ///< SLO metric window
  /// Consecutive windows with the served fraction back at >= 90% of its
  /// pre-fault mean before the fleet counts as recovered.
  int recover_streak = 3;
  uint64_t seed = 1;        ///< routing draws (folded with scenario seed)
  /// Critical-path attribution series (window width, exemplar count).
  obs::AttributionConfig attribution;
  /// Multi-window SLO burn-rate alerting over the per-request critical
  /// paths. slo.slo_latency_ms <= 0 counts only missed deadlines as
  /// budget burn (the default).
  obs::BurnRateConfig slo;
};

/// \brief Validates every user-settable field (server config included).
Status ValidateFleetConfig(const FleetConfig& config);

/// \brief One SLO metric window of a fleet run. All simulated.
struct FleetWindow {
  double start_ms = 0.0;
  int64_t offered = 0;
  int64_t completed_ok = 0;  ///< finished within deadline
  int64_t missed = 0;        ///< finished late or failed on a dead replica
  int64_t shed = 0;          ///< turned away (all reasons)
  double p99_ms = 0.0;       ///< client-observed latency p99 in the window
  double goodput_rps = 0.0;  ///< completed_ok per simulated second
  int active_replicas = 0;   ///< at window close
};

/// \brief Everything a fleet run reports. All simulated quantities; the
/// JSON export is byte-stable under replay.
struct FleetReport {
  std::string scenario;
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t completed_ok = 0;
  int64_t missed = 0;  ///< late completions + dead-replica failures
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  int64_t shed_draining = 0;
  int64_t shed_unhealthy = 0;  ///< no routable replica at arrival
  int64_t failed_dead_replica = 0;  ///< routed into the detection gap
  int64_t dropped_queued = 0;       ///< died queued on a crashing replica
  int64_t crashes = 0;
  int64_t restarts = 0;
  int64_t rollouts = 0;
  int64_t rollbacks = 0;
  int64_t p99_rollbacks = 0;  ///< rollbacks where the windowed-p99
                              ///< regression check (co-)fired
  int64_t scale_ups = 0;
  int64_t scale_downs = 0;
  double p99_ms = 0.0;              ///< overall client-observed p99
  double duration_ms = 0.0;         ///< simulated load window span
  double steady_goodput_rps = 0.0;  ///< mean over pre-fault windows
  double fault_start_ms = -1.0;     ///< first chaos event; -1 when none
  double time_to_recover_ms = -1.0; ///< -1: no fault or never recovered
  std::vector<FleetWindow> windows;

  /// \brief Per-tenant slice of the fleet's end-to-end accounting, filled
  /// when the load declares a tenant_mix (empty otherwise).
  struct TenantRow {
    int64_t offered = 0;
    int64_t admitted = 0;
    int64_t completed_ok = 0;
    int64_t missed = 0;  ///< late/lost deliveries incl. dead-replica routes
    int64_t shed = 0;    ///< turned away at admission or routing
  };
  /// Keyed by tenant name; map order makes the JSON export byte-stable.
  std::map<std::string, TenantRow> tenants;

  /// One critical-path record per delivered request (deliver order):
  /// boundary timestamps in integer sim-ns whose component differences
  /// sum bitwise to the client-observed latency. Crash-invalidated and
  /// dead-replica requests have no record (their latency is unmeasured).
  std::vector<obs::RequestPathRecord> path_records;
  /// Windowed per-component series (fleet / tenant / replica scopes)
  /// with k-slowest exemplars; export with AttributionReportJson.
  obs::AttributionReport attribution;
  /// Burn-rate alert edges (time, scope, dominant component), in time
  /// order; empty on clean runs under the default thresholds.
  std::vector<obs::BurnAlert> alerts;

  double goodput_rps() const;       ///< completed_ok over duration_ms
  double miss_fraction() const;     ///< missed / offered
  double shed_fraction() const;     ///< all sheds / offered
};

/// \brief Renders \p report as deterministic JSON (fixed field order,
/// fixed float formatting, simulated values only — byte-comparable
/// across runs and DLSYS_THREADS; the CI determinism step diffs it).
std::string FleetReportJson(const FleetReport& report);

/// \brief N replica groups behind a router on one simulated clock.
class Fleet {
 public:
  /// \brief Validates \p config and builds every replica slot's serving
  /// stack (servers exist up front; only `initial_replicas` are active).
  static Result<std::unique_ptr<Fleet>> Create(const FleetConfig& config);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet();

  /// \brief Takes ownership of the model and publishes it as v1 of
  /// \p model on every replica slot. Cold replacements, bad-version
  /// rollouts, and rollbacks republish from this net through each
  /// replica registry's hot-swap path.
  Status Deploy(const std::string& model, Sequential net,
                const Shape& example_shape);

  /// \brief Runs \p load (whose model must match Deploy) through the
  /// fleet under \p scenario and returns the SLO report. Call once per
  /// Fleet instance (the run consumes the replica clocks). Requires
  /// Deploy.
  Result<FleetReport> Run(const ChaosScenario& scenario,
                          const TraceLoadConfig& load);

  const FleetConfig& config() const { return config_; }

  /// \brief Declared-cost-model capacity of one replica at full batches,
  /// in requests per simulated second — the autoscaler's sizing unit.
  static double ReplicaCapacityRps(const ServerConfig& server);

 private:
  explicit Fleet(const FleetConfig& config);

  struct Replica;  ///< defined in fleet.cc

  FleetConfig config_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::string model_;
  Sequential net_;
  Shape example_shape_;
  bool deployed_ = false;
  bool ran_ = false;
};

}  // namespace dlsys

#endif  // DLSYS_FLEET_FLEET_H_
