#ifndef DLSYS_SERVE_LOADGEN_H_
#define DLSYS_SERVE_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/serve/server.h"

/// \file loadgen.h
/// \brief Deterministic load harness for the serving layer.
///
/// Two canonical client models from the serving-benchmark literature:
/// an **open-loop** generator (seeded Poisson process — arrivals keep
/// coming whether or not the server keeps up, which is what exposes
/// overload behavior and makes shed-rate curves meaningful) and a
/// **closed-loop** generator (each simulated client waits for its
/// response plus a think time before sending again — throughput
/// self-limits, which is what exposes latency under feasible load).
///
/// Both run entirely on the server's simulated clock with seeded Rng
/// draws, so a fixed config replays bit for bit: identical admissions,
/// sheds, batches, versions, and outputs. Only the engine's measured
/// wall time differs between runs, and it never feeds any decision.
/// Every request of a run carries the same seeded example: nothing reads
/// a driver's outputs, so a fresh payload per request would only time
/// the Rng.

namespace dlsys {

/// \brief Closed-loop workload: \p clients independent request loops.
struct ClosedLoopConfig {
  uint64_t seed = 1;         ///< draws the run's one example
  int64_t clients = 4;
  int64_t requests_per_client = 100;
  double think_ms = 1.0;     ///< client pause between response and resend
  double deadline_ms = 0.0;  ///< per-request budget; <= 0 uses the default
  std::string model = "model";
};

/// \brief Aggregate outcome of one load run.
struct LoadReport {
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t shed = 0;  ///< queue-full + deadline sheds + unknown model
  int64_t completed = 0;
  int64_t deadline_missed = 0;
  double duration_ms = 0.0;   ///< simulated makespan (last finish - start)
  double wall_seconds = 0.0;  ///< real time the run took (informational)
  LatencyHistogram latency;   ///< simulated finish - arrival, admitted only
  /// completed / simulated duration (requests per simulated second)
  double sim_throughput_rps = 0.0;
  /// completed / wall_seconds (requests per real second; informational)
  double real_throughput_rps = 0.0;
};

/// \brief One tenant's slice of a multi-tenant arrival stream: requests
/// are attributed to \p tenant with probability share / sum(shares).
struct TenantShare {
  std::string tenant;
  double share = 1.0;
};

/// \brief \p n equal-share tenants named "t0" .. "t<n-1>".
std::vector<TenantShare> BalancedTenantMix(int n);

/// \brief Adversarial mix: "t0" offers \p hot_factor times the share of
/// each of the other \p n - 1 tenants — the hot-tenant workload the
/// fairness tests and bench E37 drive.
std::vector<TenantShare> HotTenantMix(int n, double hot_factor);

/// \brief Materializes the per-arrival tenant assignment for \p n
/// arrivals: seeded categorical draws over the shares of \p mix.
/// Deterministic, and independent of the arrival-gap stream and the
/// example RunTenantedOpenLoop forks from the same seed — callers with
/// their own arrival process (the fleet) get the identical assignment by
/// calling this with the same (mix, seed, n). Empty mix returns an empty
/// vector.
std::vector<std::string> AssignTenants(const std::vector<TenantShare>& mix,
                                       uint64_t seed, int64_t n);

/// \brief Seeded Poisson open-loop workload, attributed across tenants.
struct OpenLoopConfig {
  uint64_t seed = 1;         ///< drives arrivals, tenants and the example
  int64_t requests = 1000;   ///< total arrivals to offer
  double rate_rps = 1000.0;  ///< aggregate mean arrival rate (requests / s)
  double deadline_ms = 0.0;  ///< per-request budget; <= 0 uses the default
  std::string model = "model";
  double start_ms = 0.0;     ///< simulated time of the first gap's origin
  std::vector<TenantShare> mix;  ///< empty behaves as one "default" tenant
};

/// \brief Per-tenant breakdown of one tenanted load run.
struct TenantedLoadReport {
  LoadReport total;
  std::map<std::string, LoadReport> by_tenant;
  /// (completed - deadline_missed) / simulated duration, per tenant.
  std::map<std::string, double> goodput_rps;
  /// max over min per-tenant goodput — the fairness bound the tests pin;
  /// infinity when some offered-to tenant got no goodput at all.
  double max_min_goodput_ratio = 1.0;
};

/// \brief Drives \p server with a seeded Poisson stream whose requests
/// carry tenant ids drawn from config.mix, then drains it. The tenant
/// assignment is exactly AssignTenants(mix, seed, requests). The report
/// counts only this run's requests, so traffic queued before the call
/// and drained by it is not charged to the run. \p before_submit
/// (optional) runs before each arrival with the 0-based request index —
/// the hook test_serve and bench_serving use to hot-swap the model
/// mid-load. It publishes and never submits: the run's requests are the
/// consecutive Submit ids starting at its first.
TenantedLoadReport RunTenantedOpenLoop(
    Server* server, const OpenLoopConfig& config,
    const std::function<void(int64_t)>& before_submit = {});

/// \brief The aggregate (TenantedLoadReport::total) of
/// RunTenantedOpenLoop.
LoadReport RunOpenLoop(Server* server, const OpenLoopConfig& config,
                       const std::function<void(int64_t)>& before_submit = {});

/// \brief One flash crowd: offered rate multiplies by \p multiplier for
/// [start_ms, start_ms + duration_ms) on top of the diurnal baseline.
struct FlashCrowd {
  double start_ms = 0.0;
  double duration_ms = 0.0;
  double multiplier = 1.0;
};

/// \brief Trace-shaped open-loop workload: a diurnal sinusoid plus flash
/// crowds, the canonical datacenter arrival pattern the fleet simulation
/// replays. rate(t) = base_rps * (1 + diurnal_amplitude *
/// sin(2*pi*(t - start_ms)/diurnal_period_ms)) * crowd(t), floored at 0.
struct TraceLoadConfig {
  uint64_t seed = 1;
  double start_ms = 0.0;
  double duration_ms = 10'000.0;
  double base_rps = 1000.0;
  double diurnal_amplitude = 0.0;     ///< in [0, 1): peak-to-mean swing
  double diurnal_period_ms = 10'000.0;
  std::vector<FlashCrowd> crowds;
  double deadline_ms = 0.0;  ///< per-request budget; <= 0 uses the default
  std::string model = "model";
  /// Tenant attribution of the arrivals (AssignTenants over this mix and
  /// the same seed); empty leaves the stream untenanted — byte-identical
  /// behavior to before the QoS layer existed.
  std::vector<TenantShare> tenant_mix;
};

/// \brief Instantaneous offered rate of \p config at simulated \p t_ms.
double TraceRateAt(const TraceLoadConfig& config, double t_ms);

/// \brief Peak of TraceRateAt over the window — the thinning envelope and
/// the capacity planner's sizing input.
double TracePeakRate(const TraceLoadConfig& config);

/// \brief Materializes the arrival instants of \p config by thinning a
/// seeded Poisson process at the peak rate: candidate gaps are drawn at
/// TracePeakRate and kept with probability rate(t)/peak. Deterministic
/// for a fixed config; independent of who consumes the arrivals.
std::vector<double> GenerateTraceArrivals(const TraceLoadConfig& config);

/// \brief Drives \p server with \p clients closed-loop request chains
/// over the simulated clock and drains it. Each client issues exactly
/// requests_per_client attempts: after a response it thinks for
/// think_ms and sends again; after a shed it also waits think_ms before
/// its next attempt (a client-side backoff), so the run always
/// terminates. Like the open loop, the report counts only this run's
/// requests.
LoadReport RunClosedLoop(Server* server, const ClosedLoopConfig& config);

}  // namespace dlsys

#endif  // DLSYS_SERVE_LOADGEN_H_
