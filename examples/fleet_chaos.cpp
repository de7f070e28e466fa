// The serving fleet under fire, end to end: stand up four replica
// groups of the serving stack behind a health-checked router, drive a
// diurnal request trace through them, and stage two chaos scenarios
// from the taxonomy grammar (DESIGN.md §2h):
//
//  1. A correlated crash storm kills half the fleet at t=4s. Queued
//     work dies with the replicas, requests routed into the
//     crash-to-detection gap fail on the network timeout, and the
//     checkpointed-restart policy brings the victims back — the report
//     shows the dip and the measured time-to-recover.
//  2. A bad model version (40x the declared service cost) is canaried
//     onto one replica at t=4s. The canary metric watches its degraded
//     fraction during the bake window, fails the bake, and rolls the
//     replica back through the registry's hot-swap path — no fleet-wide
//     rollout of a lemon.
//
// Every decision runs on the simulated clock, so both runs replay
// bit-for-bit for a fixed seed at any DLSYS_THREADS.

#include <cstdio>
#include <memory>

#include "src/core/rng.h"
#include "src/fleet/chaos.h"
#include "src/fleet/fleet.h"
#include "src/nn/train.h"
#include "src/runtime/runtime.h"
#include "src/serve/loadgen.h"

namespace {

constexpr int64_t kInElems = 16;

dlsys::Sequential MakeModel() {
  dlsys::Sequential net = dlsys::MakeMlp(kInElems, {32}, 8);
  dlsys::Rng rng(42);
  net.Init(&rng);
  return net;
}

dlsys::FleetConfig MakeFleetConfig() {
  dlsys::FleetConfig config;
  config.replica_slots = 4;
  config.initial_replicas = 4;
  config.server.workers = 2;
  config.server.queue_capacity = 64;
  config.server.batch.max_batch = 8;
  config.server.cost = {1.0, 0.25};
  config.server.default_deadline_ms = 50.0;
  config.restart_ms = 1000.0;     // checkpointed restart downtime
  config.canary.bake_ms = 1500.0; // watch a rollout this long
  config.window_ms = 500.0;
  return config;
}

dlsys::TraceLoadConfig MakeLoad() {
  dlsys::TraceLoadConfig load;
  load.seed = 7;
  load.duration_ms = 12'000.0;
  load.base_rps = 600.0;
  load.diurnal_amplitude = 0.3;
  load.diurnal_period_ms = load.duration_ms;
  load.deadline_ms = 50.0;
  load.model = "digits";
  return load;
}

void PrintReport(const dlsys::FleetReport& r) {
  std::printf("  offered %lld  completed_ok %lld  missed %lld  shed %lld\n",
              static_cast<long long>(r.offered),
              static_cast<long long>(r.completed_ok),
              static_cast<long long>(r.missed),
              static_cast<long long>(r.shed_queue_full + r.shed_deadline +
                                     r.shed_draining + r.shed_unhealthy));
  std::printf("  goodput %.0f r/s  p99 %.2f ms  miss %.2f%%\n",
              r.goodput_rps(), r.p99_ms, 100.0 * r.miss_fraction());
  std::printf(
      "  crashes %lld  restarts %lld  rollouts %lld  rollbacks %lld\n",
      static_cast<long long>(r.crashes), static_cast<long long>(r.restarts),
      static_cast<long long>(r.rollouts),
      static_cast<long long>(r.rollbacks));
  if (r.fault_start_ms >= 0.0) {
    std::printf("  fault at %.0f ms, time-to-recover %.0f ms\n",
                r.fault_start_ms, r.time_to_recover_ms);
  }
  std::printf("  windows (start_ms: goodput r/s, active replicas):\n   ");
  for (const dlsys::FleetWindow& w : r.windows) {
    std::printf(" %5.0f:%4.0f/%d", w.start_ms, w.goodput_rps,
                w.active_replicas);
  }
  std::printf("\n");
}

dlsys::FleetReport RunScenario(const dlsys::ChaosScenario& scenario) {
  auto fleet = dlsys::Fleet::Create(MakeFleetConfig());
  DLSYS_CHECK(fleet.ok(), "fleet config must validate");
  DLSYS_CHECK(fleet.value()->Deploy("digits", MakeModel(), {kInElems}).ok(),
              "deploy must succeed");
  auto report = fleet.value()->Run(scenario, MakeLoad());
  DLSYS_CHECK(report.ok(), "fleet run must succeed");
  return std::move(report).value();
}

}  // namespace

int main() {
  using namespace dlsys;
  // Intra-op kernels stay single-threaded; each replica's worker pool is
  // the source of parallelism here (DESIGN.md §2e).
  RuntimeConfig::SetThreads(1);

  // --- Act 1: correlated crash storm + checkpointed restart ----------
  ChaosScenario storm;
  storm.name = "crash_storm";
  storm.seed = 3;
  storm.events.push_back({FaultKind::kCrashStorm, /*start_ms=*/4000.0,
                          /*duration_ms=*/0.0, /*fraction=*/0.5,
                          /*severity=*/1.0});
  std::printf("== crash storm: half the fleet dies at t=4s ==\n");
  FleetReport storm_report = RunScenario(storm);
  PrintReport(storm_report);

  // --- Act 2: bad-version rollout caught by the canary ---------------
  ChaosScenario rollout;
  rollout.name = "bad_version";
  rollout.seed = 3;
  rollout.events.push_back({FaultKind::kBadVersionRollout,
                            /*start_ms=*/4000.0, /*duration_ms=*/0.0,
                            /*fraction=*/0.25, /*severity=*/40.0});
  std::printf("\n== bad version: 40x-cost model canaried at t=4s ==\n");
  FleetReport rollout_report = RunScenario(rollout);
  PrintReport(rollout_report);

  std::printf(
      "\nThe canary bake failed and rolled the replica back through the\n"
      "hot-swap path: %lld rollout, %lld rollback, fleet-wide goodput\n"
      "recovered without operator action. Full scenario x policy grid:\n"
      "build/bench/bench_fleet (E35).\n",
      static_cast<long long>(rollout_report.rollouts),
      static_cast<long long>(rollout_report.rollbacks));
  return 0;
}
