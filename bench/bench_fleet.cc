// Fleet chaos-suite bench (E35): the scenario × policy grid of the
// serving-fleet simulation. Every cell runs one taxonomy scenario
// (steady, flash crowd, crash storm, slow partition, gray failure,
// bad-version rollout) against one policy bundle (routing × autoscaling
// × recovery) and reports fleet-level SLO metrics: goodput, client p99,
// miss fraction, shed fraction, and time-to-recover. Results land in
// BENCH_fleet.json.
//
// Every decision in the fleet runs on the simulated clock, so all
// reported numbers replay bit-for-bit for a fixed seed at any
// DLSYS_THREADS. `--export PATH` writes one canonical chaos cell's
// FleetReportJson to PATH and exits — the CI determinism step runs it
// at DLSYS_THREADS=1 and 8 and byte-compares the two files.
// `--export-attr PATH` and `--export-trace PATH` ride the same run and
// additionally write the critical-path attribution report and the
// sim-track request-trace slice, which must be byte-identical across
// thread counts too. Pass --smoke for a seconds-scale CI run. The grid
// run exits non-zero when any bundle's bad_version cell records no
// rollback.

#include <cstdint>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/core/rng.h"
#include "src/core/status.h"
#include "src/fleet/autoscaler.h"
#include "src/fleet/chaos.h"
#include "src/fleet/fleet.h"
#include "src/fleet/router.h"
#include "src/nn/train.h"
#include "src/obs/attribution.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/serve/loadgen.h"

namespace dlsys {
namespace {

bool g_smoke = false;

constexpr int64_t kInElems = 32;

Sequential MakeFleetNet(uint64_t seed) {
  Sequential net = MakeMlp(kInElems, {g_smoke ? 32 : 64}, 10);
  Rng rng(seed);
  net.Init(&rng);
  return net;
}

double TimeScale() { return g_smoke ? 0.25 : 1.0; }

/// One routing × autoscaling × recovery bundle of the E35 grid.
struct PolicyBundle {
  const char* name;
  RoutePolicy route;
  ScalePolicy scale;
  FleetRecovery recovery;
};

const std::vector<PolicyBundle>& Bundles() {
  static const std::vector<PolicyBundle> kBundles = {
      {"rr_fixed_ckpt", RoutePolicy::kRoundRobin, ScalePolicy::kFixed,
       FleetRecovery::kCheckpointedRestart},
      {"ll_reactive_ckpt", RoutePolicy::kLeastLoaded, ScalePolicy::kReactive,
       FleetRecovery::kCheckpointedRestart},
      {"p2c_predictive_cold", RoutePolicy::kPowerOfTwo,
       ScalePolicy::kPredictive, FleetRecovery::kColdReplace},
  };
  return kBundles;
}

FleetConfig GridFleetConfig(const PolicyBundle& bundle) {
  FleetConfig config;
  config.replica_slots = 6;
  config.initial_replicas = 4;
  config.server.workers = 2;
  config.server.queue_capacity = 64;
  config.server.batch.max_batch = 8;
  config.server.cost.fixed_ms = 1.0;
  config.server.cost.per_example_ms = 0.25;
  config.server.default_deadline_ms = 40.0;
  config.route = bundle.route;
  config.autoscale.policy = bundle.scale;
  config.autoscale.decide_interval_ms = 1000.0 * TimeScale();
  config.autoscale.provision_lag_ms = 2000.0 * TimeScale();
  // Floor at the initial size: the grid loads leave per-replica
  // headroom, and draining the fleet to its minimum before a scheduled
  // storm would let the chaos land on empty slots.
  config.autoscale.min_replicas = 4;
  config.recovery = bundle.recovery;
  config.restart_ms = 1500.0 * TimeScale();
  config.replace_ms = 4000.0 * TimeScale();
  // Not scaled: the bake must route enough requests to the canary for its
  // latency check (min_p99_samples) at either load, and a 375 ms smoke
  // bake saw too few to roll the bad version back.
  config.canary.bake_ms = 1500.0;
  config.tick_ms = 50.0;
  config.window_ms = 500.0 * TimeScale();
  return config;
}

TraceLoadConfig GridLoad(const std::string& scenario) {
  TraceLoadConfig load;
  load.seed = 21;
  load.duration_ms = 24'000.0 * TimeScale();
  load.base_rps = g_smoke ? 300.0 : 600.0;
  load.diurnal_amplitude = 0.3;
  load.diurnal_period_ms = load.duration_ms;
  load.deadline_ms = 40.0;
  load.model = "m";
  if (scenario == "flash_crowd") {
    // The load-side fault: a 3x crowd landing where other scenarios
    // stage their faults.
    load.crowds.push_back(
        {8000.0 * TimeScale(), 6000.0 * TimeScale(), 3.0});
  }
  return load;
}

Result<FleetReport> RunCell(const PolicyBundle& bundle,
                            const std::string& scenario_name) {
  auto scenario = MakeScenario(scenario_name, TimeScale());
  if (!scenario.ok()) return scenario.status();
  auto fleet = Fleet::Create(GridFleetConfig(bundle));
  if (!fleet.ok()) return fleet.status();
  Status deployed = fleet.value()->Deploy("m", MakeFleetNet(71), {kInElems});
  if (!deployed.ok()) return deployed;
  return fleet.value()->Run(scenario.value(), GridLoad(scenario_name));
}

int ExportCanonicalCell(const char* path, const char* attr_path,
                        const char* trace_path) {
  // The canonical determinism cell: crash storm under the least-loaded
  // reactive bundle — every fault class of machinery (routing, health,
  // restart, autoscaling) is on the decision path.
  if (trace_path != nullptr) {
    obs::ResetTrace();
    obs::SetTracingEnabled(true);
  }
  auto report = RunCell(Bundles()[1], "crash_storm");
  std::string trace_json;
  if (trace_path != nullptr) {
    obs::SetTracingEnabled(false);
    trace_json = obs::ChromeTraceJson(obs::SimTrackOnly(obs::DrainTrace()));
    obs::ResetTrace();
  }
  if (!report.ok()) {
    std::fprintf(stderr, "export run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const bool ok =
      bench::WriteFile(path, FleetReportJson(report.value()) + "\n") &&
      (attr_path == nullptr ||
       bench::WriteFile(attr_path, obs::AttributionReportJson(
                                       report.value().attribution))) &&
      (trace_path == nullptr || bench::WriteFile(trace_path, trace_json));
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dlsys

int main(int argc, char** argv) {
  using namespace dlsys;
  g_smoke = bench::HasFlag(argc, argv, "--smoke");
  if (const char* path = bench::FlagValue(argc, argv, "--export")) {
    // Export mode leaves DLSYS_THREADS in charge so the CI determinism
    // step can byte-compare runs at different thread counts.
    g_smoke = true;
    return ExportCanonicalCell(
        path, bench::FlagValue(argc, argv, "--export-attr"),
        bench::FlagValue(argc, argv, "--export-trace"));
  }
  // Keep intra-op kernels single-threaded: each replica's worker pool
  // provides the parallelism (see bench_serving).
  RuntimeConfig::SetThreads(1);

  bench::Report report("fleet");
  bench::Table& grid = report.AddLine(
      "grid", {{"scenario", "%-14s"}, {"bundle", " %-20s"},
               {"goodput_rps", " goodput %7.0f r/s |"},
               {"p99_ms", " p99 %7.3f ms |"}, {"miss_pct", " miss %5.2f%% |"},
               {"shed_pct", " shed %5.2f%% |"}, {"ttr_ms", " ttr %8.1f ms |"},
               {"crashes", " crash %lld"}, {"restarts", " restart %lld"},
               {"rollbacks", " rollback %lld"}, {"scale_ups", " scale +%lld"},
               {"scale_downs", "/-%lld"}});
  int missed_rollbacks = 0;
  for (const std::string& scenario : ScenarioNames()) {
    for (const PolicyBundle& bundle : Bundles()) {
      auto report_or = RunCell(bundle, scenario);
      if (!report_or.ok()) {
        std::fprintf(stderr, "cell (%s, %s) failed: %s\n", scenario.c_str(),
                     bundle.name, report_or.status().ToString().c_str());
        return 1;
      }
      const FleetReport& r = report_or.value();
      grid.Row(scenario, bundle.name, r.goodput_rps(), r.p99_ms,
               100.0 * r.miss_fraction(), 100.0 * r.shed_fraction(),
               r.time_to_recover_ms, r.crashes, r.restarts, r.rollbacks,
               r.scale_ups, r.scale_downs);
      if (scenario == "bad_version" && r.rollbacks == 0) {
        std::fprintf(stderr, "  bad_version under %s never rolled back\n",
                     bundle.name);
        ++missed_rollbacks;
      }
    }
  }
  // A canary that lets a bad version through is a failed run, not a
  // number to report.
  return report.Finish(missed_rollbacks == 0);
}
