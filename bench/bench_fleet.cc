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
// thread counts too. Pass --smoke (or DLSYS_BENCH_SMOKE=1) for a
// seconds-scale CI run.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

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
  config.canary.bake_ms = 1500.0 * TimeScale();
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

struct GridCell {
  std::string scenario;
  std::string bundle;
  FleetReport report;
};

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

int WriteTextFile(const char* path, const std::string& body) {
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::printf("cannot open %s\n", path);
    return 1;
  }
  std::fwrite(body.data(), 1, body.size(), out);
  std::fclose(out);
  std::printf("wrote %s\n", path);
  return 0;
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
    std::printf("export run failed: %s\n",
                report.status().ToString().c_str());
    return 1;
  }
  int rc = WriteTextFile(path, FleetReportJson(report.value()) + "\n");
  if (rc == 0 && attr_path != nullptr) {
    rc = WriteTextFile(attr_path,
                       obs::AttributionReportJson(report.value().attribution));
  }
  if (rc == 0 && trace_path != nullptr) {
    rc = WriteTextFile(trace_path, trace_json);
  }
  return rc;
}

}  // namespace
}  // namespace dlsys

int main(int argc, char** argv) {
  using namespace dlsys;
  const char* export_path = nullptr;
  const char* export_attr_path = nullptr;
  const char* export_trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
    if (std::strcmp(argv[i], "--export") == 0 && i + 1 < argc) {
      export_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--export-attr") == 0 && i + 1 < argc) {
      export_attr_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--export-trace") == 0 && i + 1 < argc) {
      export_trace_path = argv[i + 1];
    }
  }
  if (const char* env = std::getenv("DLSYS_BENCH_SMOKE");
      env != nullptr && env[0] == '1') {
    g_smoke = true;
  }
  if (export_path != nullptr) {
    // Export mode leaves DLSYS_THREADS in charge so the CI determinism
    // step can byte-compare runs at different thread counts.
    g_smoke = true;
    return ExportCanonicalCell(export_path, export_attr_path,
                               export_trace_path);
  }
  // Keep intra-op kernels single-threaded: each replica's worker pool
  // provides the parallelism (see bench_serving).
  RuntimeConfig::SetThreads(1);

  std::vector<GridCell> grid;
  for (const std::string& scenario : ScenarioNames()) {
    for (const PolicyBundle& bundle : Bundles()) {
      auto report = RunCell(bundle, scenario);
      if (!report.ok()) {
        std::printf("cell (%s, %s) failed: %s\n", scenario.c_str(),
                    bundle.name, report.status().ToString().c_str());
        return 1;
      }
      const FleetReport& r = report.value();
      std::printf(
          "%-14s %-20s goodput %7.0f r/s | p99 %7.3f ms | miss %5.2f%% | "
          "shed %5.2f%% | ttr %8.1f ms | crash %lld restart %lld "
          "rollback %lld scale +%lld/-%lld\n",
          scenario.c_str(), bundle.name, r.goodput_rps(), r.p99_ms,
          100.0 * r.miss_fraction(), 100.0 * r.shed_fraction(),
          r.time_to_recover_ms, static_cast<long long>(r.crashes),
          static_cast<long long>(r.restarts),
          static_cast<long long>(r.rollbacks),
          static_cast<long long>(r.scale_ups),
          static_cast<long long>(r.scale_downs));
      grid.push_back({scenario, bundle.name, r});
    }
  }

  FILE* out = std::fopen("BENCH_fleet.json", "w");
  if (out == nullptr) {
    std::printf("cannot open BENCH_fleet.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"smoke\": %s,\n  \"grid\": [\n",
               g_smoke ? "true" : "false");
  for (size_t i = 0; i < grid.size(); ++i) {
    const FleetReport& r = grid[i].report;
    std::fprintf(
        out,
        "    {\"scenario\": \"%s\", \"bundle\": \"%s\", "
        "\"offered\": %lld, \"goodput_rps\": %.3f, \"p99_ms\": %.4f, "
        "\"miss_fraction\": %.5f, \"shed_fraction\": %.5f, "
        "\"steady_goodput_rps\": %.3f, \"time_to_recover_ms\": %.1f, "
        "\"crashes\": %lld, \"restarts\": %lld, \"rollouts\": %lld, "
        "\"rollbacks\": %lld, \"scale_ups\": %lld, \"scale_downs\": "
        "%lld}%s\n",
        grid[i].scenario.c_str(), grid[i].bundle.c_str(),
        static_cast<long long>(r.offered), r.goodput_rps(), r.p99_ms,
        r.miss_fraction(), r.shed_fraction(), r.steady_goodput_rps,
        r.time_to_recover_ms, static_cast<long long>(r.crashes),
        static_cast<long long>(r.restarts),
        static_cast<long long>(r.rollouts),
        static_cast<long long>(r.rollbacks),
        static_cast<long long>(r.scale_ups),
        static_cast<long long>(r.scale_downs),
        i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_fleet.json (%zu cells)\n", grid.size());
  return 0;
}
