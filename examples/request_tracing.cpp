// Fleet-wide request tracing, end to end: run a gray failure (one
// replica silently serving at 8x its declared compute cost) through the
// serving fleet with request-scoped tracing on, then answer the three
// questions an on-call engineer actually asks:
//
//  1. *Where did the time go?* Every delivered request carries a
//     critical-path record whose component decomposition — route hop,
//     admission, quota delay, slot wait, execute, return hop — sums
//     bitwise to its client-observed latency (DESIGN.md §2k).
//  2. *Is the SLO burning, and which stage is burning it?* A
//     multi-window burn-rate alerter watches the same records per
//     tenant and fleet-wide; its alert names the dominant component, so
//     the gray failure is classified execute-dominant at detection time.
//  3. *Show me the slow ones.* Each attribution window keeps the k
//     slowest rids as exemplars; the rids link to causally-parented
//     span trees in the exported Perfetto trace (dlsys_request_trace
//     .json — open in https://ui.perfetto.dev, pid 2 is the sim clock).
//
// Everything runs on the simulated clock: the report, the alerts, and
// the trace slice replay bit-for-bit at any DLSYS_THREADS.

#include <cstdio>

#include "src/core/rng.h"
#include "src/fleet/chaos.h"
#include "src/fleet/fleet.h"
#include "src/nn/train.h"
#include "src/obs/attribution.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
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
  config.window_ms = 500.0;
  // Healthy client latency is ~2-4 ms; a request slower than 8 ms burns
  // SLO budget even when it still beats its 50 ms deadline.
  config.slo.slo_latency_ms = 8.0;
  return config;
}

void PrintWindowDecomposition(const dlsys::obs::AttributionReport& attr,
                              size_t w) {
  if (w >= attr.fleet.size()) return;
  const dlsys::obs::AttributionWindow& win = attr.fleet[w];
  if (win.count == 0) {
    std::printf("  [%5.0f ms] empty\n", static_cast<double>(w) *
                                            attr.window_ms);
    return;
  }
  std::printf("  [%5.0f ms] %4lld req, %3lld missed |",
              static_cast<double>(w) * attr.window_ms,
              static_cast<long long>(win.count),
              static_cast<long long>(win.violations));
  for (int c = 0; c < dlsys::obs::kPathComponents; ++c) {
    std::printf(
        " %s %.2f", dlsys::obs::PathComponentName(
                        static_cast<dlsys::obs::PathComponent>(c)),
        static_cast<double>(win.sums.ns[c]) / 1e6 /
            static_cast<double>(win.count));
  }
  std::printf(" ms/req\n");
}

}  // namespace

int main() {
  using namespace dlsys;
  RuntimeConfig::SetThreads(1);

  // One replica of four silently serves at 8x compute cost from t=4 s:
  // no crash, no probe failure — the classic gray failure.
  auto scenario = MakeScenario("gray_failure", 0.5);
  DLSYS_CHECK(scenario.ok(), "scenario must exist");

  TraceLoadConfig load;
  load.seed = 7;
  load.duration_ms = 12'000.0;
  load.base_rps = 600.0;
  load.deadline_ms = 50.0;
  load.model = "digits";

  obs::ResetTrace();
  obs::SetTracingEnabled(true);
  auto fleet = Fleet::Create(MakeFleetConfig());
  DLSYS_CHECK(fleet.ok(), "fleet config must validate");
  DLSYS_CHECK(fleet.value()->Deploy("digits", MakeModel(), {kInElems}).ok(),
              "deploy must succeed");
  auto run = fleet.value()->Run(scenario.value(), load);
  obs::SetTracingEnabled(false);
  DLSYS_CHECK(run.ok(), "fleet run must succeed");
  const FleetReport& report = run.value();

  // 1. The per-component time series around the fault: execute blows up
  // at 4 s while every other component stays flat.
  std::printf("== critical-path decomposition (fleet windows) ==\n");
  const size_t fault_window = static_cast<size_t>(
      report.fault_start_ms / report.attribution.window_ms);
  for (size_t w = fault_window >= 2 ? fault_window - 2 : 0;
       w < fault_window + 3 && w < report.attribution.fleet.size(); ++w) {
    PrintWindowDecomposition(report.attribution, w);
  }

  // 2. The burn-rate alerts, each naming the component that burns the
  // budget: execute-dominant here, route-hop-dominant for a slow
  // partition — same alerter, different verdicts.
  std::printf("\n== SLO burn-rate alerts ==\n");
  for (const obs::BurnAlert& a : report.alerts) {
    std::printf(
        "  t=%6.0f ms  %-16s fast %5.1fx slow %5.1fx  dominant %s "
        "(%.0f%% of violator time)\n",
        a.t_ms, a.scope.c_str(), a.fast_burn, a.slow_burn,
        obs::PathComponentName(a.dominant), 100.0 * a.dominant_share);
  }
  DLSYS_CHECK(!report.alerts.empty(), "the gray failure must alert");

  // 3. Exemplars: the slowest rids of the first alerting window — these
  // are the spans to click on in the Perfetto export.
  std::printf("\n== slowest exemplars in the fault window ==\n");
  if (fault_window + 1 < report.attribution.fleet.size()) {
    for (const obs::PathExemplar& e :
         report.attribution.fleet[fault_window + 1].exemplars) {
      std::printf("  rid %lld  total %.2f ms  (execute %.2f ms)\n",
                  static_cast<long long>(e.rid),
                  static_cast<double>(e.total_ns) / 1e6,
                  static_cast<double>(
                      e.components[obs::PathComponent::kExecute]) /
                      1e6);
    }
  }

  const obs::TraceBuffer sim = obs::SimTrackOnly(obs::DrainTrace());
  DLSYS_CHECK(
      obs::WriteChromeTrace("dlsys_request_trace.json", sim).ok(),
      "trace export must succeed");
  obs::ResetTrace();
  std::printf(
      "\nWrote %zu causally-linked request spans to "
      "dlsys_request_trace.json\n(load in https://ui.perfetto.dev; search "
      "an exemplar rid to jump to its\nspan tree). Overhead bar and "
      "traced-vs-untraced bitwise check:\nbuild/bench/bench_obs (E38).\n",
      sim.events.size());
  return 0;
}
