// Serving-layer bench (E32): the batching throughput/p99 frontier across
// worker counts, the shed-rate curve of deadline-aware admission under
// rising offered load, and tail latency across an atomic hot swap under
// sustained load. Results land in BENCH_serving.json. The bench exits 1
// unless, at every worker count, a higher batch ceiling raises simulated
// throughput and does not lower simulated p50.
//
// All scheduling runs on the simulated clock from the declared service
// cost model, so every number except wall_seconds / real_rps replays
// bit for bit for a fixed seed. Engines execute for real, each step on
// the serving thread (see DESIGN.md §2e); intra-op threads stay at 1 so
// real_rps stays comparable with earlier runs of this bench. Pass
// --smoke for a seconds-scale CI run.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/core/metrics.h"
#include "src/core/rng.h"
#include "src/nn/train.h"
#include "src/obs/counters.h"
#include "src/runtime/runtime.h"
#include "src/serve/admission.h"
#include "src/serve/loadgen.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"

namespace dlsys {
namespace {

bool g_smoke = false;

constexpr int64_t kInElems = 32;

Sequential MakeServeNet(uint64_t seed) {
  Sequential net = MakeMlp(kInElems, {g_smoke ? 32 : 128}, 10);
  Rng rng(seed);
  net.Init(&rng);
  return net;
}

struct ServerUnderTest {
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<Server> server;
};

ServerUnderTest MakeServer(const ServerConfig& config) {
  ServerUnderTest sut;
  sut.registry = std::make_unique<ModelRegistry>();
  auto created = Server::Create(sut.registry.get(), config);
  DLSYS_CHECK(created.ok(), "server config invalid");
  sut.server = std::move(created).value();
  auto version = sut.server->Publish("m", MakeServeNet(71), {kInElems});
  DLSYS_CHECK(version.ok(), "publish failed");
  return sut;
}

/// Offered rate that saturates the declared cost model at full batches.
double CapacityRps(const ServerConfig& config) {
  return static_cast<double>(config.workers) *
         static_cast<double>(config.batch.max_batch) * 1000.0 /
         EstimateServiceMs(config.cost, config.batch.max_batch);
}

// ------------------------------------------- 1. throughput/p99 frontier

struct FrontierRow {
  int workers = 0;
  int64_t max_batch = 0;
  double offered_rps = 0.0;
  double sim_rps = 0.0;
  double real_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
};

std::vector<FrontierRow> BenchFrontier() {
  std::vector<FrontierRow> rows;
  const std::vector<int> worker_counts =
      g_smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const std::vector<int64_t> max_batches =
      g_smoke ? std::vector<int64_t>{1, 8} : std::vector<int64_t>{1, 8, 32};

  for (int workers : worker_counts) {
    for (int64_t max_batch : max_batches) {
      ServerConfig config;
      config.workers = workers;
      config.batch.max_batch = max_batch;
      config.queue_capacity = 64 * max_batch;
      config.default_deadline_ms = 1e9;  // frontier: nothing sheds
      ServerUnderTest sut = MakeServer(config);

      OpenLoopConfig load;
      load.seed = 72;
      load.requests = g_smoke ? 200 : 4000;
      load.rate_rps = 0.8 * CapacityRps(config);  // feasible but busy
      load.model = "m";
      const LoadReport report = RunOpenLoop(sut.server.get(), load);
      DLSYS_CHECK(report.completed == report.admitted, "lost requests");

      FrontierRow row;
      row.workers = workers;
      row.max_batch = max_batch;
      row.offered_rps = load.rate_rps;
      row.sim_rps = report.sim_throughput_rps;
      row.real_rps = report.real_throughput_rps;
      row.p50_ms = report.latency.Quantile(0.5);
      row.p99_ms = report.latency.Quantile(0.99);
      const MetricsReport m = sut.server->metrics();
      row.mean_batch = m.Get("serve.batches") > 0
                           ? m.Get("serve.admitted") / m.Get("serve.batches")
                           : 0.0;
      rows.push_back(row);
    }
  }
  return rows;
}

/// The batch-size claim E32 checks: at every worker count, a higher batch
/// ceiling buys simulated throughput (r/s rises) and costs median latency
/// (p50 does not fall). Returns the first row that breaks it against the
/// row before, or null. Rows come grouped by worker count, with
/// max_batch ascending.
const FrontierRow* BreaksBatchTrade(const std::vector<FrontierRow>& rows) {
  for (size_t i = 1; i < rows.size(); ++i) {
    const FrontierRow& prev = rows[i - 1];
    const FrontierRow& row = rows[i];
    if (row.workers != prev.workers) continue;
    if (!(row.sim_rps > prev.sim_rps) || row.p50_ms < prev.p50_ms) {
      return &row;
    }
  }
  return nullptr;
}

// ------------------------------------------------- 2. shed-rate curve

struct ShedRow {
  double load_multiplier = 0.0;
  double offered_rps = 0.0;
  double shed_fraction = 0.0;
  double deadline_miss_fraction = 0.0;  ///< of completed requests
  double p99_ms = 0.0;
  double goodput_rps = 0.0;  ///< completed within deadline, per sim second
};

std::vector<ShedRow> BenchShedCurve() {
  std::vector<ShedRow> rows;
  const std::vector<double> multipliers =
      g_smoke ? std::vector<double>{0.5, 2.0}
              : std::vector<double>{0.5, 0.8, 1.2, 2.0, 4.0};
  for (double mult : multipliers) {
    ServerConfig config;
    config.workers = 2;
    config.batch.max_batch = 8;
    config.queue_capacity = 4 * config.batch.max_batch;
    config.default_deadline_ms = 5.0;
    ServerUnderTest sut = MakeServer(config);

    OpenLoopConfig load;
    load.seed = 73;
    load.requests = g_smoke ? 300 : 4000;
    load.rate_rps = mult * CapacityRps(config);
    load.model = "m";
    const LoadReport report = RunOpenLoop(sut.server.get(), load);

    ShedRow row;
    row.load_multiplier = mult;
    row.offered_rps = load.rate_rps;
    row.shed_fraction = static_cast<double>(report.shed) /
                        static_cast<double>(report.offered);
    row.deadline_miss_fraction =
        report.completed > 0 ? static_cast<double>(report.deadline_missed) /
                                   static_cast<double>(report.completed)
                             : 0.0;
    row.p99_ms = report.latency.Quantile(0.99);
    row.goodput_rps =
        report.duration_ms > 0.0
            ? static_cast<double>(report.completed - report.deadline_missed) /
                  (report.duration_ms / 1000.0)
            : 0.0;
    rows.push_back(row);
  }
  return rows;
}

// ---------------------------------------------- 3. hot swap under load

struct SwapResult {
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t completed = 0;
  int64_t lost = 0;  ///< admitted - completed; the headline must be 0
  int64_t served_v1 = 0;
  int64_t served_v2 = 0;
  double p99_before_ms = 0.0;  ///< first third: steady v1
  double p99_during_ms = 0.0;  ///< middle third: the swap lands here
  double p99_after_ms = 0.0;   ///< last third: steady v2
};

SwapResult BenchHotSwap() {
  ServerConfig config;
  config.workers = 2;
  config.batch.max_batch = 8;
  config.queue_capacity = 8 * config.batch.max_batch;
  config.default_deadline_ms = 1e9;  // measure latency, not shedding
  ServerUnderTest sut = MakeServer(config);
  const Sequential net2 = MakeServeNet(74);

  OpenLoopConfig load;
  load.seed = 75;
  load.requests = g_smoke ? 300 : 3000;
  load.rate_rps = 0.7 * CapacityRps(config);
  load.model = "m";
  Server* server = sut.server.get();
  const int64_t swap_at = load.requests / 2;
  const LoadReport report = RunOpenLoop(
      server, load, [server, &net2, swap_at](int64_t i) {
        if (i == swap_at) {
          DLSYS_CHECK(server->Publish("m", net2, {kInElems}).ok(),
                      "hot swap failed");
        }
      });

  SwapResult result;
  result.offered = report.offered;
  result.admitted = report.admitted;
  result.completed = report.completed;
  result.lost = report.admitted - report.completed;
  const MetricsReport m = server->metrics();
  result.served_v1 = static_cast<int64_t>(m.Get("serve.m.served_v1"));
  result.served_v2 = static_cast<int64_t>(m.Get("serve.m.served_v2"));

  // The swap windows slice completions by request id after the fact, so
  // they are recorded here rather than inside the server; they still live
  // in the registry so one ExportJson carries every serving histogram.
  obs::CounterRegistry& reg = obs::CounterRegistry::Global();
  obs::SharedHistogram* windows[3] = {reg.histogram("serve.swap.w0"),
                                      reg.histogram("serve.swap.w1"),
                                      reg.histogram("serve.swap.w2")};
  for (obs::SharedHistogram* w : windows) w->Reset();
  const int64_t third = load.requests / 3;
  for (const Server::Completion& c : server->completions()) {
    const int64_t w = std::min<int64_t>(c.id / third, 2);
    windows[w]->Record(c.finish_ms - c.arrival_ms);
  }
  result.p99_before_ms = windows[0]->Quantile(0.99);
  result.p99_during_ms = windows[1]->Quantile(0.99);
  result.p99_after_ms = windows[2]->Quantile(0.99);
  return result;
}

// ------------------------------------- 4. multi-tenant QoS (E37)

struct TenantBenchRow {
  std::string tenant;
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  double goodput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct QosRun {
  std::string mode;  ///< scheduler configuration under test
  double offered_rps = 0.0;
  double aggregate_goodput_rps = 0.0;
  double max_min_goodput_ratio = 0.0;
  std::vector<TenantBenchRow> tenants;
};

/// One tenanted open-loop run; `fair` toggles DWFQ + per-tenant quotas
/// (quota = a fair quarter of declared capacity).
QosRun BenchTenantMix(const std::string& mode, bool fair,
                      const std::vector<TenantShare>& mix,
                      double load_multiplier) {
  ServerConfig config;
  config.workers = 2;
  config.batch.max_batch = 8;
  config.queue_capacity = 8 * config.batch.max_batch;
  // A tight deadline — about five full-batch steps — keeps the run in
  // the admission-controlled regime: the hot tenant's excess sheds at
  // admission (its quota cannot fund the backlog in time) instead of
  // camping in the queue and dragging every tenant into queue-full.
  config.default_deadline_ms =
      5.0 * EstimateServiceMs(config.cost, config.batch.max_batch);
  config.scheduler.fair_queueing = fair;
  config.scheduler.enforce_quotas = fair;
  if (fair) {
    // Per-tenant quota just under a fair quarter of capacity (so the
    // four quotas sum to 3/4 of the fleet, leaving headroom), plus a
    // burst of one full batch. An unthrottled tenant stays under it;
    // the 8x hot tenant pins against it.
    config.scheduler.default_policy.rate_rps = 0.1875 * CapacityRps(config);
    config.scheduler.default_policy.burst =
        static_cast<double>(config.batch.max_batch);
  }
  ServerUnderTest sut = MakeServer(config);

  OpenLoopConfig load;
  load.seed = 76;
  load.requests = g_smoke ? 400 : 4000;
  load.rate_rps = load_multiplier * CapacityRps(config);
  load.deadline_ms = config.default_deadline_ms;
  load.model = "m";
  load.mix = mix;
  const TenantedLoadReport report =
      RunTenantedOpenLoop(sut.server.get(), load);

  QosRun run;
  run.mode = mode;
  run.offered_rps = load.rate_rps;
  run.aggregate_goodput_rps =
      report.total.duration_ms > 0.0
          ? static_cast<double>(report.total.completed -
                                report.total.deadline_missed) /
                (report.total.duration_ms / 1000.0)
          : 0.0;
  run.max_min_goodput_ratio = report.max_min_goodput_ratio;
  for (const auto& [tenant, per] : report.by_tenant) {
    TenantBenchRow row;
    row.tenant = tenant;
    row.offered = per.offered;
    row.admitted = per.admitted;
    row.shed = per.shed;
    row.goodput_rps = report.goodput_rps.at(tenant);
    row.p50_ms = per.latency.Quantile(0.5);
    row.p99_ms = per.latency.Quantile(0.99);
    run.tenants.push_back(row);
  }
  return run;
}

std::vector<QosRun> BenchTenantQos() {
  const std::vector<TenantShare> balanced = BalancedTenantMix(4);
  const std::vector<TenantShare> hot = HotTenantMix(4, 8.0);
  std::vector<QosRun> runs;
  // Balanced mix at a feasible load: continuous batching must serve what
  // is offered.
  runs.push_back(BenchTenantMix("slots_balanced", false, balanced, 0.8));
  // Adversarial hot tenant at 1.4x capacity: DWFQ + quotas bound the
  // skew; the FIFO control shows the starvation they prevent.
  runs.push_back(BenchTenantMix("slots_fair_hot", true, hot, 1.375));
  runs.push_back(BenchTenantMix("slots_fifo_hot", false, hot, 1.375));
  return runs;
}

}  // namespace
}  // namespace dlsys

int main(int argc, char** argv) {
  using namespace dlsys;
  g_smoke = bench::HasFlag(argc, argv, "--smoke");
  // Keep intra-op kernels single-threaded, as every earlier E32
  // measurement did, so the real r/s column stays comparable.
  RuntimeConfig::SetThreads(1);
  bench::Report report("serving");

  const std::vector<FrontierRow> frontier = BenchFrontier();
  bench::Table& frontier_table = report.AddLine(
      "frontier", {{"workers", "frontier w=%d"}, {"max_batch", " b=%-3lld"},
                   {"offered_rps", "  offered %8.0f r/s"},
                   {"sim_rps", " | sim %8.0f r/s"},
                   {"real_rps", " | real %8.0f r/s", bench::kWall},
                   {"p50_ms", " | p50 %6.3f ms"}, {"p99_ms", " | p99 %6.3f ms"},
                   {"mean_batch", " | batch %.1f"}});
  for (const FrontierRow& row : frontier) {
    frontier_table.Row(row.workers, row.max_batch, row.offered_rps,
                       row.sim_rps, row.real_rps, row.p50_ms, row.p99_ms,
                       row.mean_batch);
  }
  if (const FrontierRow* bad = BreaksBatchTrade(frontier)) {
    std::fprintf(stderr,
                 "FAIL: frontier w=%d b=%lld: sim r/s must rise and p50 must "
                 "not fall as max_batch rises\n",
                 bad->workers, static_cast<long long>(bad->max_batch));
    return 1;
  }

  bench::Table& shed_table = report.AddLine(
      "shed_curve", {{"load_multiplier", "shed x%.1f"},
                     {"offered_rps", "  offered %8.0f r/s"},
                     {"shed_pct", " | shed %5.1f%%"},
                     {"miss_pct", " | miss %5.1f%%"},
                     {"p99_ms", " | p99 %6.3f ms"},
                     {"goodput_rps", " | goodput %8.0f r/s"}});
  for (const ShedRow& row : BenchShedCurve()) {
    shed_table.Row(row.load_multiplier, row.offered_rps,
                   100.0 * row.shed_fraction,
                   100.0 * row.deadline_miss_fraction, row.p99_ms,
                   row.goodput_rps);
  }

  const SwapResult swap = BenchHotSwap();
  report
      .AddLine("hot_swap", {{"admitted", "hotswap  admitted %lld"},
                            {"completed", " | completed %lld"},
                            {"lost", " | lost %lld"},
                            {"served_v1", " | v1 %lld"},
                            {"served_v2", " | v2 %lld"},
                            {"p99_before_ms", " | p99 %6.3f"},
                            {"p99_during_ms", " / %6.3f"},
                            {"p99_after_ms", " / %6.3f ms"}})
      .Row(swap.admitted, swap.completed, swap.lost, swap.served_v1,
           swap.served_v2, swap.p99_before_ms, swap.p99_during_ms,
           swap.p99_after_ms);
  DLSYS_CHECK(swap.lost == 0, "hot swap lost admitted requests");

  const std::vector<QosRun> qos = BenchTenantQos();
  bench::Table& runs = report.AddLine(
      "tenant_runs", {{"mode", "tenant %-14s"},
                      {"offered_rps", " offered %8.0f r/s"},
                      {"goodput_rps", " | goodput %8.0f r/s"},
                      {"max_min_goodput_ratio", " | max/min %6.2f"}});
  for (const QosRun& run : qos) {
    runs.Row(run.mode, run.offered_rps, run.aggregate_goodput_rps,
             run.max_min_goodput_ratio);
    bench::Table& tenants = report.AddLine(
        run.mode + " tenants", {{"tenant", "  %-4s"},
                                {"offered", " offered %5lld"},
                                {"admitted", " | admitted %5lld"},
                                {"shed", " | shed %5lld"},
                                {"goodput_rps", " | goodput %8.0f r/s"},
                                {"p50_ms", " | p50 %6.3f ms"},
                                {"p99_ms", " | p99 %6.3f ms"}});
    for (const TenantBenchRow& row : run.tenants) {
      tenants.Row(row.tenant, row.offered, row.admitted, row.shed,
                  row.goodput_rps, row.p50_ms, row.p99_ms);
    }
  }
  // E37 acceptance, bench-enforced: continuous batching serves a balanced
  // mix at a feasible load (goodput within 4% of offered), and DWFQ +
  // quotas bound the hot-tenant skew the FIFO control demonstrates.
  DLSYS_CHECK(qos[0].aggregate_goodput_rps >= 0.96 * qos[0].offered_rps,
              "slot scheduler lost the balanced-mix goodput plateau");
  DLSYS_CHECK(qos[1].max_min_goodput_ratio <= 3.0,
              "fair scheduling failed to bound hot-tenant goodput skew");
  DLSYS_CHECK(qos[2].max_min_goodput_ratio > qos[1].max_min_goodput_ratio,
              "FIFO control should show more skew than fair scheduling");
  return report.Finish();
}
