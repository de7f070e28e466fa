// Tracing walkthrough: run a small train-then-serve workload with the
// observability layer switched on, then
//   1. write the span rings out as trace.json (open it in Perfetto or
//      chrome://tracing — wall-clock kernels on pid 1, the simulated
//      serving lifecycle on pid 2, request ids in the args),
//   2. print the top-5 spans by self-time,
//   3. print the counter registry and the per-phase energy estimate the
//      cost-accounting layer feeds into src/green.

#include <cstdio>

#include "src/data/synthetic.h"
#include "src/green/energy.h"
#include "src/nn/train.h"
#include "src/obs/cost.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/optim/optimizer.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"

int main() {
  using namespace dlsys;

  // Tracing is compiled in but off by default; flip it on for the whole
  // run. Sampling 1 records every span — crank this up (e.g. 64) on hot
  // workloads to trade trace completeness for volume.
  obs::SetTracingEnabled(true);
  obs::SetTraceSampling(1);
  obs::ResetPhaseTotals();

  // ---- Train: the loop tags data/forward/backward phases itself.
  Rng rng(42);
  Dataset data = MakeGaussianBlobs(/*n=*/1500, /*dims=*/16, /*classes=*/8,
                                   /*separation=*/3.0, &rng);
  Sequential net = MakeMlp(16, {48, 32}, 8);
  net.Init(&rng);
  Sgd opt(/*lr=*/0.05, /*momentum=*/0.9);
  TrainConfig config;
  config.epochs = 4;
  Train(&net, &opt, data, config);

  // ---- Serve: the server emits each request's admit → queue → execute
  // → respond lifecycle on the simulated-clock track, keyed by rid.
  ModelRegistry registry;
  ServerConfig serve_config;
  serve_config.workers = 2;
  serve_config.queue_capacity = 64;
  serve_config.batch.max_batch = 8;
  serve_config.default_deadline_ms = 1e6;
  auto server = Server::Create(&registry, serve_config);
  DLSYS_CHECK(server.ok(), "server config invalid");
  DLSYS_CHECK((*server)->Publish("blobs", net, {16}).ok(), "publish failed");

  Tensor example({16});
  for (int i = 0; i < 200; ++i) {
    example.FillGaussian(&rng, 1.0f);
    (*server)->Submit("blobs", example, static_cast<double>(i) * 0.05);
  }
  (*server)->Drain();
  obs::SetTracingEnabled(false);

  // ---- 1. Export the trace.
  const obs::TraceBuffer trace = obs::DrainTrace();
  DLSYS_CHECK(obs::WriteChromeTrace("trace.json", trace).ok(),
              "trace write failed");
  std::printf("wrote trace.json: %zu events (%lld dropped)\n",
              trace.events.size(), static_cast<long long>(trace.dropped));

  // ---- 2. Top-5 spans by self-time (duration minus nested children).
  std::printf("\ntop spans by self-time:\n");
  const auto stats = obs::SelfTimeByName(trace);
  for (size_t i = 0; i < stats.size() && i < 5; ++i) {
    std::printf("  %-24s x%-6lld self %8.3f ms  total %8.3f ms\n",
                stats[i].name.c_str(), static_cast<long long>(stats[i].count),
                stats[i].self_ms, stats[i].total_ms);
  }

  // ---- 3. Counters and per-phase energy.
  std::printf("\ncounter registry:\n%s",
              obs::CounterRegistry::Global().ExportText().c_str());

  const obs::PhaseCost cost = obs::PhaseTotals();
  auto rows = EstimatePhaseFootprint(cost, StandardHardware()[1],
                                     StandardRegions()[0]);
  DLSYS_CHECK(rows.ok(), "footprint estimate failed");
  std::printf("\nper-phase energy (gpu-mid, mixed-grid):\n");
  for (const PhaseEnergyRow& row : *rows) {
    std::printf("  %-9s %12.3e flops  %10.6f J  %10.3e g CO2\n",
                row.phase.c_str(), row.flops, row.energy_joules,
                row.co2_grams);
  }

#if !DLSYS_OBS
  std::printf("\n(built with -DDLSYS_OBS=0: instrumentation compiled out, "
              "so the trace and tallies above are empty)\n");
#endif
  return 0;
}
