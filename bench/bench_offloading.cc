// E9 — Offloading intermediate results to a slower memory tier trades
// training time for device memory (Section 2.3, vDNN).

#include "bench/report.h"
#include "src/data/synthetic.h"
#include "src/memsched/checkpoint.h"
#include "src/memsched/offload.h"
#include "src/nn/layers.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"

int main() {
  using namespace dlsys;
  Rng rng(47);
  Dataset batch = MakeGaussianBlobs(512, 16, 4, 3.0, &rng);
  Sequential net;
  int64_t prev = 16;
  for (int64_t i = 0; i < 24; ++i) {
    net.Emplace<Dense>(prev, 96);
    net.Emplace<ReLU>();
    prev = 96;
  }
  net.Emplace<Dense>(prev, 4);
  net.Init(&rng);
  auto costs = ProbeLayerCosts(&net, batch.x);
  int64_t full = 0;
  for (const auto& c : costs) full += c.cached_bytes;

  // Measure one training step's compute time for the overlap estimate.
  Sgd opt(0.01);
  Stopwatch watch;
  CheckpointedStep(&net, &opt, batch, PlanNone(net.size()));
  const double compute_s = watch.Seconds();

  // Overhead is the transfer time the measured compute does not hide.
  using bench::kWall;
  bench::Report report("offloading");
  report
      .AddLine("E9a", {{"full_KB",
                        "E9a: device-budget sweep (PCIe tier, 12 GB/s), full "
                        "activation set = %.0f KB,"},
                       {"compute_ms", " step compute = %.2f ms", kWall}})
      .Row(static_cast<double>(full) / 1e3, compute_s * 1e3);
  bench::Table& budgets = report.AddTable(
      "E9a budgets", {{"budget_frac", "%-13.2f"}, {"device_KB", "%12.0f"},
                      {"moved_KB", "%14.0f"}, {"transfer_ms", "%14.3f"},
                      {"overhead_ms", "%14.3f", kWall}});
  SlowTier tier;
  for (double frac : {1.0, 0.75, 0.5, 0.25, 0.1}) {
    const int64_t budget =
        static_cast<int64_t>(frac * static_cast<double>(full));
    auto set = ChooseOffloadSet(costs, budget);
    if (!set.ok()) {
      budgets.Row(frac, "infeasible");
      continue;
    }
    OffloadEstimate est = EstimateOffload(costs, *set, tier, compute_s);
    budgets.Row(frac, static_cast<double>(est.device_peak_bytes) / 1e3,
                static_cast<double>(est.transferred_bytes) / 1e3,
                est.transfer_seconds * 1e3, est.overhead_seconds * 1e3);
  }

  report.Print("\nE9b: slow-tier bandwidth sweep at a 25%% device "
               "budget\n");
  bench::Table& tiers = report.AddTable(
      "E9b", {{"bandwidth_GB/s", "%-16.0f"}, {"transfer_ms", "%14.3f"},
              {"overhead_ms", "%14.3f", kWall}});
  auto set = ChooseOffloadSet(costs, full / 4);
  if (set.ok()) {
    for (double gbps : {32.0, 12.0, 4.0, 1.0}) {
      SlowTier t{gbps * 1e9, 5e-6};
      OffloadEstimate est = EstimateOffload(costs, *set, t, compute_s);
      tiers.Row(gbps, est.transfer_seconds * 1e3,
                est.overhead_seconds * 1e3);
    }
  }
  report.Print("\nexpected shape: device memory falls with the budget while "
               "transferred bytes and overhead rise; fast tiers hide "
               "transfers behind compute (zero overhead), slow tiers do "
               "not — the vDNN trade.\n");
  return report.Finish();
}
