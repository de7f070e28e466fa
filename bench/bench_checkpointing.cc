// E8 — Checkpointing trades one extra forward pass for a geometric
// memory cut; budget-constrained planning beats fixed equidistant
// segmentation (Section 2.3: Chen et al., Checkmate).

#include "bench/report.h"
#include "src/data/synthetic.h"
#include "src/memsched/checkpoint.h"
#include "src/nn/layers.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"

namespace {
dlsys::Sequential DeepMlp(int64_t depth, int64_t width) {
  dlsys::Sequential net;
  int64_t prev = 16;
  for (int64_t i = 0; i < depth; ++i) {
    net.Emplace<dlsys::Dense>(prev, width);
    net.Emplace<dlsys::ReLU>();
    prev = width;
  }
  net.Emplace<dlsys::Dense>(prev, 4);
  return net;
}
}  // namespace

int main() {
  using namespace dlsys;
  Rng rng(43);
  Dataset batch = MakeGaussianBlobs(256, 16, 4, 3.0, &rng);

  bench::Report report("checkpointing");
  report.Print("E8a: depth sweep — measured activation peak (KB) and step "
               "time (ms)\n");
  bench::Table& depths = report.AddTable(
      "E8a", {{"depth", "%-7lld"}, {"plain_KB", "%11.0f"},
              {"plain_ms", "%10.2f", bench::kWall}, {"sqrt_KB", "%11.0f"},
              {"sqrt_ms", "%10.2f", bench::kWall}, {"sqrtKB/plain", "%11.2f"},
              {"segs", "%11lld"}});
  for (int64_t depth : {8, 16, 32, 64}) {
    Sequential plain = DeepMlp(depth, 64);
    Rng init(7);
    plain.Init(&init);
    Sequential ckpt = plain.Clone();
    Sgd opt_a(0.01), opt_b(0.01);

    MemoryTracker::Global().ResetPeak();
    Stopwatch plain_watch;
    CheckpointedStep(&plain, &opt_a, batch, PlanNone(plain.size()));
    const double plain_ms = plain_watch.Seconds() * 1e3;
    const double plain_kb =
        static_cast<double>(MemoryTracker::Global().peak_bytes()) / 1e3;

    CheckpointPlan sqrt_plan = PlanSqrtN(ckpt.size());
    MemoryTracker::Global().ResetPeak();
    Stopwatch ckpt_watch;
    CheckpointedStep(&ckpt, &opt_b, batch, sqrt_plan);
    const double ckpt_ms = ckpt_watch.Seconds() * 1e3;
    const double ckpt_kb =
        static_cast<double>(MemoryTracker::Global().peak_bytes()) / 1e3;

    depths.Row(depth, plain_kb, plain_ms, ckpt_kb, ckpt_ms, ckpt_kb / plain_kb,
               sqrt_plan.NumSegments());
  }

  report.Print("\nE8b: budget-constrained planner vs sqrt(n) at depth 32 "
               "(predicted bytes, recompute FLOPs)\n");
  Sequential probe_net = DeepMlp(32, 64);
  Rng init(7);
  probe_net.Init(&init);
  auto costs = ProbeLayerCosts(&probe_net, batch.x);
  int64_t full_peak = 0;
  for (const auto& c : costs) full_peak += c.cached_bytes;
  bench::Table& budgets = report.AddTable(
      "E8b", {{"budget_frac", "%-14.4f"}, {"plan_segs", "%12lld"},
              {"peak_B", "%12lld"}, {"recompute_MF", "%12.2f"}});
  for (double frac : {1.0, 0.5, 0.25, 0.125, 0.0625}) {
    const int64_t budget =
        static_cast<int64_t>(frac * static_cast<double>(full_peak)) +
        costs[0].input_bytes * 4;
    auto plan = PlanForBudget(costs, budget);
    if (!plan.ok()) {
      budgets.Row(frac, "infeasible", "-", "-");
      continue;
    }
    budgets.Row(frac, plan->NumSegments(), plan->PredictedPeakBytes(costs),
                static_cast<double>(plan->RecomputeFlops(costs)) / 1e6);
  }
  report.Print("\nexpected shape: sqrt(n) cuts the activation peak by "
               "~sqrt(depth) for <2x step time; the planner buys smaller "
               "peaks with more segments (more recompute) and degrades "
               "gracefully to per-layer segmentation.\n");
  return report.Finish();
}
