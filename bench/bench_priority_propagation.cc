// E21 (ablation) — Priority-based parameter propagation (Section 2.1,
// P3): overlapping communication with compute, and sending the layers
// the next forward pass needs first, shortens the iteration boundary.

#include "bench/report.h"
#include "src/distributed/priority.h"

namespace {
std::vector<dlsys::LayerCost> Network(int64_t layers, double comm_ratio) {
  // comm_ratio scales transfer volume relative to compute.
  std::vector<dlsys::LayerCost> out;
  for (int64_t i = 0; i < layers; ++i) {
    dlsys::LayerCost c;
    c.backward_seconds = 0.004;
    c.forward_seconds = 0.002;
    c.gradient_bytes =
        static_cast<int64_t>(comm_ratio * 0.006 * 1.25e9);  // bytes
    out.push_back(c);
  }
  return out;
}
}  // namespace

int main() {
  using namespace dlsys;
  NetworkModel link{1e-5, 1.25e9};
  bench::Report report("priority_propagation");
  report.Print("E21: iteration-boundary makespan (ms) by scheduling "
               "policy\n");
  bench::Table& table = report.AddTable(
      "E21", {{"layers", "%-8lld"}, {"comm/comp", "%-12.2f"},
              {"no-overlap", "%12.2f"}, {"fifo", "%10.2f"},
              {"priority", "%10.2f"}, {"prio_gain", "%11.2fx"}});
  for (int64_t layers : {8, 24, 48}) {
    for (double ratio : {0.25, 1.0, 4.0}) {
      auto net = Network(layers, ratio);
      const double none =
          SimulatePropagation(net, link, PropagationPolicy::kNoOverlap);
      const double fifo =
          SimulatePropagation(net, link, PropagationPolicy::kFifo);
      const double prio =
          SimulatePropagation(net, link, PropagationPolicy::kPriority);
      table.Row(layers, ratio, none * 1e3, fifo * 1e3, prio * 1e3,
                none / prio);
    }
  }
  report.Print("\nexpected shape: overlap alone (fifo) removes up to half "
               "the boundary; priority scheduling adds most on comm-bound "
               "configurations where the forward pass would otherwise wait "
               "for early layers queued last.\n");
  return report.Finish();
}
