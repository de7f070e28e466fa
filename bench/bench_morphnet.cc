// E23 — MorphNet-style inference optimization (Section 2.2): an
// optimization step tailors the network structure to a FLOP budget;
// compare against uniform scaling at equal budget and training effort.

#include "bench/report.h"
#include "src/data/synthetic.h"
#include "src/nnopt/morphnet.h"

int main() {
  using namespace dlsys;
  Rng rng(101);
  // High-dimensional input: the first layer deserves more capacity than
  // a uniform allocation gives it.
  Dataset data = MakeGaussianBlobs(3000, 32, 10, 1.0, &rng);
  TrainTestSplit split = Split(data, 0.8);

  bench::Report report("morphnet");
  report.Print("E23: structure optimization under FLOP budgets "
               "(32-D input, 10 close classes)\n");
  bench::Table& table = report.AddTable(
      "E23", {{"budget_flops", "%-13.0f"}, {"method", "%-10s"},
              {"accuracy", "%10.3f"}, {"real_flops", "%12.0f"},
              {"optimize_s", "%14.2f", bench::kWall}, {"widths", "%-18s"}});
  for (double budget : {8000.0, 4000.0, 2000.0, 1000.0}) {
    MorphConfig config;
    config.flop_budget = budget;
    config.iterations = 3;
    config.train_epochs = 8;
    auto morph = MorphNetOptimize(32, 10, {32, 32}, split.train, split.test,
                                  config);
    auto uniform = UniformScaleBaseline(32, 10, {32, 32}, split.train,
                                        split.test, config);
    if (!morph.ok() || !uniform.ok()) return 1;
    auto widths_str = [](const std::vector<int64_t>& widths) {
      std::string s;
      for (int64_t w : widths) {
        s += std::to_string(w);
        s += " ";
      }
      return s;
    };
    table.Row(budget, "morphnet", morph->report.Get(metric::kAccuracy),
              morph->report.Get(metric::kFlops),
              morph->report.Get("optimize_seconds"),
              widths_str(morph->widths));
    table.Row(budget, "uniform", uniform->report.Get(metric::kAccuracy),
              uniform->report.Get(metric::kFlops),
              uniform->report.Get("optimize_seconds"),
              widths_str(uniform->widths));
  }
  report.Print("\nexpected shape: at generous budgets both match; as the "
               "budget tightens the structure-optimized allocation "
               "(non-uniform widths) holds accuracy longer than uniform "
               "scaling — optimization time buys inference efficiency.\n");
  return report.Finish();
}
