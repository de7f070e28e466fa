// E5 — Local SGD cuts communication with small accuracy loss as the
// averaging period H grows (Section 2.1, Stich).

#include "bench/report.h"
#include "src/data/synthetic.h"
#include "src/distributed/cluster.h"
#include "src/nn/train.h"

int main() {
  using namespace dlsys;
  Rng rng(37);
  Dataset data = MakeGaussianBlobs(6000, 16, 6, 2.5, &rng);
  TrainTestSplit split = Split(data, 0.85);
  Sequential arch = MakeMlp(16, {64}, 6);
  arch.Init(&rng);

  bench::Report report("local_sgd");
  report.Print("E5: Local SGD averaging-period sweep "
               "(8 workers, 480 local steps, 1 Gbps)\n");
  // The simulated time includes each round's measured compute.
  bench::Table& table = report.AddTable(
      "E5", {{"H", "%-8lld"}, {"accuracy", "%10.3f"}, {"comm_MB", "%12.2f"},
             {"comm_rounds", "%14lld"},
             {"sim_time_s", "%12.4f", bench::kWall}});
  for (int64_t h : {1, 2, 4, 8, 16, 32}) {
    ClusterConfig config;
    config.workers = 8;
    config.rounds = 480;
    config.strategy = SyncStrategy::kLocalSgd;
    config.local_steps = h;
    config.network.bandwidth_bytes_per_s = 1.25e8;
    auto result = TrainOnCluster(arch, split.train, config, nullptr);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    Sequential model = result->model.Clone();
    table.Row(h, Evaluate(&model, split.test).accuracy,
              result->report.Get(metric::kCommBytes) / 1e6, 480 / h,
              result->report.Get(metric::kTrainSeconds));
  }
  report.Print("\nexpected shape: comm bytes fall ~1/H; accuracy nearly flat "
               "for small H, degrading slowly at large H.\n");
  return report.Finish();
}
