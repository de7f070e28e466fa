// E6 — Gradient compression cuts communication bandwidth (Section 2.1,
// Deep Gradient Compression / quantized gradients). Sweeps top-k keep
// fractions and quantization bit widths under synchronous SGD.

#include <memory>

#include "bench/report.h"
#include "src/data/synthetic.h"
#include "src/distributed/cluster.h"
#include "src/distributed/compressor.h"
#include "src/nn/train.h"

int main() {
  using namespace dlsys;
  Rng rng(41);
  Dataset data = MakeGaussianBlobs(6000, 16, 6, 2.5, &rng);
  TrainTestSplit split = Split(data, 0.85);
  Sequential arch = MakeMlp(16, {64}, 6);
  arch.Init(&rng);

  ClusterConfig config;
  config.workers = 8;
  config.rounds = 300;
  config.network.bandwidth_bytes_per_s = 1.25e8;

  bench::Report report("grad_compression");
  report.Print("E6: gradient compression sweep (8 workers, sync SGD)\n");
  bench::Table& table = report.AddTable(
      "E6", {{"codec", "%-22s"}, {"accuracy", "%10.3f"}, {"comm_MB", "%12.2f"},
             {"vs_dense", "%11.1fx"}});

  auto run = [&](const std::string& name, const GradientCompressor* codec,
                 double dense_mb) {
    auto result = TrainOnCluster(arch, split.train, config, codec);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 0.0;
    }
    Sequential model = result->model.Clone();
    const double mb = result->report.Get(metric::kCommBytes) / 1e6;
    table.Row(name, Evaluate(&model, split.test).accuracy, mb,
              dense_mb > 0 ? dense_mb / mb : 1.0);
    return mb;
  };

  const double dense_mb = run("dense fp32", nullptr, 0.0);
  for (double keep : {0.25, 0.1, 0.05, 0.01}) {
    TopKCompressor topk(keep);
    run(bench::Format("top-%.0f%%", keep * 100), &topk, dense_mb);
  }
  for (int64_t bits : {8, 4, 2, 1}) {
    QuantizingCompressor q(bits);
    run("quantize-" + std::to_string(bits) + "bit", &q, dense_mb);
  }
  report.Print("\nexpected shape: 10-100x byte reductions with error "
               "feedback keeping accuracy within a few points of dense; "
               "1-bit / top-1%% are the aggressive edge.\n");
  return report.Finish();
}
