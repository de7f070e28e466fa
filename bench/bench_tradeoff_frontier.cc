// E20 — The framework view (Section 2): place technique combinations on
// the (training-time, accuracy) and (memory, accuracy) planes and
// extract the Pareto frontier, exercising the TradeoffRegistry that is
// the paper's organizing contribution.

#include "bench/report.h"
#include "src/compress/distill.h"
#include "src/compress/pruning.h"
#include "src/compress/quantization.h"
#include "src/core/tradeoff.h"
#include "src/data/synthetic.h"
#include "src/ensemble/ensemble.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"

int main() {
  using namespace dlsys;
  Rng rng(97);
  Dataset data = MakeGaussianBlobs(5000, 16, 8, 1.2, &rng);
  TrainTestSplit split = Split(data, 0.85);
  TradeoffRegistry registry;

  auto record = [&](const char* name, TradeoffClass cls,
                    const char* section, double train_s, double acc,
                    double model_bytes) {
    registry.Register({name, cls, section, {}});
    MetricsReport run;
    run.Set(metric::kTrainSeconds, train_s);
    run.Set(metric::kAccuracy, acc);
    run.Set(metric::kModelBytes, model_bytes);
    registry.Record(name, run);
  };

  // Baseline dense model.
  Sequential base = MakeMlp(16, {96, 64}, 8);
  base.Init(&rng);
  {
    Sgd opt(0.05, 0.9);
    TrainConfig tc;
    tc.epochs = 25;
    Stopwatch watch;
    Train(&base, &opt, split.train, tc);
    record("dense-fp32", TradeoffClass::kAccuracyVsEfficiency, "2",
           watch.Seconds(), Evaluate(&base, split.test).accuracy,
           static_cast<double>(base.ModelBytes()));
  }
  // Quantized variants.
  for (int64_t bits : {8, 4, 2}) {
    Sequential net = base.Clone();
    Stopwatch watch;
    auto nq = QuantizeNetwork(&net, QuantizerKind::kKMeans, bits);
    if (!nq.ok()) return 1;
    const std::string name = "quantized-" + std::to_string(bits) + "b";
    record(name.c_str(), TradeoffClass::kAccuracyVsEfficiency, "2.1",
           watch.Seconds(), Evaluate(&net, split.test).accuracy,
           static_cast<double>(nq->huffman_bytes));
  }
  // Pruned + finetuned.
  for (double sparsity : {0.7, 0.9}) {
    Sequential net = base.Clone();
    Stopwatch watch;
    auto mask = BuildPruneMask(&net, PruneCriterion::kMagnitude, sparsity,
                               nullptr, nullptr);
    if (!mask.ok()) return 1;
    mask->Apply(&net);
    Sgd opt(0.02, 0.9);
    TrainConfig tc;
    tc.epochs = 5;
    tc.on_step = [&](int64_t, int64_t, double) { mask->Apply(&net); };
    Train(&net, &opt, split.train, tc);
    const std::string name = bench::Format("pruned-%.0f%%", sparsity * 100);
    record(name.c_str(), TradeoffClass::kAccuracyVsEfficiency, "2.1",
           watch.Seconds(), Evaluate(&net, split.test).accuracy,
           static_cast<double>(SparseModelBytes(&net, *mask)));
  }
  // Distilled student.
  {
    Sequential student = MakeMlp(16, {16}, 8);
    student.Init(&rng);
    Sgd opt(0.05, 0.9);
    DistillConfig dc;
    dc.epochs = 25;
    Stopwatch watch;
    if (!Distill(&base, &student, &opt, split.train, dc).ok()) return 1;
    record("distilled-16", TradeoffClass::kAccuracyVsEfficiency, "2.1",
           watch.Seconds(), Evaluate(&student, split.test).accuracy,
           static_cast<double>(student.ModelBytes()));
  }
  // Snapshot ensemble.
  {
    MemberBuilder builder = [](int64_t) { return MakeMlp(16, {96, 64}, 8); };
    auto run = TrainSnapshotEnsemble(builder, 5, 5, split.train, 32, 0.05, 3);
    if (!run.ok()) return 1;
    auto& e = const_cast<Ensemble&>(run->ensemble);
    record("snapshot-x5", TradeoffClass::kAccuracyVsEfficiency, "2.1",
           run->report.Get(metric::kTrainSeconds), e.Accuracy(split.test),
           run->report.Get(metric::kModelBytes));
  }

  using bench::kWall;
  bench::Report report("tradeoff_frontier");
  report.Print("E20: technique placements on the tradeoff planes\n");
  bench::Table& placements = report.AddTable(
      "E20", {{"technique", "%-16s"}, {"train_s", "%12.3f", kWall},
              {"accuracy", "%12.3f"}, {"model_KB", "%12.1f"}});
  for (const auto& profile : registry.profiles()) {
    const MetricsReport& run = profile.runs.back();
    placements.Row(profile.name, run.Get(metric::kTrainSeconds),
                   run.Get(metric::kAccuracy),
                   run.Get(metric::kModelBytes) / 1e3);
  }

  report.Print("\nPareto frontier on (model bytes DOWN, accuracy UP):\n");
  bench::Table& by_size = report.AddLine(
      "size frontier", {{"technique", "  %-16s"}, {"model_KB", " %10.1f KB"},
                        {"accuracy", "  acc %.3f"}});
  auto points = registry.Points(metric::kModelBytes, metric::kAccuracy);
  for (const auto& p : ParetoFrontier(points)) {
    by_size.Row(p.technique, p.x / 1e3, p.y);
  }
  // Which techniques reach this frontier depends on measured train times.
  report.Print("\nPareto frontier on (train seconds DOWN, accuracy UP):\n");
  bench::Table& by_time = report.AddLine(
      "time frontier", {{"technique", "  %-16s", kWall},
                        {"train_s", " %10.3f s", kWall},
                        {"accuracy", "   acc %.3f", kWall}});
  auto tpoints = registry.Points(metric::kTrainSeconds, metric::kAccuracy);
  for (const auto& p : ParetoFrontier(tpoints)) {
    by_time.Row(p.technique, p.x, p.y);
  }
  report.Print("\nexpected shape: no single technique dominates — the "
               "frontier mixes quantization (size), distillation "
               "(size+speed), and ensembles (accuracy), which is the "
               "tutorial's central claim.\n");
  return report.Finish();
}
