// E4 — Ensemble training strategies (Section 2.1): full independent
// training vs Snapshot Ensembles vs MotherNets vs TreeNets. Reports
// accuracy, training time, model bytes, and inference time for a
// 5-member ensemble.

#include "bench/report.h"
#include "src/data/synthetic.h"
#include "src/ensemble/ensemble.h"
#include "src/ensemble/treenet.h"
#include "src/nn/layers.h"
#include "src/nn/train.h"

int main() {
  using namespace dlsys;
  Rng rng(29);
  // Close classes: single models plateau below the ensemble ceiling, so
  // averaging has visible headroom.
  Dataset data = MakeGaussianBlobs(6000, 16, 8, 1.0, &rng);
  TrainTestSplit split = Split(data, 0.85);
  const int64_t k = 5;
  const int64_t epochs_per_member = 12;

  bench::Report report("ensembles");
  report.Print("E4: 5-member ensemble strategies\n");
  bench::Table& table = report.AddTable(
      "E4", {{"strategy", "%-22s"}, {"accuracy", "%10.3f"},
             {"train_s", "%12.3f", bench::kWall}, {"model_KB", "%12.1f"},
             {"infer_s", "%12.4f", bench::kWall}});
  auto row = [&table](const char* strategy, const Ensemble& e,
                      const MetricsReport& run, const Dataset& test) {
    auto& members = const_cast<Ensemble&>(e);
    table.Row(strategy, members.Accuracy(test),
              run.Get(metric::kTrainSeconds),
              run.Get(metric::kModelBytes) / 1e3,
              members.MeasureInferenceSeconds(test));
  };

  MemberBuilder builder = [](int64_t) { return MakeMlp(16, {48}, 8); };

  // Full independent ensemble (the baseline).
  {
    TrainConfig tc;
    tc.epochs = epochs_per_member;
    auto run = TrainFullEnsemble(builder, k, split.train, tc, 0.05, 3);
    if (!run.ok()) return 1;
    row("full (baseline)", run->ensemble, run->report, split.test);
    // Single member for reference.
    auto& e = const_cast<Ensemble&>(run->ensemble);
    table.Row("  (single member)",
              Evaluate(&e.member(0), split.test).accuracy, "-",
              static_cast<double>(e.member(0).ModelBytes()) / 1e3, "-");
  }
  // Snapshot ensemble: one training run, k cosine cycles — roughly one
  // member's training budget in total (3 epochs per cycle).
  {
    auto run = TrainSnapshotEnsemble(builder, k, 3, split.train, 32, 0.1, 3);
    if (!run.ok()) return 1;
    row("snapshot", run->ensemble, run->report, split.test);
  }
  // Fast Geometric Ensembles: converge once, then short triangular
  // exploration cycles (1 epoch each).
  {
    auto run = TrainFastGeometricEnsemble(builder, k, epochs_per_member, 2,
                                          split.train, 32, 0.05, 0.05, 0.005,
                                          3);
    if (!run.ok()) return 1;
    row("fge", run->ensemble, run->report, split.test);
  }
  // MotherNets: shared mother + hatch + short finetune.
  {
    auto run = TrainMotherNets(16, 8, {40, 44, 48, 52, 56},
                               /*mother_epochs=*/epochs_per_member,
                               /*finetune_epochs=*/3, split.train, 32, 0.05,
                               3);
    if (!run.ok()) return 1;
    row("mothernets", run->ensemble, run->report, split.test);
  }
  // TreeNet: shared trunk, k heads, trained jointly.
  {
    Sequential trunk = MakeMlp(16, {}, 48);
    trunk.Emplace<ReLU>();
    Sequential head = MakeMlp(48, {}, 8);
    Rng trng(3);
    trunk.Init(&trng);
    TreeNet tree(std::move(trunk), head, k, 4);
    MetricsReport tree_report = TrainTreeNet(&tree, split.train,
                                             epochs_per_member, 32, 0.05, 5);
    Stopwatch infer;
    tree.Accuracy(split.test);
    table.Row("treenet", tree.Accuracy(split.test),
              tree_report.Get(metric::kTrainSeconds),
              tree_report.Get(metric::kModelBytes) / 1e3, infer.Seconds());
  }
  report.Print("\nexpected shape: full ensemble is the accuracy ceiling and "
               "the cost ceiling; snapshot ~1/k train time at small accuracy "
               "cost; mothernets/treenet also cut memory and inference.\n");
  return report.Finish();
}
