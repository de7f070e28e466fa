// E3 — Knowledge distillation (Section 2.1, Hinton et al.): a student
// trained to mimic the teacher over a large UNLABELED transfer set beats
// the same architecture trained from scratch on the small labeled set,
// at a fraction of the teacher's size.

#include "bench/report.h"
#include "src/compress/distill.h"
#include "src/data/synthetic.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"

int main() {
  using namespace dlsys;
  using bench::kExact;
  bench::Report report("distillation");
  Rng rng(23);
  // The teacher's world: a large labeled corpus. Downstream, only a
  // small labeled slice plus plenty of unlabeled data are available.
  Dataset corpus = MakeGaussianBlobs(6000, 16, 8, 1.5, &rng);
  auto split = Split(corpus, 0.8);
  Dataset labeled = Batch(split.train, 0, 96);       // small labeled set
  Dataset transfer = split.train;                     // unlabeled pool
  for (auto& y : transfer.y) y = 0;                   // labels withheld

  Sequential teacher = MakeMlp(16, {128, 128}, 8);
  teacher.Init(&rng);
  Sgd teacher_opt(0.05, 0.9);
  TrainConfig tc;
  tc.epochs = 30;
  Train(&teacher, &teacher_opt, split.train, tc);
  const double teacher_acc = Evaluate(&teacher, split.test).accuracy;
  report
      .AddLine("teacher", {{"accuracy",
                            "E3: distillation over an unlabeled transfer "
                            "set (teacher 128x128: acc=%.3f,"},
                           {"bytes", " %lld bytes;"}})
      .Row(teacher_acc, teacher.ModelBytes());
  report.Print("    students see 96 labels or 4800 unlabeled examples)\n");
  bench::Table& table = report.AddTable(
      "E3", {{"student", "%-14s"}, {"bytes", "%10lld"}, {"distilled", "%12.3f"},
             {"from_scratch", "%13.3f"}, {"ratio", "%10.1fx", kExact, "%10s"}});

  for (int64_t width : {64, 32, 16, 8, 4}) {
    // Student distilled from the teacher over the unlabeled pool.
    Sequential distilled = MakeMlp(16, {width}, 8);
    Rng srng(100 + static_cast<uint64_t>(width));
    distilled.Init(&srng);
    Sgd distill_opt(0.05, 0.9);
    DistillConfig dc;
    dc.epochs = 20;
    dc.temperature = 2.0;
    dc.alpha = 1.0;  // pure soft targets: labels never consulted
    auto report =
        Distill(&teacher, &distilled, &distill_opt, transfer, dc);
    if (!report.ok()) {
      std::fprintf(stderr, "distill failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    // Same architecture trained from scratch on the labeled slice only.
    Sequential scratch = MakeMlp(16, {width}, 8);
    Rng srng2(100 + static_cast<uint64_t>(width));
    scratch.Init(&srng2);
    Sgd scratch_opt(0.05, 0.9);
    TrainConfig sc;
    sc.epochs = 20 * 50;  // equal step budget on the 50x smaller set
    Train(&scratch, &scratch_opt, labeled, sc);

    const double d_acc = Evaluate(&distilled, split.test).accuracy;
    const double s_acc = Evaluate(&scratch, split.test).accuracy;
    table.Row("mlp-" + std::to_string(width), distilled.ModelBytes(), d_acc,
              s_acc,
              static_cast<double>(teacher.ModelBytes()) /
                  static_cast<double>(distilled.ModelBytes()));
  }
  report.Print("\nexpected shape: distilled > from-scratch down to ~100x "
               "compression (the teacher's soft labels unlock the "
               "unlabeled pool); below the capacity cliff the tiny student "
               "can no longer imitate full soft distributions and "
               "hard-label training regains the edge.\n");
  return report.Finish();
}
