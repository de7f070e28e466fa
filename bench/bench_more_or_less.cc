// E29 — "More or Less: When and How to Build Ensembles" (tutorial
// citation [107], Wasay & Idreos): at a FIXED total parameter budget,
// is it better to train many small networks or few large ones? Sweeps
// the (members x width) grid at constant budget, across dataset sizes.

#include "bench/report.h"
#include "src/data/synthetic.h"
#include "src/ensemble/ensemble.h"
#include "src/nn/train.h"

namespace {
// Width so that k members of an (16 -> w -> 8) MLP use ~budget params.
int64_t WidthForBudget(int64_t budget, int64_t k) {
  // params(w) = 16w + w + 8w + 8 = 25w + 8 per member.
  return std::max<int64_t>(2, (budget / k - 8) / 25);
}
}  // namespace

int main() {
  using namespace dlsys;
  const int64_t budget = 12000;  // total parameters across the ensemble

  bench::Report report("more_or_less");
  report.Print("E29: fixed parameter budget (%lld params) split across "
               "ensemble members\n",
               static_cast<long long>(budget));
  bench::Table& table = report.AddTable(
      "E29", {{"examples", "%-10lld"}, {"members", "%-10lld"},
              {"width", "%-9lld"}, {"accuracy", "%12.3f"},
              {"train_s", "%12.3f", bench::kWall}});
  for (int64_t examples : {400, 4000}) {
    Rng rng(131);
    Dataset data =
        MakeGaussianBlobs(examples + examples / 4, 16, 8, 1.0, &rng);
    auto split =
        Split(data, static_cast<double>(examples) /
                        static_cast<double>(data.size()));
    for (int64_t k : {1, 2, 4, 8, 16}) {
      const int64_t width = WidthForBudget(budget, k);
      MemberBuilder builder = [width](int64_t) {
        return MakeMlp(16, {width}, 8);
      };
      TrainConfig tc;
      tc.epochs = 12;
      auto run = TrainFullEnsemble(builder, k, split.train, tc, 0.05,
                                   17 + static_cast<uint64_t>(k));
      if (!run.ok()) return 1;
      auto& e = const_cast<Ensemble&>(run->ensemble);
      table.Row(examples, k, width, e.Accuracy(split.test),
                run->report.Get(metric::kTrainSeconds));
    }
  }
  report.Print("\nexpected shape: a single large model is never optimal at "
               "fixed budget — splitting into several members buys variance "
               "reduction; returns flatten once members get too small to "
               "fit the task (the More-or-Less question: the sweet spot is "
               "interior and data-dependent).\n");
  return report.Finish();
}
