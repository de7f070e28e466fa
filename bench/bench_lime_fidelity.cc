// E16 — LIME surrogates are locally faithful; fidelity decays as the
// explained neighbourhood widens, and distilled global surrogates trade
// pointwise fidelity for coverage (Section 4.2).

#include <algorithm>
#include <cmath>

#include "bench/report.h"
#include "src/compress/distill.h"
#include "src/data/synthetic.h"
#include "src/interpret/lime.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"
#include "src/tensor/ops.h"

int main() {
  using namespace dlsys;
  bench::Report report("lime_fidelity");
  Rng rng(79);
  Dataset data = MakeTwoMoons(2000, 0.08, &rng);
  TrainTestSplit split = Split(data, 0.8);
  Sequential net = MakeMlp(2, {16, 16}, 2);
  net.Init(&rng);
  Adam opt(0.01);
  TrainConfig tc;
  tc.epochs = 8;
  Train(&net, &opt, split.train, tc);
  report
      .AddLine("model", {{"accuracy",
                          "E16a: LIME fidelity vs neighbourhood width "
                          "(model acc=%.3f on two-moons)"}})
      .Row(Evaluate(&net, split.test).accuracy);
  // Explain points near the decision boundary, where the model actually
  // varies (far from it the function is constant and R^2 degenerates).
  Tensor all_probs = RowSoftmax(net.Forward(split.test.x, CacheMode::kNoCache));
  std::vector<std::pair<float, int64_t>> by_margin;
  for (int64_t i = 0; i < split.test.size(); ++i) {
    by_margin.push_back({std::abs(all_probs[i * 2 + 1] - 0.5f), i});
  }
  std::sort(by_margin.begin(), by_margin.end());
  std::vector<int64_t> boundary_points;
  for (size_t i = 0; i < 20 && i < by_margin.size(); ++i) {
    boundary_points.push_back(by_margin[i].second);
  }
  bench::Table& local = report.AddTable(
      "E16a", {{"perturb_std", "%-14.2f"}, {"mean_R2", "%14.3f"}});
  for (double width : {0.01, 0.03, 0.1, 0.3, 1.0}) {
    double total_r2 = 0.0;
    int64_t count = 0;
    for (int64_t i : boundary_points) {
      Tensor x = SliceRows(split.test.x, i, i + 1);
      LimeConfig config;
      config.perturb_std = width;
      config.kernel_width = width * 2.0;
      config.seed = 100 + static_cast<uint64_t>(i);
      auto explanation = ExplainWithLime(&net, x, 1, config);
      if (!explanation.ok()) continue;
      total_r2 += explanation->fidelity_r2;
      ++count;
    }
    local.Row(width, total_r2 / static_cast<double>(count));
  }

  report.Print("\nE16b: distilled global surrogates — depth sweep "
               "(agreement with teacher on the test set)\n");
  bench::Table& global = report.AddTable(
      "E16b", {{"surrogate", "%-14s"}, {"params", "%12lld"},
               {"agreement", "%14.3f"}});
  for (int64_t width : {0, 4, 16, 48}) {
    Sequential surrogate = width == 0 ? MakeMlp(2, {}, 2)
                                      : MakeMlp(2, {width}, 2);
    Rng srng(200 + static_cast<uint64_t>(width));
    surrogate.Init(&srng);
    Sgd sopt(0.05, 0.9);
    DistillConfig dc;
    dc.epochs = 40;
    dc.alpha = 1.0;  // learn only from the teacher
    Distill(&net, &surrogate, &sopt, split.train, dc);
    // Agreement: fraction of test points where argmax matches.
    Tensor teacher_logits = net.Forward(split.test.x, CacheMode::kNoCache);
    Tensor surrogate_logits =
        surrogate.Forward(split.test.x, CacheMode::kNoCache);
    std::vector<int64_t> a = ArgMaxRows(teacher_logits);
    std::vector<int64_t> b = ArgMaxRows(surrogate_logits);
    int64_t same = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] == b[i]) ++same;
    }
    global.Row(width == 0 ? "linear" : "mlp-" + std::to_string(width),
               surrogate.NumParams(),
               static_cast<double>(same) / static_cast<double>(a.size()));
  }
  report.Print("\nexpected shape: local fidelity ~1 for narrow "
               "neighbourhoods, decaying as the linear surrogate must "
               "cover more of the nonlinear boundary; global surrogate "
               "agreement rises with surrogate capacity.\n");
  return report.Finish();
}
