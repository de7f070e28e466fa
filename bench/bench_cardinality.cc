// E12 — Learned multi-attribute selectivity estimation vs histogram AVI
// (Part 2, Hasan et al.): the learned estimator's q-error advantage
// grows with inter-attribute correlation and attribute count.

#include <algorithm>
#include <vector>

#include "bench/report.h"
#include "src/db/histogram.h"
#include "src/learned/cardinality.h"

namespace {
struct QErrorStats {
  double mean, p50, p95;
};

QErrorStats Stats(std::vector<double> errs) {
  std::sort(errs.begin(), errs.end());
  double mean = 0.0;
  for (double e : errs) mean += e;
  mean /= static_cast<double>(errs.size());
  return {mean, errs[errs.size() / 2], errs[errs.size() * 95 / 100]};
}
}  // namespace

int main() {
  using namespace dlsys;
  bench::Report report("cardinality");
  report.Print("E12: learned cardinality vs histogram AVI "
               "(10k rows, 400 train / 100 test queries)\n");
  bench::Table& table = report.AddTable(
      "E12", {{"cols", "%-6lld"}, {"corr", "%-6.1f"}, {"estimator", "%-9s"},
              {"mean_q", "%9.2f"}, {"p50_q", "%9.2f"}, {"p95_q", "%9.2f"}});
  for (int64_t cols : {2, 4, 6}) {
    for (double corr : {0.0, 0.5, 0.9}) {
      Rng rng(61);
      Table t = MakeCorrelatedTable(10000, cols, corr, &rng);
      Rng wrng(67);
      auto train_q = MakeWorkload(t, 400, &wrng);
      auto test_q = MakeWorkload(t, 100, &wrng);
      CardinalityConfig config;
      config.epochs = 60;
      auto learned = LearnedCardinality::Train(t, train_q, config);
      if (!learned.ok()) return 1;
      AviEstimator avi(t, 64);
      std::vector<double> avi_errs, learned_errs;
      for (const auto& q : test_q) {
        const double truth = TrueSelectivity(t, q);
        avi_errs.push_back(QError(avi.Estimate(q), truth));
        learned_errs.push_back(QError(learned->Estimate(q), truth));
      }
      QErrorStats a = Stats(avi_errs);
      QErrorStats l = Stats(learned_errs);
      table.Row(cols, corr, "avi", a.mean, a.p50, a.p95);
      table.Row(cols, corr, "learned", l.mean, l.p50, l.p95);
    }
  }
  report.Print("\nexpected shape: AVI is fine at corr=0 but its q-error "
               "explodes with correlation and attribute count; the learned "
               "estimator stays within small constant q-errors.\n");
  return report.Finish();
}
