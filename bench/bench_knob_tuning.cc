// E13 — RL knob tuning converges to near-optimal configurations with
// fewer evaluations than grid search (Part 2, QTune/CDBTune-flavoured).

#include "bench/report.h"
#include "src/db/tunable_db.h"
#include "src/learned/knob_tuning.h"

namespace {
double BestAt(const dlsys::TuningResult& r, size_t evals) {
  if (r.best_so_far.empty()) return 1e300;
  return r.best_so_far[std::min(evals, r.best_so_far.size()) - 1];
}
}  // namespace

int main() {
  using namespace dlsys;
  bench::Report report("knob_tuning");
  report.Print("E13: knob tuning on the simulated DB (288 configurations)\n");
  bench::Table& optimum = report.AddLine(
      "optimum", {{"workload", "\nworkload %s:"},
                  {"optimum_ms", " exhaustive optimum %.3f ms"},
                  {"knobs", " (%s)"}});
  bench::Table& final_config = report.AddLine(
      "final", {{"knobs", "final q-learning config: %s"},
                {"latency_ms", " (%.3f ms,"},
                {"above_optimum_pct", " %.1f%% above optimum)"}});
  struct Workload {
    const char* name;
    DbWorkload profile;
  };
  const Workload workloads[] = {
      {"read-heavy", {0.95, 0.2, 2048}},
      {"scan-heavy", {0.9, 0.8, 1024}},
      {"write-heavy", {0.3, 0.1, 512}},
  };
  for (const auto& w : workloads) {
    TunableDb db(w.profile);
    const double optimal = db.BestLatencyMs();
    QTunerConfig q_config;
    q_config.episodes = 60;
    q_config.steps_per_episode = 30;
    TuningResult q = QLearningTune(db, q_config);
    TuningResult grid = GridSearchTune(db, db.NumConfigs());
    TuningResult random = RandomSearchTune(db, 1800, 71);
    optimum.Row(w.name, optimal, db.Describe(db.BestKnobs()));
    bench::Table& table = report.AddTable(
        w.name, {{"evals", "%-8zu"}, {"qlearn_ms", "%12.3f"},
                 {"grid_ms", "%12.3f"}, {"random_ms", "%12.3f"}});
    for (size_t evals : {30, 60, 120, 288, 900, 1800}) {
      table.Row(evals, BestAt(q, evals), BestAt(grid, evals),
                BestAt(random, evals));
    }
    final_config.Row(db.Describe(q.best), q.best_latency_ms,
                     100.0 * (q.best_latency_ms / optimal - 1.0));
  }
  report.Print("\nexpected shape: q-learning reaches near-optimal latency "
               "in far fewer evaluations than grid enumeration; random "
               "search sits between.\n");
  return report.Finish();
}
