// E30 — Fault tolerance on the simulated cluster: recovery cost vs.
// checkpoint frequency, and degraded-membership accuracy vs. restart
// time (Humbatova et al.'s crash/hang fault classes; Langer et al.'s
// fault-tolerance axis). The quantities of interest are simulated seconds
// and fault counters from MetricsReport.

#include <string>

#include "bench/report.h"
#include "src/data/synthetic.h"
#include "src/distributed/cluster.h"
#include "src/nn/train.h"

int main() {
  using namespace dlsys;
  bench::Report report("fault_tolerance");
  Rng rng(41);
  Dataset data = MakeGaussianBlobs(3000, 16, 6, 2.5, &rng);
  TrainTestSplit split = Split(data, 0.85);
  Sequential arch = MakeMlp(16, {32}, 6);
  arch.Init(&rng);

  ClusterConfig base;
  base.workers = 4;
  base.rounds = 32;
  base.step_seconds = 1e-3;
  base.checkpoint_dir = ".";

  auto accuracy_of = [&](const Result<ClusterResult>& r) {
    Sequential model = r->model.Clone();
    return Evaluate(&model, split.test).accuracy;
  };

  // ---- sweep 1: checkpoint interval under a fixed crash schedule ----
  // Crashes at rounds 7, 15, 23: with checkpoints every k rounds the
  // replayed work per crash is (round mod k), so recovery overhead must
  // fall monotonically as the interval shrinks, while checkpoint-write
  // cost rises — the canonical checkpoint-frequency tradeoff.
  report.Print("E30a: crash x checkpoint-interval (4 workers, 32 rounds, "
               "crashes at 7/15/23)\n");
  bench::Table& intervals = report.AddTable(
      "E30a", {{"interval", "%-10lld"}, {"wasted_rounds", "%14.0f"},
               {"recovery_overhead_s", "%20.6f"}, {"checkpoint_s", "%18.6f"},
               {"total_overhead_s", "%16.6f"}, {"accuracy", "%10.3f"}});
  for (int64_t interval : {1, 2, 4, 8}) {
    ClusterConfig config = base;
    config.recovery = RecoveryPolicy::kRestartFromCheckpoint;
    config.checkpoint_interval = interval;
    config.faults.crashes = {{7, 1}, {15, 2}, {23, 0}};
    auto result = TrainOnCluster(arch, split.train, config, nullptr);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const double wasted_rounds =
        result->report.Get(fault_metric::kWastedRounds);
    // Replayed compute plus detection/reload: the cost a crash inflicts.
    const double recovery_s =
        wasted_rounds * base.step_seconds +
        result->report.Get(fault_metric::kRecoverySeconds);
    const double checkpoint_s =
        result->report.Get(fault_metric::kCheckpointSeconds);
    intervals.Row(interval, wasted_rounds, recovery_s, checkpoint_s,
                  recovery_s + checkpoint_s, accuracy_of(result));
  }

  // ---- sweep 2: crash rate x recovery policy ----
  report.Print("\nE30b: crash-rate sweep, restart(k=4) vs drop-and-continue "
               "(4 workers, 60 rounds)\n");
  bench::Table& rates = report.AddTable(
      "E30b", {{"crash_prob", "%-12.3f"}, {"policy", "%-10s"},
               {"accuracy", "%10.3f"}, {"live_workers", "%14.0f"},
               {"overhead_s", "%14.6f"}, {"wasted_rounds", "%14.0f"}});
  for (double crash_prob : {0.0, 0.005, 0.02, 0.05}) {
    for (const char* policy : {"restart", "drop"}) {
      ClusterConfig config = base;
      config.rounds = 60;
      config.faults.seed = 1234;
      config.faults.crash_prob = crash_prob;
      if (std::string(policy) == "restart") {
        config.recovery = RecoveryPolicy::kRestartFromCheckpoint;
        config.checkpoint_interval = 4;
      } else {
        config.recovery = RecoveryPolicy::kDropAndContinue;
      }
      auto result = TrainOnCluster(arch, split.train, config, nullptr);
      if (!result.ok()) {
        // Drop-and-continue has no way back once every worker is dead;
        // at high crash rates the cluster collapses. Report it as a data
        // point (restart never collapses: dead workers rejoin on replay).
        if (result.status().code() != StatusCode::kInternal) {
          std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
          return 1;
        }
        rates.Row(crash_prob, policy, "collapsed", 0.0, 0.0, 0.0);
        continue;
      }
      const double wasted_rounds =
          result->report.Get(fault_metric::kWastedRounds);
      rates.Row(crash_prob, policy, accuracy_of(result),
                result->report.Get(fault_metric::kLiveWorkers),
                result->report.Get(fault_metric::kRecoverySeconds) +
                    result->report.Get(fault_metric::kCheckpointSeconds) +
                    wasted_rounds * base.step_seconds,
                wasted_rounds);
    }
  }

  // ---- sweep 3: straggler, wait vs skip-stale ----
  report.Print("\nE30c: 50x straggler, barrier-wait vs skip-stale\n");
  {
    ClusterConfig config = base;
    config.rounds = 100;
    config.faults.stragglers = {{2, 50.0}};
    auto waited = TrainOnCluster(arch, split.train, config, nullptr);
    config.recovery = RecoveryPolicy::kSkipStale;
    config.stale_timeout_seconds = 5e-3;
    auto skipped = TrainOnCluster(arch, split.train, config, nullptr);
    if (!waited.ok() || !skipped.ok()) {
      std::fprintf(stderr, "straggler sweep failed\n");
      return 1;
    }
    report
        .AddLine("E30c", {{"wait_barrier_s", "wait: barrier %.4f s,"},
                          {"wait_accuracy", " acc %.3f |"},
                          {"skip_barrier_s", " skip: barrier %.4f s,"},
                          {"skip_accuracy", " acc %.3f"}})
        .Row(waited->report.Get(fault_metric::kStragglerSeconds),
             accuracy_of(waited),
             skipped->report.Get(fault_metric::kStragglerSeconds),
             accuracy_of(skipped));
  }
  report.Print("\nexpected shape: recovery overhead falls monotonically as "
               "the checkpoint interval shrinks while checkpoint cost "
               "rises; drop-and-continue loses workers (and some accuracy) "
               "but pays no replay; skip-stale collapses barrier time at "
               "unchanged convergence.\n");
  return report.Finish();
}
