// Tests for the fleet layer (src/fleet): deterministic routing policies,
// probe-driven health state, autoscaling policies, the chaos grammar's
// compilation onto the PR-2 fault injector, and the fleet driver's
// acceptance criteria — SLO recovery after a crash storm and after a
// bad-version rollout with auto-rollback, plus bit-for-bit replay of the
// exported metrics JSON and the sim-clock trace slice at DLSYS_THREADS
// 1 vs 8.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/rng.h"
#include "src/fleet/autoscaler.h"
#include "src/fleet/chaos.h"
#include "src/fleet/fleet.h"
#include "src/fleet/router.h"
#include "src/nn/train.h"
#include "src/obs/attribution.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/serve/loadgen.h"

namespace dlsys {
namespace {

Sequential MakeNet(uint64_t seed) {
  Sequential net = MakeMlp(16, {24}, 4);
  Rng rng(seed);
  net.Init(&rng);
  return net;
}

/// Small fleet sized so the unit tests run in seconds: modeled service
/// is ~1-3 ms per batch, so one replica handles ~5k rps and the test
/// loads (hundreds of rps) leave headroom for chaos.
FleetConfig TestFleetConfig() {
  FleetConfig config;
  config.replica_slots = 4;
  config.initial_replicas = 4;
  config.server.workers = 2;
  config.server.queue_capacity = 64;
  config.server.batch.max_batch = 8;
  config.server.cost.fixed_ms = 1.0;
  config.server.cost.per_example_ms = 0.25;
  config.server.default_deadline_ms = 50.0;
  config.autoscale.policy = ScalePolicy::kFixed;
  config.restart_ms = 1000.0;
  config.tick_ms = 50.0;
  config.window_ms = 500.0;
  return config;
}

TraceLoadConfig TestLoad(double duration_ms = 12'000.0,
                         double base_rps = 600.0) {
  TraceLoadConfig load;
  load.seed = 7;
  load.duration_ms = duration_ms;
  load.base_rps = base_rps;
  load.deadline_ms = 50.0;
  load.model = "m";
  return load;
}

Result<FleetReport> RunFleet(const FleetConfig& config,
                             const ChaosScenario& scenario,
                             const TraceLoadConfig& load) {
  auto fleet = Fleet::Create(config);
  if (!fleet.ok()) return fleet.status();
  Status deployed = fleet.value()->Deploy("m", MakeNet(3), {16});
  if (!deployed.ok()) return deployed;
  return fleet.value()->Run(scenario, load);
}

// --------------------------------------------------------------- router

TEST(RouterTest, RoundRobinSkipsUnroutableAndKeepsTurnOrder) {
  Router router(RoutePolicy::kRoundRobin, 1);
  std::vector<ReplicaView> view(3);
  for (auto& v : view) v.routable = true;
  EXPECT_EQ(router.Pick(view, 0), 0);
  EXPECT_EQ(router.Pick(view, 1), 1);
  view[2].routable = false;
  EXPECT_EQ(router.Pick(view, 2), 0);  // 2 is out: wrap to 0
  view[2].routable = true;
  EXPECT_EQ(router.Pick(view, 3), 1);
  EXPECT_EQ(router.Pick(view, 4), 2);  // rejoined in its old slot order
}

TEST(RouterTest, NoRoutableReplicaReturnsMinusOne) {
  Router router(RoutePolicy::kLeastLoaded, 1);
  std::vector<ReplicaView> view(2);
  EXPECT_EQ(router.Pick(view, 0), -1);
}

TEST(RouterTest, LeastLoadedBreaksTiesByBacklogThenIndex) {
  Router router(RoutePolicy::kLeastLoaded, 1);
  std::vector<ReplicaView> view(3);
  for (auto& v : view) v.routable = true;
  view[0].queue_depth = 5;
  view[1].queue_depth = 2;
  view[2].queue_depth = 2;
  view[1].backlog_ms = 4.0;
  view[2].backlog_ms = 1.0;
  EXPECT_EQ(router.Pick(view, 0), 2);  // same depth, less backlog
  view[2].backlog_ms = 4.0;
  EXPECT_EQ(router.Pick(view, 1), 1);  // full tie: lowest index
}

TEST(RouterTest, PowerOfTwoIsDeterministicAndPrefersLighter) {
  std::vector<ReplicaView> view(4);
  for (auto& v : view) v.routable = true;
  view[0].queue_depth = 100;
  view[1].queue_depth = 100;
  view[2].queue_depth = 100;
  view[3].queue_depth = 0;
  Router a(RoutePolicy::kPowerOfTwo, 42);
  Router b(RoutePolicy::kPowerOfTwo, 42);
  int picks_of_light = 0;
  for (int64_t i = 0; i < 64; ++i) {
    const int pa = a.Pick(view, i);
    EXPECT_EQ(pa, b.Pick(view, i)) << "same seed must replay";
    if (pa == 3) ++picks_of_light;
  }
  // Two draws over four replicas see the light one about 7 times in 16;
  // with 64 picks anything near that confirms load-aware choice.
  EXPECT_GT(picks_of_light, 16);
}

TEST(HealthTrackerTest, ThresholdsAndRecovery) {
  HealthCheckConfig config;
  config.failure_threshold = 2;
  config.recovery_threshold = 3;
  HealthTracker tracker(config, 2);
  EXPECT_TRUE(tracker.healthy(0));
  tracker.Probe(0, false);
  EXPECT_TRUE(tracker.healthy(0));  // one failure is not enough
  tracker.Probe(0, false);
  EXPECT_FALSE(tracker.healthy(0));
  tracker.Probe(0, true);
  tracker.Probe(0, true);
  EXPECT_FALSE(tracker.healthy(0));  // two successes are not enough
  tracker.Probe(0, true);
  EXPECT_TRUE(tracker.healthy(0));
  // A failure resets the recovery streak.
  tracker.Probe(1, false);
  tracker.Probe(1, false);
  tracker.Probe(1, true);
  tracker.Probe(1, false);
  tracker.Probe(1, true);
  tracker.Probe(1, true);
  EXPECT_FALSE(tracker.healthy(1));
  tracker.MarkUnhealthy(0);
  EXPECT_FALSE(tracker.healthy(0));
}

// ----------------------------------------------------------- autoscaler

TEST(AutoscalerTest, FixedNeverMoves) {
  AutoscalerConfig config;
  config.policy = ScalePolicy::kFixed;
  Autoscaler scaler(config, 1000.0);
  EXPECT_EQ(scaler.Desired(1e9, 3), 3);
  EXPECT_EQ(scaler.Desired(0.0, 3), 3);
}

TEST(AutoscalerTest, ReactiveTargetTracking) {
  AutoscalerConfig config;
  config.policy = ScalePolicy::kReactive;
  config.target_utilization = 0.5;
  config.min_replicas = 1;
  config.max_replicas = 8;
  config.scale_down_patience = 2;
  Autoscaler scaler(config, 1000.0);
  // 1800 rps at 50% target utilization of 1000 rps: ceil(3.6) = 4.
  EXPECT_EQ(scaler.Desired(1800.0, 2), 4);
  // Scale-down waits for `patience` consecutive low decisions.
  EXPECT_EQ(scaler.Desired(200.0, 4), 4);
  EXPECT_EQ(scaler.Desired(200.0, 4), 1);
}

TEST(AutoscalerTest, PredictiveProvisionsForTheTrend) {
  AutoscalerConfig config;
  config.policy = ScalePolicy::kPredictive;
  config.decide_interval_ms = 1000.0;
  config.provision_lag_ms = 2000.0;
  config.target_utilization = 0.5;
  config.max_replicas = 16;
  Autoscaler reactive_like(config, 1000.0);
  // Ramp: 500 then 1000 rps. Slope 0.5 rps/ms extrapolated 2000 ms
  // ahead plans for 2000 rps -> ceil(2000 / 500) = 4 replicas, where a
  // reactive policy at 1000 rps would order 2.
  EXPECT_EQ(reactive_like.Desired(500.0, 1), 1);
  EXPECT_EQ(reactive_like.Desired(1000.0, 1), 4);
}

TEST(AutoscalerTest, ValidationRejectsBadKnobs) {
  AutoscalerConfig config;
  config.target_utilization = 0.0;
  EXPECT_FALSE(ValidateAutoscalerConfig(config).ok());
  config = AutoscalerConfig{};
  config.min_replicas = 5;
  config.max_replicas = 2;
  EXPECT_FALSE(ValidateAutoscalerConfig(config).ok());
}

// ---------------------------------------------------------------- chaos

TEST(ChaosTest, ScenarioLibraryCompiles) {
  for (const std::string& name : ScenarioNames()) {
    auto scenario = MakeScenario(name);
    ASSERT_TRUE(scenario.ok()) << name;
    EXPECT_TRUE(ValidateChaosScenario(scenario.value()).ok()) << name;
    auto compiled = CompileChaos(scenario.value(), 4, 50.0);
    ASSERT_TRUE(compiled.ok()) << name;
    EXPECT_EQ(compiled.value().targets.size(), scenario.value().events.size());
  }
  EXPECT_FALSE(MakeScenario("no_such_scenario").ok());
}

TEST(ChaosTest, CrashStormCompilesToScheduledCrashes) {
  auto scenario = MakeScenario("crash_storm");
  ASSERT_TRUE(scenario.ok());
  auto compiled = CompileChaos(scenario.value(), 4, 50.0);
  ASSERT_TRUE(compiled.ok());
  const CompiledChaos& chaos = compiled.value();
  ASSERT_EQ(chaos.targets.size(), 1u);
  // fraction 0.5 of 4 slots: exactly 2 correlated victims.
  EXPECT_EQ(chaos.targets[0].size(), 2u);
  ASSERT_EQ(chaos.plan.crashes.size(), 2u);
  const int64_t round = static_cast<int64_t>(
      scenario.value().events[0].start_ms / 50.0);
  for (const CrashEvent& crash : chaos.plan.crashes) {
    EXPECT_EQ(crash.round, round);
  }
}

TEST(ChaosTest, TargetSelectionIsSeedStable) {
  auto scenario = MakeScenario("gray_failure");
  ASSERT_TRUE(scenario.ok());
  auto a = CompileChaos(scenario.value(), 6, 50.0);
  auto b = CompileChaos(scenario.value(), 6, 50.0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().targets, b.value().targets);
  ChaosScenario reseeded = scenario.value();
  reseeded.seed ^= 0xDEADBEEFULL;
  auto c = CompileChaos(reseeded, 6, 50.0);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value().targets, c.value().targets)
      << "different seeds should pick different correlated sets";
}

// -------------------------------------------------------- trace loadgen

TEST(TraceLoadTest, RateComposesDiurnalAndCrowds) {
  TraceLoadConfig load;
  load.base_rps = 100.0;
  load.diurnal_amplitude = 0.5;
  load.diurnal_period_ms = 1000.0;
  load.crowds.push_back({200.0, 100.0, 3.0});
  EXPECT_DOUBLE_EQ(TraceRateAt(load, 0.0), 100.0);        // sin(0) = 0
  EXPECT_NEAR(TraceRateAt(load, 250.0), 150.0 * 3.0, 1e-9);  // peak * crowd
  EXPECT_NEAR(TraceRateAt(load, 750.0), 50.0, 1e-9);      // trough
  EXPECT_GE(TracePeakRate(load), 450.0);
}

TEST(TraceLoadTest, ArrivalsAreSeededAndMonotone) {
  TraceLoadConfig load = TestLoad(2000.0, 500.0);
  const std::vector<double> a = GenerateTraceArrivals(load);
  const std::vector<double> b = GenerateTraceArrivals(load);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), load.start_ms);
  EXPECT_LT(a.back(), load.start_ms + load.duration_ms);

  load.crowds.push_back({500.0, 500.0, 4.0});
  const std::vector<double> crowded = GenerateTraceArrivals(load);
  const auto in_crowd = [](const std::vector<double>& v) {
    return std::count_if(v.begin(), v.end(),
                         [](double t) { return t >= 500.0 && t < 1000.0; });
  };
  EXPECT_GT(in_crowd(crowded), 2 * in_crowd(a));
}

/// The plain thinning loop, the reference GenerateTraceArrivals must
/// match bit for bit: every candidate pays TraceRateAt.
std::vector<double> ReferenceTraceArrivals(const TraceLoadConfig& config) {
  std::vector<double> arrivals;
  const double peak = TracePeakRate(config);
  if (peak <= 0.0 || config.duration_ms <= 0.0) return arrivals;
  Rng rng(config.seed);
  Rng gaps = rng.Fork();
  Rng keep = rng.Fork();
  double t = config.start_ms;
  const double end = config.start_ms + config.duration_ms;
  while (true) {
    t += -std::log(1.0 - gaps.Uniform()) / peak * 1000.0;
    if (t >= end) break;
    if (keep.Uniform() * peak < TraceRateAt(config, t)) arrivals.push_back(t);
  }
  return arrivals;
}

TEST(TraceLoadTest, BoundRejectionMatchesTheReferenceLoopBitwise) {
  TraceLoadConfig base;
  base.seed = 17;
  base.duration_ms = 3000.0;
  base.base_rps = 400.0;
  base.diurnal_amplitude = 0.3;
  base.diurnal_period_ms = 1200.0;
  std::vector<std::pair<std::string, TraceLoadConfig>> configs;
  auto add = [&](const std::string& name, auto edit) {
    TraceLoadConfig c = base;
    edit(&c);
    configs.emplace_back(name, c);
  };
  add("amplitude 0", [](TraceLoadConfig* c) { c->diurnal_amplitude = 0.0; });
  add("amplitude 0.3", [](TraceLoadConfig*) {});
  // Drives the diurnal factor, and so the rate before its floor, negative.
  add("amplitude 1.5", [](TraceLoadConfig* c) { c->diurnal_amplitude = 1.5; });
  add("period 0", [](TraceLoadConfig* c) { c->diurnal_period_ms = 0.0; });
  for (double m : {6.0, 0.5, 0.0, -2.0}) {
    add("crowd x" + std::to_string(m), [m](TraceLoadConfig* c) {
      c->crowds.push_back({800.0, 900.0, m});
    });
  }
  // A negative multiplier over a negative diurnal factor makes a
  // positive rate: the one case the bound does not cover.
  add("crowd x-2 at amplitude 1.5", [](TraceLoadConfig* c) {
    c->diurnal_amplitude = 1.5;
    c->crowds.push_back({800.0, 900.0, -2.0});
  });
  add("adjacent crowds", [](TraceLoadConfig* c) {
    c->crowds.push_back({500.0, 500.0, 3.0});
    c->crowds.push_back({1000.0, 700.0, 4.0});
  });
  add("overlapping crowds", [](TraceLoadConfig* c) {
    c->crowds.push_back({500.0, 1000.0, 3.0});
    c->crowds.push_back({1000.0, 1000.0, 4.0});
    c->crowds.push_back({1200.0, 300.0, 0.5});
  });
  add("base 0", [](TraceLoadConfig* c) { c->base_rps = 0.0; });

  for (const auto& [name, config] : configs) {
    const std::vector<double> got = GenerateTraceArrivals(config);
    const std::vector<double> want = ReferenceTraceArrivals(config);
    ASSERT_EQ(got.size(), want.size()) << name;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                           [](double a, double b) {
                             return std::bit_cast<uint64_t>(a) ==
                                    std::bit_cast<uint64_t>(b);
                           }))
        << name;
    if (config.base_rps > 0.0) {
      EXPECT_GT(got.size(), 100u) << name;
    }
  }
}

TEST(TraceLoadTest, PeakRateCoversOverlappingCrowds) {
  TraceLoadConfig load;
  load.seed = 5;
  load.duration_ms = 2000.0;
  load.base_rps = 100.0;
  load.crowds.push_back({0.0, 1000.0, 3.0});
  load.crowds.push_back({500.0, 1000.0, 4.0});
  // The envelope dominates the rate at every crowd boundary, where the
  // active set changes (and so everywhere, the rate being piecewise
  // constant here).
  EXPECT_DOUBLE_EQ(TracePeakRate(load), 1200.0);
  for (const FlashCrowd& crowd : load.crowds) {
    for (double t : {crowd.start_ms, crowd.start_ms + crowd.duration_ms}) {
      EXPECT_GE(TracePeakRate(load), TraceRateAt(load, t)) << t;
    }
  }
  // [500, 1000) asks for 1200 rps * 0.5 s = 600 arrivals; an envelope
  // capped at the larger crowd alone (400 rps) thins it to ~200.
  const std::vector<double> arrivals = GenerateTraceArrivals(load);
  const auto overlap = std::count_if(
      arrivals.begin(), arrivals.end(),
      [](double t) { return t >= 500.0 && t < 1000.0; });
  EXPECT_NEAR(static_cast<double>(overlap), 600.0, 100.0);

  // Non-overlapping crowds keep the largest single multiplier.
  TraceLoadConfig apart = load;
  apart.diurnal_amplitude = 0.3;
  apart.diurnal_period_ms = 2000.0;
  apart.crowds = {{0.0, 500.0, 3.0}, {500.0, 500.0, 4.0}, {1500.0, 1.0, 0.5}};
  EXPECT_DOUBLE_EQ(TracePeakRate(apart), 100.0 * 1.3 * 4.0);
  for (const FlashCrowd& crowd : apart.crowds) {
    for (double t : {crowd.start_ms, crowd.start_ms + crowd.duration_ms}) {
      EXPECT_GE(TracePeakRate(apart), TraceRateAt(apart, t)) << t;
    }
  }
}

// ---------------------------------------------------------------- fleet

TEST(FleetTest, ValidateRejectsBadConfigs) {
  FleetConfig config = TestFleetConfig();
  config.initial_replicas = 9;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = TestFleetConfig();
  config.window_ms = config.tick_ms / 2.0;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = TestFleetConfig();
  config.canary.max_degraded_fraction = 1.5;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = TestFleetConfig();
  config.canary.max_p99_regression = -0.5;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = TestFleetConfig();
  config.canary.min_p99_samples = 0;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = TestFleetConfig();
  config.attribution.window_ms = 0.0;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = TestFleetConfig();
  config.attribution.exemplars_per_window = -1;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = TestFleetConfig();
  config.slo.slo_target = 1.0;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = TestFleetConfig();
  config.slo.fast_windows = 5;
  config.slo.slow_windows = 2;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = TestFleetConfig();
  config.slo.slow_burn_threshold = 0.0;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = TestFleetConfig();
  config.slo.min_requests = -1;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
}

TEST(FleetTest, RunRequiresDeployAndMatchingModel) {
  auto fleet = Fleet::Create(TestFleetConfig());
  ASSERT_TRUE(fleet.ok());
  ChaosScenario steady;
  EXPECT_FALSE(fleet.value()->Run(steady, TestLoad()).ok());
  ASSERT_TRUE(fleet.value()->Deploy("m", MakeNet(3), {16}).ok());
  TraceLoadConfig wrong = TestLoad();
  wrong.model = "other";
  EXPECT_FALSE(fleet.value()->Run(steady, wrong).ok());
}

TEST(FleetTest, SteadyScenarioServesEverything) {
  auto scenario = MakeScenario("steady", 0.5);
  ASSERT_TRUE(scenario.ok());
  auto report = RunFleet(TestFleetConfig(), scenario.value(), TestLoad());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const FleetReport& r = report.value();
  EXPECT_GT(r.offered, 0);
  EXPECT_EQ(r.offered, r.admitted);
  EXPECT_EQ(r.completed_ok, r.admitted);
  EXPECT_EQ(r.missed, 0);
  EXPECT_EQ(r.crashes, 0);
  EXPECT_DOUBLE_EQ(r.miss_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(r.time_to_recover_ms, -1.0);
  EXPECT_GT(r.steady_goodput_rps, 0.0);
  EXPECT_FALSE(r.windows.empty());
  const std::string json = FleetReportJson(r);
  EXPECT_NE(json.find("\"scenario\": \"steady\""), std::string::npos);
  EXPECT_NE(json.find("\"windows\": ["), std::string::npos);
}

// The second input makes each network hop longer than a tick, so every
// response is still in flight when a tick ends and the driver keeps it
// across ticks; its path record must keep its tenant all the way.
TEST(FleetTest, TenantedLoadSlicesEveryRequestAndReplays) {
  auto scenario = MakeScenario("steady", 0.5);
  ASSERT_TRUE(scenario.ok());
  TraceLoadConfig load = TestLoad();
  load.tenant_mix = HotTenantMix(3, 4.0);
  FleetConfig long_hops = TestFleetConfig();
  long_hops.network.latency_seconds = 0.06;
  TraceLoadConfig long_hop_load = load;
  long_hop_load.deadline_ms = 200.0;
  const std::vector<std::pair<FleetConfig, TraceLoadConfig>> inputs = {
      {TestFleetConfig(), load}, {long_hops, long_hop_load}};

  for (const auto& input : inputs) {
    const auto run = [&]() {
      auto report = RunFleet(input.first, scenario.value(), input.second);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      return std::move(report).value();
    };
    const FleetReport r1 = run();

    // Every request lands in exactly one tenant row, and each row obeys
    // the same identities as the aggregate counters.
    ASSERT_EQ(r1.tenants.size(), 3u);
    int64_t offered = 0, admitted = 0, ok = 0, missed = 0, shed = 0;
    for (const auto& [tenant, row] : r1.tenants) {
      EXPECT_GT(row.offered, 0) << tenant;
      EXPECT_EQ(row.offered, row.admitted + row.shed) << tenant;
      EXPECT_EQ(row.admitted, row.completed_ok + row.missed) << tenant;
      offered += row.offered;
      admitted += row.admitted;
      ok += row.completed_ok;
      missed += row.missed;
      shed += row.shed;
    }
    EXPECT_EQ(offered, r1.offered);
    EXPECT_EQ(admitted, r1.admitted);
    EXPECT_EQ(ok, r1.completed_ok);
    EXPECT_EQ(missed, r1.missed);
    EXPECT_EQ(shed, r1.shed_queue_full + r1.shed_deadline +
                        r1.shed_draining + r1.shed_unhealthy);
    // The hot tenant carries ~2/3 of the offered load.
    EXPECT_GT(r1.tenants.at("t0").offered, 2 * r1.tenants.at("t1").offered);
    // Every delivered request's critical path names its tenant's row.
    ASSERT_FALSE(r1.path_records.empty());
    for (const obs::RequestPathRecord& rec : r1.path_records) {
      ASSERT_EQ(r1.tenants.count(rec.tenant), 1u) << "rid " << rec.rid;
    }

    // The export grows a byte-stable "tenants" section, and the whole
    // tenanted run replays byte-for-byte.
    const std::string json = FleetReportJson(r1);
    EXPECT_NE(json.find("\"tenants\": {"), std::string::npos);
    EXPECT_NE(json.find("\"t0\": {"), std::string::npos);
    const FleetReport r2 = run();
    EXPECT_EQ(json, FleetReportJson(r2));
  }
}

// Every Run checks request conservation before it returns, so a run
// that silently loses or double-counts a request fails with Internal.
// Both recovery modes are covered: a checkpointed restart keeps the
// crashed server, whose DropQueued discards queued and loaded requests.
// The last input is the one whose crash storm catches admitted requests
// still queued: one slow worker per replica and a tenanted load, so
// those crash losses must also reach the tenant rows.
TEST(FleetTest, EveryScenarioBalancesTheRequestLedger) {
  struct Input {
    std::string scenario;
    FleetConfig config;
    TraceLoadConfig load;
    bool drops_queued = false;
  };
  for (const FleetRecovery recovery :
       {FleetRecovery::kCheckpointedRestart, FleetRecovery::kColdReplace}) {
    FleetConfig config = TestFleetConfig();
    config.recovery = recovery;
    std::vector<Input> inputs;
    for (const std::string& name : ScenarioNames()) {
      inputs.push_back({name, config, TestLoad()});
    }
    Input loaded{"crash_storm", config, TestLoad(), true};
    loaded.config.server.workers = 1;
    loaded.config.server.cost.fixed_ms = 10.0;
    loaded.config.server.cost.per_example_ms = 1.0;
    loaded.load.tenant_mix = BalancedTenantMix(3);
    inputs.push_back(loaded);

    for (const Input& in : inputs) {
      const std::string name =
          in.scenario + " / " + FleetRecoveryName(recovery);
      auto scenario = MakeScenario(in.scenario, 0.5);
      ASSERT_TRUE(scenario.ok()) << name;
      auto report = RunFleet(in.config, scenario.value(), in.load);
      ASSERT_TRUE(report.ok()) << name << ": " << report.status().ToString();
      const FleetReport& r = report.value();
      const int64_t shed = r.shed_queue_full + r.shed_deadline +
                           r.shed_draining + r.shed_unhealthy;
      EXPECT_GT(r.offered, 0) << name;
      EXPECT_EQ(r.offered, r.completed_ok + r.missed + shed) << name;
      EXPECT_EQ(r.offered, r.admitted + r.failed_dead_replica + shed) << name;
      if (!in.drops_queued) continue;
      EXPECT_GT(r.dropped_queued, 0) << name;
      FleetReport::TenantRow sum;
      for (const auto& [tenant, row] : r.tenants) {
        sum.offered += row.offered;
        sum.admitted += row.admitted;
        sum.completed_ok += row.completed_ok;
        sum.missed += row.missed;
        sum.shed += row.shed;
      }
      EXPECT_EQ(sum.offered, r.offered) << name;
      EXPECT_EQ(sum.admitted, r.admitted) << name;
      EXPECT_EQ(sum.completed_ok, r.completed_ok) << name;
      EXPECT_EQ(sum.missed, r.missed) << name;
      EXPECT_EQ(sum.shed, shed) << name;
    }
  }
}

// Acceptance: a crash storm with checkpointed restarts must lose work
// (queued requests die, the detection gap fails requests) and then
// recover goodput to >= 90% of the pre-fault steady state within a
// bounded simulated time.
TEST(FleetTest, CrashStormRecoversWithCheckpointedRestart) {
  auto scenario = MakeScenario("crash_storm", 0.5);  // storm at 4 s
  ASSERT_TRUE(scenario.ok());
  FleetConfig config = TestFleetConfig();
  config.recovery = FleetRecovery::kCheckpointedRestart;
  config.restart_ms = 1000.0;
  auto report = RunFleet(config, scenario.value(), TestLoad());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const FleetReport& r = report.value();
  EXPECT_EQ(r.crashes, 2);
  EXPECT_EQ(r.restarts, 2);
  EXPECT_GT(r.missed, 0) << "a crash storm must cost something";
  EXPECT_GE(r.time_to_recover_ms, 0.0) << "fleet never recovered";
  // Bound: restart (1 s) + probe re-admission + one window of slack.
  EXPECT_LE(r.time_to_recover_ms, 5000.0);
  EXPECT_GT(r.failed_dead_replica + r.dropped_queued, 0)
      << "the detection gap and queue loss should be visible";
}

// Acceptance: a bad-version rollout must be caught by the canary metric
// and rolled back through the hot-swap path, with goodput recovering to
// >= 90% of steady within a bounded simulated time.
TEST(FleetTest, BadVersionRollsBackAndRecovers) {
  ChaosScenario scenario;
  scenario.name = "bad_version";
  scenario.seed = 11;
  FleetFaultEvent ev;
  ev.kind = FaultKind::kBadVersionRollout;
  ev.start_ms = 4000.0;
  ev.fraction = 1.0;
  // Slow enough that the canary's requests become deadline-infeasible:
  // the canary metric must trip within the bake window.
  ev.severity = 40.0;
  scenario.events.push_back(ev);
  FleetConfig config = TestFleetConfig();
  config.canary.bake_ms = 1500.0;
  config.canary.max_degraded_fraction = 0.2;
  auto report = RunFleet(config, scenario, TestLoad());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const FleetReport& r = report.value();
  EXPECT_EQ(r.rollouts, 1);
  EXPECT_EQ(r.rollbacks, 1);
  EXPECT_GT(r.shed_deadline, 0) << "the bad version should shed";
  EXPECT_GE(r.time_to_recover_ms, 0.0) << "fleet never recovered";
  // Bound: bake window (1.5 s) + rollback + recovery streak slack.
  EXPECT_LE(r.time_to_recover_ms, 4000.0);
}

// Acceptance: a latency lemon — a version slow enough to multiply tail
// latency but fast enough that every response still lands inside the
// deadline — produces zero degraded deliveries, so the degraded-fraction
// verdict alone would pass the bake and push the lemon fleet-wide. The
// windowed-p99 regression check must catch it and roll back.
TEST(FleetTest, LatencyLemonInsideDeadlineTriggersP99Rollback) {
  ChaosScenario scenario;
  scenario.name = "latency_lemon";
  scenario.seed = 12;
  FleetFaultEvent ev;
  ev.kind = FaultKind::kBadVersionRollout;
  ev.start_ms = 4000.0;
  ev.fraction = 1.0;
  // ~8x service time: client latency rises from ~3 ms to ~15-25 ms,
  // still comfortably under the 50 ms deadline.
  ev.severity = 8.0;
  scenario.events.push_back(ev);

  FleetConfig config = TestFleetConfig();
  config.canary.bake_ms = 1500.0;
  config.canary.max_degraded_fraction = 0.2;
  config.canary.max_p99_regression = 3.0;
  config.canary.min_p99_samples = 30;
  auto report = RunFleet(config, scenario, TestLoad());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const FleetReport& r = report.value();
  EXPECT_EQ(r.rollouts, 1);
  EXPECT_EQ(r.rollbacks, 1) << "the p99 check should have tripped";
  EXPECT_EQ(r.p99_rollbacks, 1);
  EXPECT_EQ(r.missed, 0) << "a true lemon misses nothing — that is the "
                            "blind spot this check closes";
  const std::string json = FleetReportJson(r);
  EXPECT_NE(json.find("\"p99_rollbacks\": 1"), std::string::npos);

  // Control: with the p99 check disabled the same lemon sails through
  // its bake and rolls out fleet-wide — the pre-existing blind spot.
  FleetConfig blind = config;
  blind.canary.max_p99_regression = 0.0;
  auto unchecked = RunFleet(blind, scenario, TestLoad());
  ASSERT_TRUE(unchecked.ok()) << unchecked.status().ToString();
  EXPECT_EQ(unchecked.value().rollouts, 1);
  EXPECT_EQ(unchecked.value().rollbacks, 0);
  EXPECT_EQ(unchecked.value().p99_rollbacks, 0);
}

TEST(FleetTest, ReactiveAutoscalerAddsReplicasUnderFlashCrowd) {
  ChaosScenario steady;
  steady.name = "flash_crowd";
  FleetConfig config = TestFleetConfig();
  config.initial_replicas = 1;
  config.autoscale.policy = ScalePolicy::kReactive;
  config.autoscale.decide_interval_ms = 500.0;
  config.autoscale.provision_lag_ms = 1000.0;
  // Shrink per-replica capacity so the crowd actually needs replicas:
  // one replica handles ~320 rps at 60% target utilization.
  config.server.cost.fixed_ms = 2.0;
  config.server.cost.per_example_ms = 1.5;
  config.server.batch.max_batch = 8;
  TraceLoadConfig load = TestLoad(10'000.0, 200.0);
  load.crowds.push_back({3000.0, 4000.0, 4.0});
  auto report = RunFleet(config, steady, load);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const FleetReport& r = report.value();
  EXPECT_GT(r.scale_ups, 0) << "the crowd should trigger scale-up";
  int peak_active = 0;
  for (const FleetWindow& w : r.windows) {
    peak_active = std::max(peak_active, w.active_replicas);
  }
  EXPECT_GT(peak_active, 1);
}

// Acceptance: the exported fleet metrics JSON and the simulated-clock
// trace slice replay byte-for-byte when only DLSYS_THREADS changes. The
// second input stages every fault kind on a tenanted load, so the replay
// also covers the chaos event edges, the canary verdict and the tenant
// rows.
TEST(FleetTest, ChaosRunReplaysBitwiseAcrossThreadCounts) {
  auto storm = MakeScenario("crash_storm", 0.5);
  ASSERT_TRUE(storm.ok());
  ChaosScenario composite;
  composite.name = "composite";
  composite.seed = 0x5CE4A210ULL;
  FleetFaultEvent crash;
  crash.kind = FaultKind::kCrashStorm;
  crash.start_ms = 1500.0;
  crash.fraction = 0.5;
  FleetFaultEvent slow;
  slow.kind = FaultKind::kSlowPartition;
  slow.start_ms = 3000.0;
  slow.duration_ms = 1000.0;
  slow.severity = 40.0;
  FleetFaultEvent gray;
  gray.kind = FaultKind::kGrayFailure;
  gray.start_ms = 4500.0;
  gray.duration_ms = 1000.0;
  gray.fraction = 0.34;
  gray.severity = 8.0;
  FleetFaultEvent bad;
  bad.kind = FaultKind::kBadVersionRollout;
  bad.start_ms = 5500.0;
  bad.fraction = 1.0;
  bad.severity = 24.0;
  composite.events = {crash, slow, gray, bad};
  TraceLoadConfig tenanted = TestLoad(8000.0, 400.0);
  tenanted.tenant_mix = BalancedTenantMix(3);
  const std::vector<std::pair<ChaosScenario, TraceLoadConfig>> inputs = {
      {storm.value(), TestLoad(8000.0, 400.0)}, {composite, tenanted}};

  for (const auto& input : inputs) {
    const ChaosScenario& scenario = input.first;
    const TraceLoadConfig& load = input.second;
    const auto run_at = [&](int threads, std::string* json, std::string* trace,
                            std::string* attr) {
      RuntimeConfig::SetThreads(threads);
      obs::ResetTrace();
      obs::SetTracingEnabled(true);
      auto report = RunFleet(TestFleetConfig(), scenario, load);
      obs::SetTracingEnabled(false);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      *json = FleetReportJson(report.value());
      *trace = obs::ChromeTraceJson(obs::SimTrackOnly(obs::DrainTrace()));
      *attr = obs::AttributionReportJson(report.value().attribution);
      obs::ResetTrace();
    };

    std::string json1, trace1, attr1, json8, trace8, attr8;
    run_at(1, &json1, &trace1, &attr1);
    run_at(8, &json8, &trace8, &attr8);
    RuntimeConfig::SetThreads(1);

    EXPECT_EQ(json1, json8) << scenario.name
        << ": fleet metrics export must be bitwise thread-count independent";
    EXPECT_FALSE(trace1.empty());
    EXPECT_EQ(trace1, trace8) << scenario.name
        << ": sim-track trace slice must be bitwise thread-count independent";
    EXPECT_FALSE(attr1.empty());
    EXPECT_EQ(attr1, attr8) << scenario.name
        << ": attribution report must be bitwise thread-count independent";
    if (scenario.name == "composite") {
      // The staged faults all register: two replicas crash, the canary
      // rolls back on the p99 check, and every tenant gets a row.
      EXPECT_NE(json1.find("\"crashes\": 2,"), std::string::npos);
      EXPECT_NE(json1.find("\"p99_rollbacks\": 1,"), std::string::npos);
      EXPECT_NE(json1.find("\"t2\": {"), std::string::npos);
    }
  }
}

// ------------------------------- critical-path attribution + burn rate

/// Oracle the burn-rate alerter must beat: the close of the first SLO
/// window whose p99 regresses past 3x the pre-fault mean — the signal
/// the PR-6 canary's windowed-p99 check keys on. -1 when it never fires.
double P99CanaryDetectionMs(const FleetReport& r, double window_ms) {
  double pre_sum = 0.0;
  int pre_n = 0;
  for (const FleetWindow& w : r.windows) {
    if (w.start_ms + window_ms <= r.fault_start_ms && w.p99_ms > 0.0) {
      pre_sum += w.p99_ms;
      ++pre_n;
    }
  }
  if (pre_n == 0) return -1.0;
  const double baseline = pre_sum / static_cast<double>(pre_n);
  for (const FleetWindow& w : r.windows) {
    if (w.start_ms + window_ms > r.fault_start_ms &&
        w.p99_ms > 3.0 * baseline) {
      return w.start_ms + window_ms;
    }
  }
  return -1.0;
}

/// TestFleetConfig + an 8 ms latency SLO: steady-state client latency is
/// ~2-4 ms (hops are 0.1 ms, service 1-3 ms), so clean runs never burn,
/// while both E35 gray scenarios push affected requests past 8 ms.
FleetConfig SloFleetConfig() {
  FleetConfig config = TestFleetConfig();
  config.slo.slo_latency_ms = 8.0;
  return config;
}

TEST(AttributionFleetTest, PathRecordsDecomposeBitwiseAtAnyThreadCount) {
  auto scenario = MakeScenario("crash_storm", 0.5);
  ASSERT_TRUE(scenario.ok());
  const TraceLoadConfig load = TestLoad(8000.0, 400.0);
  std::string first_attr;
  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    auto report = RunFleet(TestFleetConfig(), scenario.value(), load);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const FleetReport& r = report.value();
    ASSERT_FALSE(r.path_records.empty());
    for (const obs::RequestPathRecord& rec : r.path_records) {
      const obs::PathComponents comp = obs::DecomposePath(rec);
      ASSERT_EQ(comp.total_ns(), rec.deliver_ns - rec.send_ns)
          << "rid " << rec.rid << " at threads " << threads;
      ASSERT_GT(comp[obs::PathComponent::kRouteHop], 0) << "rid " << rec.rid;
      ASSERT_GT(comp[obs::PathComponent::kReturnHop], 0) << "rid " << rec.rid;
    }
    const std::string attr = obs::AttributionReportJson(r.attribution);
    if (first_attr.empty()) {
      first_attr = attr;
      EXPECT_NE(attr.find("\"exemplars\": ["), std::string::npos);
    } else {
      EXPECT_EQ(first_attr, attr) << "threads " << threads;
    }
  }
  RuntimeConfig::SetThreads(1);
}

#if DLSYS_OBS
// Needs real span emission; under -DDLSYS_OBS=0 the rings are compiled
// out (the record-side decomposition tests above still run there).
TEST(AttributionFleetTest, TraceDerivedComponentsMatchRecordsBitwise) {
  auto scenario = MakeScenario("steady", 0.5);
  ASSERT_TRUE(scenario.ok());
  RuntimeConfig::SetThreads(1);
  obs::ResetTrace();
  obs::SetTracingEnabled(true);
  auto report =
      RunFleet(TestFleetConfig(), scenario.value(), TestLoad(6000.0, 300.0));
  obs::SetTracingEnabled(false);
  const obs::TraceBuffer buf = obs::SimTrackOnly(obs::DrainTrace());
  obs::ResetTrace();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const FleetReport& r = report.value();
  ASSERT_FALSE(r.path_records.empty());
  EXPECT_EQ(buf.dropped, 0) << "sim ring must hold the whole run";

  // The span tree and the records are two views of the same boundaries:
  // re-deriving the decomposition from span durations alone must agree
  // bitwise, component by component, for every delivered request.
  const std::map<int64_t, obs::PathComponents> from_trace =
      obs::ComponentsFromTrace(buf);
  for (const obs::RequestPathRecord& rec : r.path_records) {
    const auto it = from_trace.find(rec.rid);
    ASSERT_NE(it, from_trace.end()) << "no spans for rid " << rec.rid;
    const obs::PathComponents want = obs::DecomposePath(rec);
    for (int c = 0; c < obs::kPathComponents; ++c) {
      ASSERT_EQ(it->second.ns[c], want.ns[c])
          << "rid " << rec.rid << " component "
          << obs::PathComponentName(static_cast<obs::PathComponent>(c));
    }
  }
}
#endif  // DLSYS_OBS

TEST(AttributionFleetTest, SteadyRunRaisesNoAlerts) {
  auto scenario = MakeScenario("steady", 0.5);
  ASSERT_TRUE(scenario.ok());
  auto report = RunFleet(SloFleetConfig(), scenario.value(), TestLoad());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const FleetReport& r = report.value();
  EXPECT_TRUE(r.alerts.empty()) << "clean run burned budget: "
                                << obs::BurnAlertsJson(r.alerts);
  // Every in-time delivery leaves exactly one path record.
  EXPECT_EQ(static_cast<int64_t>(r.path_records.size()), r.completed_ok);
  EXPECT_NE(FleetReportJson(r).find("\"alerts\": []"), std::string::npos);
}

TEST(AttributionFleetTest, GrayFailureAlertsExecuteDominantBeforeCanary) {
  auto scenario = MakeScenario("gray_failure", 0.5);  // compute 8x at 4 s
  ASSERT_TRUE(scenario.ok());
  const FleetConfig config = SloFleetConfig();
  auto report = RunFleet(config, scenario.value(), TestLoad());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const FleetReport& r = report.value();

  std::vector<obs::BurnAlert> fleet_alerts;
  for (const obs::BurnAlert& a : r.alerts) {
    if (a.scope == "fleet") fleet_alerts.push_back(a);
  }
  ASSERT_FALSE(fleet_alerts.empty()) << "gray failure never alerted";
  const obs::BurnAlert& first = fleet_alerts.front();
  // Zero false alarms: nothing fires before the fault exists.
  EXPECT_GE(first.t_ms, r.fault_start_ms);
  // The alert classifies the fault at detection time: compute 8x burns
  // budget in the execute stage.
  EXPECT_EQ(first.dominant, obs::PathComponent::kExecute);
  EXPECT_GT(first.dominant_share, 0.5);
  EXPECT_GE(first.fast_burn, config.slo.fast_burn_threshold);
  EXPECT_GE(first.slow_burn, config.slo.slow_burn_threshold);

  // Faster than the windowed-p99 canary signal over the same run.
  const double canary_ms = P99CanaryDetectionMs(r, config.window_ms);
  ASSERT_GT(canary_ms, 0.0) << "oracle must also see an 8x compute fault";
  EXPECT_LE(first.t_ms, canary_ms);
}

TEST(AttributionFleetTest, SlowPartitionAlertsRouteHopDominant) {
  auto scenario = MakeScenario("slow_partition", 0.5);  // hop 40x at 4 s
  ASSERT_TRUE(scenario.ok());
  const FleetConfig config = SloFleetConfig();
  auto report = RunFleet(config, scenario.value(), TestLoad());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const FleetReport& r = report.value();

  std::vector<obs::BurnAlert> fleet_alerts;
  for (const obs::BurnAlert& a : r.alerts) {
    if (a.scope == "fleet") fleet_alerts.push_back(a);
  }
  ASSERT_FALSE(fleet_alerts.empty()) << "slow partition never alerted";
  const obs::BurnAlert& first = fleet_alerts.front();
  EXPECT_GE(first.t_ms, r.fault_start_ms);
  // Same alerter, opposite verdict from the gray failure: a 40x network
  // hop burns budget in the route stage (the forward hop carries the
  // 4096-byte request, so it strictly dominates the 512-byte return).
  EXPECT_EQ(first.dominant, obs::PathComponent::kRouteHop);
  EXPECT_LE(first.t_ms, r.fault_start_ms + 2000.0)
      << "detection should land within a couple of slow buckets";
}

}  // namespace
}  // namespace dlsys
