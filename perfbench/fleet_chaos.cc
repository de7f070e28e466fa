// fleet_chaos: one long Fleet::Run on the fleet's default serving path
// with a small fp32 MLP (32->64->10). Replicas have one worker each, so
// the whole fleet runs on the caller thread. The load is a diurnal trace
// with one flash crowd, split over four balanced tenants; a composite
// ChaosScenario stages a crash storm, a gray failure and a bad-version
// rollout far apart in time. The seed draws the arrivals and places each
// staged event within a one-second window, so time-to-recover is not
// pinned to the fleet's window grid. The fleet driver (tick loop,
// routing, health probes, autoscaler, canary, attribution) takes most of
// the wall and the kernels almost none. The workload sets no scheduling
// knob, so a change of the fleet's default serving path shows here as a
// measured change.
//
// The same seeded run is replayed on a fresh fleet as many times as the
// wall budget allows; every replay's FleetReportJson, traced ones
// included, must be byte-equal to the first.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/core/rng.h"
#include "src/fleet/chaos.h"
#include "src/fleet/fleet.h"
#include "src/infer/engine.h"
#include "src/nn/serialize.h"
#include "src/nn/train.h"
#include "src/obs/attribution.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"

namespace perfbench {
namespace {

using dlsys::FleetReport;
using dlsys::Sequential;

constexpr int64_t kIn = 32;
constexpr int64_t kHidden = 64;
constexpr int64_t kOut = 10;
constexpr int64_t kMaxBatch = 8;
constexpr double kDurationMs = 120'000.0;
constexpr double kTickMs = 50.0;
constexpr double kEventJitterMs = 1'000.0;
constexpr int64_t kCallSamples = 40000;  ///< timed samples of reference calls
/// A call takes about 2 us, so its single-call tail is the host's timer
/// and cache noise; each sample times this many back-to-back calls.
constexpr int kCallsPerSample = 10;
constexpr int64_t kCallChunk = 500;
constexpr int64_t kCallWarmup = 100;
constexpr int64_t kPayloadBatches = 64;
constexpr int kLadderCalls = 200;  ///< unsampled traced calls
/// Sampled wall spans a traced Run aims for, well under the 16,384 ring.
constexpr int64_t kSpanTarget = 12'000;
const char* const kModel = "m";

dlsys::FleetConfig MakeFleetConfig() {
  dlsys::FleetConfig config;
  config.replica_slots = 6;
  config.initial_replicas = 4;
  config.server.workers = 1;
  config.server.queue_capacity = 64;
  config.server.batch.max_batch = kMaxBatch;
  config.server.batch.max_delay_ms = 1.0;
  config.server.cost.fixed_ms = 2.0;
  config.server.cost.per_example_ms = 0.5;
  config.server.default_deadline_ms = 40.0;
  config.route = dlsys::RoutePolicy::kLeastLoaded;
  config.autoscale.policy = dlsys::ScalePolicy::kReactive;
  config.autoscale.min_replicas = 4;
  config.autoscale.max_replicas = 6;
  config.recovery = dlsys::FleetRecovery::kColdReplace;
  config.tick_ms = kTickMs;
  config.window_ms = 100.0;
  config.slo.slo_latency_ms = 20.0;
  return config;
}

/// The staged events: a crash storm taking every replica down, a gray
/// failure, a bad-version rollout and a flash crowd, each landing well
/// after the previous one has recovered, jittered by the seed.
struct Staging {
  dlsys::ChaosScenario scenario;
  dlsys::FlashCrowd crowd;
};

Staging MakeStaging(uint64_t seed) {
  dlsys::Rng jitter(seed * 0xD1B54A32D192ED03ULL + 7);
  Staging s;
  s.scenario.name = "composite";
  s.scenario.seed = 0x5CE4A210ULL;
  dlsys::FleetFaultEvent storm;
  storm.kind = dlsys::FaultKind::kCrashStorm;
  storm.start_ms = 20'000.0 + kEventJitterMs * jitter.Uniform();
  storm.fraction = 1.0;
  dlsys::FleetFaultEvent gray;
  gray.kind = dlsys::FaultKind::kGrayFailure;
  gray.start_ms = 45'000.0 + kEventJitterMs * jitter.Uniform();
  gray.duration_ms = 10'000.0;
  gray.fraction = 0.34;
  gray.severity = 8.0;
  dlsys::FleetFaultEvent bad;
  bad.kind = dlsys::FaultKind::kBadVersionRollout;
  bad.start_ms = 75'000.0 + kEventJitterMs * jitter.Uniform();
  bad.fraction = 1.0;
  bad.severity = 24.0;
  s.scenario.events = {storm, gray, bad};
  s.crowd = {100'000.0 + kEventJitterMs * jitter.Uniform(), 8'000.0, 6.0};
  return s;
}

dlsys::TraceLoadConfig MakeLoad(uint64_t seed, const dlsys::FlashCrowd& crowd,
                                double deadline_ms) {
  dlsys::TraceLoadConfig load;
  load.seed = seed;
  load.duration_ms = kDurationMs;
  load.base_rps = 700.0;
  load.diurnal_amplitude = 0.3;
  load.diurnal_period_ms = kDurationMs;
  load.crowds.push_back(crowd);
  load.deadline_ms = deadline_ms;
  load.model = kModel;
  load.tenant_mix = dlsys::BalancedTenantMix(4);
  return load;
}

/// Wall times of one set-up: build + LoadParameters, Fleet::Create +
/// Deploy.
struct SetupTimes {
  double setup_s = 0.0;
  double load_ms = 0.0;
  double deploy_ms = 0.0;
};

std::unique_ptr<dlsys::Fleet> SetUp(const std::string& params,
                                    const dlsys::FleetConfig& config,
                                    SetupTimes* times) {
  Stopwatch all;
  Sequential net = dlsys::MakeMlp(kIn, {kHidden}, kOut);
  Stopwatch load;
  const dlsys::Status loaded = dlsys::LoadParameters(&net, params);
  times->load_ms = load.Ms();
  if (!loaded.ok()) Die("LoadParameters: " + loaded.ToString());
  Stopwatch deploy;
  auto created = dlsys::Fleet::Create(config);
  if (!created.ok()) Die("Fleet::Create: " + created.status().ToString());
  std::unique_ptr<dlsys::Fleet> fleet = std::move(created).value();
  const dlsys::Status st = fleet->Deploy(kModel, std::move(net), {kIn});
  if (!st.ok()) Die("Deploy: " + st.ToString());
  times->deploy_ms = deploy.Ms();
  times->setup_s = all.Seconds();
  return fleet;
}

int64_t BatchesCounter() {
  return dlsys::obs::CounterRegistry::Global().counter("serve.batches")->Value();
}

struct Replay {
  bool traced = false;
  double run_s = 0.0;    ///< Fleet::Run
  int64_t batches = 0;   ///< engine calls during Run (serve.batches)
};

}  // namespace

Result RunFleetChaos(const Options& opt) {
  Result out;
  const dlsys::FleetConfig config = MakeFleetConfig();
  const Staging staging = MakeStaging(opt.seed);
  const dlsys::ChaosScenario& scenario = staging.scenario;
  const dlsys::TraceLoadConfig load =
      MakeLoad(opt.seed, staging.crowd, config.server.default_deadline_ms);
  out.Note("fleet_chaos threads: runtime=%d replica_workers=%d "
           "(no pool threads) total=1; replica slots=%d initial=%d",
           dlsys::RuntimeConfig::Threads(), config.server.workers,
           config.replica_slots, config.initial_replicas);

  const std::string params = opt.workdir + "/fleet_chaos.params";
  {
    Sequential net = dlsys::MakeMlp(kIn, {kHidden}, kOut);
    dlsys::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 202);
    net.Init(&rng);
    const dlsys::Status st = dlsys::SaveParameters(net, params);
    if (!st.ok()) Die("SaveParameters: " + st.ToString());
  }

  // The engine each replica compiles, compiled once more for the per-call
  // cost: full-batch PredictInto over seeded payloads.
  Sequential reference = dlsys::MakeMlp(kIn, {kHidden}, kOut);
  {
    const dlsys::Status loaded = dlsys::LoadParameters(&reference, params);
    if (!loaded.ok()) Die("LoadParameters: " + loaded.ToString());
  }
  Stopwatch compile;
  auto compiled = dlsys::InferenceEngine::Compile(
      reference, {kIn}, dlsys::EngineConfig(kMaxBatch));
  const double compile_ms = compile.Ms();
  if (!compiled.ok()) Die("Compile: " + compiled.status().ToString());
  dlsys::InferenceEngine engine = std::move(compiled).value();
  std::vector<float> call_in(static_cast<size_t>(kPayloadBatches * kMaxBatch * kIn));
  {
    dlsys::Rng payload_rng(opt.seed ^ 0xCA11ULL);
    for (float& x : call_in) x = static_cast<float>(payload_rng.Gaussian());
  }
  std::vector<float> call_out(static_cast<size_t>(kMaxBatch * kOut));
  // Traced run: unsampled calls give the wall spans per engine call and
  // the dispatch overhead, which a sampled Run cannot pair with its steps.
  std::map<std::string, int64_t> per_call;
  SpanLedger ladder;
  if (opt.trace) {
    dlsys::obs::ResetTrace();
    dlsys::obs::SetTracingEnabled(true);
    for (int i = 0; i < kLadderCalls; ++i) {
      const dlsys::Status st =
          engine.PredictInto(call_in.data(), kMaxBatch, call_out.data());
      if (!st.ok()) Die("PredictInto: " + st.ToString());
    }
    dlsys::obs::SetTracingEnabled(false);
    const dlsys::obs::TraceBuffer buffer = dlsys::obs::DrainTrace();
    dlsys::obs::ResetTrace();
    ladder.Add(buffer);
    for (const dlsys::obs::TraceEvent& ev : buffer.events) {
      if (ev.pid != dlsys::obs::kSimTrack) ++per_call[ev.name];
    }
    for (auto& [name, n] : per_call) n /= kLadderCalls;
  }
  int64_t spans_per_call = 0;
  for (const auto& [name, n] : per_call) spans_per_call += n;

  // Side measurements, paced over the run so they sample all of it:
  // set-ups, and chunks of reference-engine calls.
  std::vector<SetupTimes> setups;
  auto restart = [&] {
    SetupTimes s;
    SetUp(params, config, &s);
    setups.push_back(s);
  };
  std::vector<double> call_us;
  call_us.reserve(kCallSamples);
  int64_t call_allocs = 0;
  auto call_chunk = [&] {
    for (int64_t k = 0; k < kCallWarmup; ++k) {  // caches the replay evicted
      if (!engine.PredictInto(call_in.data(), kMaxBatch, call_out.data()).ok()) {
        Die("PredictInto failed");
      }
    }
    for (int64_t k = 0; k < kCallChunk; ++k) {
      const int64_t i = static_cast<int64_t>(call_us.size());
      const float* x = call_in.data() + (i % kPayloadBatches) * kMaxBatch * kIn;
      SetAllocCounting(opt.trace);
      const int64_t before = AllocCount();
      bool ok = true;
      Stopwatch sw;
      for (int c = 0; c < kCallsPerSample; ++c) {
        ok &= engine.PredictInto(x, kMaxBatch, call_out.data()).ok();
      }
      const double us = sw.Us() / kCallsPerSample;
      call_allocs += AllocCount() - before;
      SetAllocCounting(false);
      call_us.push_back(us);
      if (!ok) Die("PredictInto failed");
    }
  };
  const int64_t chunks = kCallSamples / kCallChunk;

  std::vector<Replay> replays;
  FleetReport first;
  std::string first_json;
  int64_t diverged = 0;
  SpanLedger spans;
  int32_t divisor = 1;
  Pacer pacer(opt.seconds);
  const size_t min_replays = opt.trace ? 2 : 1;
  CoreRotation cores(/*period_s=*/0.5, /*width=*/1);
  while (replays.size() < min_replays || !pacer.Expired()) {
    cores.MaybeRotate();
    while (pacer.Due(static_cast<int64_t>(setups.size()), kRestarts)) restart();
    while (pacer.Due(static_cast<int64_t>(call_us.size()) / kCallChunk, chunks)) {
      call_chunk();
    }
    Replay r;
    r.traced = opt.trace && replays.size() % 2 == 1;
    SetupTimes ignored;
    std::unique_ptr<dlsys::Fleet> fleet = SetUp(params, config, &ignored);
    int64_t run_span = -1;
    if (r.traced) {
      // One Run is one call, so the wall ring cannot be drained inside
      // it: sample 1 in `divisor` spans, sized from the untraced replay's
      // engine-call count and coprime to the spans per call, so the
      // per-thread sampler cycles through every span site.
      const int64_t expected = replays.front().batches * spans_per_call;
      divisor = static_cast<int32_t>(std::max<int64_t>(
          1, (expected + kSpanTarget - 1) / kSpanTarget));
      while (std::gcd(static_cast<int64_t>(divisor), spans_per_call) != 1) {
        ++divisor;
      }
      dlsys::obs::ResetTrace();
      dlsys::obs::SetTracingEnabled(true);
      run_span = dlsys::obs::TraceBegin();
      dlsys::obs::SetTraceSampling(divisor);
    }
    const int64_t batches_before = BatchesCounter();
    Stopwatch run;
    auto report = fleet->Run(scenario, load);
    r.run_s = run.Seconds();
    r.batches = BatchesCounter() - batches_before;
    if (r.traced) {
      dlsys::obs::SetTraceSampling(1);
      dlsys::obs::TraceEnd("bench.run", "bench", run_span);
      dlsys::obs::SetTracingEnabled(false);
      spans.Add(dlsys::obs::DrainTrace());
      dlsys::obs::ResetTrace();
    }
    if (!report.ok()) Die("Fleet::Run: " + report.status().ToString());
    const std::string json = dlsys::FleetReportJson(report.value());
    if (replays.empty()) {
      first = std::move(report).value();
      first_json = json;
    } else {
      diverged += json != first_json ? 1 : 0;
    }
    replays.push_back(r);
  }
  while (static_cast<int64_t>(setups.size()) < kRestarts) restart();
  while (static_cast<int64_t>(call_us.size()) < kCallSamples) call_chunk();

  // Output checks: the request ledger balances, every staged event
  // registers, and replays (traced ones included) repeat byte for byte.
  const FleetReport& f = first;
  const int64_t accounted = f.completed_ok + f.missed + f.shed_queue_full +
                            f.shed_deadline + f.shed_draining +
                            f.shed_unhealthy;
  const int64_t n_replays = static_cast<int64_t>(replays.size());
  out.attempted = n_replays * f.offered;
  out.failed = std::abs(f.offered - accounted) + diverged * f.offered;
  if (accounted != f.offered) {
    out.Fail("ledger: offered %lld != completed_ok + missed + sheds %lld",
             static_cast<long long>(f.offered),
             static_cast<long long>(accounted));
  }
  if (diverged > 0) {
    out.Fail("%lld replays produced a different FleetReportJson",
             static_cast<long long>(diverged));
  }
  const dlsys::FleetFaultEvent& gray = scenario.events[1];
  int64_t gray_alerts = 0;
  for (const dlsys::obs::BurnAlert& a : f.alerts) {
    gray_alerts += a.t_ms >= gray.start_ms &&
                   a.t_ms <= gray.start_ms + gray.duration_ms + 1'000.0 &&
                   a.dominant == dlsys::obs::PathComponent::kExecute;
  }
  if (f.crashes < 1 || f.restarts < f.crashes || f.rollbacks < 1 ||
      f.scale_ups < 1 || gray_alerts < 1) {
    out.Fail("a staged event did not register: crashes=%lld restarts=%lld "
             "rollbacks=%lld scale_ups=%lld gray-failure alerts=%lld",
             static_cast<long long>(f.crashes),
             static_cast<long long>(f.restarts),
             static_cast<long long>(f.rollbacks),
             static_cast<long long>(f.scale_ups),
             static_cast<long long>(gray_alerts));
  }
  std::vector<double> latency;
  std::vector<double> components[dlsys::obs::kPathComponents];
  for (const dlsys::obs::RequestPathRecord& rec : f.path_records) {
    latency.push_back(static_cast<double>(rec.deliver_ns - rec.send_ns) / 1e6);
    const dlsys::obs::PathComponents pc = dlsys::obs::DecomposePath(rec);
    for (int c = 0; c < dlsys::obs::kPathComponents; ++c) {
      components[c].push_back(static_cast<double>(pc.ns[c]) / 1e6);
    }
  }
  out.Note("replays=%lld; offered per replay=%lld; delivered=%zu; first "
           "fault at %.1f ms; set-ups=%d, the cold one in %.6f s",
           static_cast<long long>(n_replays), static_cast<long long>(f.offered),
           latency.size(), f.fault_start_ms, kRestarts, setups[0].setup_s);

  std::vector<double> setup_s, load_ms, deploy_ms, plain_run;
  for (const SetupTimes& s : setups) {
    setup_s.push_back(s.setup_s);
    load_ms.push_back(s.load_ms);
    deploy_ms.push_back(s.deploy_ms);
  }
  double traced_run_s = 0.0;
  int64_t traced_n = 0, calls = 0;
  for (const Replay& r : replays) {
    if (r.traced) {
      traced_run_s += r.run_s;
      calls += r.batches;
      ++traced_n;
    } else {
      plain_run.push_back(r.run_s);
    }
  }
  const double offered = static_cast<double>(f.offered);

  if (!opt.trace) {
    double hi = 0.0, lo = 1e300;
    for (const auto& [tenant, row] : f.tenants) {
      hi = std::max(hi, static_cast<double>(row.completed_ok));
      lo = std::min(lo, static_cast<double>(row.completed_ok));
    }
    if (!(lo > 0.0)) out.Fail("a tenant got no goodput");
    // A run that never recovers reports the rest of the run.
    const double recover_ms = f.time_to_recover_ms >= 0.0
                                  ? f.time_to_recover_ms
                                  : f.duration_ms - f.fault_start_ms;
    if (!(recover_ms > 0.0)) out.Fail("the crash storm cost no recovery time");
    out.metrics["setup_s"] = Median(setup_s);
    // Median over replays: a burst of host noise skews one replay, not
    // the run.
    out.metrics["throughput_per_s"] = offered / Median(plain_run);
    out.metrics["call_p50_us"] = Median(call_us);
    out.metrics["call_p99_us"] =
        WindowedTail(call_us, kTailWindow, 0.99, "call_p99_us", &out);
    out.metrics["ok_fraction"] = static_cast<double>(f.completed_ok) / offered;
    out.metrics["latency_p50_ms"] = Median(latency);
    out.metrics["latency_p99_ms"] = Tail(latency, 0.99, "latency_p99_ms", &out);
    out.metrics["tenant_skew"] = hi / lo;
    out.metrics["recover_ms"] = recover_ms;
    out.metrics["peak_rss_mb"] = PeakRssMb();
    return out;
  }

  // Traced replays: scale sampled totals back up by the divisor and
  // derive self times from inclusive totals along the ladder (step >
  // GEMM), since a sampled parent has usually lost its sampled child.
  const double d = static_cast<double>(divisor);
  const SpanAgg& predict = spans.Get("engine.predict");
  const SpanAgg dense = spans.Prefix("engine.dense");
  const SpanAgg gemm = spans.Prefix("gemm.");
  const double predict_ms = d * predict.total_ms;
  out.Note("spans: %s", spans.Counts().c_str());
  int64_t off_sites = 0;
  for (const auto& [name, n] : per_call) {
    const double want = static_cast<double>(calls * n) / d;
    const double got = static_cast<double>(spans.Get(name).count);
    if (std::abs(got - want) > 2.0 + 0.01 * want) {
      ++off_sites;
      out.Note("sampled %s: %.0f spans, expected %.1f", name.c_str(), got, want);
    }
  }
  if (off_sites > 0 || spans.Get("bench.run").count != traced_n) {
    out.Fail("sampled span counts x%d do not match %lld engine calls",
             divisor, static_cast<long long>(calls));
  }
  // A wall ring that never filled never dropped; sim-track drops do not
  // matter here (the components come from path_records).
  if (spans.wall_ring_filled()) out.Fail("a wall-track ring filled");
  if (call_allocs != 0) {
    out.Fail("%lld heap allocations inside PredictInto",
             static_cast<long long>(call_allocs));
  }
  out.Note("traced replays=%lld sampled 1 in %d; engine calls traced=%lld; "
           "spans per call=%lld", static_cast<long long>(traced_n), divisor,
           static_cast<long long>(calls), static_cast<long long>(spans_per_call));

  using dlsys::obs::PathComponent;
  const auto p99 = [&](PathComponent c, const char* label) {
    return Tail(components[static_cast<int>(c)], 0.99, label, &out);
  };
  std::map<std::string, double>& v = out.metrics;
  v["simd.dense_gemm.gflops"] = gemm.flops / (gemm.total_ms * 1e6);
  v["simd.calls_per_predict"] =
      static_cast<double>(gemm.count) / static_cast<double>(predict.count);
  v["infer.dense.self_share"] = (d * dense.total_ms - d * gemm.total_ms) / predict_ms;
  v["infer.predict.p50_us"] = Median(spans.predict_us());
  v["infer.predict.p99_us"] =
      Tail(spans.predict_us(), 0.99, "infer.predict.p99_us", &out);
  v["infer.dispatch_us"] = ladder.Get("engine.predict").self_ms * 1e3 / kLadderCalls;
  v["infer.heap_allocs_per_call"] =
      static_cast<double>(call_allocs) / static_cast<double>(kCallSamples * kCallsPerSample);
  v["infer.compile_ms"] = compile_ms;
  v["infer.workspace_bytes"] = static_cast<double>(engine.workspace_bytes());
  v["nn.load_ms"] = Median(load_ms);
  v["fleet.driver_share"] = 1.0 - predict_ms / (traced_run_s * 1e3);
  v["fleet.wall_per_tick_us"] = Median(plain_run) * 1e6 / (kDurationMs / kTickMs);
  v["fleet.route_hop.p99_ms"] = p99(PathComponent::kRouteHop, "route_hop");
  v["fleet.admission.p99_ms"] = p99(PathComponent::kAdmission, "admission");
  v["fleet.quota_delay.p99_ms"] = p99(PathComponent::kQuotaDelay, "quota_delay");
  v["fleet.slot_wait.p99_ms"] = p99(PathComponent::kSlotWait, "slot_wait");
  v["fleet.execute.p99_ms"] = p99(PathComponent::kExecute, "execute");
  v["fleet.return_hop.p99_ms"] = p99(PathComponent::kReturnHop, "return_hop");
  v["fleet.failed_dead_replica"] =
      static_cast<double>(f.failed_dead_replica) / offered;
  v["fleet.shed"] = static_cast<double>(f.shed_queue_full + f.shed_deadline +
                                        f.shed_draining + f.shed_unhealthy) /
                    offered;
  v["fleet.crashes"] = static_cast<double>(f.crashes);
  v["fleet.restarts"] = static_cast<double>(f.restarts);
  v["fleet.rollbacks"] = static_cast<double>(f.rollbacks);
  v["fleet.scale_ups"] = static_cast<double>(f.scale_ups);
  v["fleet.alerts"] = static_cast<double>(f.alerts.size());
  v["fleet.deploy_ms"] = Median(deploy_ms);
  v["obs.trace_overhead"] =
      (traced_run_s / static_cast<double>(traced_n)) / Median(plain_run) - 1.0;
  v["obs.dropped_spans"] = spans.wall_ring_filled() ? spans.dropped() : 0.0;
  return out;
}

}  // namespace perfbench
