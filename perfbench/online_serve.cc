// online_serve: an open loop on the simulated clock against one Server
// running the slot scheduler with DWFQ and per-tenant token-bucket quotas
// (E37's regime: four tenants, one 8x hot, offered at 1.375x declared
// capacity). Seeded Poisson arrivals are offered regardless of server
// state and the replay is unpaced in wall time. The model is a small
// q8-block int8 MLP (32->128->10) served at batches <= 8, so the serve
// front door (admission, tenant scheduler, slot lanes, request copies,
// fork-join waves, the registry swap) takes most of the wall; fleet is
// bypassed. Two threads: the caller plus one server pool worker.
//
// The same seeded trace is replayed on a fresh server as many times as
// the wall budget allows, with a hot swap to v2 at its midpoint.
// Simulated outcomes must repeat bit for bit across replays, traced ones
// included; the first replay's outputs are checked against reference
// engines of the version each request bound.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/core/rng.h"
#include "src/infer/engine.h"
#include "src/nn/sequential.h"
#include "src/nn/serialize.h"
#include "src/nn/train.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/serve/admission.h"
#include "src/serve/loadgen.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"

namespace perfbench {
namespace {

using dlsys::Sequential;
using dlsys::Server;

constexpr int64_t kIn = 32;
constexpr int64_t kHidden = 128;
constexpr int64_t kOut = 10;
constexpr int kWorkers = 2;
constexpr int64_t kMaxBatch = 8;
constexpr int kDenseSteps = 2;
/// Per replay; about 28,700 complete, so the server's completion vector
/// makes its last doubling mid-replay, not at a size seeds straddle.
constexpr int64_t kRequests = 70000;
constexpr int64_t kDrainEvery = 1000;   ///< traced replays: requests per drain
constexpr int64_t kCallSamples = 40000; ///< full-batch reference engine calls
constexpr int64_t kCallChunk = 500;
constexpr int64_t kCallWarmup = 100;
constexpr double kLoadFactor = 1.375;
constexpr double kHotFactor = 8.0;
const char* const kModel = "m";

/// Selects the slot scheduler on configs that still carry the migration
/// flag; once the legacy path is deleted, slots are the only path and
/// there is nothing to select.
template <typename SchedulerConfig>
void SelectSlotScheduler(SchedulerConfig* scheduler) {
  if constexpr (requires { scheduler->use_slots; }) {
    scheduler->use_slots = true;
  }
}

double CapacityRps(const dlsys::ServerConfig& config) {
  return static_cast<double>(config.workers) *
         static_cast<double>(config.batch.max_batch) * 1000.0 /
         dlsys::EstimateServiceMs(config.cost, config.batch.max_batch);
}

dlsys::ServerConfig MakeServerConfig() {
  dlsys::ServerConfig config;
  config.workers = kWorkers;
  config.batch.max_batch = kMaxBatch;
  config.batch.max_delay_ms = 0.2;
  config.queue_capacity = 8 * kMaxBatch;
  config.default_deadline_ms =
      5.0 * dlsys::EstimateServiceMs(config.cost, kMaxBatch);
  SelectSlotScheduler(&config.scheduler);
  config.scheduler.fair_queueing = true;
  config.scheduler.enforce_quotas = true;
  config.scheduler.default_policy.rate_rps = 0.1875 * CapacityRps(config);
  config.scheduler.default_policy.burst = static_cast<double>(kMaxBatch);
  return config;
}

dlsys::EngineConfig MakeEngineConfig() {
  dlsys::EngineConfig config(kMaxBatch);
  config.numeric = dlsys::EngineNumeric::kInt8;
  return config;
}

Sequential LoadMlp(const std::string& params) {
  Sequential net = dlsys::MakeMlp(kIn, {kHidden}, kOut);
  const dlsys::Status st = dlsys::LoadParameters(&net, params);
  if (!st.ok()) Die("LoadParameters: " + st.ToString());
  return net;
}

/// The seeded arrival trace every replay offers.
struct Trace {
  std::vector<double> arrival_ms;
  std::vector<std::string> tenant;
  std::vector<float> payload;  ///< kRequests x kIn
};

/// A server with the registry it borrows.
struct ServerUnderTest {
  std::unique_ptr<dlsys::ModelRegistry> registry;
  std::unique_ptr<Server> server;
};

/// Wall times of one set-up: build + LoadParameters, Server::Create +
/// Publish of v1.
struct SetupTimes {
  double setup_s = 0.0;
  double load_ms = 0.0;
  double publish_ms = 0.0;
};

ServerUnderTest SetUp(const std::string& params,
                      const dlsys::ServerConfig& config, SetupTimes* times) {
  ServerUnderTest sut;
  Stopwatch all;
  Sequential v1 = dlsys::MakeMlp(kIn, {kHidden}, kOut);
  Stopwatch load;
  const dlsys::Status st = dlsys::LoadParameters(&v1, params);
  times->load_ms = load.Ms();
  if (!st.ok()) Die("LoadParameters: " + st.ToString());
  sut.registry = std::make_unique<dlsys::ModelRegistry>();
  auto created = Server::Create(sut.registry.get(), config);
  if (!created.ok()) Die("Server::Create: " + created.status().ToString());
  sut.server = std::move(created).value();
  Stopwatch publish;
  auto version = sut.server->Publish(kModel, v1, {kIn}, MakeEngineConfig());
  times->publish_ms = publish.Ms();
  if (!version.ok()) Die("Publish: " + version.status().ToString());
  times->setup_s = all.Seconds();
  return sut;
}

/// One replay's wall times and simulated outcome.
struct Replay {
  bool traced = false;
  double server_wall_s = 0.0;  ///< Submit + AdvanceTo + Publish + Drain
  double swap_ms = 0.0;        ///< the mid-run hot-swap Publish
  int64_t admitted = 0;
  int64_t batches = 0;
  uint64_t fingerprint = 0;
};

}  // namespace

Result RunOnlineServe(const Options& opt) {
  Result out;
  const dlsys::ServerConfig config = MakeServerConfig();
  const dlsys::EngineConfig engine_config = MakeEngineConfig();
  out.Note("online_serve threads: runtime=%d server_workers=%d "
           "(pool_threads=%d + caller) total=2",
           dlsys::RuntimeConfig::Threads(), kWorkers, kWorkers - 1);

  // Seeded inputs, before any timer: Poisson arrivals at 1.375x declared
  // capacity, hot-tenant assignment, Gaussian payloads, and the two
  // model versions saved to disk.
  Trace trace;
  {
    dlsys::Rng root(opt.seed);
    dlsys::Rng gaps = root.Fork();
    dlsys::Rng payloads = root.Fork();
    const double rate = kLoadFactor * CapacityRps(config);
    double t = 0.0;
    for (int64_t i = 0; i < kRequests; ++i) {
      t += -std::log(1.0 - gaps.Uniform()) / rate * 1000.0;
      trace.arrival_ms.push_back(t);
    }
    trace.payload.resize(static_cast<size_t>(kRequests * kIn));
    for (float& x : trace.payload) x = static_cast<float>(payloads.Gaussian());
    trace.tenant = dlsys::AssignTenants(dlsys::HotTenantMix(4, kHotFactor),
                                        opt.seed, kRequests);
  }
  const std::string params[2] = {opt.workdir + "/online_serve.v1.params",
                                 opt.workdir + "/online_serve.v2.params"};
  for (int v = 0; v < 2; ++v) {
    Sequential net = dlsys::MakeMlp(kIn, {kHidden}, kOut);
    dlsys::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 101 + v);
    net.Init(&rng);
    const dlsys::Status st = dlsys::SaveParameters(net, params[v]);
    if (!st.ok()) Die("SaveParameters: " + st.ToString());
  }
  const Sequential v2 = LoadMlp(params[1]);
  std::vector<dlsys::InferenceEngine> refs;  // one per version
  for (int v = 0; v < 2; ++v) {
    auto engine = dlsys::InferenceEngine::Compile(LoadMlp(params[v]), {kIn},
                                                  engine_config);
    if (!engine.ok()) Die("Compile reference: " + engine.status().ToString());
    refs.push_back(std::move(engine).value());
  }
  const double deadline_ms = config.default_deadline_ms;
  const int64_t swap_at = kRequests / 2;
  int64_t failed = 0;

  // Side measurements, paced over the run so they sample all of it:
  // restarts (set up, serve the trace's first request, check its
  // output) and chunks of full-batch PredictInto calls on the v1
  // reference engine, the per-call cost of the served engine.
  std::vector<SetupTimes> setups;
  std::vector<double> first_output_ms;
  float want[kOut];
  auto restart = [&] {
    SetupTimes s;
    Stopwatch all;
    ServerUnderTest sut = SetUp(params[0], config, &s);
    dlsys::Tensor example({kIn});
    std::copy(trace.payload.begin(), trace.payload.begin() + kIn, example.data());
    sut.server->Submit(kModel, example, trace.arrival_ms[0], deadline_ms,
                       trace.tenant[0]);
    if (sut.server->completions().empty()) sut.server->Drain();
    first_output_ms.push_back(all.Ms());
    setups.push_back(s);
    const dlsys::Status st = refs[0].PredictInto(trace.payload.data(), 1, want);
    if (!st.ok()) Die("reference PredictInto: " + st.ToString());
    if (sut.server->completions().size() != 1 ||
        !BitEqual(sut.server->completions()[0].output.data(), want, kOut)) {
      ++failed;
    }
  };
  std::vector<double> call_us;
  call_us.reserve(kCallSamples);
  int64_t call_allocs = 0;
  std::vector<float> call_out(static_cast<size_t>(kMaxBatch * kOut));
  auto call_chunk = [&] {
    const int64_t rows = kRequests / kMaxBatch;
    for (int64_t k = 0; k < kCallWarmup; ++k) {  // caches the replay evicted
      if (!refs[0].PredictInto(trace.payload.data(), kMaxBatch, call_out.data()).ok()) {
        Die("reference PredictInto failed");
      }
    }
    for (int64_t k = 0; k < kCallChunk; ++k) {
      const int64_t i = static_cast<int64_t>(call_us.size());
      const float* x = trace.payload.data() + (i % rows) * kMaxBatch * kIn;
      SetAllocCounting(opt.trace);
      const int64_t before = AllocCount();
      Stopwatch sw;
      const dlsys::Status st = refs[0].PredictInto(x, kMaxBatch, call_out.data());
      const double us = sw.Us();
      call_allocs += AllocCount() - before;
      SetAllocCounting(false);
      call_us.push_back(us);
      if (!st.ok()) Die("reference PredictInto: " + st.ToString());
    }
  };
  const int64_t chunks = kCallSamples / kCallChunk;

  std::vector<Replay> replays;
  // From the first replay: output check tallies and simulated series.
  int64_t wrong = 0, ok = 0, v2_served = 0, completed = 0;
  std::vector<double> latency, quota_wait, slot_wait, execute;
  std::map<std::string, Server::TenantStats> first_tenants;
  double shed_queue_full = 0.0, shed_deadline = 0.0, occupancy = 0.0;
  int64_t workspace_bytes = 0;
  std::vector<double> submit_us;  // untraced replays of a traced run
  SpanLedger spans;

  Pacer pacer(opt.seconds);
  // A traced run alternates untraced and traced replays, at least one of
  // each.
  const size_t min_replays = opt.trace ? 2 : 1;
  // Two cores per group: the server's pool thread, created at each set-up,
  // shares the caller's group.
  CoreRotation cores(/*period_s=*/0.5, /*width=*/2);
  while (replays.size() < min_replays || !pacer.Expired()) {
    cores.MaybeRotate();
    while (pacer.Due(static_cast<int64_t>(setups.size()), kRestarts)) restart();
    while (pacer.Due(static_cast<int64_t>(call_us.size()) / kCallChunk, chunks)) {
      call_chunk();
    }
    Replay r;
    r.traced = opt.trace && replays.size() % 2 == 1;
    const bool keep_submits = opt.trace && !r.traced && replays.size() < 20;
    SetupTimes ignored;
    ServerUnderTest sut = SetUp(params[0], config, &ignored);
    Server& server = *sut.server;
    // Replay fingerprint: every verdict and every completion's schedule
    // and output bits.
    uint64_t h = 0xCBF29CE484222325ULL;
    dlsys::Tensor example({kIn});
    if (r.traced) {
      dlsys::obs::ResetTrace();
      dlsys::obs::SetTracingEnabled(true);
    }
    for (int64_t i = 0; i < kRequests; ++i) {
      if (r.traced && i > 0 && i % kDrainEvery == 0) {
        dlsys::obs::SetTracingEnabled(false);
        spans.Add(dlsys::obs::DrainTrace());
        dlsys::obs::ResetTrace();
        dlsys::obs::SetTracingEnabled(true);
      }
      const double t = trace.arrival_ms[static_cast<size_t>(i)];
      if (i == swap_at) {
        // Hot swap at the midpoint: bring the clock to just before the
        // next arrival, then publish v2 while requests bound to v1 are
        // still queued.
        Stopwatch step;
        Spanned("bench.advance_to", [&] {
          server.AdvanceTo(
              0.5 * (trace.arrival_ms[static_cast<size_t>(i - 1)] + t));
        });
        r.server_wall_s += step.Seconds();
        Stopwatch swap;
        auto version = Spanned("bench.publish", [&] {
          return server.Publish(kModel, v2, {kIn}, engine_config);
        });
        r.swap_ms = swap.Ms();
        r.server_wall_s += r.swap_ms / 1e3;
        if (!version.ok()) Die("Publish v2: " + version.status().ToString());
      }
      std::copy(trace.payload.begin() + i * kIn,
                trace.payload.begin() + (i + 1) * kIn, example.data());
      const std::string& tenant = trace.tenant[static_cast<size_t>(i)];
      Stopwatch submit;
      const Server::SubmitResult v = Spanned("bench.submit", [&] {
        return server.Submit(kModel, example, t, deadline_ms, tenant);
      });
      const double us = submit.Us();
      if (keep_submits) submit_us.push_back(us);
      r.server_wall_s += us / 1e6;
      h = Fnv(h, &v.outcome, sizeof(v.outcome));
      h = Fnv(h, &v.version, sizeof(v.version));
      r.admitted += v.outcome == Server::Outcome::kAdmitted ? 1 : 0;
    }
    {
      Stopwatch drain;
      Spanned("bench.drain", [&] { server.Drain(); });
      r.server_wall_s += drain.Seconds();
    }
    if (r.traced) {
      dlsys::obs::SetTracingEnabled(false);
      spans.Add(dlsys::obs::DrainTrace());
      dlsys::obs::ResetTrace();
    }
    const dlsys::MetricsReport metrics = server.metrics();
    r.batches = static_cast<int64_t>(metrics.Get("serve.batches"));

    for (const Server::Completion& c : server.completions()) {
      h = Fnv(h, &c.id, sizeof(c.id));
      h = Fnv(h, &c.version, sizeof(c.version));
      h = Fnv(h, &c.dispatch_ms, sizeof(c.dispatch_ms));
      h = Fnv(h, &c.finish_ms, sizeof(c.finish_ms));
      h = Fnv(h, c.output.data(), static_cast<size_t>(kOut) * sizeof(float));
    }
    r.fingerprint = h;
    if (replays.empty()) {
      // Output check on the first replay: every completion bit-equals the
      // reference engine of the version the request bound.
      for (const Server::Completion& c : server.completions()) {
        if (c.version < 1 || c.version > 2) Die("completion bound no known version");
        const float* x = trace.payload.data() + c.id * kIn;
        const dlsys::Status st = refs[c.version - 1].PredictInto(x, 1, want);
        if (!st.ok()) Die("reference PredictInto: " + st.ToString());
        const bool same = BitEqual(c.output.data(), want, kOut);
        wrong += same ? 0 : 1;
        ok += same && !c.deadline_missed ? 1 : 0;
        v2_served += c.version == 2 ? 1 : 0;
        latency.push_back(c.finish_ms - c.arrival_ms);
        quota_wait.push_back(c.quota_open_ms - c.arrival_ms);
        slot_wait.push_back(c.dispatch_ms - c.quota_open_ms);
        execute.push_back(c.finish_ms - c.dispatch_ms);
      }
      completed = static_cast<int64_t>(server.completions().size());
      first_tenants = server.tenant_stats();
      shed_queue_full = metrics.Get("serve.shed.queue_full");
      shed_deadline = metrics.Get("serve.shed.deadline_infeasible");
      const dlsys::SlotPool* pool = server.slot_pool();
      if (pool != nullptr && pool->occupancy_timeline().size() >= 2) {
        const auto& tl = pool->occupancy_timeline();
        double area = 0.0;
        for (size_t k = 0; k + 1 < tl.size(); ++k) {
          area += static_cast<double>(tl[k].second) *
                  (tl[k + 1].first - tl[k].first);
        }
        occupancy = area / ((tl.back().first - tl.front().first) *
                            static_cast<double>(pool->size()));
      }
      workspace_bytes =
          sut.registry->Acquire(kModel)->replicas[0].engine->workspace_bytes();
    }
    replays.push_back(std::move(r));
  }
  while (static_cast<int64_t>(setups.size()) < kRestarts) restart();
  while (static_cast<int64_t>(call_us.size()) < kCallSamples) call_chunk();

  const int64_t lost = replays.front().admitted - completed;
  int64_t diverged = 0;
  for (const Replay& r : replays) {
    diverged += r.fingerprint != replays.front().fingerprint ? 1 : 0;
  }

  const int64_t n_replays = static_cast<int64_t>(replays.size());
  out.attempted = n_replays * kRequests + kRestarts;
  out.failed = failed + wrong + lost + diverged * kRequests;
  if (failed > 0) {
    out.Fail("%lld restarts served a wrong first output",
             static_cast<long long>(failed));
  }
  if (wrong > 0) {
    out.Fail("%lld outputs differ from the bound version's reference engine",
             static_cast<long long>(wrong));
  }
  if (lost != 0) {
    out.Fail("%lld admitted requests never completed across the hot swap",
             static_cast<long long>(lost));
  }
  if (diverged > 0) {
    out.Fail("%lld replays diverged from the first replay's simulated "
             "outcome", static_cast<long long>(diverged));
  }
  if (v2_served == 0 || v2_served == completed) {
    out.Fail("the hot swap did not split traffic between v1 and v2");
  }
  out.Note("replays=%lld of %lld requests; completed per replay=%lld "
           "(v2 served %lld); restarts=%d, the cold one set up in %.6f s",
           static_cast<long long>(n_replays), static_cast<long long>(kRequests),
           static_cast<long long>(completed), static_cast<long long>(v2_served),
           kRestarts, setups[0].setup_s);

  std::vector<double> setup_s, load_ms, publish_ms, swap_ms, replay_rate;
  for (const SetupTimes& s : setups) {
    setup_s.push_back(s.setup_s);
    load_ms.push_back(s.load_ms);
    publish_ms.push_back(s.publish_ms);
  }
  double plain_wall = 0.0, traced_wall = 0.0;
  int64_t plain_n = 0, traced_n = 0, traced_batches = 0;
  for (const Replay& r : replays) {
    swap_ms.push_back(r.swap_ms);
    if (r.traced) {
      traced_wall += r.server_wall_s;
      traced_batches += r.batches;
      ++traced_n;
    } else {
      plain_wall += r.server_wall_s;
      replay_rate.push_back(static_cast<double>(completed) / r.server_wall_s);
      ++plain_n;
    }
  }
  const double offered = static_cast<double>(kRequests);
  if (!opt.trace) {
    double hi = 0.0, lo = 1e300;
    for (const auto& [tenant, ts] : first_tenants) {
      const double good = static_cast<double>(ts.completed - ts.deadline_missed);
      hi = std::max(hi, good);
      lo = std::min(lo, good);
      out.Note("tenant %s offered=%lld goodput=%.0f", tenant.c_str(),
               static_cast<long long>(ts.offered), good);
    }
    if (!(lo > 0.0)) out.Fail("a tenant got no goodput");
    out.metrics["setup_s"] = Median(setup_s);
    // Median over replays: a burst of host noise skews one replay, not
    // the run.
    out.metrics["throughput_per_s"] = Median(replay_rate);
    out.metrics["call_p50_us"] = Median(call_us);
    out.metrics["call_p99_us"] =
        WindowedTail(call_us, kTailWindow, 0.99, "call_p99_us", &out);
    out.metrics["ok_fraction"] = static_cast<double>(ok) / offered;
    out.metrics["latency_p50_ms"] = Median(latency);
    out.metrics["latency_p99_ms"] = Tail(latency, 0.99, "latency_p99_ms", &out);
    out.metrics["tenant_skew"] = hi / lo;
    out.metrics["recover_ms"] = Median(first_output_ms);
    out.metrics["peak_rss_mb"] = PeakRssMb();
    return out;
  }

  // The ladder: bench.<server call> > engine.predict > engine.dense* >
  // gemm.q8_block_tb, with self times from SelfTimeByName.
  const SpanAgg& predict = spans.Get("engine.predict");
  const SpanAgg& q8 = spans.Get("gemm.q8_block_tb");
  const SpanAgg kernels = spans.Prefix("gemm.");
  out.Note("spans: %s", spans.Counts().c_str());
  if (predict.count != traced_batches ||
      q8.count != traced_batches * kDenseSteps ||
      spans.Get("bench.submit").count != traced_n * kRequests) {
    out.Fail("span counts (predict %lld, q8 gemm %lld) do not match %lld "
             "dispatched batches", static_cast<long long>(predict.count),
             static_cast<long long>(q8.count),
             static_cast<long long>(traced_batches));
  }
  if (spans.wall_ring_filled()) out.Fail("a wall-track ring filled");
  if (call_allocs != 0) {
    out.Fail("%lld heap allocations inside PredictInto",
             static_cast<long long>(call_allocs));
  }
  out.Note("traced replays=%lld untraced replays=%lld",
           static_cast<long long>(traced_n), static_cast<long long>(plain_n));

  const double batches = static_cast<double>(replays.front().batches);
  std::map<std::string, double>& v = out.metrics;
  v["simd.q8_gemm.share"] = q8.total_ms / predict.total_ms;
  v["simd.q8_gemm.gflops"] = q8.flops / (q8.total_ms * 1e6);
  v["simd.calls_per_predict"] =
      static_cast<double>(kernels.count) / static_cast<double>(predict.count);
  v["infer.dense.self_share"] =
      spans.Prefix("engine.dense").self_ms / predict.total_ms;
  v["infer.predict.p50_us"] = Median(spans.predict_us());
  v["infer.predict.p99_us"] =
      Tail(spans.predict_us(), 0.99, "infer.predict.p99_us", &out);
  v["infer.dispatch_us"] =
      predict.self_ms * 1e3 / static_cast<double>(predict.count);
  v["infer.heap_allocs_per_call"] =
      static_cast<double>(call_allocs) / static_cast<double>(kCallSamples);
  v["infer.compile_ms"] = Median(publish_ms);
  v["infer.workspace_bytes"] = static_cast<double>(workspace_bytes);
  v["nn.load_ms"] = Median(load_ms);
  v["serve.submit.p50_us"] = Median(submit_us);
  v["serve.submit.p99_us"] = Tail(submit_us, 0.99, "serve.submit.p99_us", &out);
  v["serve.overhead_share"] =
      1.0 - spans.predict_union_ms() / (traced_wall * 1e3);
  v["serve.mean_batch"] = static_cast<double>(completed) / batches;
  v["serve.slot_occupancy"] = occupancy;
  v["serve.publish_ms"] = Median(swap_ms);
  v["serve.lost"] = static_cast<double>(lost);
  v["serve.quota_wait.p99_ms"] = Tail(quota_wait, 0.99, "quota_wait", &out);
  v["serve.slot_wait.p99_ms"] = Tail(slot_wait, 0.99, "slot_wait", &out);
  v["serve.execute.p99_ms"] = Tail(execute, 0.99, "execute", &out);
  v["serve.shed.queue_full"] = shed_queue_full / offered;
  v["serve.shed.deadline"] = shed_deadline / offered;
  v["obs.trace_overhead"] = (traced_wall / static_cast<double>(traced_n)) /
                                (plain_wall / static_cast<double>(plain_n)) -
                            1.0;
  v["obs.dropped_spans"] = spans.wall_ring_filled() ? spans.dropped() : 0.0;
  return out;
}

}  // namespace perfbench
