// Tests for the serving layer (src/serve): RCU hot-swap correctness
// (every completed request's output is bitwise the version it was
// admitted under, at any DLSYS_THREADS), bounded-queue and deadline
// admission, deterministic bit-for-bit load replay, thread-safety of
// registry publish/acquire under real concurrency (the TSan target), and
// a behaviour oracle pinning digests of seven replayed configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/rng.h"
#include "src/nn/train.h"
#include "src/obs/attribution.h"
#include "src/obs/counters.h"
#include "src/runtime/runtime.h"
#include "src/serve/admission.h"
#include "src/serve/loadgen.h"
#include "src/serve/registry.h"
#include "src/serve/scheduler.h"
#include "src/serve/server.h"
#include "src/serve/slots.h"

namespace dlsys {
namespace {

/// A small trained-free MLP; distinct seeds give distinct weights.
Sequential MakeNet(uint64_t seed) {
  Sequential net = MakeMlp(16, {24}, 4);
  Rng rng(seed);
  net.Init(&rng);
  return net;
}

// ------------------------------------------------------------- registry

TEST(ModelRegistryTest, PublishAcquireAndVersioning) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Acquire("m"), nullptr);
  EXPECT_EQ(registry.LatestVersion("m"), 0);

  Sequential net = MakeNet(1);
  auto snap1 = CompileSnapshot(net, {16});
  ASSERT_TRUE(snap1.ok()) << snap1.status().ToString();
  auto v1 = registry.Publish("m", std::move(snap1).value());
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1);
  EXPECT_EQ(registry.swap_count(), 0);  // first publication is not a swap

  std::shared_ptr<ModelSnapshot> held = registry.Acquire("m");
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->version, 1);
  EXPECT_EQ(held->model, "m");
  EXPECT_EQ(held->in_elems, 16);
  EXPECT_EQ(held->out_elems, 4);
  ASSERT_NE(held->replicas[0].engine, nullptr);

  auto snap2 = CompileSnapshot(MakeNet(2), {16});
  ASSERT_TRUE(snap2.ok());
  auto v2 = registry.Publish("m", std::move(snap2).value());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2);
  EXPECT_EQ(registry.swap_count(), 1);
  EXPECT_EQ(registry.LatestVersion("m"), 2);
  EXPECT_EQ(registry.Acquire("m")->version, 2);

  // RCU guarantee: the pre-swap snapshot we hold is untouched and usable.
  EXPECT_EQ(held->version, 1);
  Tensor x({16});
  Rng rng(3);
  x.FillGaussian(&rng, 1.0f);
  Tensor out({1, 4});
  EXPECT_TRUE(
      held->replicas[0].engine->PredictInto(x.data(), 1, out.data()).ok());

  auto other = CompileSnapshot(MakeNet(4), {16});
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(registry.Publish("a", std::move(other).value()).ok());
  EXPECT_EQ(registry.ModelNames(), (std::vector<std::string>{"a", "m"}));
}

TEST(ModelRegistryTest, PublishAndCompileErrors) {
  ModelRegistry registry;
  Sequential net = MakeNet(1);
  EXPECT_EQ(CompileSnapshot(net, {4, 4}).status().code(),
            StatusCode::kInvalidArgument);  // shape does not thread through

  EXPECT_EQ(registry.Publish("m", nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Publish("m", std::make_shared<ModelSnapshot>())
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // no compiled engine
  auto compiled = CompileSnapshot(net, {16});
  ASSERT_TRUE(compiled.ok());
  std::shared_ptr<ModelSnapshot> snap = std::move(compiled).value();
  EXPECT_EQ(registry.Publish("", snap).status().code(),
            StatusCode::kInvalidArgument);

  // A live snapshot is never renamed or re-versioned: publishing it again,
  // under another name or its own, is turned away before any slot exists
  // or any field changes.
  ASSERT_TRUE(registry.Publish("a", snap).ok());
  EXPECT_EQ(registry.Publish("b", snap).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Publish("a", snap).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Acquire("a")->model, "a");
  EXPECT_EQ(registry.Acquire("a")->version, 1);
  EXPECT_EQ(registry.LatestVersion("a"), 1);
  EXPECT_EQ(registry.Acquire("b"), nullptr);
  EXPECT_EQ(registry.ModelNames(), (std::vector<std::string>{"a"}));
  EXPECT_EQ(registry.swap_count(), 0);
}

TEST(ModelRegistryTest, ConcurrentPublishAndAcquireAreRaceFree) {
  // The TSan target for the registry alone: one publisher hot-swapping in
  // a loop while readers acquire snapshots and read their immutable
  // fields. A snapshot's engine serves one thread at a time, so exactly
  // one reader also runs what it acquired.
  constexpr int kReaders = 3;
  ModelRegistry registry;
  auto first = CompileSnapshot(MakeNet(10), {16});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(registry.Publish("m", std::move(first).value()).ok());

  std::atomic<bool> stop{false};
  std::thread publisher([&registry, &stop]() {
    for (int i = 0; i < 8; ++i) {
      auto snap =
          CompileSnapshot(MakeNet(11 + static_cast<uint64_t>(i)), {16});
      ASSERT_TRUE(snap.ok());
      ASSERT_TRUE(registry.Publish("m", std::move(snap).value()).ok());
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&registry, &stop, r]() {
      Rng rng(100 + static_cast<uint64_t>(r));
      Tensor x({16});
      Tensor out({1, 4});
      int64_t last_version = 0;
      while (!stop.load()) {
        std::shared_ptr<ModelSnapshot> snap = registry.Acquire("m");
        ASSERT_NE(snap, nullptr);
        EXPECT_GE(snap->version, last_version);  // versions only move up
        last_version = snap->version;
        EXPECT_EQ(snap->model, "m");
        EXPECT_EQ(snap->in_elems, 16);
        EXPECT_EQ(snap->out_elems, 4);
        EXPECT_EQ(snap->example_output_shape, (Shape{4}));
        if (r == 0) {
          x.FillGaussian(&rng, 1.0f);
          ASSERT_TRUE(snap->replicas[0]
                          .engine->PredictInto(x.data(), 1, out.data())
                          .ok());
        }
      }
    });
  }
  publisher.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(registry.LatestVersion("m"), 9);
  EXPECT_EQ(registry.swap_count(), 8);
}

// ------------------------------------------------------- config validation

TEST(ServerConfigTest, ValidateCatchesEachBadField) {
  EXPECT_TRUE(ValidateServerConfig(ServerConfig{}).ok());

  ServerConfig c;
  c.workers = 0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.batch.max_batch = 0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.queue_capacity = 3;
  c.batch.max_batch = 8;  // queue bound must fit one full batch
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.batch.max_batch = int64_t{1} << 40;  // slot count must fit an int
  c.queue_capacity = c.batch.max_batch;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.batch.max_delay_ms = -0.5;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.default_deadline_ms = 0.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.default_deadline_ms = 1.0 / 0.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.cost.fixed_ms = -1.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.cost.per_example_ms = -1.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  ModelRegistry registry;
  c = ServerConfig{};
  c.workers = 0;
  EXPECT_FALSE(Server::Create(&registry, c).ok());
  EXPECT_FALSE(Server::Create(nullptr, ServerConfig{}).ok());
}

// ------------------------------------------------------------- admission

TEST(ServerTest, ShedsWhenQueueIsFullInsteadOfQueuingUnboundedly) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.batch.max_batch = 4;
  config.default_deadline_ms = 1e6;    // deadline never the limiter here
  config.cost = {1.0, 0.0};
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(1), {16}).ok());

  Rng rng(2);
  Tensor x({16});
  int admitted = 0, shed = 0;
  for (int i = 0; i < 10; ++i) {
    x.FillGaussian(&rng, 1.0f);
    const Server::SubmitResult r = server->Submit("m", x, 0.0);
    if (r.outcome == Server::Outcome::kAdmitted) {
      ++admitted;
    } else {
      EXPECT_EQ(r.outcome, Server::Outcome::kShedQueueFull) << "i=" << i;
      ++shed;
    }
  }
  // The first request departs alone on the idle worker. The next four
  // fill the queue bound while it executes — three loaded into the
  // worker's free lanes, one queued in the scheduler behind them — and
  // the rest bounce off the full queue.
  EXPECT_EQ(admitted, 5);
  EXPECT_EQ(shed, 5);
  EXPECT_EQ(server->queue_depth(), config.queue_capacity);
  server->Drain();
  EXPECT_EQ(server->completions().size(), 5u);  // no admitted request lost

  const MetricsReport m = server->metrics();
  EXPECT_EQ(m.Get("serve.offered"), 10.0);
  EXPECT_EQ(m.Get("serve.admitted"), 5.0);
  EXPECT_EQ(m.Get("serve.shed.queue_full"), 5.0);
  EXPECT_EQ(m.Get("serve.batches"), 2.0);  // the lone first, then a full 4
  EXPECT_EQ(m.Get("serve.latency.count"), 5.0);
}

TEST(ServerTest, ShedsWhenPredictedFinishMissesDeadline) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  config.batch.max_batch = 1;
  config.default_deadline_ms = 15.0;
  config.cost = {10.0, 0.0};  // each dispatch occupies the worker 10ms
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(1), {16}).ok());

  Rng rng(3);
  Tensor x({16});
  x.FillGaussian(&rng, 1.0f);
  EXPECT_EQ(server->Submit("m", x, 0.0).outcome, Server::Outcome::kAdmitted);
  // The worker is now busy until t=10; a second request would finish at
  // t=20, past its t=15 deadline — shed at admission, not queued to fail.
  EXPECT_EQ(server->Submit("m", x, 0.0).outcome,
            Server::Outcome::kShedDeadline);
  // By t=6 the worker frees at 10 and a new request's deadline is 21.
  EXPECT_EQ(server->Submit("m", x, 6.0).outcome, Server::Outcome::kAdmitted);
  server->Drain();
  EXPECT_EQ(server->completions().size(), 2u);
  EXPECT_EQ(server->metrics().Get("serve.shed.deadline_infeasible"), 1.0);
  EXPECT_EQ(server->metrics().Get("serve.deadline_missed"), 0.0);
}

TEST(AdmissionTest, StructuredShedReasons) {
  // The pure decision function attributes each shed to exactly one
  // reason, tested in priority order: draining trumps queue state,
  // queue bound trumps deadline feasibility.
  AdmissionInputs in;
  in.queue_capacity = 2;
  in.cost = {10.0, 0.0};
  in.prospective_batch = 1;
  in.deadline_budget_ms = 100.0;
  EXPECT_EQ(DecideAdmission(in), AdmissionDecision::kAdmit);
  in.draining = true;
  in.queue_depth = 2;
  EXPECT_EQ(DecideAdmission(in), AdmissionDecision::kShedDraining);
  in.draining = false;
  EXPECT_EQ(DecideAdmission(in), AdmissionDecision::kShedQueueFull);
  in.queue_depth = 0;
  in.deadline_budget_ms = 5.0;  // modeled 10ms service can never make it
  EXPECT_EQ(DecideAdmission(in), AdmissionDecision::kShedDeadline);
}

TEST(ServerTest, DrainingShedsNewWorkButFinishesQueuedWork) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.batch.max_batch = 4;
  config.default_deadline_ms = 1e6;
  config.cost = {1.0, 0.0};
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(1), {16}).ok());

  Rng rng(4);
  Tensor x({16});
  x.FillGaussian(&rng, 1.0f);
  // The first request departs alone on the idle worker; the other two
  // stay queued in its lanes behind the executing step.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server->Submit("m", x, 0.0).outcome,
              Server::Outcome::kAdmitted);
  }
  EXPECT_EQ(server->queue_depth(), 2);

  server->SetDraining(true);
  EXPECT_TRUE(server->draining());
  EXPECT_EQ(server->Submit("m", x, 1.0).outcome,
            Server::Outcome::kShedDraining);
  EXPECT_EQ(server->metrics().Get("serve.shed.draining"), 1.0);

  // The graceful half of a scale-down: everything admitted before the
  // drain still completes.
  server->Drain();
  EXPECT_EQ(server->completions().size(), 3u);
  EXPECT_EQ(server->queue_depth(), 0);

  server->SetDraining(false);
  // Drain advanced the simulated clock; resume past it.
  EXPECT_EQ(server->Submit("m", x, 2000.0).outcome,
            Server::Outcome::kAdmitted);
}

TEST(ServerTest, DropQueuedLosesOnlyUndispatchedRequests) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.batch.max_batch = 2;
  config.default_deadline_ms = 1e6;
  config.cost = {1.0, 0.0};
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(1), {16}).ok());

  Rng rng(5);
  Tensor x({16});
  x.FillGaussian(&rng, 1.0f);
  // The first request departs alone on the idle worker. The second is
  // loaded into the worker's other lane behind the executing step, and
  // the third, with no free lane left, stays queued in the scheduler.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server->Submit("m", x, 0.0).outcome,
              Server::Outcome::kAdmitted);
  }
  EXPECT_EQ(server->queue_depth(), 2);
  // The crash loses the queued request and the loaded lane...
  EXPECT_EQ(server->DropQueued(), 2);
  EXPECT_EQ(server->queue_depth(), 0);
  EXPECT_EQ(server->slot_pool()->occupancy(), 1);  // the executing lane
  EXPECT_EQ(server->DropQueued(), 0);
  server->Drain();
  // ...but not the already-departed step.
  ASSERT_EQ(server->completions().size(), 1u);
  EXPECT_EQ(server->completions()[0].id, 0);
  EXPECT_EQ(server->metrics().Get("serve.dropped_queued"), 2.0);
}

TEST(ServerTest, CostScaleSlowsFutureDecisionsOnly) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.batch.max_batch = 1;
  config.default_deadline_ms = 1e6;
  config.cost = {2.0, 1.0};
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(1), {16}).ok());

  Rng rng(6);
  Tensor x({16});
  x.FillGaussian(&rng, 1.0f);
  EXPECT_EQ(server->Submit("m", x, 0.0).outcome, Server::Outcome::kAdmitted);
  server->AdvanceTo(10.0);
  ASSERT_EQ(server->completions().size(), 1u);
  // Healthy modeled service: fixed 2 + per-example 1.
  EXPECT_DOUBLE_EQ(server->completions()[0].finish_ms, 3.0);

  // A gray failure quadruples the modeled cost for future dispatches.
  server->SetCostScale(4.0);
  EXPECT_DOUBLE_EQ(server->cost_scale(), 4.0);
  EXPECT_EQ(server->Submit("m", x, 10.0).outcome,
            Server::Outcome::kAdmitted);
  EXPECT_DOUBLE_EQ(server->earliest_worker_free_ms(), 22.0);  // 10 + 4*3
  server->Drain();
  ASSERT_EQ(server->completions().size(), 2u);
  EXPECT_DOUBLE_EQ(server->completions()[1].finish_ms, 22.0);

  server->SetCostScale(1.0);
  EXPECT_EQ(server->Submit("m", x, 30.0).outcome,
            Server::Outcome::kAdmitted);
  server->Drain();
  ASSERT_EQ(server->completions().size(), 3u);
  EXPECT_DOUBLE_EQ(server->completions()[2].finish_ms, 33.0);
}

TEST(ServerTest, UnknownModelIsReported) {
  ModelRegistry registry;
  auto created = Server::Create(&registry, ServerConfig{});
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  Tensor x({16});
  EXPECT_EQ(server->Submit("ghost", x, 0.0).outcome,
            Server::Outcome::kNoSuchModel);
  EXPECT_EQ(server->metrics().Get("serve.no_such_model"), 1.0);
}

// ------------------------------------------------------ hot-swap under load

struct SwapTrace {
  std::vector<Server::Outcome> outcomes;
  std::vector<int64_t> versions;          // per completion, dispatch order
  std::vector<double> finishes;           // per completion
  std::vector<int64_t> ids;               // per completion
  std::vector<std::vector<float>> outputs;
  MetricsReport metrics;
};

/// Drives 200 requests with a v1→v2 publish before request 100 and
/// returns the full observable trace.
SwapTrace RunSwapScenario(const Sequential& net1, const Sequential& net2,
                          const std::vector<Tensor>& inputs) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.batch.max_batch = 4;
  config.default_deadline_ms = 1e6;  // nothing sheds; we count completions
  auto created = Server::Create(&registry, config);
  EXPECT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  EXPECT_TRUE(server->Publish("m", net1, {16}).ok());

  SwapTrace trace;
  double t = 0.0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    t += 0.05;
    if (i == 100) {
      EXPECT_TRUE(server->Publish("m", net2, {16}).ok());
    }
    trace.outcomes.push_back(server->Submit("m", inputs[i], t).outcome);
  }
  server->Drain();
  for (const Server::Completion& c : server->completions()) {
    trace.versions.push_back(c.version);
    trace.finishes.push_back(c.finish_ms);
    trace.ids.push_back(c.id);
    trace.outputs.emplace_back(c.output.data(),
                               c.output.data() + c.output.size());
  }
  trace.metrics = server->metrics();
  return trace;
}

TEST(ServerTest, HotSwapUnderLoadIsLosslessAndBitwiseVersionFaithful) {
  const Sequential net1 = MakeNet(21);
  const Sequential net2 = MakeNet(22);
  std::vector<Tensor> inputs;
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    Tensor x({16});
    x.FillGaussian(&rng, 1.0f);
    inputs.push_back(std::move(x));
  }
  // Per-version references: the engine's row outputs are bitwise equal to
  // single-example predictions, so a per-request reference is exact.
  auto ref1 = InferenceEngine::Compile(net1, {16});
  auto ref2 = InferenceEngine::Compile(net2, {16});
  ASSERT_TRUE(ref1.ok() && ref2.ok());
  InferenceEngine engines[2] = {std::move(ref1).value(),
                                std::move(ref2).value()};

  SwapTrace first;
  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    SwapTrace trace = RunSwapScenario(net1, net2, inputs);

    // (a) zero requests lost across the swap...
    ASSERT_EQ(trace.outcomes.size(), 200u);
    for (size_t i = 0; i < trace.outcomes.size(); ++i) {
      EXPECT_EQ(trace.outcomes[i], Server::Outcome::kAdmitted) << i;
    }
    ASSERT_EQ(trace.versions.size(), 200u);
    EXPECT_EQ(trace.metrics.Get("serve.admitted"), 200.0);
    EXPECT_EQ(trace.metrics.Get("serve.swaps"), 1.0);
    // ...and both versions actually served.
    EXPECT_GT(trace.metrics.Get("serve.m.served_v1"), 0.0);
    EXPECT_GT(trace.metrics.Get("serve.m.served_v2"), 0.0);

    for (size_t i = 0; i < trace.versions.size(); ++i) {
      const int64_t id = trace.ids[i];
      // Version binding happens at admission: requests offered before the
      // publish stay on v1, later ones are v2, with no mixing.
      EXPECT_EQ(trace.versions[i], id < 100 ? 1 : 2) << "id=" << id;
      // Output is bitwise the bound version's prediction.
      Tensor one({1, 16});
      const Tensor& src = inputs[static_cast<size_t>(id)];
      std::copy(src.data(), src.data() + 16, one.data());
      const Tensor want =
          std::move(engines[trace.versions[i] - 1].Predict(one)).value();
      ASSERT_EQ(trace.outputs[i].size(), 4u);
      EXPECT_EQ(std::memcmp(trace.outputs[i].data(), want.data(),
                            4 * sizeof(float)),
                0)
          << "id=" << id << " threads=" << threads;
    }

    // (c) the whole trace — decisions, schedule, outputs — is identical
    // at every thread count.
    if (threads == 1) {
      first = std::move(trace);
    } else {
      EXPECT_EQ(trace.versions, first.versions) << "threads=" << threads;
      EXPECT_EQ(trace.finishes, first.finishes) << "threads=" << threads;
      EXPECT_EQ(trace.ids, first.ids) << "threads=" << threads;
      EXPECT_EQ(trace.outputs, first.outputs) << "threads=" << threads;
    }
  }
  RuntimeConfig::SetThreads(1);
}

/// Everything a Completion records except its output and its measured
/// wall time, for comparing two servers' records field by field.
void ExpectSameRecord(const Server::Completion& a,
                      const Server::Completion& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.rid, b.rid);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.arrival_ms, b.arrival_ms);
  EXPECT_EQ(a.quota_open_ms, b.quota_open_ms);
  EXPECT_EQ(a.dispatch_ms, b.dispatch_ms);
  EXPECT_EQ(a.finish_ms, b.finish_ms);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.deadline_missed, b.deadline_missed);
  EXPECT_EQ(a.batch_size, b.batch_size);
  EXPECT_EQ(a.worker, b.worker);
  EXPECT_EQ(a.slot, b.slot);
}

TEST(ServerTest, TakeCompletionsDrainsUntakenRecordsAndRecyclesOutputs) {
  // Twin servers see the same arrivals and the same hot swap to a version
  // with a wider output. The taker drains after every few submits and
  // hands back what it took, so it writes later outputs into recycled
  // tensors; the keeper never takes.
  ServerConfig config;
  config.workers = 2;
  config.batch.max_batch = 4;
  config.queue_capacity = 16;
  ModelRegistry taker_registry, keeper_registry;
  auto made_taker = Server::Create(&taker_registry, config);
  auto made_keeper = Server::Create(&keeper_registry, config);
  ASSERT_TRUE(made_taker.ok() && made_keeper.ok());
  std::unique_ptr<Server> taker = std::move(made_taker).value();
  std::unique_ptr<Server> keeper = std::move(made_keeper).value();
  const Sequential narrow = MakeNet(31);
  Sequential wide = MakeMlp(16, {24}, 7);
  Rng init(32);
  wide.Init(&init);
  for (Server* s : {taker.get(), keeper.get()}) {
    ASSERT_TRUE(s->Publish("m", narrow, {16}).ok());
  }

  std::vector<Server::Completion> taken;  // the taker's hand-back vector
  std::vector<Server::Completion> all;    // copies of every record taken
  auto take = [&] {
    taker->TakeCompletions(&taken);
    EXPECT_TRUE(taker->completions().empty());
    all.insert(all.end(), taken.begin(), taken.end());
  };
  Rng rng(33);
  double t = 0.0;
  constexpr int kRequests = 400;
  for (int i = 0; i < kRequests; ++i) {
    if (i == kRequests / 2) {
      for (Server* s : {taker.get(), keeper.get()}) {
        ASSERT_TRUE(s->Publish("m", wide, {16}).ok());
      }
    }
    Tensor x({16});
    x.FillGaussian(&rng, 1.0f);
    t += 0.4;
    const std::string tenant = i % 3 == 0 ? "hot" : "cold";
    const Server::SubmitResult a = taker->Submit("m", x, t, 0.0, tenant);
    const Server::SubmitResult b = keeper->Submit("m", x, t, 0.0, tenant);
    ASSERT_EQ(a.outcome, b.outcome) << i;
    ASSERT_EQ(a.id, b.id) << i;
    // completions() holds exactly the records not yet taken: the
    // keeper's tail past everything the taker took, in dispatch order.
    const std::vector<Server::Completion>& untaken = taker->completions();
    const std::vector<Server::Completion>& kept = keeper->completions();
    ASSERT_EQ(all.size() + untaken.size(), kept.size()) << i;
    for (size_t k = 0; k < untaken.size(); ++k) {
      EXPECT_EQ(untaken[k].id, kept[all.size() + k].id) << i;
    }
    if (i % 5 == 4) take();
  }
  taker->Drain();
  keeper->Drain();
  take();
  // A take with nothing new returns nothing.
  taker->TakeCompletions(&taken);
  EXPECT_TRUE(taken.empty());

  // Ids continue across takes, and every record and output written into
  // a recycled tensor is bit-equal to the keeper's; outputs of the wider
  // version never land in a tensor of the narrow one's shape.
  const std::vector<Server::Completion>& kept = keeper->completions();
  ASSERT_EQ(all.size(), kept.size());
  ASSERT_GT(kept.size(), static_cast<size_t>(kRequests / 2));
  int64_t wide_outputs = 0;
  for (size_t k = 0; k < kept.size(); ++k) {
    ExpectSameRecord(all[k], kept[k]);
    const int64_t width = kept[k].version == 1 ? 4 : 7;
    wide_outputs += kept[k].version == 2;
    ASSERT_EQ(all[k].output.shape(), Shape({width})) << "record " << k;
    ASSERT_EQ(kept[k].output.shape(), Shape({width})) << "record " << k;
    EXPECT_EQ(std::memcmp(all[k].output.data(), kept[k].output.data(),
                          static_cast<size_t>(width) * sizeof(float)),
              0)
        << "record " << k;
  }
  EXPECT_GT(wide_outputs, 0);
}

TEST(ServerTest, ConcurrentPublishDuringServingKeepsVersionsBitwise) {
  // The end-to-end TSan scenario: the serving loop runs on this thread
  // while another thread hot-swaps between two networks. Which version a
  // request binds depends on the race — but whichever it binds, its
  // output must be bitwise that version's prediction.
  const Sequential nets[2] = {MakeNet(31), MakeNet(32)};
  auto ref0 = InferenceEngine::Compile(nets[0], {16});
  auto ref1 = InferenceEngine::Compile(nets[1], {16});
  ASSERT_TRUE(ref0.ok() && ref1.ok());
  InferenceEngine refs[2] = {std::move(ref0).value(),
                             std::move(ref1).value()};

  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.batch.max_batch = 4;
  config.default_deadline_ms = 1e6;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", nets[0], {16}).ok());

  std::thread swapper([&server, &nets]() {
    for (int i = 0; i < 6; ++i) {
      // v2 binds nets[1], v3 nets[0], ... — version v serves nets[1 - v%2].
      ASSERT_TRUE(server->Publish("m", nets[(i + 1) % 2], {16}).ok());
    }
  });

  std::vector<Tensor> inputs;
  Rng rng(33);
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    Tensor x({16});
    x.FillGaussian(&rng, 1.0f);
    t += 0.05;
    ASSERT_EQ(server->Submit("m", x, t).outcome, Server::Outcome::kAdmitted);
    inputs.push_back(std::move(x));
  }
  swapper.join();
  server->Drain();

  ASSERT_EQ(server->completions().size(), 300u);
  for (const Server::Completion& c : server->completions()) {
    ASSERT_GE(c.version, 1);
    ASSERT_LE(c.version, 7);
    InferenceEngine& ref = refs[1 - c.version % 2];
    Tensor one({1, 16});
    const Tensor& src = inputs[static_cast<size_t>(c.id)];
    std::copy(src.data(), src.data() + 16, one.data());
    const Tensor want = std::move(ref.Predict(one)).value();
    EXPECT_EQ(std::memcmp(c.output.data(), want.data(), 4 * sizeof(float)),
              0)
        << "id=" << c.id << " version=" << c.version;
  }
  EXPECT_EQ(server->registry()->swap_count(), 6);
}

// -------------------------------------------------------- load harnesses

TEST(LoadGenTest, OpenLoopReplaysBitForBit) {
  auto run = []() {
    ModelRegistry registry;
    ServerConfig config;
    config.workers = 2;
    config.queue_capacity = 32;
    config.batch.max_batch = 8;
    config.default_deadline_ms = 5.0;
    auto created = Server::Create(&registry, config);
    EXPECT_TRUE(created.ok());
    std::unique_ptr<Server> server = std::move(created).value();
    EXPECT_TRUE(server->Publish("m", MakeNet(41), {16}).ok());
    OpenLoopConfig load;
    load.seed = 5;
    load.requests = 300;
    load.rate_rps = 20000.0;  // hot enough that some requests shed
    load.model = "m";
    LoadReport report = RunOpenLoop(server.get(), load);
    SwapTrace trace;  // reuse the container for the comparison
    for (const Server::Completion& c : server->completions()) {
      trace.versions.push_back(c.version);
      trace.finishes.push_back(c.finish_ms);
      trace.ids.push_back(c.id);
      trace.outputs.emplace_back(c.output.data(),
                                 c.output.data() + c.output.size());
    }
    return std::make_pair(report, trace);
  };
  auto [r1, t1] = run();
  auto [r2, t2] = run();

  EXPECT_EQ(r1.offered, 300);
  EXPECT_EQ(r1.offered, r1.admitted + r1.shed);
  EXPECT_EQ(r1.completed, r1.admitted);  // every admitted request finishes
  EXPECT_GT(r1.completed, 0);

  // Bit-for-bit replay: same counts, same schedule, same outputs.
  EXPECT_EQ(r1.admitted, r2.admitted);
  EXPECT_EQ(r1.shed, r2.shed);
  EXPECT_EQ(r1.deadline_missed, r2.deadline_missed);
  EXPECT_EQ(r1.duration_ms, r2.duration_ms);
  EXPECT_EQ(r1.latency.count(), r2.latency.count());
  EXPECT_EQ(r1.latency.sum_ms(), r2.latency.sum_ms());
  EXPECT_EQ(t1.ids, t2.ids);
  EXPECT_EQ(t1.versions, t2.versions);
  EXPECT_EQ(t1.finishes, t2.finishes);
  EXPECT_EQ(t1.outputs, t2.outputs);
}

TEST(LoadGenTest, ClosedLoopCompletesEveryClientBudget) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 32;
  config.batch.max_batch = 4;
  config.default_deadline_ms = 50.0;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(51), {16}).ok());

  ClosedLoopConfig load;
  load.seed = 6;
  load.clients = 3;
  load.requests_per_client = 20;
  load.think_ms = 1.0;
  load.model = "m";
  const LoadReport report = RunClosedLoop(server.get(), load);
  // Closed-loop offered load self-limits well under capacity here, so
  // nothing sheds and every attempt completes.
  EXPECT_EQ(report.offered, 60);
  EXPECT_EQ(report.admitted, 60);
  EXPECT_EQ(report.shed, 0);
  EXPECT_EQ(report.completed, 60);
  EXPECT_EQ(report.latency.count(), 60);
  EXPECT_GT(report.sim_throughput_rps, 0.0);
}

TEST(LoadGenTest, ReportsOnlyItsOwnTraffic) {
  // Six requests queued before a run and drained by it belong to their
  // own submitter: neither driver charges them to its run's completions
  // or latency histogram.
  const auto backlogged = [](ModelRegistry* registry) {
    ServerConfig config;
    config.workers = 1;
    config.queue_capacity = 64;
    config.batch.max_batch = 1;
    config.default_deadline_ms = 1e6;
    config.cost = {10.0, 0.0};  // the backlog outlives the run's start
    auto created = Server::Create(registry, config);
    EXPECT_TRUE(created.ok());
    std::unique_ptr<Server> server = std::move(created).value();
    EXPECT_TRUE(server->Publish("m", MakeNet(53), {16}).ok());
    const Tensor x({16});
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(server->Submit("m", x, 0.0).outcome,
                Server::Outcome::kAdmitted);
    }
    EXPECT_LT(server->completions().size(), 6u);
    return server;
  };

  {
    ModelRegistry registry;
    std::unique_ptr<Server> server = backlogged(&registry);
    OpenLoopConfig load;
    load.seed = 7;
    load.requests = 20;
    load.model = "m";
    const LoadReport report = RunOpenLoop(server.get(), load);
    EXPECT_EQ(server->completions().size(), 26u);
    EXPECT_EQ(report.admitted, 20);
    EXPECT_EQ(report.completed, 20);
    EXPECT_EQ(report.latency.count(), 20);
  }
  {
    ModelRegistry registry;
    std::unique_ptr<Server> server = backlogged(&registry);
    ClosedLoopConfig load;
    load.seed = 7;
    load.clients = 2;
    load.requests_per_client = 10;
    load.model = "m";
    const LoadReport report = RunClosedLoop(server.get(), load);
    EXPECT_EQ(server->completions().size(), 26u);
    EXPECT_EQ(report.admitted, 20);
    EXPECT_EQ(report.completed, 20);
    EXPECT_EQ(report.latency.count(), 20);
  }
}

// ------------------------------------------------- slot scheduler QoS

TEST(ServerConfigTest, ValidateCatchesBadQosFields) {
  ServerConfig c;
  c.scheduler.priority_classes = 0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.default_policy.burst = 0.5;  // must hold a whole request
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.default_policy.weight = 0.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.default_policy.rate_rps = 1.0 / 0.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.default_policy.priority = 1;  // out of [0, priority_classes)
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.tenants[""] = TenantPolicy{};
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.priority_classes = 2;
  c.scheduler.tenants["a"].priority = 2;  // valid classes are {0, 1}
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.tenants["a"].weight = -1.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);
}

SlotRequest MakeSlotRequest(int64_t id, Tenant* tenant) {
  SlotRequest r;
  r.id = id;
  r.tenant = tenant;
  return r;
}

TEST(TenantSchedulerTest, TokenBucketGatesAndRefillsDeterministically) {
  SlotSchedulerConfig config;
  config.default_policy.rate_rps = 100.0;  // one token per 10 simulated ms
  config.default_policy.burst = 1.0;
  TenantScheduler sched(config);
  Tenant& a = sched.Intern("a");
  for (int64_t id = 0; id < 3; ++id) {
    sched.Enqueue(MakeSlotRequest(id, &a));
  }
  EXPECT_EQ(sched.depth(), 3);

  // The bucket starts full: the first pick is free, then the quota gates.
  auto first = sched.PickNext(0.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 0);
  EXPECT_FALSE(sched.PickNext(5.0).has_value());  // only 0.5 tokens back
  EXPECT_DOUBLE_EQ(sched.NextEligibleMs(5.0), 10.0);

  auto second = sched.PickNext(10.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 1);
  EXPECT_DOUBLE_EQ(sched.NextEligibleMs(10.0), 20.0);
  // The backlog-aware horizon sees the still-queued request ahead: one
  // more request behind it needs two token arrivals from an empty bucket.
  EXPECT_DOUBLE_EQ(sched.QuotaBacklogMs(a, 10.0), 30.0);
  EXPECT_EQ(a.served, 2);
  EXPECT_EQ(sched.depth(), 1);
}

TEST(TenantSchedulerTest, DeficitWeightedFairSharesFollowWeights) {
  SlotSchedulerConfig config;
  config.enforce_quotas = false;
  config.tenants["a"].weight = 2.0;
  config.tenants["b"].weight = 1.0;
  TenantScheduler sched(config);
  Tenant& a = sched.Intern("a");
  Tenant& b = sched.Intern("b");
  for (int64_t id = 0; id < 60; ++id) {
    sched.Enqueue(MakeSlotRequest(id, id % 2 == 0 ? &a : &b));
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(sched.PickNext(0.0).has_value()) << i;
  }
  // Both tenants stayed backlogged the whole time, so DWFQ hands out
  // slots in exact weight proportion: 2/3 to a, 1/3 to b.
  EXPECT_EQ(a.served, 20);
  EXPECT_EQ(b.served, 10);
}

TEST(TenantSchedulerTest, DeficitScanFollowsNameOrderNotArrivalOrder) {
  // Tenants with unequal weights first arrive as c, a, b. The scan ring
  // and its cursor follow tenant names, so this pick sequence (pinned on
  // the tree before tenant records existed) starts at a, not at c.
  SlotSchedulerConfig config;
  config.enforce_quotas = false;
  config.tenants["a"].weight = 1.0;
  config.tenants["b"].weight = 0.5;
  config.tenants["c"].weight = 2.0;
  TenantScheduler sched(config);
  const char* const arrivals[] = {"c", "a", "b"};
  for (int64_t id = 0; id < 24; ++id) {
    sched.Enqueue(MakeSlotRequest(id, &sched.Intern(arrivals[id % 3])));
  }
  std::string picks;
  for (int i = 0; i < 24; ++i) {
    auto pick = sched.PickNext(0.0);
    ASSERT_TRUE(pick.has_value()) << i;
    picks += pick->tenant->name + std::to_string(pick->id) + ",";
  }
  EXPECT_EQ(picks,
            "a1,c0,c3,a4,b2,c6,c9,a7,c12,c15,a10,b5,c18,c21,a13,a16,b8,a19,"
            "a22,b11,b14,b17,b20,b23,");
}

TEST(TenantSchedulerTest, StrictPriorityYieldsOnlyToEligibleWork) {
  SlotSchedulerConfig config;
  config.priority_classes = 2;
  config.tenants["hi"].priority = 0;
  config.tenants["hi"].rate_rps = 100.0;
  config.tenants["hi"].burst = 1.0;
  config.tenants["lo"].priority = 1;
  TenantScheduler sched(config);
  Tenant& hi = sched.Intern("hi");
  Tenant& lo = sched.Intern("lo");
  sched.Enqueue(MakeSlotRequest(0, &lo));
  sched.Enqueue(MakeSlotRequest(1, &hi));
  sched.Enqueue(MakeSlotRequest(2, &hi));
  sched.Enqueue(MakeSlotRequest(3, &lo));

  // Class 0 wins despite the higher request id...
  auto p1 = sched.PickNext(0.0);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->tenant->name, "hi");
  // ...but a quota-blocked class 0 does not hold class 1 hostage:
  // priority is strict over *eligible* work only.
  auto p2 = sched.PickNext(0.0);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->tenant->name, "lo");
  // Once the bucket refills, class 0 preempts again.
  auto p3 = sched.PickNext(10.0);
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->tenant->name, "hi");
}

TEST(TenantSchedulerTest, FifoControlServesGloballyByRequestId) {
  SlotSchedulerConfig config;
  config.fair_queueing = false;
  config.enforce_quotas = false;
  config.tenants["a"].weight = 5.0;  // ignored by the FIFO control path
  TenantScheduler sched(config);
  Tenant& a = sched.Intern("a");
  Tenant& b = sched.Intern("b");
  sched.Enqueue(MakeSlotRequest(0, &a));
  sched.Enqueue(MakeSlotRequest(1, &b));
  sched.Enqueue(MakeSlotRequest(2, &a));
  for (int64_t want = 0; want < 3; ++want) {
    auto pick = sched.PickNext(0.0);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->id, want);
  }
}

// ------------------------------------------- continuous batching slots

struct SlotTrace {
  std::vector<int64_t> ids;
  std::vector<double> dispatches;
  std::vector<double> finishes;
  std::vector<double> arrivals;
  std::vector<int> workers;
  std::vector<int64_t> batch_sizes;
  std::vector<std::vector<float>> outputs;
  std::vector<std::pair<double, int>> occupancy;
  int peak_occupancy = 0;
  LoadReport report;
};

/// Sustained 1.5x-overload open loop against the slot scheduler.
SlotTrace RunSlotScenario() {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 512;  // hold the full overload backlog
  config.batch.max_batch = 4;   // = slot lanes per worker
  config.default_deadline_ms = 1e6;
  auto created = Server::Create(&registry, config);
  EXPECT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  EXPECT_TRUE(server->Publish("m", MakeNet(61), {16}).ok());

  // Capacity: 2 workers * 4 lanes / 0.09 ms per step ~ 89 req/ms.
  OpenLoopConfig load;
  load.seed = 9;
  load.requests = 300;
  load.rate_rps = 133'000.0;  // ~1.5x capacity: the pool never starves
  load.model = "m";

  SlotTrace trace;
  trace.report = RunOpenLoop(server.get(), load);
  for (const Server::Completion& c : server->completions()) {
    trace.ids.push_back(c.id);
    trace.dispatches.push_back(c.dispatch_ms);
    trace.finishes.push_back(c.finish_ms);
    trace.arrivals.push_back(c.arrival_ms);
    trace.workers.push_back(c.worker);
    trace.batch_sizes.push_back(c.batch_size);
    trace.outputs.emplace_back(c.output.data(),
                               c.output.data() + c.output.size());
  }
  EXPECT_NE(server->slot_pool(), nullptr);
  trace.occupancy = server->slot_pool()->occupancy_timeline();
  trace.peak_occupancy = server->slot_pool()->peak_occupancy();
  return trace;
}

TEST(SlotServerTest, ContinuousBatchingNeverDrainsAndReplaysBitwise) {
  SlotTrace first;
  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    SlotTrace trace = RunSlotScenario();

    ASSERT_EQ(trace.report.offered, 300);
    EXPECT_EQ(trace.report.shed, 0);
    EXPECT_EQ(trace.report.completed, 300);
    // Under sustained overload every lane fills.
    EXPECT_EQ(trace.peak_occupancy, 8);

    // The continuous-batching acceptance: once load is established, slot
    // occupancy never touches zero — freed lanes refill the same instant
    // their step completes, with no drain barrier between batches.
    ASSERT_EQ(trace.ids.size(), 300u);
    double t_lo = 0.0;
    for (size_t i = 0; i < trace.ids.size(); ++i) {
      if (trace.ids[i] >= 20) t_lo = std::max(t_lo, trace.dispatches[i]);
      if (trace.ids[i] >= 21) break;
    }
    const double t_hi =
        *std::max_element(trace.dispatches.begin(), trace.dispatches.end());
    int checked = 0;
    for (const auto& [t, occ] : trace.occupancy) {
      if (t < t_lo || t > t_hi) continue;
      EXPECT_GT(occ, 0) << "pool drained at t=" << t;
      ++checked;
    }
    EXPECT_GT(checked, 50);

    // A request that arrived mid-step rides the very next step of the
    // same worker the instant the in-flight one finishes.
    bool joined_mid_step = false;
    for (size_t i = 0; i < trace.ids.size() && !joined_mid_step; ++i) {
      for (size_t j = 0; j < trace.ids.size(); ++j) {
        if (trace.workers[j] != trace.workers[i]) continue;
        if (trace.dispatches[j] != trace.finishes[i]) continue;
        if (trace.arrivals[j] > trace.dispatches[i] &&
            trace.arrivals[j] < trace.finishes[i]) {
          joined_mid_step = true;
          break;
        }
      }
    }
    EXPECT_TRUE(joined_mid_step);

    // Bit-for-bit replay at every thread count: the whole schedule, the
    // outputs, and the occupancy timeline.
    if (threads == 1) {
      first = std::move(trace);
    } else {
      EXPECT_EQ(trace.ids, first.ids) << "threads=" << threads;
      EXPECT_EQ(trace.dispatches, first.dispatches) << "threads=" << threads;
      EXPECT_EQ(trace.finishes, first.finishes) << "threads=" << threads;
      EXPECT_EQ(trace.workers, first.workers) << "threads=" << threads;
      EXPECT_EQ(trace.batch_sizes, first.batch_sizes)
          << "threads=" << threads;
      EXPECT_EQ(trace.outputs, first.outputs) << "threads=" << threads;
      EXPECT_EQ(trace.occupancy, first.occupancy) << "threads=" << threads;
    }
  }
  RuntimeConfig::SetThreads(1);
}

// --------------------------------------------------- multi-tenant QoS

/// Hot-tenant overload: t0 offers 8x the load of t1..t3; per-tenant
/// quotas cap everyone at 1500 rps against ~8000 rps capacity.
TenantedLoadReport RunHotTenantMix(bool fair) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.batch.max_batch = 4;
  config.default_deadline_ms = 5.0;
  config.cost.fixed_ms = 0.2;
  config.cost.per_example_ms = 0.2;  // step(4) = 1 ms -> ~8 req/ms fleet
  config.scheduler.fair_queueing = fair;
  config.scheduler.enforce_quotas = fair;
  config.scheduler.default_policy.rate_rps = 1500.0;
  config.scheduler.default_policy.burst = 4.0;
  auto created = Server::Create(&registry, config);
  EXPECT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  EXPECT_TRUE(server->Publish("m", MakeNet(71), {16}).ok());

  OpenLoopConfig load;
  load.seed = 11;
  load.requests = 600;
  load.rate_rps = 11'000.0;  // hot tenant ~8000, cold tenants ~1000 each
  load.deadline_ms = 5.0;
  load.model = "m";
  load.mix = HotTenantMix(4, 8.0);
  return RunTenantedOpenLoop(server.get(), load);
}

TEST(SlotServerTest, WeightedFairnessBoundsHotTenantSkew) {
  // With DWFQ + quotas on, the hot tenant's excess converts into sheds
  // charged to itself: per-tenant goodput stays within a small ratio.
  const TenantedLoadReport fair = RunHotTenantMix(/*fair=*/true);
  ASSERT_EQ(fair.by_tenant.size(), 4u);
  for (const auto& [tenant, per] : fair.by_tenant) {
    EXPECT_GT(per.completed - per.deadline_missed, 0) << tenant;
  }
  EXPECT_LE(fair.max_min_goodput_ratio, 2.0)
      << "WFQ + quotas must bound tenant goodput skew";

  // Control: with fair queueing and quotas off, service follows arrival
  // share and the hot tenant starves the rest (~8:1).
  const TenantedLoadReport fifo = RunHotTenantMix(/*fair=*/false);
  EXPECT_GT(fifo.max_min_goodput_ratio, 3.0)
      << "FIFO control should show the starvation WFQ prevents";
  EXPECT_GT(fair.max_min_goodput_ratio, 0.0);
}

TEST(SlotServerTest, TenantStatsAndMetricsAccountEveryRequest) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.batch.max_batch = 4;
  config.default_deadline_ms = 1e6;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(81), {16}).ok());

  OpenLoopConfig load;
  load.seed = 13;
  load.requests = 120;
  load.rate_rps = 5'000.0;
  load.model = "m";
  load.mix = BalancedTenantMix(3);
  const TenantedLoadReport report = RunTenantedOpenLoop(server.get(), load);

  // The server's per-tenant accounting matches the loadgen's exactly.
  const auto& stats = server->tenant_stats();
  ASSERT_EQ(stats.size(), 3u);
  int64_t offered = 0;
  MetricsReport metrics = server->metrics();
  for (const auto& [tenant, ts] : stats) {
    const auto it = report.by_tenant.find(tenant);
    ASSERT_NE(it, report.by_tenant.end()) << tenant;
    EXPECT_EQ(ts.offered, it->second.offered) << tenant;
    EXPECT_EQ(ts.admitted, it->second.admitted) << tenant;
    EXPECT_EQ(ts.completed, it->second.completed) << tenant;
    EXPECT_EQ(ts.deadline_missed, it->second.deadline_missed) << tenant;
    EXPECT_EQ(ts.latency.count(), it->second.latency.count()) << tenant;
    offered += ts.offered;
    // The structured per-tenant keys flow through metrics().
    EXPECT_EQ(metrics.Get("serve.tenant." + tenant + ".offered"),
              static_cast<double>(ts.offered))
        << tenant;
    EXPECT_EQ(metrics.Get("serve.tenant." + tenant + ".completed"),
              static_cast<double>(ts.completed))
        << tenant;
  }
  EXPECT_EQ(offered, 120);
  // Completions carry the tenant id.
  for (const Server::Completion& c : server->completions()) {
    EXPECT_TRUE(stats.count(c.tenant) == 1) << c.tenant;
  }
}

// ----------------------------------- critical-path completion contract

/// Standalone-server path record from a completion: no network hops, so
/// send == admit and deliver == finish.
obs::RequestPathRecord RecordFromCompletion(const Server::Completion& c) {
  obs::RequestPathRecord rec;
  rec.rid = c.rid;
  rec.tenant = c.tenant;
  rec.slot = c.slot;
  rec.send_ns = obs::SimNs(c.arrival_ms);
  rec.admit_ns = obs::SimNs(c.arrival_ms);
  rec.quota_open_ns = obs::SimNs(c.quota_open_ms);
  rec.dispatch_ns = obs::SimNs(c.dispatch_ms);
  rec.finish_ns = obs::SimNs(c.finish_ms);
  rec.deliver_ns = obs::SimNs(c.finish_ms);
  rec.deadline_ok = !c.deadline_missed;
  return rec;
}

TEST(SlotServerTest, CompletionBoundariesDecomposeBitwise) {
  RuntimeConfig::SetThreads(1);
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  config.batch.max_batch = 2;
  config.default_deadline_ms = 1e6;
  config.cost.fixed_ms = 1.0;
  config.cost.per_example_ms = 0.25;
  config.scheduler.enforce_quotas = true;
  // 1 token per 2 ms against 0.2 ms arrival spacing: the token bucket
  // must delay most of the burst, making quota_open > arrival.
  config.scheduler.default_policy.rate_rps = 500.0;
  config.scheduler.default_policy.burst = 1.0;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(101), {16}).ok());

  Rng rng(102);
  Tensor x({16});
  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    x.FillGaussian(&rng, 1.0f);
    // A RequestTrace rekeys the lifecycle under the caller's rid.
    const obs::RequestTrace rtrace{500 + i, 0};
    ASSERT_EQ(server
                  ->Submit("m", x, static_cast<double>(i) * 0.2,
                           /*deadline_budget_ms=*/0.0, "a", &rtrace)
                  .outcome,
              Server::Outcome::kAdmitted);
  }
  server->Drain();

  const std::vector<Server::Completion>& done = server->completions();
  ASSERT_EQ(done.size(), static_cast<size_t>(kRequests));
  std::vector<int64_t> rids;
  int64_t quota_delayed = 0;
  for (const Server::Completion& c : done) {
    rids.push_back(c.rid);
    // The quota boundary is clamped into [arrival, dispatch].
    EXPECT_GE(c.quota_open_ms, c.arrival_ms);
    EXPECT_LE(c.quota_open_ms, c.dispatch_ms);
    EXPECT_GE(c.slot, 0) << "slot mode must stamp the lane";
    const obs::RequestPathRecord rec = RecordFromCompletion(c);
    const obs::PathComponents comp = obs::DecomposePath(rec);
    // The decomposition sums bitwise to the served latency, with the
    // network components exactly zero for a standalone server.
    EXPECT_EQ(comp.total_ns(), rec.finish_ns - rec.send_ns);
    EXPECT_EQ(comp[obs::PathComponent::kRouteHop], 0);
    EXPECT_EQ(comp[obs::PathComponent::kAdmission], 0);
    EXPECT_EQ(comp[obs::PathComponent::kReturnHop], 0);
    EXPECT_EQ(comp[obs::PathComponent::kQuotaDelay] +
                  comp[obs::PathComponent::kSlotWait] +
                  comp[obs::PathComponent::kExecute],
              obs::SimNs(c.finish_ms) - obs::SimNs(c.arrival_ms));
    if (comp[obs::PathComponent::kQuotaDelay] > 0) ++quota_delayed;
  }
  EXPECT_GT(quota_delayed, kRequests / 2)
      << "the overloaded bucket should show up as quota delay, not slot "
         "wait";
  std::sort(rids.begin(), rids.end());
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(rids[static_cast<size_t>(i)], 500 + i)
        << "completions must carry the fleet rid from RequestTrace";
  }
}

TEST(ServerTest, DefaultConfigServesThroughSlotLanes) {
  RuntimeConfig::SetThreads(1);
  ModelRegistry registry;
  const ServerConfig config;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(103), {16}).ok());
  ASSERT_NE(server->slot_pool(), nullptr);
  EXPECT_EQ(server->slot_pool()->size(),
            config.workers * static_cast<int>(config.batch.max_batch));

  Rng rng(104);
  Tensor x({16});
  constexpr int kRequests = 32;
  for (int i = 0; i < kRequests; ++i) {
    x.FillGaussian(&rng, 1.0f);
    // Arrivals faster than a step, so later requests share lanes.
    ASSERT_EQ(server->Submit("m", x, static_cast<double>(i) * 0.01).outcome,
              Server::Outcome::kAdmitted);
  }
  server->Drain();

  const std::vector<Server::Completion>& done = server->completions();
  ASSERT_EQ(done.size(), static_cast<size_t>(kRequests));
  int64_t batched = 0;
  for (const Server::Completion& c : done) {
    EXPECT_GE(c.slot, 0) << "every request rides a slot lane";
    EXPECT_LT(c.slot, server->slot_pool()->size());
    EXPECT_EQ(c.rid, c.id) << "no RequestTrace: rid falls back to the id";
    EXPECT_EQ(c.tenant, "default");
    if (c.batch_size > 1) ++batched;
    // The default policy sets no quota, so the whole queue wait is slot
    // wait and the decomposition still sums bitwise to the latency.
    EXPECT_DOUBLE_EQ(c.quota_open_ms, c.arrival_ms);
    const obs::PathComponents comp =
        obs::DecomposePath(RecordFromCompletion(c));
    EXPECT_EQ(comp[obs::PathComponent::kQuotaDelay], 0);
    EXPECT_EQ(comp.total_ns(),
              obs::SimNs(c.finish_ms) - obs::SimNs(c.arrival_ms));
  }
  EXPECT_GT(batched, 0) << "continuous batching should share steps";
}

TEST(ServerTest, BadDlsysIsaFailsPublishNotFatal) {
  ModelRegistry registry;
  auto created = Server::Create(&registry, ServerConfig{});
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  const char* prev = std::getenv("DLSYS_ISA");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("DLSYS_ISA", "avx9", 1);
  const Result<int64_t> published = server->Publish("m", MakeNet(107), {16});
  if (prev != nullptr) {
    setenv("DLSYS_ISA", saved.c_str(), 1);
  } else {
    unsetenv("DLSYS_ISA");
  }
  ASSERT_FALSE(published.ok());
  EXPECT_EQ(published.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(published.status().message().find("avx9"), std::string::npos);
  // Nothing was published, and a valid environment publishes as before.
  EXPECT_EQ(registry.Acquire("m"), nullptr);
  EXPECT_TRUE(server->Publish("m", MakeNet(107), {16}).ok());
}

TEST(ServerTest, WrongSizedExampleIsRejectedNotFatal) {
  ModelRegistry registry;
  auto created = Server::Create(&registry, ServerConfig{});
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(105), {16}).ok());

  // A malformed client request is turned away, not a process abort.
  const Tensor bad({15});
  const Server::SubmitResult rejected = server->Submit("m", bad, 0.0);
  EXPECT_EQ(rejected.outcome, Server::Outcome::kInvalidRequest);
  EXPECT_EQ(rejected.version, 0);
  EXPECT_EQ(server->queue_depth(), 0);

  // The server keeps serving well-formed requests.
  Rng rng(106);
  Tensor good({16});
  good.FillGaussian(&rng, 1.0f);
  EXPECT_EQ(server->Submit("m", good, 0.0).outcome,
            Server::Outcome::kAdmitted);
  server->Drain();
  ASSERT_EQ(server->completions().size(), 1u);
  EXPECT_EQ(server->completions()[0].id, 1);

  const MetricsReport m = server->metrics();
  EXPECT_EQ(m.Get("serve.offered"), 2.0);
  EXPECT_EQ(m.Get("serve.admitted"), 1.0);
  EXPECT_EQ(m.Get("serve.rejected.bad_shape"), 1.0);
}

TEST(ServerTest, RegistryPublishedSnapshotCapsStepsAtItsCeiling) {
  // A snapshot published straight into the registry keeps its own engine
  // batch ceiling (Server::Publish would raise it to the lane count), so
  // a worker fills only that many of its eight lanes per step.
  RuntimeConfig::SetThreads(1);
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.batch.max_batch = 8;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  const Sequential net = MakeNet(108);
  auto snap = CompileSnapshot(net, {16}, EngineConfig(2));
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(server->registry()->Publish("m", std::move(snap).value()).ok());
  auto ref = InferenceEngine::Compile(net, {16}, EngineConfig(2));
  ASSERT_TRUE(ref.ok());
  InferenceEngine engine = std::move(ref).value();

  Rng rng(109);
  std::vector<Tensor> inputs;
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    Tensor x({16});
    x.FillGaussian(&rng, 1.0f);
    // Arrivals faster than a step, so lanes back up behind the ceiling.
    ASSERT_EQ(server->Submit("m", x, static_cast<double>(i) * 0.005).outcome,
              Server::Outcome::kAdmitted);
    inputs.push_back(std::move(x));
  }
  server->Drain();

  ASSERT_EQ(server->completions().size(), static_cast<size_t>(kRequests));
  int64_t largest = 0;
  for (const Server::Completion& c : server->completions()) {
    EXPECT_LE(c.batch_size, 2) << "id=" << c.id;
    largest = std::max(largest, c.batch_size);
    Tensor one({1, 16});
    const Tensor& src = inputs[static_cast<size_t>(c.id)];
    std::copy(src.data(), src.data() + 16, one.data());
    const Tensor want = std::move(engine.Predict(one)).value();
    EXPECT_EQ(std::memcmp(c.output.data(), want.data(), 4 * sizeof(float)),
              0)
        << "id=" << c.id;
  }
  EXPECT_EQ(largest, 2);
}

TEST(ServerTest, AdmissionPredictsWithTheLiveSnapshotsCeiling) {
  // The same registry-published snapshot (engine ceiling 2 on 8 lanes)
  // under load: 4,000 evenly spaced arrivals at 0.9x what full 8-lane
  // steps would carry, each with a 1 ms budget. Steps carry at most 2
  // requests, so admission must size its prospective batch, step time
  // and backlog drain by 2, shed what 2-wide steps cannot finish in
  // time, and every request it admits must complete within its deadline.
  // Predicting with all 8 lanes admitted about half the requests and let
  // nearly all of them miss.
  RuntimeConfig::SetThreads(1);
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.batch.max_batch = 8;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  auto snap = CompileSnapshot(MakeNet(110), {16}, EngineConfig(2));
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(server->registry()->Publish("m", std::move(snap).value()).ok());

  const double gap_ms = EstimateServiceMs(config.cost, 8) / (8 * 0.9);
  Tensor x({16});
  Rng rng(111);
  x.FillGaussian(&rng, 1.0f);
  constexpr int kRequests = 4000;
  int64_t admitted = 0, shed = 0;
  for (int i = 0; i < kRequests; ++i) {
    const Server::Outcome outcome =
        server->Submit("m", x, static_cast<double>(i) * gap_ms, 1.0).outcome;
    admitted += outcome == Server::Outcome::kAdmitted;
    shed += outcome == Server::Outcome::kShedDeadline;
  }
  server->Drain();

  EXPECT_EQ(admitted + shed, kRequests);
  EXPECT_GT(shed, 0);
  ASSERT_EQ(static_cast<int64_t>(server->completions().size()), admitted);
  int64_t missed = 0;
  for (const Server::Completion& c : server->completions()) {
    EXPECT_LE(c.batch_size, 2) << "id=" << c.id;
    missed += c.deadline_missed;
  }
  EXPECT_EQ(missed, 0) << "of " << admitted << " admitted";
}

TEST(LoadGenTest, TenantedOpenLoopReplaysBitForBit) {
  const std::vector<TenantShare> mix = HotTenantMix(3, 4.0);
  const std::vector<std::string> a = AssignTenants(mix, 17, 3000);
  const std::vector<std::string> b = AssignTenants(mix, 17, 3000);
  EXPECT_EQ(a, b);
  std::map<std::string, int64_t> counts;
  for (const std::string& t : a) ++counts[t];
  // Shares 4:1:1 over 3000 draws: the hot tenant gets about 2000.
  EXPECT_GT(counts["t0"], 1800);
  EXPECT_LT(counts["t0"], 2200);
  EXPECT_GT(counts["t1"], 350);
  EXPECT_GT(counts["t2"], 350);

  const auto run = [&]() {
    ModelRegistry registry;
    ServerConfig config;
    config.workers = 2;
    config.batch.max_batch = 4;
    auto created = Server::Create(&registry, config);
    EXPECT_TRUE(created.ok());
    std::unique_ptr<Server> server = std::move(created).value();
    EXPECT_TRUE(server->Publish("m", MakeNet(91), {16}).ok());
    OpenLoopConfig load;
    load.seed = 19;
    load.requests = 200;
    load.rate_rps = 60'000.0;  // hot enough that some requests shed
    load.deadline_ms = 2.0;
    load.model = "m";
    load.mix = mix;
    return RunTenantedOpenLoop(server.get(), load);
  };
  const TenantedLoadReport r1 = run();
  const TenantedLoadReport r2 = run();

  EXPECT_EQ(r1.total.offered, 200);
  EXPECT_EQ(r1.total.offered, r1.total.admitted + r1.total.shed);
  EXPECT_EQ(r1.total.completed, r1.total.admitted);
  EXPECT_EQ(r1.total.admitted, r2.total.admitted);
  EXPECT_EQ(r1.total.shed, r2.total.shed);
  EXPECT_EQ(r1.total.duration_ms, r2.total.duration_ms);
  EXPECT_EQ(r1.max_min_goodput_ratio, r2.max_min_goodput_ratio);
  ASSERT_EQ(r1.by_tenant.size(), r2.by_tenant.size());
  for (const auto& [tenant, per] : r1.by_tenant) {
    const auto it = r2.by_tenant.find(tenant);
    ASSERT_NE(it, r2.by_tenant.end()) << tenant;
    EXPECT_EQ(per.offered, it->second.offered) << tenant;
    EXPECT_EQ(per.admitted, it->second.admitted) << tenant;
    EXPECT_EQ(per.completed, it->second.completed) << tenant;
    EXPECT_EQ(per.deadline_missed, it->second.deadline_missed) << tenant;
    EXPECT_EQ(per.latency.sum_ms(), it->second.latency.sum_ms()) << tenant;
  }
}

// ------------------------------------------------------ behaviour oracle

/// SplitMix64's finalizer: every arrival gap, tenant pick, payload and
/// weight of the oracle replays is drawn from it.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A hash-drawn integer in [0, n).
uint64_t HashedIndex(uint64_t seed, uint64_t i, uint64_t n) {
  return Mix64(Mix64(seed) ^ i) % n;
}

/// k * unit with k a hash-drawn integer in [-range, range] and unit a
/// power of two: exactly representable, so no libm routine is involved.
float HashedFloat(uint64_t seed, uint64_t i, int64_t range, float unit) {
  const int64_t k =
      static_cast<int64_t>(
          HashedIndex(seed, i, static_cast<uint64_t>(2 * range + 1))) -
      range;
  return static_cast<float>(k) * unit;
}

/// Order-sensitive 64-bit FNV-1a over values and strings.
class Fnv1aDigest {
 public:
  template <typename T>
  void Add(const T& value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    Bytes(&value, sizeof(value));
  }
  void Add(const std::string& s) {
    Add(s.size());
    Bytes(s.data(), s.size());
  }
  void Bytes(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

constexpr int64_t kOracleIn = 32;
constexpr int64_t kOracleOut = 10;
constexpr int64_t kOracleRequests = 20000;

/// One replayed configuration: the server, the tenants in the order they
/// are first seen, their arrival shares, and whether the replay also
/// drives the fleet's chaos hooks.
struct OracleScenario {
  const char* name;
  ServerConfig config;
  std::vector<std::pair<std::string, uint64_t>> tenants;  ///< (name, share)
  double load = 1.375;  ///< offered rate over declared capacity
  bool chaos = false;   ///< mid-run SetCostScale, SetDraining, DropQueued
};

/// An int8 32->128->10 MLP whose parameters are hash-drawn multiples of
/// 2^-8, so its compiled outputs depend on no libm routine.
Sequential MakeOracleNet(uint64_t seed) {
  Sequential net = MakeMlp(kOracleIn, {128}, kOracleOut);
  for (Tensor* p : net.Params()) {
    ++seed;
    for (int64_t i = 0; i < p->size(); ++i) {
      (*p)[i] = HashedFloat(seed, static_cast<uint64_t>(i), 254, 0x1p-8f);
    }
  }
  return net;
}

/// online_serve's shape: 2 workers x 8 lanes, a queue of 64, a quota of
/// 0.1875x declared capacity with burst 8, DWFQ on, four tenants with the
/// first 8x hot.
ServerConfig OnlineServeShape() {
  ServerConfig config;
  config.workers = 2;
  config.batch.max_batch = 8;
  config.queue_capacity = 64;
  const double step_ms = EstimateServiceMs(config.cost, 8);
  config.default_deadline_ms = 5.0 * step_ms;
  config.scheduler.default_policy.rate_rps =
      0.1875 * 2.0 * 8.0 * 1000.0 / step_ms;
  config.scheduler.default_policy.burst = 8.0;
  return config;
}

/// Three priority classes with per-tenant overrides; the tenants are
/// first seen out of name order, and "" and "default" name one tenant.
ServerConfig PriorityClassShape() {
  ServerConfig config = OnlineServeShape();
  config.scheduler.priority_classes = 3;
  config.scheduler.default_policy.priority = 2;
  TenantPolicy& zeta = config.scheduler.tenants["zeta"];
  zeta.priority = 0;
  zeta.weight = 2.0;
  zeta.rate_rps = 3000.0;
  zeta.burst = 4.0;
  TenantPolicy& beta = config.scheduler.tenants["beta"];
  beta.priority = 1;
  beta.weight = 0.5;
  TenantPolicy& alpha = config.scheduler.tenants["alpha"];
  alpha.priority = 1;
  alpha.weight = 3.0;
  alpha.rate_rps = 12000.0;
  TenantPolicy& def = config.scheduler.tenants["default"];
  def.priority = 2;
  def.weight = 0.25;
  def.rate_rps = 6000.0;
  def.burst = 2.0;
  return config;
}

std::vector<OracleScenario> OracleScenarios() {
  const std::vector<std::pair<std::string, uint64_t>> hot = {
      {"t0", 8}, {"t1", 1}, {"t2", 1}, {"t3", 1}};
  const std::vector<std::pair<std::string, uint64_t>> classes = {
      {"zeta", 3}, {"", 2}, {"mid", 2}, {"default", 1}, {"beta", 2},
      {"alpha", 3}};
  std::vector<OracleScenario> s;
  s.push_back({"online_serve", OnlineServeShape(), hot});
  s.push_back({"fifo_control", OnlineServeShape(), hot});
  s.back().config.scheduler.fair_queueing = false;
  s.push_back({"quotas_off", OnlineServeShape(), hot});
  s.back().config.scheduler.enforce_quotas = false;
  s.push_back({"priority_classes", PriorityClassShape(), classes});
  s.push_back({"priority_chaos", PriorityClassShape(), classes});
  s.back().chaos = true;
  OracleScenario light{"one_worker_light", ServerConfig{}, hot, 0.5};
  light.config.workers = 1;
  light.config.batch.max_batch = 2;
  light.config.queue_capacity = 16;
  s.push_back(std::move(light));
  // Many workers departing in one event: up to eight steps start at one
  // simulated instant.
  OracleScenario eight{"eight_workers", OnlineServeShape(), hot, 1.2};
  eight.config.workers = 8;
  eight.config.queue_capacity = 128;
  eight.config.scheduler.enforce_quotas = false;
  s.push_back(std::move(eight));
  return s;
}

/// Digests of one replay: everything the server reports, and (with
/// DLSYS_OBS) the serve.tenant.* registry deltas it produced.
struct OracleDigests {
  uint64_t behaviour = 0;
  uint64_t registry = 0;
};

OracleDigests ReplayOracle(const OracleScenario& s, const Sequential& v1,
                           const Sequential& v2) {
  ModelRegistry registry;
  auto created = Server::Create(&registry, s.config);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Server> server = std::move(created).value();
  EngineConfig engine_config(8);
  engine_config.numeric = EngineNumeric::kInt8;
  EXPECT_TRUE(server->Publish("m", v1, {kOracleIn}, engine_config).ok());

  obs::CounterRegistry& counters = obs::CounterRegistry::Global();
  const obs::CounterRegistry::Snapshot counters_before =
      counters.SnapshotCounters();
  std::map<std::string, int64_t> latency_before;
  for (const auto& [tenant, share] : s.tenants) {
    const std::string name = tenant.empty() ? "default" : tenant;
    latency_before[name] =
        counters.histogram("serve.tenant." + name + ".latency_ms")->Count();
  }

  // Arrival gaps are whole multiples of 2^-12 ms averaging the offered
  // rate, so every arrival time is exact.
  constexpr double kUnit = 0x1p-12;
  const int64_t lanes = s.config.batch.max_batch;
  const double step_ms = EstimateServiceMs(s.config.cost, lanes);
  const double mean_gap_ms =
      step_ms / (s.load * s.config.workers * static_cast<double>(lanes));
  const uint64_t mean_units =
      std::max<uint64_t>(1, static_cast<uint64_t>(mean_gap_ms / kUnit + 0.5));
  uint64_t total_share = 0;
  for (const auto& [tenant, share] : s.tenants) total_share += share;

  Fnv1aDigest d;
  Tensor good({kOracleIn});
  Tensor bad({kOracleIn - 1});
  double t = 0.0;
  constexpr int64_t n = kOracleRequests;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t u = static_cast<uint64_t>(i);
    t += static_cast<double>(1 + HashedIndex(1, u, 2 * mean_units - 1)) * kUnit;
    if (i == n / 2) {
      server->AdvanceTo(t - 0.5 * kUnit);
      EXPECT_TRUE(server->Publish("m", v2, {kOracleIn}, engine_config).ok());
    }
    if (s.chaos) {
      if (i == n / 5) server->SetCostScale(1.5);
      if (i == 2 * n / 5) server->SetDraining(true);
      if (i == 2 * n / 5 + 300) server->SetDraining(false);
      if (i == 3 * n / 5) d.Add(server->DropQueued());
      if (i == 4 * n / 5) server->SetCostScale(0.75);
    }
    // The first requests meet every tenant in the scenario's order; the
    // rest draw tenants by share.
    size_t pick = 0;
    if (u < s.tenants.size()) {
      pick = u;
    } else {
      uint64_t r = HashedIndex(2, u, total_share);
      while (r >= s.tenants[pick].second) r -= s.tenants[pick++].second;
    }
    Tensor& example = HashedIndex(3, u, 97) == 0 ? bad : good;
    for (int64_t k = 0; k < example.size(); ++k) {
      example[k] = HashedFloat(4, u * kOracleIn + static_cast<uint64_t>(k),
                               1000, 0x1p-9f);
    }
    const char* model = HashedIndex(5, u, 89) == 0 ? "nope" : "m";
    const double budget = HashedIndex(6, u, 7) == 0 ? 2.0 * step_ms : 0.0;
    const Server::SubmitResult r = server->Submit(
        model, example, t, budget, s.tenants[pick].first);
    d.Add(r.outcome);
    d.Add(r.id);
    d.Add(r.version);
    if (i % 64 == 0) {
      d.Add(server->queue_depth());
      d.Add(server->earliest_worker_free_ms());
      d.Add(server->NextActionableMs());
    }
    if (i % 128 == 64) server->AdvanceTo(t + 0.5 * kUnit);
  }
  server->Drain();

  for (const Server::Completion& c : server->completions()) {
    d.Add(c.id);
    d.Add(c.rid);
    d.Add(c.model);
    d.Add(c.tenant);
    d.Add(c.version);
    d.Add(c.arrival_ms);
    d.Add(c.quota_open_ms);
    d.Add(c.dispatch_ms);
    d.Add(c.finish_ms);
    d.Add(c.deadline_ms);
    d.Add(c.batch_size);
    d.Add(c.worker);
    d.Add(c.slot);
    d.Add(c.deadline_missed);
    d.Bytes(c.output.data(), static_cast<size_t>(c.output.bytes()));
  }
  // Wall-clock keys and the quantile keys (their bucket edges come from
  // exp2) are left out.
  const auto ends_with = [](const std::string& key, const char* suffix) {
    const size_t len = std::strlen(suffix);
    return key.size() >= len &&
           key.compare(key.size() - len, len, suffix) == 0;
  };
  const MetricsReport metrics = server->metrics();
  for (const auto& [key, value] : metrics.values()) {
    if (key.rfind("serve.measured.", 0) == 0 || ends_with(key, ".p50_ms") ||
        ends_with(key, ".p95_ms") || ends_with(key, ".p99_ms")) {
      continue;
    }
    d.Add(key);
    d.Add(value);
  }
  const auto& stats = server->tenant_stats();
  for (const auto& [name, ts] : stats) {
    d.Add(name);
    for (int64_t v : {ts.offered, ts.admitted, ts.completed,
                      ts.deadline_missed, ts.shed_queue_full,
                      ts.shed_deadline, ts.shed_draining,
                      ts.latency.count()}) {
      d.Add(v);
    }
    d.Add(ts.latency.sum_ms());
    d.Add(ts.latency.min_ms());
    d.Add(ts.latency.max_ms());
  }

  Fnv1aDigest reg;
  const obs::CounterRegistry::Snapshot delta = obs::CounterRegistry::Diff(
      counters.SnapshotCounters(), counters_before);
  for (const auto& [key, value] : delta) {
    if (key.rfind("serve.tenant.", 0) != 0 || value == 0) continue;
    reg.Add(key);
    reg.Add(value);
  }
  for (const auto& [name, before] : latency_before) {
    reg.Add(name);
    reg.Add(counters.histogram("serve.tenant." + name + ".latency_ms")
                ->Count() -
            before);
  }
  return {d.value(), reg.value()};
}

/// Digests of OracleScenarios(), in order. The first six were computed
/// on the tree before the per-tenant record existed, and eight_workers on
/// the tree that still ran concurrent steps on a server thread pool. They
/// use only IEEE + - x / on exactly representable inputs, so they hold on
/// any host, ISA and thread count.
constexpr uint64_t kOracleBehaviour[] = {
    0x15d20d454fd10a24ull, 0xe1c6961d339193d0ull, 0x62c4439dec796349ull,
    0x4fcc0526a3e7d80bull, 0x230c74cd8ce7004cull, 0xcc15647ef7cd83f3ull,
    0x4f98fc77b03a9fd0ull,
};
constexpr uint64_t kOracleRegistry[] = {
    0x507d046b5181e726ull, 0x507d046b5181e726ull, 0x023788bbd44a52b1ull,
    0x218994fe5fdb74b5ull, 0xf1582f85fd83db81ull, 0x34f2701d8f58751bull,
    0xb6cc6185ec58ac2dull,
};

TEST(ServeOracleTest, ReplaysMatchParentDigest) {
  const Sequential v1 = MakeOracleNet(1000);
  const Sequential v2 = MakeOracleNet(2000);
  const std::vector<OracleScenario> scenarios = OracleScenarios();
  ASSERT_EQ(scenarios.size(), std::size(kOracleBehaviour));
  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    for (size_t k = 0; k < scenarios.size(); ++k) {
      const OracleDigests got = ReplayOracle(scenarios[k], v1, v2);
      char hex[2][32];
      std::snprintf(hex[0], sizeof(hex[0]), "0x%016llx",
                    static_cast<unsigned long long>(got.behaviour));
      std::snprintf(hex[1], sizeof(hex[1]), "0x%016llx",
                    static_cast<unsigned long long>(got.registry));
      EXPECT_EQ(got.behaviour, kOracleBehaviour[k])
          << "new digest " << hex[0] << " scenario=" << scenarios[k].name
          << " threads=" << threads;
      // Without DLSYS_OBS the registry records nothing to compare.
      if (DLSYS_OBS) {
        EXPECT_EQ(got.registry, kOracleRegistry[k])
            << "new registry digest " << hex[1]
            << " scenario=" << scenarios[k].name << " threads=" << threads;
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

}  // namespace
}  // namespace dlsys
