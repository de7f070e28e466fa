// Allocation gates for the serving and fleet request paths: a server
// drained with TakeCompletions recycles its input rows, output tensors
// and completion storage, the router picks from reused scratch, and a
// steady fleet run allocates well under one block per offered request.
//
// This binary replaces the global allocation functions with counting
// ones, so it is kept out of the sanitizer builds, whose runtimes
// replace them too.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/core/rng.h"
#include "src/fleet/chaos.h"
#include "src/fleet/fleet.h"
#include "src/fleet/router.h"
#include "src/nn/train.h"
#include "src/serve/loadgen.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocs{0};

void CountAlloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Counts the global allocations made while alive.
class AllocCounter {
 public:
  AllocCounter() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocCounter() { Stop(); }
  int64_t Stop() {
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocs.load(std::memory_order_relaxed);
  }
};

}  // namespace

void* operator new(std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  CountAlloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size > 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

// GCC sees the std::free calls below inlined behind operator new calls
// and reports a mismatched pair; every block here comes from malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace dlsys {
namespace {

TEST(AllocGateTest, DrainedServerAtQueueCapacityAllocatesNothingPerRequest) {
  ServerConfig config;
  config.workers = 2;
  config.batch.max_batch = 8;
  config.queue_capacity = 64;
  // Deadlines never bind, so the queue stays full and every shed is a
  // queue-full shed.
  config.default_deadline_ms = 1e9;
  ModelRegistry registry;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Server> server = std::move(created).value();
  Sequential net = MakeMlp(16, {24}, 4);
  Rng rng(3);
  net.Init(&rng);
  ASSERT_TRUE(server->Publish("m", net, {16}).ok());

  Tensor example({16});
  example.FillGaussian(&rng, 1.0f);
  const std::string tenants[] = {"a", "b", "c"};
  // Arrivals at twice the declared capacity hold the queue at capacity.
  const double gap_ms = 0.5 * 1000.0 / Fleet::ReplicaCapacityRps(config);
  std::vector<Server::Completion> taken;
  double t = 0.0;
  int64_t admitted = 0;
  int64_t shed_full = 0;
  auto submit = [&](int64_t i) {
    t += gap_ms;
    const Server::SubmitResult r =
        server->Submit("m", example, t, 0.0, tenants[i % 3]);
    admitted += r.outcome == Server::Outcome::kAdmitted;
    shed_full += r.outcome == Server::Outcome::kShedQueueFull;
    server->TakeCompletions(&taken);
  };
  // The warm-up grows every reused buffer to its steady size.
  constexpr int64_t kWarmup = 10'000;
  constexpr int64_t kMeasured = 10'000;
  for (int64_t i = 0; i < kWarmup; ++i) submit(i);

  admitted = 0;
  shed_full = 0;
  AllocCounter counter;
  for (int64_t i = kWarmup; i < kWarmup + kMeasured; ++i) submit(i);
  const int64_t allocs = counter.Stop();
  // Half the offered load is admitted; the rest finds the queue full.
  EXPECT_GT(admitted, kMeasured / 3);
  EXPECT_GT(shed_full, kMeasured / 3);
  EXPECT_EQ(admitted + shed_full, kMeasured);
  // The slot pool's occupancy timeline grows with the run (perfbench's
  // online_serve reads it); its doublings are the only allocations left.
  EXPECT_LE(allocs, 3) << "over " << kMeasured << " submits";
}

TEST(AllocGateTest, RouterPickAllocatesNothing) {
  std::vector<ReplicaView> view(6);
  for (size_t i = 0; i < view.size(); ++i) {
    view[i].routable = i != 2;
    view[i].queue_depth = static_cast<int64_t>((i * 7) % 5);
    view[i].backlog_ms = static_cast<double>(i);
  }
  for (RoutePolicy policy : {RoutePolicy::kRoundRobin,
                             RoutePolicy::kLeastLoaded,
                             RoutePolicy::kPowerOfTwo}) {
    Router router(policy, 11);
    ASSERT_GE(router.Pick(view, 0), 0);  // sizes the scratch
    AllocCounter counter;
    int64_t picked = 0;
    for (int64_t i = 1; i <= 1000; ++i) picked += router.Pick(view, i) >= 0;
    EXPECT_EQ(counter.Stop(), 0) << RoutePolicyName(policy);
    EXPECT_EQ(picked, 1000);
  }
}

TEST(AllocGateTest, SteadyFleetRunAllocatesUnderHalfABlockPerRequest) {
  FleetConfig config;
  config.replica_slots = 6;
  config.initial_replicas = 4;
  config.server.workers = 1;
  config.server.queue_capacity = 64;
  config.server.batch.max_batch = 8;
  config.server.cost.fixed_ms = 2.0;
  config.server.cost.per_example_ms = 0.5;
  config.server.default_deadline_ms = 40.0;
  config.route = RoutePolicy::kLeastLoaded;
  config.autoscale.policy = ScalePolicy::kReactive;
  config.autoscale.min_replicas = 4;
  config.autoscale.max_replicas = 6;
  config.window_ms = 100.0;
  TraceLoadConfig load;
  load.seed = 5;
  load.duration_ms = 60'000.0;
  load.base_rps = 700.0;
  load.diurnal_amplitude = 0.3;
  load.diurnal_period_ms = 60'000.0;
  load.model = "m";
  load.tenant_mix = BalancedTenantMix(4);

  auto created = Fleet::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Fleet> fleet = std::move(created).value();
  Sequential net = MakeMlp(32, {64}, 10);
  Rng rng(9);
  net.Init(&rng);
  ASSERT_TRUE(fleet->Deploy("m", std::move(net), {32}).ok());
  ChaosScenario steady;
  steady.name = "steady";

  AllocCounter counter;
  auto report = fleet->Run(steady, load);
  const int64_t allocs = counter.Stop();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const int64_t offered = report.value().offered;
  ASSERT_GT(offered, 30'000);
  const double per_request =
      static_cast<double>(allocs) / static_cast<double>(offered);
  EXPECT_LT(per_request, 0.5) << allocs << " allocations, " << offered
                              << " requests offered";
}

}  // namespace
}  // namespace dlsys
