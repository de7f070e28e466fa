// The serving layer end to end: train a weak v1 and a strong v2 of the
// same classifier, stand up a Server, hot-swap v1 -> v2 in the middle of
// a Poisson request stream without losing a request, and watch accuracy
// jump at the version boundary while tail latency stays flat. A second,
// deliberately overloaded run shows deadline-aware admission shedding
// excess load instead of letting the queue (and everyone's latency) grow
// without bound.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "src/core/rng.h"
#include "src/data/synthetic.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"
#include "src/runtime/runtime.h"
#include "src/serve/admission.h"
#include "src/serve/loadgen.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"

namespace {

dlsys::Sequential TrainModel(const dlsys::Dataset& train, int epochs,
                             double lr, uint64_t seed) {
  dlsys::Sequential net = dlsys::MakeMlp(16, {48}, 6);
  dlsys::Rng rng(seed);
  net.Init(&rng);
  dlsys::Sgd opt(lr, 0.9);
  dlsys::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 32;
  dlsys::Train(&net, &opt, train, config);
  return net;
}

int64_t ArgMax(const dlsys::Tensor& row) {
  int64_t best = 0;
  for (int64_t j = 1; j < row.size(); ++j) {
    if (row.data()[j] > row.data()[best]) best = j;
  }
  return best;
}

}  // namespace

int main() {
  using namespace dlsys;
  // Every step runs on this thread (DESIGN.md §2e), and intra-op kernels
  // stay single-threaded too, so the whole example runs on one core.
  RuntimeConfig::SetThreads(1);

  Rng rng(11);
  Dataset data = MakeGaussianBlobs(5000, 16, 6, 0.7, &rng);
  TrainTestSplit split = Split(data, 0.8);

  // v1 is undertrained on purpose; v2 is the model we want live.
  Sequential v1 = TrainModel(split.train, 1, 0.002, 21);
  Sequential v2 = TrainModel(split.train, 25, 0.05, 22);
  std::printf("offline accuracy  v1 %.3f | v2 %.3f\n",
              Evaluate(&v1, split.test).accuracy,
              Evaluate(&v2, split.test).accuracy);

  // ---------------------------------------------- hot swap under load
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.batch.max_batch = 8;
  config.queue_capacity = 64;
  config.default_deadline_ms = 50.0;
  auto created = Server::Create(&registry, config);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Server> server = std::move(created).value();
  if (!server->Publish("classifier", v1, {16}).ok()) return 1;

  // Poisson arrivals over the test set; swap to v2 halfway through.
  const int64_t requests = split.test.size();
  Rng arrivals(12);
  Tensor example({16});
  double t = 0.0;
  for (int64_t i = 0; i < requests; ++i) {
    t += -std::log(1.0 - arrivals.Uniform()) / 50000.0 * 1000.0;  // 50k r/s
    if (i == requests / 2) {
      if (!server->Publish("classifier", v2, {16}).ok()) return 1;
      std::printf("hot swap to v2 at t=%.2f ms (request %lld)\n", t,
                  static_cast<long long>(i));
    }
    const float* row = split.test.x.data() + i * 16;
    std::copy(row, row + 16, example.data());
    server->Submit("classifier", example, t);
  }
  server->Drain();

  // Every admitted request completed, on the version it was admitted
  // under; accuracy per served version shows the swap taking effect.
  int64_t hits[3] = {0, 0, 0}, counts[3] = {0, 0, 0};
  for (const Server::Completion& c : server->completions()) {
    const size_t v = static_cast<size_t>(c.version);
    ++counts[v];
    if (ArgMax(c.output) == split.test.y[static_cast<size_t>(c.id)]) {
      ++hits[v];
    }
  }
  const MetricsReport m = server->metrics();
  std::printf("served            v1 %lld requests (acc %.3f) | v2 %lld "
              "requests (acc %.3f)\n",
              static_cast<long long>(counts[1]),
              counts[1] ? static_cast<double>(hits[1]) / counts[1] : 0.0,
              static_cast<long long>(counts[2]),
              counts[2] ? static_cast<double>(hits[2]) / counts[2] : 0.0);
  std::printf("admitted %lld, completed %lld, lost %lld\n",
              static_cast<long long>(m.Get("serve.admitted")),
              static_cast<long long>(server->completions().size()),
              static_cast<long long>(m.Get("serve.admitted")) -
                  static_cast<long long>(server->completions().size()));
  std::printf("latency           p50 %.3f ms | p99 %.3f ms | max %.3f ms\n",
              server->latency_histogram().Quantile(0.5),
              server->latency_histogram().Quantile(0.99),
              server->latency_histogram().max_ms());

  // ------------------------------------------------- overload behavior
  // Same server shape, but offered load at 3x the cost model's capacity
  // and a tight 5 ms deadline: admission sheds the excess at the door.
  ModelRegistry registry2;
  ServerConfig tight = config;
  tight.queue_capacity = 32;
  tight.default_deadline_ms = 5.0;
  auto created2 = Server::Create(&registry2, tight);
  if (!created2.ok()) return 1;
  std::unique_ptr<Server> server2 = std::move(created2).value();
  if (!server2->Publish("classifier", v2, {16}).ok()) return 1;

  const double capacity =
      tight.workers * tight.batch.max_batch * 1000.0 /
      EstimateServiceMs(tight.cost, tight.batch.max_batch);
  OpenLoopConfig load;
  load.seed = 13;
  load.requests = 3000;
  load.rate_rps = 3.0 * capacity;
  load.model = "classifier";
  const LoadReport overload = RunOpenLoop(server2.get(), load);
  std::printf(
      "overload at 3.0x  offered %lld | admitted %lld | shed %lld "
      "(%.1f%%) | deadline misses %lld | p99 %.3f ms\n",
      static_cast<long long>(overload.offered),
      static_cast<long long>(overload.admitted),
      static_cast<long long>(overload.shed),
      100.0 * static_cast<double>(overload.shed) /
          static_cast<double>(overload.offered),
      static_cast<long long>(overload.deadline_missed),
      overload.latency.Quantile(0.99));
  return 0;
}
