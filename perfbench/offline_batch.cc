// offline_batch: a closed loop of full-batch PredictInto calls on one
// caller thread (intra-op threading pinned to 1) over an fp32 LeNet-shaped
// classifier compiled with the default passes. The simd kernels and the
// infer engine do nearly all the work; serve and fleet are bypassed. The
// dense stack (392->512->128->10) holds two thirds of the FLOPs and about
// a tenth of the call, so a dense-kernel change shows beside conv. Batches
// of 16 give enough calls for a steady p99, and weights, workspace and
// the input pool fit in one core's L2.

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/core/rng.h"
#include "src/data/synthetic.h"
#include "src/infer/engine.h"
#include "src/nn/conv.h"
#include "src/nn/layers.h"
#include "src/nn/sequential.h"
#include "src/nn/serialize.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"

namespace perfbench {
namespace {

using dlsys::InferenceEngine;
using dlsys::Sequential;
using dlsys::Tensor;

constexpr int64_t kImg = 28;
constexpr int64_t kBatch = 16;
constexpr int64_t kPoolBatches = 8;
constexpr int64_t kClasses = 10;
constexpr int kConvSteps = 2;   ///< each runs one GEMM per image
constexpr int kDenseSteps = 3;  ///< each runs one GEMM
/// Untraced calls a run makes at least, so call_p99_us always has three
/// windows, however slow the host.
constexpr size_t kMinCalls = 3 * kTailWindow;
/// Time segments of the run whose median throughput is reported.
constexpr int kSegments = 20;

Sequential BuildLeNet() {
  Sequential net;
  net.Emplace<dlsys::Conv2D>(1, 4, 5, 1, 2)
      .Emplace<dlsys::ReLU>()
      .Emplace<dlsys::MaxPool2D>(2)
      .Emplace<dlsys::Conv2D>(4, 8, 3, 1, 1)
      .Emplace<dlsys::ReLU>()
      .Emplace<dlsys::MaxPool2D>(2)
      .Emplace<dlsys::Flatten>()
      .Emplace<dlsys::Dense>(8 * 7 * 7, 512)
      .Emplace<dlsys::ReLU>()
      .Emplace<dlsys::Dense>(512, 128)
      .Emplace<dlsys::ReLU>()
      .Emplace<dlsys::Dense>(128, kClasses);
  return net;
}

/// One timed restart: the program's set-up calls, then its first batch.
struct Restart {
  double setup_s = 0.0;  ///< build + LoadParameters + Compile
  double load_ms = 0.0;
  double compile_ms = 0.0;
  double first_output_ms = 0.0;  ///< set-up start to the first output
};

InferenceEngine RestartEngine(const std::string& params, const float* batch,
                              float* output, Restart* r) {
  Stopwatch all;
  Sequential net = BuildLeNet();
  Stopwatch load;
  const dlsys::Status loaded = dlsys::LoadParameters(&net, params);
  r->load_ms = load.Ms();
  if (!loaded.ok()) Die("LoadParameters: " + loaded.ToString());
  Stopwatch compile;
  auto compiled =
      InferenceEngine::Compile(net, {1, kImg, kImg}, dlsys::EngineConfig(kBatch));
  r->compile_ms = compile.Ms();
  if (!compiled.ok()) Die("Compile: " + compiled.status().ToString());
  r->setup_s = all.Seconds();
  InferenceEngine engine = std::move(compiled).value();
  const dlsys::Status st = engine.PredictInto(batch, kBatch, output);
  r->first_output_ms = all.Ms();
  if (!st.ok()) Die("PredictInto: " + st.ToString());
  return engine;
}

}  // namespace

Result RunOfflineBatch(const Options& opt) {
  Result out;
  out.Note("offline_batch threads: runtime=%d caller=1 total=1; batch=%lld",
           dlsys::RuntimeConfig::Threads(), static_cast<long long>(kBatch));

  // Inputs, weights and references, all from the seed and all before any
  // timer: a pool of synthetic digit images, the saved parameter file,
  // and the Sequential::Forward(kNoCache) outputs the engine must equal.
  dlsys::Rng data_rng(opt.seed);
  const dlsys::Dataset pool = dlsys::MakeDigitGrid(kPoolBatches * kBatch, kImg,
                                                   kClasses, 0.35, &data_rng);
  Sequential reference = BuildLeNet();
  dlsys::Rng weight_rng(opt.seed * 0x9E3779B97F4A7C15ULL + 17);
  reference.Init(&weight_rng);
  const std::string params = opt.workdir + "/offline_batch.params";
  const dlsys::Status saved = dlsys::SaveParameters(reference, params);
  if (!saved.ok()) Die("SaveParameters: " + saved.ToString());
  const int64_t in_elems = kImg * kImg;
  std::vector<Tensor> batches, expected;
  for (int64_t b = 0; b < kPoolBatches; ++b) {
    Tensor x({kBatch, 1, kImg, kImg});
    std::copy(pool.x.data() + b * kBatch * in_elems,
              pool.x.data() + (b + 1) * kBatch * in_elems, x.data());
    expected.push_back(reference.Forward(x, dlsys::CacheMode::kNoCache));
    batches.push_back(std::move(x));
  }
  std::vector<int64_t> order(kPoolBatches);
  for (int64_t b = 0; b < kPoolBatches; ++b) order[b] = b;
  dlsys::Rng order_rng(opt.seed ^ 0x0FF1A5EULL);
  for (int64_t i = kPoolBatches - 1; i > 0; --i) {
    std::swap(order[i], order[order_rng.Index(static_cast<uint64_t>(i + 1))]);
  }

  // Restarts, paced over the run: set up from the saved file and score
  // the first batch. The newest engine serves the timed calls.
  Tensor output({kBatch, kClasses});
  std::vector<Restart> restarts;
  std::optional<InferenceEngine> engine;
  int64_t bad_restarts = 0;
  auto restart = [&] {
    Restart r;
    const int64_t b = order[0];
    engine.emplace(RestartEngine(params, batches[b].data(), output.data(), &r));
    restarts.push_back(r);
    bad_restarts +=
        BitEqual(output.data(), expected[b].data(), kBatch * kClasses) ? 0 : 1;
  };

  int64_t calls = 0, bad = 0;
  // One call on pool batch order[calls % n], its output checked after
  // the timer stops; returns its wall time (us).
  auto call = [&](bool traced) {
    const int64_t b = order[calls % kPoolBatches];
    const float* x = batches[b].data();
    Stopwatch sw;
    const dlsys::Status st =
        traced ? Spanned("bench.predict_into",
                         [&] { return engine->PredictInto(x, kBatch, output.data()); })
               : engine->PredictInto(x, kBatch, output.data());
    const double us = sw.Us();
    if (!st.ok()) Die("PredictInto: " + st.ToString());
    bad += BitEqual(output.data(), expected[b].data(), kBatch * kClasses) ? 0 : 1;
    ++calls;
    return us;
  };
  Pacer pacer(opt.seconds);
  restart();
  for (int64_t i = 0; i < 2 * kPoolBatches; ++i) call(false);  // warm caches
  calls = 0;
  bad = 0;

  // Untraced call times, and per time segment of the run the examples
  // and call time that give its throughput.
  std::vector<double> plain_us, traced_us;
  double seg_us[kSegments] = {};
  int64_t seg_calls[kSegments] = {};
  Stopwatch run;
  SpanLedger spans;
  int64_t allocs = 0;
  // An untraced call; in a traced run it also counts heap allocations.
  // Slow enough that a p99 window (about 1,100 calls) mostly sees one core.
  CoreRotation cores(/*period_s=*/5.0, /*width=*/1);
  auto plain_call = [&] {
    cores.MaybeRotate();
    while (pacer.Due(static_cast<int64_t>(restarts.size()), kRestarts)) restart();
    SetAllocCounting(opt.trace);
    const int64_t before = AllocCount();
    const double us = call(false);
    allocs += AllocCount() - before;
    SetAllocCounting(false);
    plain_us.push_back(us);
    const int seg = std::min<int>(
        kSegments - 1, static_cast<int>(run.Seconds() / opt.seconds * kSegments));
    seg_us[seg] += us;
    ++seg_calls[seg];
  };
  if (!opt.trace) {
    while (!pacer.Expired() || plain_us.size() < kMinCalls) plain_call();
  } else {
    // Alternating untraced and traced segments, two thirds of the budget
    // untraced. Untraced calls give the call percentiles and the
    // heap-allocation count; each traced call is drained and the rings
    // reset outside its timer, so the 16,384-span wall ring never fills.
    constexpr int kPairs = 5;
    const double segment = opt.seconds / kPairs;
    for (int p = 0; p < kPairs; ++p) {
      Stopwatch plain;
      while (plain.Seconds() < segment * 2 / 3) plain_call();
      dlsys::obs::ResetTrace();
      Stopwatch traced;
      while (traced.Seconds() < segment / 3) {
        dlsys::obs::SetTracingEnabled(true);
        const double us = call(true);
        dlsys::obs::SetTracingEnabled(false);
        traced_us.push_back(us);
        spans.Add(dlsys::obs::DrainTrace());
        dlsys::obs::ResetTrace();
      }
    }
    while (plain_us.size() < kMinCalls) plain_call();
  }
  while (static_cast<int64_t>(restarts.size()) < kRestarts) restart();

  out.attempted = calls + kRestarts;
  out.failed = bad + bad_restarts;
  if (out.failed > 0) {
    out.Fail("%lld of %lld batches differ from Sequential::Forward(kNoCache)",
             static_cast<long long>(out.failed),
             static_cast<long long>(out.attempted));
  }
  std::vector<double> setup_s, load_ms, compile_ms, first_output_ms;
  for (const Restart& r : restarts) {
    setup_s.push_back(r.setup_s);
    load_ms.push_back(r.load_ms);
    compile_ms.push_back(r.compile_ms);
    first_output_ms.push_back(r.first_output_ms);
  }
  std::vector<double> seg_rate;
  for (int i = 0; i < kSegments; ++i) {
    if (seg_calls[i] > 0) {
      seg_rate.push_back(static_cast<double>(seg_calls[i] * kBatch) /
                         (seg_us[i] / 1e6));
    }
  }
  out.Note("timed calls=%lld of %lld examples; restarts=%d, the cold one "
           "set up in %.6f s", static_cast<long long>(calls),
           static_cast<long long>(kBatch), kRestarts, restarts[0].setup_s);

  if (!opt.trace) {
    const double p99_us =
        WindowedTail(plain_us, kTailWindow, 0.99, "call_p99_us", &out);
    out.metrics["setup_s"] = Median(setup_s);
    // Median over time segments: a burst of host noise skews one segment,
    // not the run.
    out.metrics["throughput_per_s"] = Median(seg_rate);
    out.metrics["call_p50_us"] = Median(plain_us);
    out.metrics["call_p99_us"] = p99_us;
    out.metrics["ok_fraction"] =
        static_cast<double>(out.attempted - out.failed) /
        static_cast<double>(out.attempted);
    // Closed loop: a batch's client latency is its call.
    out.metrics["latency_p50_ms"] = Median(plain_us) / 1e3;
    out.metrics["latency_p99_ms"] = p99_us / 1e3;
    // One caller is one tenant.
    out.metrics["tenant_skew"] = 1.0;
    out.metrics["recover_ms"] = Median(first_output_ms);
    out.metrics["peak_rss_mb"] = PeakRssMb();
    return out;
  }

  // The ladder: engine.predict > engine.<step> > gemm.<kernel>, with
  // self times from SelfTimeByName.
  const int64_t traced_calls = static_cast<int64_t>(traced_us.size());
  const SpanAgg& predict = spans.Get("engine.predict");
  const SpanAgg conv_gemm = spans.Prefix("gemm.conv_gemm_bias");
  const SpanAgg dense_gemm = spans.Prefix("gemm.matmul");
  out.Note("spans: %s", spans.Counts().c_str());
  if (predict.count != traced_calls ||
      conv_gemm.count != traced_calls * kBatch * kConvSteps ||
      dense_gemm.count != traced_calls * kDenseSteps ||
      spans.Get("bench.predict_into").count != traced_calls) {
    out.Fail("span counts (predict %lld, conv gemm %lld, dense gemm %lld) do "
             "not match %lld traced calls",
             static_cast<long long>(predict.count),
             static_cast<long long>(conv_gemm.count),
             static_cast<long long>(dense_gemm.count),
             static_cast<long long>(traced_calls));
  }
  if (spans.wall_ring_filled()) out.Fail("a wall-track ring filled");
  if (allocs != 0) {
    out.Fail("%lld heap allocations inside PredictInto",
             static_cast<long long>(allocs));
  }
  out.Note("traced calls=%lld untraced calls=%zu",
           static_cast<long long>(traced_calls), plain_us.size());

  std::map<std::string, double>& v = out.metrics;
  v["simd.conv_gemm.share"] = conv_gemm.total_ms / predict.total_ms;
  v["simd.conv_gemm.gflops"] = conv_gemm.flops / (conv_gemm.total_ms * 1e6);
  v["simd.dense_gemm.gflops"] = dense_gemm.flops / (dense_gemm.total_ms * 1e6);
  v["simd.calls_per_predict"] = static_cast<double>(spans.Prefix("gemm.").count) /
                                static_cast<double>(predict.count);
  v["infer.conv.self_share"] = spans.Prefix("engine.conv").self_ms / predict.total_ms;
  v["infer.pool.self_share"] = spans.Prefix("engine.pool").self_ms / predict.total_ms;
  v["infer.dense.self_share"] =
      spans.Prefix("engine.dense").self_ms / predict.total_ms;
  v["infer.predict.p50_us"] = Median(plain_us);
  v["infer.predict.p99_us"] =
      WindowedTail(plain_us, kTailWindow, 0.99, "infer.predict.p99_us", &out);
  v["infer.dispatch_us"] =
      predict.self_ms * 1e3 / static_cast<double>(predict.count);
  v["infer.heap_allocs_per_call"] =
      static_cast<double>(allocs) / static_cast<double>(plain_us.size());
  v["infer.compile_ms"] = Median(compile_ms);
  v["infer.workspace_bytes"] = static_cast<double>(engine->workspace_bytes());
  v["nn.load_ms"] = Median(load_ms);
  v["obs.trace_overhead"] = (Sum(traced_us) / static_cast<double>(traced_calls)) /
                                (Sum(plain_us) / static_cast<double>(plain_us.size())) -
                            1.0;
  v["obs.dropped_spans"] = spans.wall_ring_filled() ? spans.dropped() : 0.0;
  return out;
}

}  // namespace perfbench
