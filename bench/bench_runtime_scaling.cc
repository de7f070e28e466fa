// Runtime scaling bench: single- vs multi-thread throughput of the
// blocked GEMM kernels, Conv2D forward, and a full training step, against
// the seed repo's single-threaded kernels compiled at the project's
// default flags (the pre-runtime baseline). Results land in
// BENCH_runtime.json.
//
// This is a standalone binary (not google-benchmark): it flips
// RuntimeConfig between timings.

#include <cstdint>
#include <vector>

#include "bench/report.h"
#include "src/core/metrics.h"
#include "src/core/rng.h"
#include "src/data/synthetic.h"
#include "src/nn/conv.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"
#include "src/runtime/runtime.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

// ----------------------------------------------------------- seed kernels
// Verbatim copies of the seed repo's MatMul and Conv2D::Forward loop
// nests (including the zero-skip branch), compiled in this TU at the
// project's default flags — i.e. exactly what every caller paid before
// the runtime existed.

Tensor SeedMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = pa[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = pb + p * n;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor SeedConvForward(const Tensor& x, const Tensor& w, const Tensor& bias,
                       int64_t stride, int64_t pad) {
  const int64_t n = x.dim(0), in_ch = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int64_t out_ch = w.dim(0), kernel = w.dim(2);
  const int64_t ho = (h + 2 * pad - kernel) / stride + 1;
  const int64_t wo = (wd + 2 * pad - kernel) / stride + 1;
  Tensor y({n, out_ch, ho, wo});
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t oc = 0; oc < out_ch; ++oc) {
      for (int64_t oy = 0; oy < ho; ++oy) {
        for (int64_t ox = 0; ox < wo; ++ox) {
          double acc = bias[oc];
          const int64_t iy0 = oy * stride - pad;
          const int64_t ix0 = ox * stride - pad;
          for (int64_t ic = 0; ic < in_ch; ++ic) {
            for (int64_t ky = 0; ky < kernel; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kernel; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= wd) continue;
                acc += x[((img * in_ch + ic) * h + iy) * wd + ix] *
                       w[((oc * in_ch + ic) * kernel + ky) * kernel + kx];
              }
            }
          }
          y[((img * out_ch + oc) * ho + oy) * wo + ox] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

// ------------------------------------------------------------- harness

using bench::MedianMs;

volatile float g_sink = 0.0f;  // defeats dead-code elimination

struct ScalingRow {
  double seed_ms = 0.0;
  double t1_ms = 0.0;
  double t2_ms = 0.0;
  double t4_ms = 0.0;
};

ScalingRow BenchGemm256() {
  Rng rng(1);
  Tensor a({256, 256}), b({256, 256});
  a.FillGaussian(&rng, 1.0f);
  b.FillGaussian(&rng, 1.0f);
  ScalingRow row;
  RuntimeConfig::SetThreads(1);
  row.seed_ms = MedianMs(3, [&] { g_sink = SeedMatMul(a, b)[0]; });
  row.t1_ms = MedianMs(10, [&] { g_sink = MatMul(a, b)[0]; });
  RuntimeConfig::SetThreads(2);
  row.t2_ms = MedianMs(10, [&] { g_sink = MatMul(a, b)[0]; });
  RuntimeConfig::SetThreads(4);
  row.t4_ms = MedianMs(10, [&] { g_sink = MatMul(a, b)[0]; });
  RuntimeConfig::SetThreads(1);
  return row;
}

ScalingRow BenchConvForward() {
  Rng rng(2);
  Conv2D conv(8, 8, 3, 1, 1);
  conv.Init(&rng);
  Tensor x({8, 8, 16, 16});
  x.FillGaussian(&rng, 1.0f);
  std::vector<Tensor*> params = conv.Params();  // {weights, bias}
  ScalingRow row;
  RuntimeConfig::SetThreads(1);
  row.seed_ms = MedianMs(5, [&] {
    g_sink = SeedConvForward(x, *params[0], *params[1], 1, 1)[0];
  });
  row.t1_ms =
      MedianMs(5, [&] { g_sink = conv.Forward(x, CacheMode::kNoCache)[0]; });
  RuntimeConfig::SetThreads(2);
  row.t2_ms =
      MedianMs(5, [&] { g_sink = conv.Forward(x, CacheMode::kNoCache)[0]; });
  RuntimeConfig::SetThreads(4);
  row.t4_ms =
      MedianMs(5, [&] { g_sink = conv.Forward(x, CacheMode::kNoCache)[0]; });
  RuntimeConfig::SetThreads(1);
  return row;
}

/// One-epoch MLP training wall time per optimizer step, at a thread count.
double TrainStepMs(int threads) {
  RuntimeConfig::SetThreads(threads);
  Rng rng(3);
  Dataset data = MakeGaussianBlobs(2048, 32, 8, 3.0, &rng);
  Sequential net = MakeMlp(32, {128, 64}, 8);
  Rng init_rng(4);
  net.Init(&init_rng);
  Sgd opt(0.05, 0.9);
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 32;
  int64_t steps = 0;
  config.on_step = [&steps](int64_t, int64_t, double) { ++steps; };
  MetricsReport report = Train(&net, &opt, data, config);
  RuntimeConfig::SetThreads(1);
  return report.Get(metric::kTrainSeconds) * 1000.0 /
         static_cast<double>(steps > 0 ? steps : 1);
}

}  // namespace
}  // namespace dlsys

int main() {
  using namespace dlsys;
  using bench::kWall;
  bench::Report report("runtime_scaling", "runtime");
  bench::Table& kernels = report.AddLine(
      "kernels", {{"kernel", "%-12s"}, {"seed_ms", " seed %8.3f ms |", kWall},
                  {"t1_ms", " t1 %8.3f ms |", kWall},
                  {"t2_ms", " t2 %8.3f ms |", kWall},
                  {"t4_ms", " t4 %8.3f ms |", kWall},
                  {"speedup_t4_vs_seed", " speedup(t4 vs seed) %.2fx", kWall}});
  auto row = [&kernels](const char* name, const ScalingRow& r) {
    kernels.Row(name, r.seed_ms, r.t1_ms, r.t2_ms, r.t4_ms,
                r.seed_ms / r.t4_ms);
  };
  row("gemm256", BenchGemm256());
  row("conv8x16", BenchConvForward());
  const double train1 = TrainStepMs(1);
  const double train4 = TrainStepMs(4);
  report
      .AddLine("train_step", {{"t1_ms", "train_step   t1 %8.3f ms |", kWall},
                              {"t4_ms", " t4 %8.3f ms", kWall}})
      .Row(train1, train4);
  return report.Finish();
}
