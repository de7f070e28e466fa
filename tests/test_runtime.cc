// Tests for the CPU execution runtime (src/runtime): ParallelFor coverage,
// bitwise determinism of the blocked GEMM/conv kernels and Transpose
// across thread counts (and, for conv forward, ISAs), parity with the
// retained naive references, and end-to-end training-loss
// reproducibility across thread counts and ISAs.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/data/synthetic.h"
#include "src/nn/conv.h"
#include "src/nn/train.h"
#include "src/obs/cost.h"
#include "src/optim/optimizer.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

/// Bitwise equality of two tensors (distinguishes -0.0 from +0.0 and
/// compares NaN payloads, unlike operator==).
bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.bytes())) == 0;
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  RuntimeConfig::SetThreads(8);
  for (int64_t total : {0, 1, 7, 64, 1000, 4097}) {
    for (int64_t grain : {1, 3, 64}) {
      std::vector<int> counts(static_cast<size_t>(total), 0);
      ParallelFor(0, total, grain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          counts[static_cast<size_t>(i)] += 1;
        }
      });
      for (int64_t i = 0; i < total; ++i) {
        ASSERT_EQ(counts[static_cast<size_t>(i)], 1)
            << "index " << i << " total " << total << " grain " << grain;
      }
    }
  }
}

TEST(ParallelForTest, NonZeroBeginIsCoveredExactly) {
  RuntimeConfig::SetThreads(4);
  std::vector<int> counts(100, 0);
  ParallelFor(25, 90, 4, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) counts[static_cast<size_t>(i)] += 1;
  });
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(counts[static_cast<size_t>(i)], (i >= 25 && i < 90) ? 1 : 0);
  }
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  RuntimeConfig::SetThreads(4);
  std::vector<int> counts(64 * 16, 0);
  ParallelFor(0, 64, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      ParallelFor(0, 16, 1, [&](int64_t jlo, int64_t jhi) {
        for (int64_t j = jlo; j < jhi; ++j) {
          counts[static_cast<size_t>(i * 16 + j)] += 1;
        }
      });
    }
  });
  for (int v : counts) EXPECT_EQ(v, 1);
}

TEST(RuntimeConfigTest, SetThreadsClampsToOne) {
  RuntimeConfig::SetThreads(0);
  EXPECT_EQ(RuntimeConfig::Threads(), 1);
  RuntimeConfig::SetThreads(-3);
  EXPECT_EQ(RuntimeConfig::Threads(), 1);
  RuntimeConfig::SetThreads(2);
  EXPECT_EQ(RuntimeConfig::Threads(), 2);
  RuntimeConfig::SetThreads(1);
}

TEST(GemmDeterminismTest, BitwiseIdenticalAcrossThreadCountsAndToNaive) {
  Rng rng(11);
  // Deliberately awkward extents: odd sizes exercise the edge-tile paths.
  const int64_t m = 123, k = 77, n = 45;
  Tensor a({m, k}), b({k, n});
  a.FillGaussian(&rng, 1.0f);
  b.FillGaussian(&rng, 1.0f);
  const Tensor ref = NaiveMatMul(a, b);
  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    EXPECT_TRUE(BitwiseEqual(MatMul(a, b), ref)) << "threads=" << threads;
  }
  RuntimeConfig::SetThreads(1);
}

TEST(GemmDeterminismTest, LargeSquareMatchesNaive) {
  Rng rng(12);
  Tensor a({256, 256}), b({256, 256});
  a.FillGaussian(&rng, 1.0f);
  b.FillGaussian(&rng, 1.0f);
  const Tensor ref = NaiveMatMul(a, b);
  for (int threads : {1, 4}) {
    RuntimeConfig::SetThreads(threads);
    EXPECT_TRUE(BitwiseEqual(MatMul(a, b), ref)) << "threads=" << threads;
  }
  RuntimeConfig::SetThreads(1);
}

/// The seed repo's Conv2D forward loop nest, retained as the independent
/// reference for the dispatched conv kernel and moved to its chain: a
/// float sum started at +0, adding in (ic, ky, kx) order the in-image
/// products, then the bias. It skips the padding taps the kernel adds as
/// zero products; a sum started at +0 is never -0, so a +-0 term leaves
/// it unchanged, and the bits agree whenever the weights are finite.
Tensor NaiveConvForward(const Tensor& x, const Tensor& w, const Tensor& bias,
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
          float acc = 0.0f;
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
          y[((img * out_ch + oc) * ho + oy) * wo + ox] = acc + bias[oc];
        }
      }
    }
  }
  return y;
}

/// Conv2D configurations and input extents for the forward parity test:
/// LeNet's two convs, strides 2 and 3, pads 0-2, a 1x1 kernel, a kernel
/// wider than its input, output rows wider than 16 (full vector tiles plus
/// a tail), rows of exactly 16 and 32 outputs (a row that ends on a tile
/// edge) and of 70 (two or more full tiles), channel counts that leave
/// 1-3 channels for the last four-channel tile, and 12 and 16 channels
/// (an eight-channel tile then a four-channel one, and two of eight).
struct ConvConfig {
  int64_t ic, oc, k, stride, pad, h, w;
};
const ConvConfig kConvConfigs[] = {
    {1, 4, 5, 1, 2, 28, 28}, {4, 8, 3, 1, 1, 14, 14}, {5, 7, 3, 1, 1, 9, 9},
    {2, 3, 3, 2, 0, 11, 11}, {1, 6, 3, 2, 1, 13, 13}, {2, 5, 5, 3, 1, 12, 11},
    {3, 9, 4, 3, 2, 17, 19}, {3, 2, 1, 1, 0, 6, 7},   {1, 6, 3, 1, 1, 5, 37},
    {2, 7, 5, 1, 2, 3, 3},   {2, 5, 4, 2, 1, 9, 40},  {2, 5, 3, 1, 1, 5, 16},
    {3, 6, 3, 1, 1, 4, 32},  {1, 9, 3, 1, 1, 3, 70},  {2, 12, 3, 1, 1, 6, 20},
    {3, 16, 3, 2, 1, 9, 35},
};

TEST(ConvDeterminismTest, BitwiseIdenticalAcrossThreadCountsAndToNaive) {
  // Conv2D::Forward runs the dispatched implicit-GEMM kernel: every ISA
  // table at every thread count must reproduce the naive nest bit for bit.
  Rng rng(13);
  const simd::Isa initial_isa = simd::ActiveIsa();
  for (const ConvConfig& c : kConvConfigs) {
    Conv2D conv(c.ic, c.oc, c.k, c.stride, c.pad);
    conv.Init(&rng);
    std::vector<Tensor*> params = conv.Params();  // {weights, bias}
    params[1]->FillGaussian(&rng, 1.0f);  // Init zeroes the bias
    Tensor x({3, c.ic, c.h, c.w});
    x.FillGaussian(&rng, 1.0f);
    const Tensor ref =
        NaiveConvForward(x, *params[0], *params[1], c.stride, c.pad);
    for (simd::Isa isa :
         {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
      if (!simd::IsaSupported(isa)) continue;
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        Tensor y = conv.Forward(x, CacheMode::kNoCache);
        EXPECT_TRUE(BitwiseEqual(y, ref))
            << conv.name() << " on " << c.h << "x" << c.w
            << " isa=" << simd::IsaName(isa) << " threads=" << threads;
      }
    }
    simd::SetIsa(initial_isa);
  }
  RuntimeConfig::SetThreads(1);
}

#if DLSYS_OBS
TEST(ConvDeterminismTest, ForwardBooksFlopsToCallersPhaseAtAnyThreadCount) {
  // Conv2D::Forward splits the batch over images, so its kernels run on
  // pool workers, which have no phase: the batch's FLOPs must still land
  // once, on the calling thread's phase, and none on kOther.
  Rng rng(15);
  Conv2D conv(3, 8, 3, 1, 1);
  conv.Init(&rng);
  Tensor x({8, 3, 12, 10});
  x.FillGaussian(&rng, 1.0f);
  const int64_t want = 2 * 8 * 8 * (3 * 3 * 3) * 12 * 10;
  const auto fwd = static_cast<size_t>(obs::Phase::kForward);
  const auto other = static_cast<size_t>(obs::Phase::kOther);
  for (int threads : {1, 4}) {
    RuntimeConfig::SetThreads(threads);
    const obs::PhaseCost before = obs::PhaseTotals();
    {
      obs::PhaseScope scope(obs::Phase::kForward);
      conv.Forward(x, CacheMode::kNoCache);
    }
    const obs::PhaseCost after = obs::PhaseTotals();
    EXPECT_EQ(after.flops[fwd] - before.flops[fwd], want)
        << "threads=" << threads;
    EXPECT_EQ(after.flops[other] - before.flops[other], 0)
        << "threads=" << threads;
  }
  RuntimeConfig::SetThreads(1);
}
#endif  // DLSYS_OBS

/// The seed repo's fused serial Conv2D backward loop nest, retained as the
/// reference for the three-pass parallel implementation.
struct ConvGrads {
  Tensor dx, dw, db;
};

ConvGrads NaiveConvBackward(const Tensor& x, const Tensor& w,
                            const Tensor& grad, int64_t stride, int64_t pad) {
  const int64_t n = x.dim(0), in_ch = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int64_t out_ch = w.dim(0), kernel = w.dim(2);
  const int64_t ho = grad.dim(2), wo = grad.dim(3);
  ConvGrads out{Tensor(x.shape()), Tensor(w.shape()), Tensor({out_ch})};
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t oc = 0; oc < out_ch; ++oc) {
      for (int64_t oy = 0; oy < ho; ++oy) {
        for (int64_t ox = 0; ox < wo; ++ox) {
          const float g = grad[((img * out_ch + oc) * ho + oy) * wo + ox];
          if (g == 0.0f) continue;
          out.db[oc] += g;
          const int64_t iy0 = oy * stride - pad;
          const int64_t ix0 = ox * stride - pad;
          for (int64_t ic = 0; ic < in_ch; ++ic) {
            for (int64_t ky = 0; ky < kernel; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kernel; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= wd) continue;
                const int64_t xi = ((img * in_ch + ic) * h + iy) * wd + ix;
                const int64_t wi =
                    ((oc * in_ch + ic) * kernel + ky) * kernel + kx;
                out.dw[wi] += g * x[xi];
                out.dx[xi] += g * w[wi];
              }
            }
          }
        }
      }
    }
  }
  return out;
}

TEST(ConvDeterminismTest, BackwardBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(14);
  Conv2D conv(4, 6, 3, 1, 1);
  conv.Init(&rng);
  Tensor x({2, 4, 8, 8});
  x.FillGaussian(&rng, 1.0f);
  Tensor grad({2, 6, 8, 8});
  grad.FillGaussian(&rng, 1.0f);
  // Roughly half the gradient zeroed, as a ReLU upstream would leave it:
  // this exercises the g == 0 skip the parallel passes must preserve.
  for (int64_t i = 0; i < grad.size(); i += 2) grad[i] = 0.0f;

  std::vector<Tensor*> params = conv.Params();  // {weights, bias}
  const ConvGrads ref =
      NaiveConvBackward(x, *params[0], grad, /*stride=*/1, /*pad=*/1);

  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    conv.ZeroGrads();
    conv.Forward(x, CacheMode::kCache);
    Tensor dx = conv.Backward(grad);
    std::vector<Tensor*> grads = conv.Grads();  // {dw, db}
    EXPECT_TRUE(BitwiseEqual(dx, ref.dx)) << "dx threads=" << threads;
    EXPECT_TRUE(BitwiseEqual(*grads[0], ref.dw)) << "dw threads=" << threads;
    EXPECT_TRUE(BitwiseEqual(*grads[1], ref.db)) << "db threads=" << threads;
  }
  RuntimeConfig::SetThreads(1);
}

TEST(PoolDeterminismTest, BackwardBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(15);
  Tensor x({3, 4, 8, 8});
  x.FillGaussian(&rng, 1.0f);
  Tensor grad({3, 4, 4, 4});
  grad.FillGaussian(&rng, 1.0f);

  // Serial reference scatter: recompute each window argmax (first-maximum
  // tie break, as the forward pass records) and add the gradient there.
  const int64_t n = 3, c = 4, h = 8, w = 8, window = 2, ho = 4, wo = 4;
  Tensor ref(x.shape());
  for (int64_t t = 0; t < n * c; ++t) {
    for (int64_t oy = 0; oy < ho; ++oy) {
      for (int64_t ox = 0; ox < wo; ++ox) {
        float best = x[t * h * w + oy * window * w + ox * window];
        int64_t best_idx = t * h * w + oy * window * w + ox * window;
        for (int64_t ky = 0; ky < window; ++ky) {
          for (int64_t kx = 0; kx < window; ++kx) {
            const int64_t xi =
                t * h * w + (oy * window + ky) * w + ox * window + kx;
            if (x[xi] > best) {
              best = x[xi];
              best_idx = xi;
            }
          }
        }
        ref[best_idx] += grad[t * ho * wo + oy * wo + ox];
      }
    }
  }

  MaxPool2D pool(2);
  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    pool.Forward(x, CacheMode::kCache);
    Tensor dx = pool.Backward(grad);
    EXPECT_TRUE(BitwiseEqual(dx, ref)) << "threads=" << threads;
  }
  RuntimeConfig::SetThreads(1);
}

TEST(OpsDeterminismTest, OneHotMeanRowsSliceRowsAcrossThreads) {
  Rng rng(16);
  std::vector<int64_t> labels(300);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int64_t>(i % 7);
  }
  Tensor m({137, 23});
  m.FillGaussian(&rng, 1.0f);

  RuntimeConfig::SetThreads(1);
  const Tensor onehot_ref = OneHot(labels, 7);
  const Tensor mean_ref = MeanRows(m);
  const Tensor slice_ref = SliceRows(m, 19, 101);

  for (int threads : {2, 8}) {
    RuntimeConfig::SetThreads(threads);
    EXPECT_TRUE(BitwiseEqual(OneHot(labels, 7), onehot_ref))
        << "OneHot threads=" << threads;
    EXPECT_TRUE(BitwiseEqual(MeanRows(m), mean_ref))
        << "MeanRows threads=" << threads;
    EXPECT_TRUE(BitwiseEqual(SliceRows(m, 19, 101), slice_ref))
        << "SliceRows threads=" << threads;
  }
  RuntimeConfig::SetThreads(1);
}

TEST(OpsDeterminismTest, TransposeMatchesElementCopyAcrossThreads) {
  // Shapes around the 16-row strips: a single element (all tail rows),
  // strips with 1-15 tail rows at any thread count, and power-of-two row
  // counts whose output rows alias in L1.
  const int64_t shapes[][2] = {
      {1, 1}, {33, 17}, {130, 67}, {512, 128}, {1024, 96}};
  Rng rng(17);
  for (const auto& shape : shapes) {
    const int64_t r = shape[0], c = shape[1];
    Tensor m({r, c});
    m.FillGaussian(&rng, 1.0f);
    Tensor ref({c, r});
    for (int64_t i = 0; i < r; ++i) {
      for (int64_t j = 0; j < c; ++j) ref[j * r + i] = m[i * c + j];
    }
    for (int threads : {1, 2, 8}) {
      RuntimeConfig::SetThreads(threads);
      EXPECT_TRUE(BitwiseEqual(Transpose(m), ref))
          << r << "x" << c << " threads=" << threads;
    }
  }
  RuntimeConfig::SetThreads(1);
}

/// Trains a small MLP for 5 epochs at the given thread count and returns
/// the final loss.
double TrainFinalLoss(int threads) {
  RuntimeConfig::SetThreads(threads);
  Rng rng(21);
  Dataset data = MakeGaussianBlobs(512, 16, 4, 2.5, &rng);
  Sequential net = MakeMlp(16, {32}, 4);
  Rng init_rng(22);
  net.Init(&init_rng);
  Sgd opt(0.05, 0.9);
  TrainConfig config;
  config.epochs = 5;
  config.batch_size = 32;
  MetricsReport report = Train(&net, &opt, data, config);
  RuntimeConfig::SetThreads(1);
  return report.Get(metric::kLoss);
}

TEST(TrainingDeterminismTest, FiveEpochFinalLossIdenticalAcrossThreads) {
  const double loss1 = TrainFinalLoss(1);
  const double loss8 = TrainFinalLoss(8);
  EXPECT_GT(loss1, 0.0);
  // Exact double equality: the runtime's static partitioning makes every
  // kernel bitwise reproducible, so the whole training trajectory is too.
  EXPECT_EQ(loss1, loss8);
  // The forward and both backward GEMMs run the dispatched dense entry,
  // whose tables reproduce the scalar chain bit for bit, so the trajectory
  // is the same on every ISA too.
  const simd::Isa prev = simd::ActiveIsa();
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (!simd::IsaSupported(isa)) continue;
    simd::SetIsa(isa);
    EXPECT_EQ(TrainFinalLoss(1), loss1) << simd::IsaName(isa);
    EXPECT_EQ(TrainFinalLoss(8), loss1) << simd::IsaName(isa);
  }
  simd::SetIsa(prev);
}

}  // namespace
}  // namespace dlsys
