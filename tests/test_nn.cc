#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "src/nn/conv.h"
#include "src/nn/layers.h"
#include "src/nn/loss.h"
#include "src/nn/sequential.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

// ---------------------------------------------------------------------
// Finite-difference gradient checking across layer types (property-based
// sweep via TEST_P): analytic backward must match numeric gradients.
// ---------------------------------------------------------------------

// Builds a layer by name for the parameterized gradient check.
std::unique_ptr<Layer> MakeLayerByName(const std::string& kind) {
  if (kind == "dense") return std::make_unique<Dense>(5, 4);
  if (kind == "relu") return std::make_unique<ReLU>();
  if (kind == "sigmoid") return std::make_unique<Sigmoid>();
  if (kind == "tanh") return std::make_unique<Tanh>();
  if (kind == "batchnorm") return std::make_unique<BatchNorm1d>(5);
  return nullptr;
}

int64_t InputDimFor(const std::string& kind) {
  return kind == "dense" || kind == "batchnorm" ? 5 : 5;
}

// Scalar objective: sum of squares of layer output. Uses the training
// path (kCache) so batch-statistic layers evaluate the same function the
// analytic backward differentiates.
double Objective(Layer* layer, const Tensor& x) {
  Tensor y = layer->Forward(x, CacheMode::kCache);
  double s = 0.0;
  for (int64_t i = 0; i < y.size(); ++i) {
    s += 0.5 * static_cast<double>(y[i]) * y[i];
  }
  return s;
}

class LayerGradCheck : public ::testing::TestWithParam<std::string> {};

TEST_P(LayerGradCheck, InputGradientMatchesFiniteDifference) {
  const std::string kind = GetParam();
  auto layer = MakeLayerByName(kind);
  ASSERT_NE(layer, nullptr);
  Rng rng(11);
  layer->Init(&rng);
  const int64_t n = 3, d = InputDimFor(kind);
  Tensor x({n, d});
  x.FillGaussian(&rng, 1.0f);
  // ReLU has a kink at 0: nudge values away from it.
  for (int64_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i]) < 0.05f) x[i] += 0.1f;
  }

  // Analytic gradient of 0.5*||y||^2 w.r.t. x is Backward(y).
  Tensor y = layer->Forward(x, CacheMode::kCache);
  layer->ZeroGrads();
  Tensor dx = layer->Backward(y);

  const float eps = 1e-3f;
  for (int64_t i = 0; i < x.size(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double fp = Objective(layer.get(), xp);
    const double fm = Objective(layer.get(), xm);
    const double numeric = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(dx[i], numeric, 5e-2)
        << kind << " input grad mismatch at " << i;
  }
}

TEST_P(LayerGradCheck, ParameterGradientMatchesFiniteDifference) {
  const std::string kind = GetParam();
  auto layer = MakeLayerByName(kind);
  ASSERT_NE(layer, nullptr);
  if (layer->Params().empty()) GTEST_SKIP() << "parameter-free layer";
  Rng rng(13);
  layer->Init(&rng);
  const int64_t n = 3, d = InputDimFor(kind);
  Tensor x({n, d});
  x.FillGaussian(&rng, 1.0f);

  Tensor y = layer->Forward(x, CacheMode::kCache);
  layer->ZeroGrads();
  layer->Backward(y);

  const float eps = 1e-3f;
  auto params = layer->Params();
  auto grads = layer->Grads();
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Tensor* p = params[pi];
    Tensor* g = grads[pi];
    // Spot-check a handful of coordinates per parameter tensor.
    const int64_t stride = std::max<int64_t>(1, p->size() / 7);
    for (int64_t i = 0; i < p->size(); i += stride) {
      const float orig = (*p)[i];
      (*p)[i] = orig + eps;
      const double fp = Objective(layer.get(), x);
      (*p)[i] = orig - eps;
      const double fm = Objective(layer.get(), x);
      (*p)[i] = orig;
      const double numeric = (fp - fm) / (2.0 * eps);
      EXPECT_NEAR((*g)[i], numeric, 5e-2)
          << kind << " param " << pi << " grad mismatch at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayers, LayerGradCheck,
                         ::testing::Values("dense", "relu", "sigmoid", "tanh",
                                           "batchnorm"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------- Conv

TEST(ConvTest, ForwardKnownValues) {
  // 1x1x3x3 input, identity-ish 1-channel kernel.
  Conv2D conv(1, 1, 3, 1, 1);
  Rng rng(1);
  conv.Init(&rng);
  // Set kernel to pick out the center pixel.
  Tensor* w = conv.Params()[0];
  w->Fill(0.0f);
  (*w)[4] = 1.0f;  // center of 3x3
  conv.Params()[1]->Fill(0.0f);
  Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = conv.Forward(x, CacheMode::kNoCache);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  for (int64_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(ConvTest, GradientMatchesFiniteDifference) {
  Conv2D conv(2, 3, 3, 1, 1);
  Rng rng(5);
  conv.Init(&rng);
  Tensor x({2, 2, 4, 4});
  x.FillGaussian(&rng, 1.0f);

  Tensor y = conv.Forward(x, CacheMode::kCache);
  conv.ZeroGrads();
  Tensor dx = conv.Backward(y);

  auto objective = [&](const Tensor& xx) {
    Tensor yy = conv.Forward(xx, CacheMode::kNoCache);
    double s = 0.0;
    for (int64_t i = 0; i < yy.size(); ++i) {
      s += 0.5 * static_cast<double>(yy[i]) * yy[i];
    }
    return s;
  };
  const float eps = 1e-2f;
  const int64_t stride = std::max<int64_t>(1, x.size() / 11);
  for (int64_t i = 0; i < x.size(); i += stride) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (objective(xp) - objective(xm)) / (2.0 * eps);
    EXPECT_NEAR(dx[i], numeric, 0.1) << "conv dx mismatch at " << i;
  }
}

TEST(ConvTest, OutputExtentFormula) {
  Conv2D conv(1, 1, 3, 2, 1);
  EXPECT_EQ(conv.OutExtent(8), 4);
  Conv2D conv2(1, 1, 5, 1, 0);
  EXPECT_EQ(conv2.OutExtent(8), 4);
}

TEST(MaxPoolTest, ForwardPicksMaxAndBackwardRoutes) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 2, 2}, {1, 7, 3, 2});
  Tensor y = pool.Forward(x, CacheMode::kCache);
  ASSERT_EQ(y.size(), 1);
  EXPECT_EQ(y[0], 7.0f);
  Tensor g({1, 1, 1, 1}, {2.0f});
  Tensor dx = pool.Backward(g);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 2.0f);
  EXPECT_EQ(dx[2], 0.0f);
}

TEST(MaxPoolTest, BackwardKeepsEveryGradientInsideItsWindow) {
  // One 2x2 window per channel: all -inf, all NaN, NaN then a finite
  // value, and -0/+0 ties in both orders. Each gradient lands on the
  // window's first tap equal to the max, or on its first tap when none
  // is (all NaN), and never outside dx.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> windows = {
      -inf, -inf, -inf, -inf,   // max -inf: tap 0
      nan,  nan,  nan,  nan,    // max -inf, no tap equal: tap 0
      nan,  nan,  2.5f, -inf,   // max 2.5: tap 2
      -1.0f, -0.0f, 0.0f, -2.0f,  // max -0: tap 1
      -3.0f, 0.0f, -0.0f, -1.0f,  // max +0: tap 1
  };
  const int64_t taps[] = {0, 0, 2, 1, 1};
  const int64_t channels = 5;
  MaxPool2D pool(2);
  Tensor x({1, channels, 2, 2}, windows);
  Tensor y = pool.Forward(x, CacheMode::kCache);
  ASSERT_EQ(y.size(), channels);
  Tensor g({1, channels, 1, 1}, {1.0f, 2.0f, 3.0f, 4.0f, 5.0f});
  Tensor dx = pool.Backward(g);
  ASSERT_EQ(dx.size(), 4 * channels);
  for (int64_t ch = 0; ch < channels; ++ch) {
    for (int64_t t = 0; t < 4; ++t) {
      EXPECT_EQ(dx[ch * 4 + t], t == taps[ch] ? g[ch] : 0.0f)
          << "channel " << ch << " tap " << t;
    }
  }
  EXPECT_EQ(dx.Sum(), g.Sum());
}

// -------------------------------------------------------------- Dropout

TEST(DropoutTest, InferenceIsIdentity) {
  Dropout drop(0.5f);
  Tensor x({4, 4}, 1.0f);
  Tensor y = drop.Forward(x, CacheMode::kNoCache);
  for (int64_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], 1.0f);
}

TEST(DropoutTest, TrainingPreservesExpectation) {
  Dropout drop(0.5f, 99);
  Tensor x({100, 100}, 1.0f);
  Tensor y = drop.Forward(x, CacheMode::kCache);
  // Inverted dropout: mean stays ~1.
  EXPECT_NEAR(y.Sum() / y.size(), 1.0, 0.05);
}

// ----------------------------------------------------------------- Loss

TEST(LossTest, SoftmaxCrossEntropyUniformLogits) {
  Tensor logits({2, 4});  // all-zero logits -> uniform
  LossGrad lg = SoftmaxCrossEntropy(logits, {0, 3});
  EXPECT_NEAR(lg.loss, std::log(4.0), 1e-5);
}

TEST(LossTest, SoftmaxCrossEntropyGradCheck) {
  Rng rng(21);
  Tensor logits({3, 5});
  logits.FillGaussian(&rng, 1.0f);
  std::vector<int64_t> labels = {1, 4, 0};
  LossGrad lg = SoftmaxCrossEntropy(logits, labels);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const double numeric = (SoftmaxCrossEntropy(lp, labels).loss -
                            SoftmaxCrossEntropy(lm, labels).loss) /
                           (2.0 * eps);
    EXPECT_NEAR(lg.grad[i], numeric, 1e-3);
  }
}

TEST(LossTest, SoftCrossEntropyMatchesHardOnOneHot) {
  Rng rng(22);
  Tensor logits({4, 3});
  logits.FillGaussian(&rng, 1.0f);
  std::vector<int64_t> labels = {0, 1, 2, 1};
  LossGrad hard = SoftmaxCrossEntropy(logits, labels);
  LossGrad soft = SoftCrossEntropy(logits, OneHot(labels, 3));
  EXPECT_NEAR(hard.loss, soft.loss, 1e-5);
  for (int64_t i = 0; i < hard.grad.size(); ++i) {
    EXPECT_NEAR(hard.grad[i], soft.grad[i], 1e-6);
  }
}

TEST(LossTest, MseZeroAtTarget) {
  Tensor pred({2, 1}, {1.0f, 2.0f});
  LossGrad lg = MeanSquaredError(pred, pred);
  EXPECT_DOUBLE_EQ(lg.loss, 0.0);
  EXPECT_EQ(lg.grad[0], 0.0f);
}

TEST(LossTest, BinaryCrossEntropyGradientSign) {
  Tensor pred({2, 1}, {0.9f, 0.1f});
  LossGrad lg = BinaryCrossEntropy(pred, {1, 0});
  // Confident and correct: small-magnitude gradients.
  EXPECT_LT(std::abs(lg.grad[0]), 1.0f);
  EXPECT_LT(lg.loss, 0.2);
}

// ------------------------------------------------------------ Sequential

TEST(SequentialTest, ForwardBackwardShapeFlow) {
  Sequential net;
  net.Emplace<Dense>(4, 8).Emplace<ReLU>().Emplace<Dense>(8, 3);
  Rng rng(2);
  net.Init(&rng);
  Tensor x({5, 4});
  x.FillGaussian(&rng, 1.0f);
  Tensor y = net.Forward(x, CacheMode::kCache);
  EXPECT_EQ(y.shape(), (Shape{5, 3}));
  Tensor dx = net.Backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(SequentialTest, ParameterVectorRoundTrip) {
  Sequential net;
  net.Emplace<Dense>(3, 2);
  Rng rng(9);
  net.Init(&rng);
  std::vector<float> flat = net.GetParameterVector();
  EXPECT_EQ(static_cast<int64_t>(flat.size()), net.NumParams());
  Sequential copy = net.Clone();
  for (float& v : flat) v += 1.0f;
  copy.SetParameterVector(flat);
  std::vector<float> back = copy.GetParameterVector();
  for (size_t i = 0; i < flat.size(); ++i) EXPECT_EQ(back[i], flat[i]);
}

TEST(SequentialTest, CloneIsIndependent) {
  Sequential net;
  net.Emplace<Dense>(2, 2);
  Rng rng(1);
  net.Init(&rng);
  Sequential copy = net.Clone();
  Tensor x({1, 2}, {1.0f, 1.0f});
  Tensor y1 = net.Forward(x, CacheMode::kNoCache);
  Tensor y2 = copy.Forward(x, CacheMode::kNoCache);
  EXPECT_EQ(y1[0], y2[0]);
  (*net.Params()[0])[0] += 1.0f;
  Tensor y3 = copy.Forward(x, CacheMode::kNoCache);
  EXPECT_EQ(y2[0], y3[0]);  // clone unaffected
}

TEST(SequentialTest, CachedBytesDropAfterDropCaches) {
  Sequential net;
  net.Emplace<Dense>(8, 8).Emplace<ReLU>().Emplace<Dense>(8, 2);
  Rng rng(3);
  net.Init(&rng);
  Tensor x({16, 8});
  x.FillGaussian(&rng, 1.0f);
  net.Forward(x, CacheMode::kCache);
  EXPECT_GT(net.CachedBytes(), 0);
  net.DropCaches();
  EXPECT_EQ(net.CachedBytes(), 0);
}

TEST(SequentialTest, NoCacheForwardLeavesNoState) {
  Sequential net;
  net.Emplace<Dense>(4, 4).Emplace<ReLU>();
  Rng rng(4);
  net.Init(&rng);
  Tensor x({2, 4});
  x.FillGaussian(&rng, 1.0f);
  net.Forward(x, CacheMode::kNoCache);
  EXPECT_EQ(net.CachedBytes(), 0);
}

TEST(SequentialTest, FlattenRoundTripInCnnShape) {
  Sequential net;
  net.Emplace<Flatten>();
  Tensor x({2, 3, 4, 4});
  Tensor y = net.Forward(x, CacheMode::kCache);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  Tensor dx = net.Backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

}  // namespace
}  // namespace dlsys
