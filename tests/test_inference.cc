// Tests for the batched inference engine (src/infer): fp32 bitwise parity
// with the training forward across thread counts, ISAs and conv shapes, the
// arena's plan-once discipline, zero steady-state tensor allocations, the
// int8 path's exactness and accuracy envelope, and the graph pass
// pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/infer/arena.h"
#include "src/infer/engine.h"
#include "src/infer/passes.h"
#include "src/obs/counters.h"
#include "src/nn/conv.h"
#include "src/nn/layers.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.bytes())) == 0;
}

/// Pins an environment variable for a scope (nullptr unsets it) and
/// restores the prior value on exit.
class EnvOverride {
 public:
  EnvOverride(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~EnvOverride() {
    if (had_prev_) {
      setenv(name_.c_str(), prev_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_prev_ = false;
  std::string prev_;
};

/// Pins DLSYS_PASSES. The env var overrides EngineConfig::passes in every
/// Compile, so tests that assert graph structure must pin it — otherwise
/// the CI passes-off job (which exports DLSYS_PASSES=none for the whole
/// suite) would disable the rewrites they are asserting on.
class PassEnvOverride : public EnvOverride {
 public:
  explicit PassEnvOverride(const char* value)
      : EnvOverride("DLSYS_PASSES", value) {}
};

// ------------------------------------------------------------ TensorArena

TEST(TensorArenaTest, ReserveCommitResolve) {
  TensorArena arena;
  const TensorArena::BufferId f = arena.ReserveFloats(100);
  const TensorArena::BufferId q = arena.ReserveInt8s(33);
  EXPECT_FALSE(arena.committed());
  arena.Commit();
  EXPECT_TRUE(arena.committed());
  EXPECT_EQ(arena.buffer_count(), 2);
  EXPECT_EQ(arena.ElementCount(f), 100);
  EXPECT_EQ(arena.ElementCount(q), 33);
  EXPECT_GT(arena.total_bytes(), 0);
  // Every buffer is 64-byte aligned.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.Floats(f)) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.Int8s(q)) % 64, 0u);
  // Buffers are disjoint and writable end to end.
  float* pf = arena.Floats(f);
  for (int i = 0; i < 100; ++i) pf[i] = 1.0f;
  int8_t* pq = arena.Int8s(q);
  for (int i = 0; i < 33; ++i) pq[i] = -5;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(pf[i], 1.0f);
}

TEST(TensorArenaTest, RegistersWithMemoryTracker) {
  const int64_t before = MemoryTracker::Global().current_bytes();
  {
    TensorArena arena;
    arena.ReserveFloats(1024);
    arena.Commit();
    EXPECT_GE(MemoryTracker::Global().current_bytes() - before,
              1024 * static_cast<int64_t>(sizeof(float)));
  }
  EXPECT_EQ(MemoryTracker::Global().current_bytes(), before);
}

TEST(TensorArenaDeathTest, ReserveAfterCommitAborts) {
  TensorArena arena;
  arena.ReserveFloats(8);
  arena.Commit();
  // The in-place reuse guarantee: once the plan is frozen, any attempt to
  // grow the workspace is a planning bug and must abort loudly.
  EXPECT_DEATH(arena.ReserveFloats(8), "after Commit");
}

TEST(TensorArenaDeathTest, AccessBeforeCommitAborts) {
  TensorArena arena;
  const TensorArena::BufferId id = arena.ReserveFloats(8);
  EXPECT_DEATH(arena.Floats(id), "before Commit");
}

// -------------------------------------------------------- fp32 bit parity

/// An MLP exercising every supported rank-1 layer kind.
Sequential MakeMixedMlp() {
  Sequential net;
  net.Emplace<Dense>(16, 32);
  net.Emplace<BatchNorm1d>(32);
  net.Emplace<Tanh>();
  net.Emplace<Dense>(32, 24);
  net.Emplace<Sigmoid>();
  net.Emplace<Dropout>(0.3f);
  net.Emplace<Dense>(24, 4);
  return net;
}

TEST(InferenceEngineTest, MlpBitwiseMatchesSequentialAcrossThreads) {
  Rng rng(31);
  Sequential net = MakeMixedMlp();
  net.Init(&rng);
  // A few cached forwards move the BatchNorm running statistics off their
  // initial values, so the inference path has something real to fold in.
  Tensor warm({32, 16});
  warm.FillGaussian(&rng, 1.0f);
  net.Forward(warm, CacheMode::kCache);
  net.Forward(warm, CacheMode::kCache);

  Tensor x({13, 16});
  x.FillGaussian(&rng, 1.0f);
  RuntimeConfig::SetThreads(1);
  const Tensor ref = net.Forward(x, CacheMode::kNoCache);

  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{16});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  InferenceEngine engine = std::move(compiled).value();
  EXPECT_EQ(engine.output_elems_per_example(), 4);

  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    auto y = engine.Predict(x);
    ASSERT_TRUE(y.ok()) << y.status().ToString();
    EXPECT_TRUE(BitwiseEqual(*y, ref)) << "threads=" << threads;
  }
  RuntimeConfig::SetThreads(1);
}

/// A conv net and the per-example input shape it compiles for. The cases
/// give the implicit GEMM different zero borders, phase-plane layouts and
/// row tails: MakeCnn's 3x3 stride-1 pad-1 convs, then the shapes below.
/// A case with an empty batch \p x gets random weights and a Gaussian
/// batch of three; a probe brings its own weights and batch.
struct ConvCase {
  const char* label;
  Sequential net;
  Shape shape;
  Tensor x{};
};

/// A 1->1 3x3 pad-1 conv with weights \p w (row-major taps) and \p bias,
/// run on one 4x4 image filled with \p pixel. A clipped loop nest skips
/// the padding taps that the implicit GEMM adds as zero products; the
/// probes are data on which the two disagree.
ConvCase MakeConvProbe(const char* label, const std::vector<float>& w,
                       float bias, float pixel) {
  Sequential net;
  net.Emplace<Conv2D>(1, 1, 3, 1, 1);
  std::vector<Tensor*> params = net.Params();
  std::copy(w.begin(), w.end(), params[0]->data());
  params[1]->Fill(bias);
  Tensor x({1, 1, 4, 4});
  x.Fill(pixel);
  return {label, std::move(net), {1, 4, 4}, std::move(x)};
}

std::vector<ConvCase> MakeConvCases() {
  std::vector<ConvCase> cases;
  cases.push_back({"3x3_pad1", MakeCnn(12, 4, 6, 5), {1, 12, 12}});
  {
    // LeNet's first conv: 5x5 pad 2 keeps the extent.
    Sequential net;
    net.Emplace<Conv2D>(1, 4, 5, 1, 2);
    net.Emplace<ReLU>();
    net.Emplace<MaxPool2D>(2);
    net.Emplace<Flatten>();
    net.Emplace<Dense>(4 * 6 * 6, 5);
    cases.push_back({"5x5_pad2", std::move(net), {1, 12, 12}});
  }
  {
    // Stride 2, no padding, and no ReLU after the conv: ConvGemmBiasActInto
    // with relu off. 11 -> 5.
    Sequential net;
    net.Emplace<Conv2D>(2, 3, 3, 2, 0);
    net.Emplace<Flatten>();
    net.Emplace<Dense>(3 * 5 * 5, 4);
    cases.push_back({"stride2_pad0", std::move(net), {2, 11, 11}});
  }
  {
    // Stride 2, pad 1 on an odd extent: 13 -> 7, so the first and the
    // last output row each read one zero-border tap row.
    Sequential net;
    net.Emplace<Conv2D>(1, 6, 3, 2, 1);
    net.Emplace<ReLU>();
    net.Emplace<Flatten>();
    net.Emplace<Dense>(6 * 7 * 7, 3);
    cases.push_back({"stride2_pad1_odd", std::move(net), {1, 13, 13}});
  }
  {
    // Three input channels on a non-square plane, then a 5x5 pad-2 conv
    // wider than the pooled plane is tall: 10x14 -> 5x7.
    Sequential net;
    net.Emplace<Conv2D>(3, 5, 3, 1, 1);
    net.Emplace<ReLU>();
    net.Emplace<MaxPool2D>(2);
    net.Emplace<Conv2D>(5, 4, 5, 1, 2);
    net.Emplace<ReLU>();
    net.Emplace<Flatten>();
    net.Emplace<Dense>(4 * 5 * 7, 4);
    cases.push_back({"in_ch3", std::move(net), {3, 10, 14}});
  }
  {
    // Stride 3, pad 1, 5x5: the padded 14x13 plane splits into nine
    // ragged 5x5 phase planes per channel, and taps with ky or kx >= 3
    // read one phase row or column further on. 12x11 -> 4x3.
    Sequential net;
    net.Emplace<Conv2D>(2, 3, 5, 3, 1);
    net.Emplace<ReLU>();
    net.Emplace<Flatten>();
    net.Emplace<Dense>(3 * 4 * 3, 4);
    cases.push_back({"stride3_pad1", std::move(net), {2, 12, 11}});
  }
  {
    // A 1x1 kernel with no padding: one tap per input channel.
    Sequential net;
    net.Emplace<Conv2D>(3, 5, 1, 1, 0);
    net.Emplace<ReLU>();
    net.Emplace<Flatten>();
    net.Emplace<Dense>(5 * 6 * 7, 3);
    cases.push_back({"1x1_pad0", std::move(net), {3, 6, 7}});
  }
  {
    // A 37-wide output row: two full 16-lane tiles and a 5-lane tail on
    // AVX-512 (four full 8-lane tiles and a 5-lane tail on AVX2), and six
    // channels, so the last channel tile is short too.
    Sequential net;
    net.Emplace<Conv2D>(1, 6, 3, 1, 1);
    net.Emplace<ReLU>();
    net.Emplace<Flatten>();
    net.Emplace<Dense>(6 * 5 * 37, 3);
    cases.push_back({"wide_row_37", std::move(net), {1, 5, 37}});
  }
  {
    // A 5x5 pad-2 conv on a 3x3 plane: the kernel is wider than the
    // input, so every output reads the zero border on both sides.
    Sequential net;
    net.Emplace<Conv2D>(2, 4, 5, 1, 2);
    net.Emplace<Flatten>();
    net.Emplace<Dense>(4 * 3 * 3, 3);
    cases.push_back({"5x5_on_3x3", std::move(net), {2, 3, 3}});
  }
  {
    // MaxPool2D(3) on an 11x14 plane: 3x4 outputs, and the last two rows
    // and columns belong to no window.
    Sequential net;
    net.Emplace<Conv2D>(1, 4, 3, 1, 1);
    net.Emplace<ReLU>();
    net.Emplace<MaxPool2D>(3);
    net.Emplace<Flatten>();
    net.Emplace<Dense>(4 * 3 * 4, 3);
    cases.push_back({"pool3_remainder", std::move(net), {1, 11, 14}});
  }
  return cases;
}

TEST(InferenceEngineTest, CnnBitwiseMatchesSequential) {
  // Every conv shape, every supported ISA, threads 1/2/8: the engine's
  // output equals Sequential::Forward(kNoCache) bit for bit. The probes
  // add a -0.0 bias over a zero image, and an infinite weight on a tap
  // that reads the zero border; both outputs run one conv kernel, so
  // they agree on those bits too.
  Rng rng(32);
  const simd::Isa initial_isa = simd::ActiveIsa();
  std::vector<ConvCase> cases = MakeConvCases();
  const float inf = std::numeric_limits<float>::infinity();
  cases.push_back(MakeConvProbe(
      "probe_neg_zero_bias",
      {0.5f, 0.5f, 0.5f, 0.5f, -0.5f, -0.5f, 0.5f, -0.5f, -0.5f}, -0.0f,
      0.0f));
  cases.push_back(MakeConvProbe(
      "probe_inf_weight",
      {inf, 0.5f, 0.5f, 0.5f, 0.5f, 0.5f, 0.5f, 0.5f, 0.5f}, 0.25f, 1.0f));
  for (ConvCase& c : cases) {
    if (c.x.empty()) {
      c.net.Init(&rng);
      Shape batch_shape = c.shape;
      batch_shape.insert(batch_shape.begin(), 3);
      c.x = Tensor(batch_shape);
      c.x.FillGaussian(&rng, 1.0f);
    }
    RuntimeConfig::SetThreads(1);
    const Tensor ref = c.net.Forward(c.x, CacheMode::kNoCache);

    auto compiled = InferenceEngine::Compile(c.net, c.shape, EngineConfig{8});
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    InferenceEngine engine = std::move(compiled).value();
    for (simd::Isa isa :
         {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
      if (!simd::IsaSupported(isa)) continue;
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        auto y = engine.Predict(c.x);
        ASSERT_TRUE(y.ok()) << y.status().ToString();
        EXPECT_TRUE(BitwiseEqual(*y, ref))
            << c.label << " isa=" << simd::IsaName(isa)
            << " threads=" << threads;
      }
    }
    simd::SetIsa(initial_isa);
  }
  RuntimeConfig::SetThreads(1);
}

TEST(InferenceEngineTest, RepeatedCallsAreBitwiseStable) {
  Rng rng(33);
  Sequential net = MakeMlp(16, {32, 24}, 4);
  net.Init(&rng);
  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{16});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();

  Tensor big({16, 16}), small({3, 16});
  big.FillGaussian(&rng, 1.0f);
  small.FillGaussian(&rng, 1.0f);

  RuntimeConfig::SetThreads(8);
  const Tensor first = std::move(engine.Predict(big)).value();
  // Interleave a different batch size: workspace reuse across calls must
  // not leak one request's activations into the next.
  const Tensor small_out = std::move(engine.Predict(small)).value();
  const Tensor second = std::move(engine.Predict(big)).value();
  const Tensor small_again = std::move(engine.Predict(small)).value();
  RuntimeConfig::SetThreads(1);
  EXPECT_TRUE(BitwiseEqual(first, second));
  EXPECT_TRUE(BitwiseEqual(small_out, small_again));
}

TEST(InferenceEngineTest, BatchRowsMatchSingleExamplePredictions) {
  Rng rng(34);
  Sequential net = MakeMlp(16, {32}, 4);
  net.Init(&rng);
  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{8});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();
  Tensor x({8, 16});
  x.FillGaussian(&rng, 1.0f);
  const Tensor batched = std::move(engine.Predict(x)).value();
  for (int64_t i = 0; i < 8; ++i) {
    const Tensor one = SliceRows(x, i, i + 1);
    const Tensor single = std::move(engine.Predict(one)).value();
    EXPECT_TRUE(BitwiseEqual(single, SliceRows(batched, i, i + 1)))
        << "row " << i;
  }
}

TEST(InferenceEngineTest, SteadyStateMakesNoTensorAllocations) {
  Rng rng(35);
  Sequential net = MakeCnn(8, 3, 4, 3);
  net.Init(&rng);
  auto compiled = InferenceEngine::Compile(net, {1, 8, 8}, EngineConfig{4});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();

  Tensor in({4, 1, 8, 8});
  in.FillGaussian(&rng, 1.0f);
  Tensor out({4, engine.output_elems_per_example()});
  RuntimeConfig::SetThreads(8);
  ASSERT_TRUE(engine.PredictInto(in.data(), 4, out.data()).ok());  // warm

  const int64_t count_before = MemoryTracker::Global().allocation_count();
  for (int iter = 0; iter < 10; ++iter) {
    ASSERT_TRUE(engine.PredictInto(in.data(), 4, out.data()).ok());
  }
  RuntimeConfig::SetThreads(1);
  EXPECT_EQ(MemoryTracker::Global().allocation_count(), count_before)
      << "PredictInto allocated tensor memory in steady state";
}

// ------------------------------------------------------------- int8 path

TEST(Int8EngineTest, AccuracyWithinEnvelopeOnBlobsTask) {
  // The E1 setup of EXPERIMENTS.md at reduced scale: simulated 8-bit
  // weight quantization there held accuracy at 1.000; the real int8
  // execution path must stay within 0.02 of its own fp32 baseline.
  RuntimeConfig::SetThreads(4);
  Rng rng(17);
  Dataset data = MakeGaussianBlobs(2000, 16, 8, 3.0, &rng);
  TrainTestSplit split = Split(data, 0.8);
  Sequential net = MakeMlp(16, {96, 64}, 8);
  Rng init_rng(18);
  net.Init(&init_rng);
  Sgd opt(0.05, 0.9);
  TrainConfig config;
  config.epochs = 15;
  config.batch_size = 32;
  Train(&net, &opt, split.train, config);
  const double fp32_acc = Evaluate(&net, split.test).accuracy;
  ASSERT_GT(fp32_acc, 0.9);

  EngineConfig engine_config;
  engine_config.max_batch = 64;
  engine_config.numeric = EngineNumeric::kInt8;
  auto compiled = InferenceEngine::Compile(net, {16}, engine_config);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  InferenceEngine engine = std::move(compiled).value();

  int64_t hits = 0;
  const int64_t n = split.test.size();
  for (int64_t begin = 0; begin < n; begin += 64) {
    const int64_t end = std::min<int64_t>(begin + 64, n);
    const Tensor logits =
        std::move(engine.Predict(SliceRows(split.test.x, begin, end)))
            .value();
    const std::vector<int64_t> pred = ArgMaxRows(logits);
    for (int64_t i = 0; i < end - begin; ++i) {
      if (pred[static_cast<size_t>(i)] ==
          split.test.y[static_cast<size_t>(begin + i)]) {
        ++hits;
      }
    }
  }
  const double int8_acc = static_cast<double>(hits) / static_cast<double>(n);
  RuntimeConfig::SetThreads(1);
  EXPECT_GE(int8_acc, fp32_acc - 0.02)
      << "int8=" << int8_acc << " fp32=" << fp32_acc;
}

TEST(Int8EngineTest, DeterministicAcrossThreadCounts) {
  Rng rng(38);
  Sequential net = MakeMlp(16, {48}, 4);
  net.Init(&rng);
  EngineConfig config;
  config.max_batch = 8;
  config.numeric = EngineNumeric::kInt8;
  auto compiled = InferenceEngine::Compile(net, {16}, config);
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();
  Tensor x({8, 16});
  x.FillGaussian(&rng, 1.0f);
  RuntimeConfig::SetThreads(1);
  const Tensor ref = std::move(engine.Predict(x)).value();
  for (int threads : {2, 8}) {
    RuntimeConfig::SetThreads(threads);
    const Tensor y = std::move(engine.Predict(x)).value();
    EXPECT_TRUE(BitwiseEqual(y, ref)) << "threads=" << threads;
  }
  RuntimeConfig::SetThreads(1);
}

TEST(Int4EngineTest, AccuracyWithinEnvelopeOnBlobsTask) {
  // Same setup as the int8 envelope test; q4 weights (scale = max|block|/7)
  // are coarser, so the envelope widens to 0.05. Activations stay q8.
  RuntimeConfig::SetThreads(4);
  Rng rng(17);
  Dataset data = MakeGaussianBlobs(2000, 16, 8, 3.0, &rng);
  TrainTestSplit split = Split(data, 0.8);
  Sequential net = MakeMlp(16, {96, 64}, 8);
  Rng init_rng(18);
  net.Init(&init_rng);
  Sgd opt(0.05, 0.9);
  TrainConfig config;
  config.epochs = 15;
  config.batch_size = 32;
  Train(&net, &opt, split.train, config);
  const double fp32_acc = Evaluate(&net, split.test).accuracy;
  ASSERT_GT(fp32_acc, 0.9);

  EngineConfig engine_config;
  engine_config.max_batch = 64;
  engine_config.numeric = EngineNumeric::kInt4;
  auto compiled = InferenceEngine::Compile(net, {16}, engine_config);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  InferenceEngine engine = std::move(compiled).value();

  int64_t hits = 0;
  const int64_t n = split.test.size();
  for (int64_t begin = 0; begin < n; begin += 64) {
    const int64_t end = std::min<int64_t>(begin + 64, n);
    const Tensor logits =
        std::move(engine.Predict(SliceRows(split.test.x, begin, end)))
            .value();
    const std::vector<int64_t> pred = ArgMaxRows(logits);
    for (int64_t i = 0; i < end - begin; ++i) {
      if (pred[static_cast<size_t>(i)] ==
          split.test.y[static_cast<size_t>(begin + i)]) {
        ++hits;
      }
    }
  }
  const double int4_acc = static_cast<double>(hits) / static_cast<double>(n);
  RuntimeConfig::SetThreads(1);
  EXPECT_GE(int4_acc, fp32_acc - 0.05)
      << "int4=" << int4_acc << " fp32=" << fp32_acc;
}

TEST(QuantizedEngineTest, DeterministicAcrossThreadCountsAndIsas) {
  // Both quantized paths must be bitwise reproducible not only across
  // DLSYS_THREADS but across every dispatched SIMD ISA: int32 block dots
  // are exact and the float epilogue order is fixed per element.
  Rng rng(40);
  Sequential net = MakeMlp(16, {48}, 4);
  net.Init(&rng);
  Tensor x({8, 16});
  x.FillGaussian(&rng, 1.0f);
  const simd::Isa initial_isa = simd::ActiveIsa();
  for (EngineNumeric numeric : {EngineNumeric::kInt8, EngineNumeric::kInt4}) {
    EngineConfig config;
    config.max_batch = 8;
    config.numeric = numeric;
    auto compiled = InferenceEngine::Compile(net, {16}, config);
    ASSERT_TRUE(compiled.ok());
    InferenceEngine engine = std::move(compiled).value();
    RuntimeConfig::SetThreads(1);
    const Tensor ref = std::move(engine.Predict(x)).value();
    for (simd::Isa isa :
         {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
      if (!simd::IsaSupported(isa)) continue;
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        const Tensor y = std::move(engine.Predict(x)).value();
        EXPECT_TRUE(BitwiseEqual(y, ref))
            << "numeric=" << (numeric == EngineNumeric::kInt8 ? "int8" : "int4")
            << " isa=" << simd::IsaName(isa) << " threads=" << threads;
      }
    }
    simd::SetIsa(initial_isa);
  }
  RuntimeConfig::SetThreads(1);
}

// ------------------------------------------ pinned quantized engine outputs

/// SplitMix64's finalizer: the integer hash every parameter and input of
/// the pinned grid below is drawn from.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// k * unit with k a hash-drawn integer in [-range, range] and unit a
/// power of two: exactly representable, so the grid's values depend on no
/// libm routine.
float HashedFloat(uint64_t seed, uint64_t i, int64_t range, float unit) {
  const uint64_t span = static_cast<uint64_t>(2 * range + 1);
  const int64_t k =
      static_cast<int64_t>(Mix64(Mix64(seed) ^ i) % span) - range;
  return static_cast<float>(k) * unit;
}

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;

uint64_t Fnv1a(uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

/// FNV-1a over the output bits of the pinned grid, computed on the tree
/// before the SIMD q8 quantizer existed. The grid only uses IEEE + x /
/// on exactly representable values, so any change to a quantized kernel
/// that moves one output bit moves this digest.
constexpr uint64_t kQuantizedEngineDigest = 0x73ed0285b4399281ull;

TEST(QuantizedEngineTest, OutputsMatchPinnedDigest) {
  // The grid: input widths off the 32-element block, one and two hidden
  // layers, int8 and int4 weights, inputs scaled by 2^-20, 1 and 2^6,
  // batch 1..8. Every engine is compiled per DLSYS_PASSES setting and
  // then predicted under every supported ISA and thread count.
  const int64_t kWidths[] = {7, 45, 77};
  const std::vector<std::vector<int64_t>> kHidden = {{40}, {50, 33}};
  const float kScales[] = {0x1p-20f, 1.0f, 0x1p6f};
  const simd::Isa initial_isa = simd::ActiveIsa();
  for (const char* passes : {"none", "all"}) {
    PassEnvOverride env(passes);
    std::vector<InferenceEngine> engines;
    std::vector<int64_t> widths;
    uint64_t seed = 0;
    for (EngineNumeric numeric : {EngineNumeric::kInt8, EngineNumeric::kInt4}) {
      for (int64_t in : kWidths) {
        for (const std::vector<int64_t>& hidden : kHidden) {
          Sequential net = MakeMlp(in, hidden, 5);
          for (Tensor* p : net.Params()) {
            ++seed;
            for (int64_t i = 0; i < p->size(); ++i) {
              (*p)[i] =
                  HashedFloat(seed, static_cast<uint64_t>(i), 254, 0x1p-8f);
            }
          }
          EngineConfig config;
          config.max_batch = 8;
          config.numeric = numeric;
          auto compiled = InferenceEngine::Compile(net, {in}, config);
          ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
          engines.push_back(std::move(compiled).value());
          widths.push_back(in);
        }
      }
    }
    for (simd::Isa isa :
         {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
      if (!simd::IsaSupported(isa)) continue;
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        uint64_t digest = kFnvOffset;
        for (size_t e = 0; e < engines.size(); ++e) {
          for (float scale : kScales) {
            for (int64_t batch = 1; batch <= 8; ++batch) {
              Tensor x({batch, widths[e]});
              for (int64_t i = 0; i < x.size(); ++i) {
                x[i] = HashedFloat(1000 + e, static_cast<uint64_t>(i), 1000,
                                   0x1p-7f) *
                       scale;
              }
              const Tensor y = std::move(engines[e].Predict(x)).value();
              digest = Fnv1a(digest, y.data(), static_cast<size_t>(y.bytes()));
            }
          }
        }
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%016llx",
                      static_cast<unsigned long long>(digest));
        EXPECT_EQ(digest, kQuantizedEngineDigest)
            << "new digest " << hex << " passes=" << passes
            << " isa=" << simd::IsaName(isa) << " threads=" << threads;
      }
    }
    simd::SetIsa(initial_isa);
  }
  RuntimeConfig::SetThreads(1);
}

// --------------------------------------------------------- error statuses

/// A layer type the engine has no lowering for.
class MysteryLayer : public Layer {
 public:
  std::string name() const override { return "mystery"; }
  Tensor Forward(const Tensor& x, CacheMode mode) override {
    (void)mode;
    return x;
  }
  Tensor Backward(const Tensor& grad_output) override { return grad_output; }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<MysteryLayer>();
  }
};

TEST(InferenceEngineTest, CompileErrors) {
  Rng rng(39);
  Sequential mlp = MakeMlp(16, {8}, 4);
  mlp.Init(&rng);

  // Shape does not thread through the first Dense.
  auto bad_shape = InferenceEngine::Compile(mlp, {4, 4});
  ASSERT_FALSE(bad_shape.ok());
  EXPECT_EQ(bad_shape.status().code(), StatusCode::kInvalidArgument);

  // Malformed config.
  auto bad_batch = InferenceEngine::Compile(mlp, {16}, EngineConfig{0});
  ASSERT_FALSE(bad_batch.ok());
  EXPECT_EQ(bad_batch.status().code(), StatusCode::kInvalidArgument);

  // A max_batch whose workspace does not fit in int64 bytes is rejected
  // before the arena is sized. Unchecked, this net's byte counts wrap to
  // a negative count at 2^61 (an abort in TensorArena::Place) and to 0 at
  // 2^62 (a zero-byte workspace that Predict would overrun).
  for (const int64_t huge : {int64_t{1} << 61, int64_t{1} << 62,
                             std::numeric_limits<int64_t>::max()}) {
    auto compiled = InferenceEngine::Compile(mlp, {16}, EngineConfig(huge));
    ASSERT_FALSE(compiled.ok()) << "max_batch=" << huge;
    EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(compiled.status().message().find("max_batch"),
              std::string::npos)
        << compiled.status().message();
  }

  // Unknown layer type.
  Sequential odd;
  odd.Emplace<MysteryLayer>();
  auto unsupported = InferenceEngine::Compile(odd, {16});
  ASSERT_FALSE(unsupported.ok());
  EXPECT_EQ(unsupported.status().code(), StatusCode::kUnimplemented);
}

TEST(InferenceEngineTest, ConvWiderThanPaddedInputIsRejected) {
  // A 5x5 kernel on a 4x4 plane with no padding has no output position
  // at any stride; it must not round to a 1x1 output at stride >= 2.
  for (int64_t stride : {1, 2, 3}) {
    SCOPED_TRACE("stride=" + std::to_string(stride));
    const Conv2D conv(1, 1, 5, stride, 0);
    EXPECT_EQ(conv.OutExtent(4), 0);
    Sequential net;
    net.Emplace<Conv2D>(1, 1, 5, stride, 0);
    net.Emplace<Flatten>();
    auto compiled = InferenceEngine::Compile(net, {1, 4, 4});
    ASSERT_FALSE(compiled.ok());
    EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(compiled.status().message().find(conv.name()),
              std::string::npos)
        << compiled.status().message();
  }
}

TEST(InferenceEngineTest, PredictErrors) {
  Rng rng(40);
  Sequential net = MakeMlp(16, {8}, 4);
  net.Init(&rng);
  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{4});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();

  Tensor too_big({5, 16});
  auto over = engine.Predict(too_big);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);

  Tensor wrong_shape({2, 8});
  auto mis = engine.Predict(wrong_shape);
  ASSERT_FALSE(mis.ok());
  EXPECT_EQ(mis.status().code(), StatusCode::kInvalidArgument);

  Tensor ok_in({2, 16});
  EXPECT_TRUE(engine.Predict(ok_in).ok());
}

// ------------------------------------------------- graph pass pipeline

TEST(PassPipelineTest, Fp32BitwiseInvariantAcrossPassesIsasThreads) {
  // The acceptance bar for every rewrite pass: fp32 output with all
  // passes on is bitwise identical to the unfused (all-off) schedule and
  // to the training forward, at threads 1/2/8 under each supported ISA.
  // The fleet-shaped MLP (fleet_chaos's replica, 32->64->10 at max_batch
  // 8) runs at every batch 1-8, so each GEMM row-block height 1-4 and
  // both column tails meet the fused epilogue.
  Rng rng(50);
  Sequential mlp = MakeMlp(16, {32, 24}, 4);
  mlp.Init(&rng);
  Sequential mixed = MakeMixedMlp();
  mixed.Init(&rng);
  Tensor warm({32, 16});
  warm.FillGaussian(&rng, 1.0f);
  mixed.Forward(warm, CacheMode::kCache);
  Sequential cnn = MakeCnn(12, 4, 6, 5);
  cnn.Init(&rng);
  Sequential fleet = MakeMlp(32, {64}, 10);
  fleet.Init(&rng);

  struct Case {
    Sequential* net;
    Shape shape;
    Tensor x;
    const char* label;
    int64_t max_batch;
    std::vector<int64_t> batches;  ///< leading rows of x to predict
  };
  Tensor x_mlp({9, 16}), x_mixed({9, 16}), x_cnn({3, 1, 12, 12});
  Tensor x_fleet({8, 32});
  x_mlp.FillGaussian(&rng, 1.0f);
  x_mixed.FillGaussian(&rng, 1.0f);
  x_cnn.FillGaussian(&rng, 1.0f);
  x_fleet.FillGaussian(&rng, 1.0f);
  Case cases[] = {
      {&mlp, {16}, std::move(x_mlp), "mlp", 16, {9}},
      {&mixed, {16}, std::move(x_mixed), "mixed", 16, {9}},
      {&cnn, {1, 12, 12}, std::move(x_cnn), "cnn", 16, {3}},
      {&fleet, {32}, std::move(x_fleet), "fleet", 8,
       {1, 2, 3, 4, 5, 6, 7, 8}}};

  const simd::Isa initial_isa = simd::ActiveIsa();
  for (Case& c : cases) {
    RuntimeConfig::SetThreads(1);
    std::vector<Tensor> xs, refs;
    for (const int64_t b : c.batches) {
      xs.push_back(b == c.x.dim(0) ? c.x : SliceRows(c.x, 0, b));
      refs.push_back(c.net->Forward(xs.back(), CacheMode::kNoCache));
    }
    for (const char* passes : {"all", "none", "fuse", "fuse,pack"}) {
      PassEnvOverride env(passes);
      auto compiled = InferenceEngine::Compile(*c.net, c.shape,
                                               EngineConfig{c.max_batch});
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      InferenceEngine engine = std::move(compiled).value();
      for (simd::Isa isa :
           {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
        if (!simd::IsaSupported(isa)) continue;
        simd::SetIsa(isa);
        for (int threads : {1, 2, 8}) {
          RuntimeConfig::SetThreads(threads);
          for (size_t bi = 0; bi < xs.size(); ++bi) {
            auto y = engine.Predict(xs[bi]);
            ASSERT_TRUE(y.ok()) << y.status().ToString();
            EXPECT_TRUE(BitwiseEqual(*y, refs[bi]))
                << c.label << " passes=" << passes
                << " isa=" << simd::IsaName(isa) << " threads=" << threads
                << " batch=" << c.batches[bi];
          }
        }
      }
      simd::SetIsa(initial_isa);
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(PassPipelineTest, QuantizedOutputsIdenticalWithPassesOnAndOff) {
  // In the quantized paths the passes move *where* identical work happens
  // (weights fold at compile time, codes pass through layer boundaries),
  // so all-on and all-off must still agree bit for bit.
  Rng rng(51);
  Sequential net = MakeMlp(16, {48, 32}, 4);
  net.Init(&rng);
  Tensor x({8, 16});
  x.FillGaussian(&rng, 1.0f);
  for (EngineNumeric numeric : {EngineNumeric::kInt8, EngineNumeric::kInt4}) {
    EngineConfig config;
    config.max_batch = 8;
    config.numeric = numeric;
    Tensor ref;
    {
      PassEnvOverride env("none");
      auto compiled = InferenceEngine::Compile(net, {16}, config);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      ref = std::move(std::move(compiled).value().Predict(x)).value();
    }
    for (const char* passes : {"all", "fuse,quant_elim", "fold"}) {
      PassEnvOverride env(passes);
      auto compiled = InferenceEngine::Compile(net, {16}, config);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      InferenceEngine engine = std::move(compiled).value();
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        const Tensor y = std::move(engine.Predict(x)).value();
        EXPECT_TRUE(BitwiseEqual(y, ref))
            << "numeric="
            << (numeric == EngineNumeric::kInt8 ? "int8" : "int4")
            << " passes=" << passes << " threads=" << threads;
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(PassPipelineTest, FusionAbsorbsReluNodesIntoProducers) {
  Rng rng(52);
  Sequential net = MakeMlp(16, {32, 24}, 4);  // 3 dense + 2 relu layers
  net.Init(&rng);
  {
    PassEnvOverride env("none");
    auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{8});
    ASSERT_TRUE(compiled.ok());
    const InferenceEngine engine = std::move(compiled).value();
    EXPECT_EQ(engine.graph_node_count(), 5);
    EXPECT_EQ(engine.step_count(), 5);
    EXPECT_EQ(engine.pass_stats().fused, 0);
    EXPECT_FALSE(engine.pass_config().fuse);
  }
  {
    PassEnvOverride env("all");
    auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{8});
    ASSERT_TRUE(compiled.ok());
    const InferenceEngine engine = std::move(compiled).value();
    // Both relus fold into their dense producers; all three dense nodes
    // carry a fused epilogue.
    EXPECT_EQ(engine.graph_node_count(), 3);
    EXPECT_EQ(engine.step_count(), 3);
    EXPECT_EQ(engine.pass_stats().fused, 3);
  }
}

TEST(PassPipelineTest, QuantElimRequiresAdjacencyThroughFusion) {
  Rng rng(53);
  Sequential net = MakeMlp(16, {48, 32}, 4);
  net.Init(&rng);
  EngineConfig config;
  config.max_batch = 8;
  config.numeric = EngineNumeric::kInt8;
  {
    // Without fusion the relu between quantized denses blocks elision:
    // its fp32 output must materialize, so codes cannot pass through.
    PassEnvOverride env("quant_elim");
    auto compiled = InferenceEngine::Compile(net, {16}, config);
    ASSERT_TRUE(compiled.ok());
    EXPECT_EQ(std::move(compiled).value().pass_stats().quant_elided, 0);
  }
  {
    // Fusion runs first and absorbs the relus, making the dense layers
    // adjacent: both interior boundaries elide their quant/dequant pair.
    PassEnvOverride env("fuse,quant_elim");
    auto compiled = InferenceEngine::Compile(net, {16}, config);
    ASSERT_TRUE(compiled.ok());
    EXPECT_EQ(std::move(compiled).value().pass_stats().quant_elided, 2);
  }
}

TEST(PassPipelineTest, ConstantFoldingQuantizesWeightsAtCompileTime) {
  Rng rng(54);
  Sequential net = MakeMlp(16, {48}, 4);
  net.Init(&rng);
  EngineConfig config;
  config.max_batch = 8;
  config.numeric = EngineNumeric::kInt8;
  PassEnvOverride env("fold");
  auto compiled = InferenceEngine::Compile(net, {16}, config);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(std::move(compiled).value().pass_stats().folded, 2);
}

TEST(PassPipelineTest, LivenessPackingShrinksWorkspaceOnFunnelMlp) {
  // A funnel MLP (widths strictly shrinking) is where first-fit liveness
  // packing beats the ping-pong pair: the pair charges 2x the *widest*
  // activation, while packing overlaps wide early buffers with the
  // narrow late ones.
  Rng rng(55);
  Sequential net = MakeMlp(512, {256, 128, 64, 32}, 8);  // 9 layers
  net.Init(&rng);
  PassEnvOverride env("all");
  auto compiled = InferenceEngine::Compile(net, {512}, EngineConfig{8});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();
  EXPECT_LT(engine.workspace_bytes(), engine.unpacked_workspace_bytes())
      << "packed=" << engine.workspace_bytes()
      << " unpacked=" << engine.unpacked_workspace_bytes();

  // And packing must never *grow* the plan on any model.
  PassEnvOverride env_off("fuse,quant_elim,fold");
  auto unpacked = InferenceEngine::Compile(net, {512}, EngineConfig{8});
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(std::move(unpacked).value().workspace_bytes(),
            engine.unpacked_workspace_bytes());
}

TEST(PassPipelineTest, DlsysPassesEnvOverridesConfig) {
  Rng rng(56);
  Sequential net = MakeMlp(16, {32}, 4);
  net.Init(&rng);
  EngineConfig config;
  config.max_batch = 8;
  config.passes = PassConfig{false, false, false, false};
  {
    PassEnvOverride env("all");  // env wins over the all-off config
    auto compiled = InferenceEngine::Compile(net, {16}, config);
    ASSERT_TRUE(compiled.ok());
    const InferenceEngine engine = std::move(compiled).value();
    EXPECT_TRUE(engine.pass_config().fuse);
    EXPECT_TRUE(engine.pass_config().pack);
    EXPECT_GT(engine.pass_stats().fused, 0);
  }
  {
    PassEnvOverride env("fuse");  // single-pass spelling
    auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{8});
    ASSERT_TRUE(compiled.ok());
    const InferenceEngine engine = std::move(compiled).value();
    EXPECT_TRUE(engine.pass_config().fuse);
    EXPECT_FALSE(engine.pass_config().quant_elim);
    EXPECT_FALSE(engine.pass_config().fold);
    EXPECT_FALSE(engine.pass_config().pack);
  }
  {
    PassEnvOverride env(nullptr);  // no env: the config stands
    auto compiled = InferenceEngine::Compile(net, {16}, config);
    ASSERT_TRUE(compiled.ok());
    EXPECT_FALSE(std::move(compiled).value().pass_config().fuse);
  }
}

TEST(PassPipelineTest, BadDlsysPassesFailsCompileWithoutAborting) {
  // An environment knob must never abort the process (a server Publish
  // compiles an engine); a misspelt pass must not fall back silently
  // either, so Compile reports it.
  Rng rng(58);
  Sequential net = MakeMlp(16, {32}, 4);
  net.Init(&rng);
  PassEnvOverride env("fuse,bogus");
  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{8});
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(compiled.status().message().find("bogus"), std::string::npos)
      << compiled.status().ToString();
}

TEST(InferenceEngineTest, BadDlsysIsaFailsCompileWithoutAborting) {
  // Like DLSYS_PASSES: an unknown ISA must neither abort nor be silently
  // replaced by another table, so every Compile reports it — also after
  // the kernel table was resolved under a valid value.
  Rng rng(59);
  Sequential net = MakeMlp(16, {32}, 4);
  net.Init(&rng);
  ASSERT_TRUE(InferenceEngine::Compile(net, {16}, EngineConfig{8}).ok());
  EnvOverride env("DLSYS_ISA", "avx9");
  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{8});
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(compiled.status().message().find("avx9"), std::string::npos)
      << compiled.status().ToString();
}

TEST(RuntimeEnvTest, ThreadsEnvStatusAcceptsOnlyWholeCountsInRange) {
  // Only the status function reads these values: none of them is ever
  // resolved into a worker pool.
  for (const char* good : {"1", "4", "0008", "1024"}) {
    EnvOverride env("DLSYS_THREADS", good);
    EXPECT_TRUE(RuntimeConfig::ThreadsEnvStatus().ok()) << good;
  }
  for (const char* unset : {static_cast<const char*>(nullptr), ""}) {
    EnvOverride env("DLSYS_THREADS", unset);
    EXPECT_TRUE(RuntimeConfig::ThreadsEnvStatus().ok());
  }
  // Prefixes, signs, blanks, zero, and counts past kMaxThreads (one that
  // overflows an int among them) used to be truncated, narrowed or
  // silently replaced by the hardware count.
  for (const char* bad : {"abc", "4abc", "0", "-2", "+4", " 4", "4 ", "2.5",
                          "1025", "3000000000", "99999999999999999999"}) {
    EnvOverride env("DLSYS_THREADS", bad);
    const Status st = RuntimeConfig::ThreadsEnvStatus();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(st.message().find(std::string("DLSYS_THREADS=") + bad),
              std::string::npos)
        << st.ToString();
  }
}

TEST(InferenceEngineTest, BadDlsysThreadsFailsCompileWithoutAborting) {
  Rng rng(60);
  Sequential net = MakeMlp(16, {32}, 4);
  net.Init(&rng);
  {
    EnvOverride env("DLSYS_THREADS", "4abc");
    auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{8});
    ASSERT_FALSE(compiled.ok());
    EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(compiled.status().message().find("4abc"), std::string::npos)
        << compiled.status().ToString();
  }
  EXPECT_TRUE(InferenceEngine::Compile(net, {16}, EngineConfig{8}).ok());
}

TEST(RuntimeEnvDeathTest, BadThreadsEnvKeepsHardwareDefaultAndSaysSo) {
  // Kernels outside any engine have no caller to return a Status to: a
  // rejected DLSYS_THREADS keeps the hardware count and names the value
  // on stderr. The threadsafe style re-executes the binary, so the child
  // resolves its thread count afresh under the pinned value.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("DLSYS_THREADS", "4abc", 1);
        const unsigned hw = std::thread::hardware_concurrency();
        const int want = hw >= 1 ? static_cast<int>(hw) : 1;
        std::exit(RuntimeConfig::Threads() == want &&
                          RuntimeConfig::DefaultThreads() == want
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "DLSYS_THREADS=4abc");
}

TEST(PassPipelineTest, ParsePassListSpellings) {
  PassConfig c;
  EXPECT_TRUE(infer::ParsePassList("all", &c).ok());
  EXPECT_TRUE(c.fuse && c.quant_elim && c.fold && c.pack);
  EXPECT_TRUE(infer::ParsePassList("none", &c).ok());
  EXPECT_FALSE(c.fuse || c.quant_elim || c.fold || c.pack);
  EXPECT_TRUE(infer::ParsePassList("fold,pack", &c).ok());
  EXPECT_FALSE(c.fuse);
  EXPECT_FALSE(c.quant_elim);
  EXPECT_TRUE(c.fold);
  EXPECT_TRUE(c.pack);
  EXPECT_FALSE(infer::ParsePassList("warp_drive", &c).ok());
  EXPECT_FALSE(infer::ParsePassList("fuse,,pack", &c).ok());
}

#if DLSYS_OBS
TEST(PassPipelineTest, CompileExportsWorkspaceAndGraphGauges) {
  Rng rng(57);
  Sequential net = MakeMlp(16, {32, 24}, 4);
  net.Init(&rng);
  PassEnvOverride env("all");
  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{8});
  ASSERT_TRUE(compiled.ok());
  const InferenceEngine engine = std::move(compiled).value();
  obs::CounterRegistry& reg = obs::CounterRegistry::Global();
  EXPECT_EQ(reg.gauge("infer.workspace_bytes")->Value(),
            engine.workspace_bytes());
  EXPECT_EQ(reg.gauge("infer.graph.nodes")->Value(),
            engine.graph_node_count());
  EXPECT_EQ(reg.gauge("infer.graph.fused")->Value(),
            engine.pass_stats().fused);
}
#endif  // DLSYS_OBS

// ------------------------------------------------- liveness packing unit

TEST(PackLiveRangesTest, DisjointLifetimesShareOffsets) {
  // Two buffers alive at different steps first-fit into the same bytes.
  std::vector<int64_t> offsets;
  const int64_t total = infer::PackLiveRanges(
      {{256, 0, 1}, {256, 2, 3}}, &offsets);
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(offsets[0], offsets[1]);
  EXPECT_EQ(total, 256);
}

TEST(PackLiveRangesTest, OverlappingLifetimesGetDisjointRanges) {
  std::vector<int64_t> offsets;
  const int64_t total = infer::PackLiveRanges(
      {{100, 0, 2}, {100, 1, 3}, {100, 3, 4}}, &offsets);
  ASSERT_EQ(offsets.size(), 3u);
  // 0 and 1 overlap at step 1-2; 1 and 2 overlap at step 3; 0 and 2 are
  // disjoint, so the third buffer reuses the first's offset.
  EXPECT_NE(offsets[0], offsets[1]);
  EXPECT_EQ(offsets[2], offsets[0]);
  EXPECT_EQ(offsets[1] % 64, 0);
  EXPECT_EQ(total, 256);  // two 64-aligned 100-byte lanes
}

TEST(PackLiveRangesTest, OffsetsAreAlwaysAligned) {
  std::vector<int64_t> offsets;
  infer::PackLiveRanges({{1, 0, 9}, {65, 0, 9}, {128, 0, 9}, {0, 5, 5}},
                        &offsets);
  for (const int64_t off : offsets) EXPECT_EQ(off % 64, 0) << off;
}

// ------------------------------------------------- arena move + placement

TEST(TensorArenaTest, MoveTransfersCommittedStorage) {
  TensorArena arena;
  const TensorArena::BufferId id = arena.ReserveFloats(32);
  arena.Commit();
  float* data = arena.Floats(id);
  for (int i = 0; i < 32; ++i) data[i] = static_cast<float>(i);
  const int64_t bytes = arena.total_bytes();

  TensorArena moved(std::move(arena));
  EXPECT_TRUE(moved.committed());
  EXPECT_EQ(moved.total_bytes(), bytes);
  EXPECT_EQ(moved.Floats(id), data);  // same backing storage, same bits
  for (int i = 0; i < 32; ++i) EXPECT_EQ(data[i], static_cast<float>(i));

  TensorArena assigned;
  assigned.ReserveInt8s(16);
  assigned.Commit();
  assigned = std::move(moved);
  EXPECT_EQ(assigned.Floats(id), data);
  EXPECT_EQ(assigned.total_bytes(), bytes);
}

TEST(TensorArenaTest, PlacedBuffersResolveAtTheirOffsets) {
  TensorArena arena;
  const TensorArena::BufferId a = arena.PlaceFloats(0, 16, 0, 1);
  const TensorArena::BufferId b = arena.PlaceInt8s(64, 100, 0, 1);
  const TensorArena::BufferId c = arena.PlaceFloats(0, 16, 2, 3);  // reuse
  arena.Commit();
  uint8_t* base = reinterpret_cast<uint8_t*>(arena.Floats(a));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(base) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uint8_t*>(arena.Int8s(b)), base + 64);
  EXPECT_EQ(arena.Floats(c), arena.Floats(a));  // disjoint lifetimes alias
  EXPECT_GE(arena.total_bytes(), 64 + 100);
}

TEST(TensorArenaDeathTest, OverlappingLifetimesAtSameBytesAbort) {
  TensorArena arena;
  arena.PlaceFloats(0, 16, 0, 2);
  arena.PlaceFloats(0, 16, 1, 3);  // lifetimes intersect at steps 1-2
  EXPECT_DEATH(arena.Commit(), "overlapping-lifetime");
}

TEST(TensorArenaDeathTest, MisalignedPlaceAborts) {
  TensorArena arena;
  EXPECT_DEATH(arena.PlaceFloats(32, 16, 0, 1), "align");
}

}  // namespace
}  // namespace dlsys
