// Tests for the SIMD microkernel backend (src/simd): dispatch registry
// behavior, bit-parity of every per-ISA kernel table against the scalar
// reference (the implicit conv GEMM and the max pool against naive
// in-test loops, Dense::Backward's three gradients against NaiveMatMul
// over Transpose) at thread counts 1/2/8 on unaligned/tail shapes, block
// quantization round-trip error bounds (q8 and q4), the q4 nibble packing
// layout, the kernel.dispatch.* observability counters, and every table's
// CRC-32 against the byte-at-a-time loop it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/compress/quantization.h"
#include "src/core/rng.h"
#include "src/nn/layers.h"
#include "src/obs/counters.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"
#include "src/tensor/int8_gemm.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

/// Restores the ISA active at construction; tests force ISAs freely and
/// leave the process the way they found it (the binary may have been
/// launched under a DLSYS_ISA override that later tests rely on).
struct IsaRestore {
  simd::Isa prev = simd::ActiveIsa();
  ~IsaRestore() { simd::SetIsa(prev); }
};

std::vector<simd::Isa> SupportedIsas() {
  std::vector<simd::Isa> out;
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::IsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

bool BitwiseEqual(const float* a, const float* b, int64_t count) {
  return std::memcmp(a, b, static_cast<size_t>(count) * sizeof(float)) == 0;
}

const simd::KernelTable* TableFor(simd::Isa isa) {
  switch (isa) {
    case simd::Isa::kScalar:
      return simd::GetScalarTable();
    case simd::Isa::kAvx2:
      return simd::GetAvx2Table();
    case simd::Isa::kAvx512:
      return simd::GetAvx512Table();
  }
  return nullptr;
}

// GEMM extents that reach every SIMD tile path: the first row uses no
// multiple of the 4/8/16/32 vector and tile widths, so row-tail,
// column-tail and reduction-tail paths execute alongside the full-tile
// fast path. The second row is the served shapes (the fleet's 32->64->10
// MLP at batches 1, 2 and 8, LeNet's 128->10 layer at batch 16) plus
// every short row block 1-3, and column counts that are exact 16- and
// 32-wide multiples (16, 32, 64) beside 10- and 15-wide tails. The last
// row splits m into AVX-512's 8-row blocks and what follows them: 8 + 4,
// 8 + 4 + 3 and three 8-row blocks.
struct GemmShape {
  int64_t m, k, n;
};
const GemmShape kTailShapes[] = {
    {1, 1, 1},    {3, 7, 5},     {5, 31, 17},  {7, 33, 33},
    {13, 65, 47}, {33, 96, 80},  {2, 9, 23},   {6, 27, 50},
    {1, 32, 64},  {2, 64, 10},   {3, 32, 16},  {4, 17, 32},
    {8, 64, 10},  {9, 33, 15},   {16, 128, 10},
    {12, 19, 33}, {15, 33, 40},  {24, 40, 70},
};

/// Overwrites about one element in eight of \p t, at seeded positions,
/// with an IEEE special value: -0.0, a denormal of either sign, or +-inf.
/// Products and sums then meet signed zeros, gradual underflow, infinities
/// and the NaN of inf - inf or inf * 0, none of which may change a bit
/// between ISAs (no input is NaN, so every NaN is the one default NaN).
void PlantSpecials(Tensor* t, Rng* rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  const float specials[] = {-0.0f,    -0.0f, kDenorm * 3.0f, -kDenorm,
                            1.0e-39f, kInf,  -kInf};
  for (int64_t i = 0; i < t->size(); ++i) {
    if (rng->Next() % 8 == 0) {
      (*t)[i] = specials[rng->Next() % std::size(specials)];
    }
  }
}

TEST(DispatchTest, ParseIsaSpellings) {
  simd::Isa isa;
  EXPECT_TRUE(simd::ParseIsa("scalar", &isa));
  EXPECT_EQ(isa, simd::Isa::kScalar);
  EXPECT_TRUE(simd::ParseIsa("avx2", &isa));
  EXPECT_EQ(isa, simd::Isa::kAvx2);
  EXPECT_TRUE(simd::ParseIsa("avx512", &isa));
  EXPECT_EQ(isa, simd::Isa::kAvx512);
  EXPECT_FALSE(simd::ParseIsa("sse9", &isa));
  EXPECT_FALSE(simd::ParseIsa("", &isa));
}

TEST(DispatchTest, ScalarAlwaysSupportedAndComplete) {
  EXPECT_TRUE(simd::IsaSupported(simd::Isa::kScalar));
  const simd::KernelTable* table = simd::GetScalarTable();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->isa, simd::Isa::kScalar);
  EXPECT_NE(table->conv_gemm_bias_act_rows, nullptr);
  EXPECT_NE(table->max_pool, nullptr);
  EXPECT_NE(table->q8_gemm_rows, nullptr);
  EXPECT_NE(table->q4_gemm_rows, nullptr);
  EXPECT_NE(table->matmul_bias_act_range, nullptr);
  EXPECT_NE(table->q8_quantize_row, nullptr);
  EXPECT_NE(table->q8_bias_act_quantize_row, nullptr);
  EXPECT_NE(table->crc32_update, nullptr);
}

TEST(DispatchTest, SetIsaSelectsMatchingTable) {
  IsaRestore restore;
  for (simd::Isa isa : SupportedIsas()) {
    simd::SetIsa(isa);
    EXPECT_EQ(simd::ActiveIsa(), isa);
    const simd::KernelTable& table = simd::ActiveKernels();
    EXPECT_EQ(table.isa, isa);
    EXPECT_EQ(std::string(table.span_cat),
              std::string("kernel.") + simd::IsaName(isa));
  }
}

TEST(DispatchTest, BestSupportedIsaIsSupported) {
  EXPECT_TRUE(simd::IsaSupported(simd::BestSupportedIsa()));
}

TEST(DispatchDeathTest, BadIsaEnvKeepsBestTableAndSaysSo) {
  // Kernels used outside any engine have no caller to return a Status
  // to: a rejected DLSYS_ISA keeps the best supported table and names the
  // value on stderr, and the process goes on. The threadsafe style
  // re-executes the binary, so the child resolves its table afresh under
  // the pinned value.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("DLSYS_ISA", "avx9", 1);
        std::exit(simd::ActiveIsa() == simd::BestSupportedIsa() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "DLSYS_ISA=avx9");
}

TEST(DispatchTest, IsaEnvStatusNamesRejectedValue) {
  const char* prev = std::getenv("DLSYS_ISA");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("DLSYS_ISA", "avx9", 1);
  const Status unknown = simd::IsaEnvStatus();
  setenv("DLSYS_ISA", "scalar", 1);
  const Status scalar = simd::IsaEnvStatus();
  setenv("DLSYS_ISA", "", 1);
  const Status empty = simd::IsaEnvStatus();
  if (prev != nullptr) {
    setenv("DLSYS_ISA", saved.c_str(), 1);
  } else {
    unsetenv("DLSYS_ISA");
  }
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("avx9"), std::string::npos);
  EXPECT_TRUE(scalar.ok());
  EXPECT_TRUE(empty.ok());
}

#if DLSYS_OBS
TEST(DispatchTest, KernelLaunchesBumpDispatchCounters) {
  IsaRestore restore;
  Rng rng(31);
  Tensor a({4, 9}), b({9, 5});
  a.FillGaussian(&rng, 1.0f);
  b.FillGaussian(&rng, 1.0f);
  for (simd::Isa isa : SupportedIsas()) {
    simd::SetIsa(isa);
    const std::string name = std::string("kernel.dispatch.") +
                             simd::IsaName(isa);
    auto before = obs::CounterRegistry::Global().SnapshotCounters();
    Tensor c = MatMul(a, b);
    ASSERT_GT(c.size(), 0);
    auto after = obs::CounterRegistry::Global().SnapshotCounters();
    auto diff = obs::CounterRegistry::Diff(after, before);
    EXPECT_GE(diff[name], 1) << name;
  }
}
#endif  // DLSYS_OBS

// ------------------------------------------------- fp32 bit-parity matrix

TEST(SimdParityTest, FloatGemmBitwiseAcrossIsasAndThreads) {
  IsaRestore restore;
  Rng rng(32);
  for (const bool specials : {false, true}) {
    for (const GemmShape& s : kTailShapes) {
      Tensor a({s.m, s.k}), b({s.k, s.n});
      a.FillGaussian(&rng, 1.0f);
      b.FillGaussian(&rng, 1.0f);
      if (specials) {
        PlantSpecials(&a, &rng);
        PlantSpecials(&b, &rng);
      }
      const Tensor ref = NaiveMatMul(a, b);

      for (simd::Isa isa : SupportedIsas()) {
        simd::SetIsa(isa);
        for (int threads : {1, 2, 8}) {
          RuntimeConfig::SetThreads(threads);
          SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                       " threads=" + std::to_string(threads) + " m=" +
                       std::to_string(s.m) + " k=" + std::to_string(s.k) +
                       " n=" + std::to_string(s.n) +
                       " specials=" + std::to_string(specials));
          Tensor c = MatMul(a, b);
          EXPECT_TRUE(BitwiseEqual(c.data(), ref.data(), ref.size()));
        }
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(SimdParityTest, GemmRangesOverwriteNanFilledC) {
  // matmul_bias_act_range writes every element of its rows without
  // reading C first: called straight from each table on a NaN-filled C,
  // with a null bias and with a bias, over two ranges that split the
  // rows into full and short blocks, it gives the naive references'
  // bits. relu stays off: its clamp would map a leaked NaN to 0.
  Rng rng(36);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const GemmShape& s : kTailShapes) {
    Tensor a({s.m, s.k}), b({s.k, s.n}), bias({s.n});
    a.FillGaussian(&rng, 1.0f);
    b.FillGaussian(&rng, 1.0f);
    bias.FillGaussian(&rng, 1.0f);
    const Tensor ref = NaiveMatMul(a, b);
    Tensor ref_bias = ref;
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.n; ++j) ref_bias[i * s.n + j] += bias[j];
    }
    const int64_t split = s.m / 2;
    for (simd::Isa isa : SupportedIsas()) {
      const simd::KernelTable* t = TableFor(isa);
      SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) + " m=" +
                   std::to_string(s.m) + " k=" + std::to_string(s.k) +
                   " n=" + std::to_string(s.n));
      std::vector<float> c(static_cast<size_t>(s.m * s.n), nan);
      t->matmul_bias_act_range(a.data(), b.data(), nullptr, c.data(), 0,
                               split, s.k, s.n, /*relu=*/0);
      t->matmul_bias_act_range(a.data(), b.data(), nullptr, c.data(), split,
                               s.m, s.k, s.n, /*relu=*/0);
      EXPECT_TRUE(BitwiseEqual(c.data(), ref.data(), ref.size()));

      std::fill(c.begin(), c.end(), nan);
      t->matmul_bias_act_range(a.data(), b.data(), bias.data(), c.data(), 0,
                               split, s.k, s.n, /*relu=*/0);
      t->matmul_bias_act_range(a.data(), b.data(), bias.data(), c.data(),
                               split, s.m, s.k, s.n, /*relu=*/0);
      EXPECT_TRUE(BitwiseEqual(c.data(), ref_bias.data(), ref_bias.size()));
    }
  }
}

TEST(SimdParityTest, DenseBackwardBitwiseAcrossIsasAndThreads) {
  // Dense::Backward's three gradients against references that share no
  // GEMM code with it: dX = NaiveMatMul(G, Transpose(W)), dW =
  // NaiveMatMul(Transpose(X), G) (accumulated into zeroed gradients, and
  // a sum started at +0 is never -0, so the accumulation keeps its bits),
  // and db the column sums of G in ascending row order. Batches of 1 to
  // 32 rows (every AVX-512 row-block sequence: 1, 3, 8, 8 + 4,
  // 8 + 4 + 3, 3 x 8, 4 x 8) on widths that are no multiple of 16 or 32,
  // so both products meet short row blocks and column tails.
  struct DenseShape {
    int64_t rows, in, out;
  };
  const DenseShape kShapes[] = {{1, 37, 19},  {3, 20, 45},  {8, 50, 17},
                                {12, 33, 70}, {15, 19, 41}, {24, 70, 23},
                                {32, 41, 53}};
  IsaRestore restore;
  Rng rng(37);
  for (const bool specials : {false, true}) {
    for (const DenseShape& s : kShapes) {
      Tensor x({s.rows, s.in}), w({s.in, s.out}), g({s.rows, s.out});
      for (Tensor* t : {&x, &w, &g}) {
        t->FillGaussian(&rng, 1.0f);
        if (specials) PlantSpecials(t, &rng);
      }
      const Tensor ref_dx = NaiveMatMul(g, Transpose(w));
      const Tensor ref_dw = NaiveMatMul(Transpose(x), g);
      Tensor ref_db({s.out});
      for (int64_t i = 0; i < s.rows; ++i) {
        for (int64_t j = 0; j < s.out; ++j) ref_db[j] += g[i * s.out + j];
      }
      Dense layer(s.in, s.out);
      layer.weight() = w;
      for (simd::Isa isa : SupportedIsas()) {
        simd::SetIsa(isa);
        for (int threads : {1, 2, 8}) {
          RuntimeConfig::SetThreads(threads);
          SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                       " threads=" + std::to_string(threads) + " rows=" +
                       std::to_string(s.rows) + " in=" +
                       std::to_string(s.in) + " out=" +
                       std::to_string(s.out) +
                       " specials=" + std::to_string(specials));
          layer.ZeroGrads();
          layer.Forward(x, CacheMode::kCache);
          const Tensor dx = layer.Backward(g);
          const std::vector<Tensor*> grads = layer.Grads();
          EXPECT_TRUE(BitwiseEqual(dx.data(), ref_dx.data(), ref_dx.size()));
          EXPECT_TRUE(
              BitwiseEqual(grads[0]->data(), ref_dw.data(), ref_dw.size()));
          EXPECT_TRUE(
              BitwiseEqual(grads[1]->data(), ref_db.data(), ref_db.size()));
        }
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

/// One image's convolution for the implicit-GEMM tests: channels, kernel,
/// stride, pad and input extent. The list covers both LeNet convs, strides
/// 2 and 3 (ragged phase planes at stride 3, and even kernels whose taps
/// straddle phases), a 1x1 kernel, output rows with 16- and 8-lane tails,
/// rows of exactly 16 and 32 outputs (a row that ends on a tile edge) and
/// of 70 (two or more full tiles, then a tail), a kernel wider than its
/// input, channel counts that leave 1-3 channels for the last tile, and
/// 12 and 16 channels (an 8-row tile then a 4-row one, and two 8-row
/// tiles).
struct ConvShape {
  int64_t ic, oc, k, stride, pad, h, w;
};
const ConvShape kConvShapes[] = {
    {1, 4, 5, 1, 2, 28, 28}, {4, 8, 3, 1, 1, 14, 14}, {2, 3, 3, 2, 0, 11, 11},
    {1, 6, 3, 2, 1, 13, 13}, {2, 5, 5, 3, 1, 12, 11}, {3, 9, 4, 3, 2, 17, 19},
    {3, 2, 1, 1, 0, 6, 7},   {1, 6, 3, 1, 1, 5, 37},  {2, 7, 5, 1, 2, 3, 3},
    {1, 1, 1, 1, 0, 1, 1},   {2, 5, 4, 2, 1, 9, 40},  {2, 5, 3, 1, 1, 5, 16},
    {3, 6, 3, 1, 1, 4, 32},  {1, 9, 3, 1, 1, 3, 70},  {2, 12, 3, 1, 1, 6, 20},
    {3, 16, 3, 2, 1, 9, 35},
};

ConvGeometry GeometryOf(const ConvShape& s) {
  ConvGeometry g{s.ic, s.oc, s.k, s.stride, s.pad, s.h, s.w, 0, 0};
  g.ho = (s.h + 2 * s.pad - s.k) / s.stride + 1;
  g.wo = (s.w + 2 * s.pad - s.k) / s.stride + 1;
  return g;
}

/// Gaussian input, weights and bias for one conv shape; with \p specials,
/// PlantSpecials then seeds IEEE special values into all three.
struct ConvOperands {
  Tensor x, wgt, bias;
};
ConvOperands MakeConvOperands(const ConvShape& s, bool specials, Rng* rng) {
  ConvOperands o{Tensor({s.ic, s.h, s.w}), Tensor({s.oc, s.ic, s.k, s.k}),
                 Tensor({s.oc})};
  for (Tensor* t : {&o.x, &o.wgt, &o.bias}) t->FillGaussian(rng, 1.0f);
  if (specials) {
    for (Tensor* t : {&o.x, &o.wgt, &o.bias}) PlantSpecials(t, rng);
  }
  return o;
}

std::string ConvLabel(const ConvShape& s) {
  return "ic=" + std::to_string(s.ic) + " oc=" + std::to_string(s.oc) +
         " k=" + std::to_string(s.k) + " s=" + std::to_string(s.stride) +
         " p=" + std::to_string(s.pad) + " " + std::to_string(s.h) + "x" +
         std::to_string(s.w);
}

/// Independent convolution reference: per output, a float sum started at
/// +0, adding in (c, ky, kx) order the float product of the weight and
/// the zero-padded input (0 outside the image) — the terms the implicit
/// GEMM adds, padding taps included, so an infinite weight on the border
/// gives NaN here too — then the bias, then the optional relu clamp.
/// Plain loops over the input itself, sharing no code with the
/// phase-plane layout or any kernel table.
std::vector<float> NaiveConv(const Tensor& x, const Tensor& wgt,
                             const Tensor& bias, const ConvGeometry& g,
                             bool relu) {
  std::vector<float> y(static_cast<size_t>(g.out_ch * g.ho * g.wo));
  for (int64_t o = 0; o < g.out_ch; ++o) {
    for (int64_t oy = 0; oy < g.ho; ++oy) {
      for (int64_t ox = 0; ox < g.wo; ++ox) {
        float acc = 0.0f;
        for (int64_t c = 0; c < g.in_ch; ++c) {
          for (int64_t ky = 0; ky < g.kernel; ++ky) {
            for (int64_t kx = 0; kx < g.kernel; ++kx) {
              const int64_t iy = oy * g.stride - g.pad + ky;
              const int64_t ix = ox * g.stride - g.pad + kx;
              const bool inside = iy >= 0 && iy < g.h && ix >= 0 && ix < g.w;
              const float xv = inside ? x[(c * g.h + iy) * g.w + ix] : 0.0f;
              const float prod =
                  wgt[((o * g.in_ch + c) * g.kernel + ky) * g.kernel + kx] *
                  xv;
              acc += prod;
            }
          }
        }
        const float v = acc + bias[o];
        y[static_cast<size_t>((o * g.ho + oy) * g.wo + ox)] =
            relu ? (v > 0.0f ? v : 0.0f) : v;
      }
    }
  }
  return y;
}

/// Runs the implicit conv on every supported ISA and threads 1/2/8 and
/// expects \p ref bit for bit. The phase planes are rewritten from a
/// NaN-filled buffer and the output from -1s, so a plane element the
/// writer skips, or an output the kernel skips, shows.
void ExpectImplicitConvEquals(const Tensor& x, const Tensor& wgt,
                              const Tensor& bias, const ConvGeometry& g,
                              bool relu, const std::vector<float>& ref) {
  const std::vector<int64_t> off = ConvTapOffsets(g);
  ASSERT_EQ(static_cast<int64_t>(off.size()), g.taps());
  std::vector<float> planes(static_cast<size_t>(g.planes_elems()));
  std::vector<float> c(ref.size());
  for (simd::Isa isa : SupportedIsas()) {
    simd::SetIsa(isa);
    for (int threads : {1, 2, 8}) {
      RuntimeConfig::SetThreads(threads);
      SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                   " threads=" + std::to_string(threads) +
                   " relu=" + std::to_string(relu));
      std::fill(planes.begin(), planes.end(),
                std::numeric_limits<float>::quiet_NaN());
      std::fill(c.begin(), c.end(), -1.0f);
      ConvPhasePlanesInto(x.data(), g, planes.data());
      ConvGemmBiasActInto(wgt.data(), planes.data(), off.data(), bias.data(),
                          c.data(), g, relu);
      EXPECT_TRUE(BitwiseEqual(c.data(), ref.data(),
                               static_cast<int64_t>(ref.size())));
    }
  }
}

TEST(SimdParityTest, ConvGemmBiasBitwiseAcrossIsasAndThreads) {
  // The specials pass plants -0.0, denormals and infinities in the input,
  // the weights and the per-channel bias, so the bias-after-products
  // order meets signed zeros and the NaN of an infinite weight on a
  // padding tap.
  IsaRestore restore;
  Rng rng(33);
  for (const bool specials : {false, true}) {
    for (const ConvShape& s : kConvShapes) {
      SCOPED_TRACE(ConvLabel(s) + " specials=" + std::to_string(specials));
      const ConvGeometry g = GeometryOf(s);
      const ConvOperands o = MakeConvOperands(s, specials, &rng);
      ExpectImplicitConvEquals(o.x, o.wgt, o.bias, g, /*relu=*/false,
                               NaiveConv(o.x, o.wgt, o.bias, g, false));
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(SimdParityTest, MatMulBiasActBitwiseEqualsSeparatePasses) {
  // The fused-epilogue contract: MatMulBiasActInto must equal MatMulInto
  // followed by separate bias and relu output passes, bit for bit, at
  // every ISA and thread count — fusion may only remove stores/reloads,
  // never change a float operation. Gaussian data lands on both sides of
  // zero, so the relu branch takes both arms; the specials pass adds
  // -0.0, denormals and infinities to A, B and bias, so relu also meets
  // -0.0, NaN and -inf.
  IsaRestore restore;
  Rng rng(35);
  for (const bool specials : {false, true}) {
    for (const GemmShape& s : kTailShapes) {
      Tensor a({s.m, s.k}), b({s.k, s.n}), bias({s.n});
      a.FillGaussian(&rng, 1.0f);
      b.FillGaussian(&rng, 1.0f);
      bias.FillGaussian(&rng, 1.0f);
      if (specials) {
        PlantSpecials(&a, &rng);
        PlantSpecials(&b, &rng);
        PlantSpecials(&bias, &rng);
      }

      for (const bool relu : {false, true}) {
        // Reference: unfused pipeline on the scalar table, single thread.
        simd::SetIsa(simd::Isa::kScalar);
        RuntimeConfig::SetThreads(1);
        std::vector<float> ref(static_cast<size_t>(s.m * s.n));
        MatMulInto(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
        for (int64_t i = 0; i < s.m; ++i) {
          for (int64_t j = 0; j < s.n; ++j) {
            float& v = ref[static_cast<size_t>(i * s.n + j)];
            v += bias[j];
            if (relu) v = v > 0.0f ? v : 0.0f;
          }
        }
        std::vector<float> c(static_cast<size_t>(s.m * s.n));
        for (simd::Isa isa : SupportedIsas()) {
          simd::SetIsa(isa);
          for (int threads : {1, 2, 8}) {
            RuntimeConfig::SetThreads(threads);
            std::fill(c.begin(), c.end(), -1.0f);
            MatMulBiasActInto(a.data(), b.data(), bias.data(), c.data(), s.m,
                              s.k, s.n, relu);
            EXPECT_TRUE(BitwiseEqual(c.data(), ref.data(), s.m * s.n))
                << "isa=" << simd::IsaName(isa) << " threads=" << threads
                << " relu=" << relu << " m=" << s.m << " k=" << s.k
                << " n=" << s.n << " specials=" << specials;
          }
        }
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(SimdParityTest, ConvGemmBiasActBitwiseEqualsSeparateRelu) {
  // The fused relu must equal the unfused conv followed by a separate
  // `v > 0.0f ? v : 0.0f` pass over its output. The specials pass makes
  // the clamp meet -0.0, NaN and -inf, where max(v, 0) with its operands
  // swapped would differ.
  IsaRestore restore;
  Rng rng(36);
  for (const bool specials : {false, true}) {
    for (const ConvShape& s : kConvShapes) {
      SCOPED_TRACE(ConvLabel(s) + " specials=" + std::to_string(specials));
      const ConvGeometry g = GeometryOf(s);
      const ConvOperands o = MakeConvOperands(s, specials, &rng);
      std::vector<float> ref = NaiveConv(o.x, o.wgt, o.bias, g, false);
      for (float& v : ref) v = v > 0.0f ? v : 0.0f;
      ExpectImplicitConvEquals(o.x, o.wgt, o.bias, g, /*relu=*/true, ref);
    }
  }
  RuntimeConfig::SetThreads(1);
}

// ---------------------------------------------------------- max pool

/// The engine's pool loop before it became a kernel-table entry, copied:
/// the reference every ISA's max_pool entry must match bit for bit.
void NaiveMaxPool(const float* x, float* y, int64_t planes, int64_t h,
                  int64_t w, int64_t window) {
  const int64_t ho = h / window, wo = w / window;
  for (int64_t t = 0; t < planes; ++t) {
    const float* xplane = x + t * h * w;
    float* yplane = y + t * ho * wo;
    for (int64_t oy = 0; oy < ho; ++oy) {
      for (int64_t ox = 0; ox < wo; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        for (int64_t ky = 0; ky < window; ++ky) {
          const float* xrow = xplane + (oy * window + ky) * w + ox * window;
          for (int64_t kx = 0; kx < window; ++kx) {
            if (xrow[kx] > best) best = xrow[kx];
          }
        }
        yplane[oy * wo + ox] = best;
      }
    }
  }
}

uint32_t FloatBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(SimdParityTest, MaxPoolBitwiseAcrossIsasAndThreads) {
  // Windows 1-5, 8, 16, 17, 32 and 33 on extents with remainders (rows
  // and columns past the last window) and output rows wider than one
  // vector, whose last vector is partial. A load pair holds 16 floats on
  // AVX2 and 32 on AVX-512: the AVX-512 body carries 16, 16, 10, 8, 6, 4,
  // 2 and 1 outputs per vector for windows 1-5, 8, 16 and 17, AVX2 8, 8,
  // 5, 4, 3, 2, 1 and 1. Windows 16 and 32 end each window row's chunk
  // loop exactly on a pair boundary (one and two AVX2 pairs, one AVX-512
  // pair), and window 33 reads each row in two AVX-512 chunks, taps 0-31
  // and tap 32, or three AVX2 ones. Windows cycle
  // through five patterns: plain Gaussian data; all NaN (-inf out); NaN
  // first, then -inf and one finite value in the last row, in the last
  // or second-to-last column by turns (taps 32 and 31 at window 33, the
  // two sides of a chunk edge); and, on windows of 2 or more, negative
  // data with -0 and +0 at (0, 1) and (1, 0) in both orders. The fold is
  // row-major, so (0, 1) comes first: a column-first fold would return
  // the other zero.
  struct PoolShape {
    int64_t planes, h, w, window;
  };
  const PoolShape shapes[] = {
      {3, 5, 7, 1},    {2, 3, 35, 1},   {4, 28, 28, 2}, {8, 14, 14, 2},
      {3, 7, 37, 2},   {2, 9, 100, 3},  {2, 11, 14, 3}, {1, 2, 2, 2},
      {2, 10, 53, 3},  {2, 11, 46, 4},  {2, 12, 67, 5}, {2, 21, 59, 8},
      {2, 35, 53, 16}, {2, 35, 53, 17}, {2, 65, 103, 32}, {3, 67, 70, 33},
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  IsaRestore restore;
  Rng rng(37);
  for (const PoolShape& s : shapes) {
    SCOPED_TRACE("planes=" + std::to_string(s.planes) + " " +
                 std::to_string(s.h) + "x" + std::to_string(s.w) +
                 " window=" + std::to_string(s.window));
    const int64_t win = s.window, ho = s.h / win, wo = s.w / win;
    Tensor x({s.planes, s.h, s.w});
    x.FillGaussian(&rng, 1.0f);
    std::vector<uint32_t> want(static_cast<size_t>(s.planes * ho * wo));
    std::vector<bool> pinned(want.size(), false);
    for (int64_t t = 0; t < s.planes; ++t) {
      for (int64_t oy = 0; oy < ho; ++oy) {
        for (int64_t ox = 0; ox < wo; ++ox) {
          const int64_t o = (t * ho + oy) * wo + ox;
          const auto at = [&](int64_t ky, int64_t kx) -> float& {
            return x[(t * s.h + oy * win + ky) * s.w + ox * win + kx];
          };
          const int pattern = static_cast<int>(o % 5);
          if (pattern == 0) continue;
          for (int64_t ky = 0; ky < win; ++ky) {
            for (int64_t kx = 0; kx < win; ++kx) {
              float& v = at(ky, kx);
              v = pattern == 1   ? nan
                  : pattern == 2 ? -inf
                                 : -std::abs(v) - 1.0f;
            }
          }
          size_t idx = static_cast<size_t>(o);
          if (pattern == 1) {
            want[idx] = FloatBits(-inf);
            pinned[idx] = true;
          } else if (pattern == 2 && win >= 2) {
            at(0, 0) = nan;
            at(win - 1, win - 1 - (o / 5) % 2) = 0.25f;
            want[idx] = FloatBits(0.25f);
            pinned[idx] = true;
          } else if (pattern >= 3 && win >= 2) {
            const float first = pattern == 3 ? -0.0f : 0.0f;
            at(0, 1) = first;
            at(1, 0) = -first;
            want[idx] = FloatBits(first);
            pinned[idx] = true;
          }
        }
      }
    }
    std::vector<float> ref(want.size());
    NaiveMaxPool(x.data(), ref.data(), s.planes, s.h, s.w, win);
    for (size_t i = 0; i < want.size(); ++i) {
      if (pinned[i]) {
        EXPECT_EQ(FloatBits(ref[i]), want[i]) << "output " << i;
      }
    }

    std::vector<float> y(ref.size());
    for (simd::Isa isa : SupportedIsas()) {
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        std::fill(y.begin(), y.end(), -1.0f);
        MaxPoolInto(x.data(), y.data(), s.planes, s.h, s.w, win);
        EXPECT_TRUE(BitwiseEqual(y.data(), ref.data(),
                                 static_cast<int64_t>(ref.size())))
            << "isa=" << simd::IsaName(isa) << " threads=" << threads;
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

// ---------------------------------------------- integer bit-exactness

TEST(SimdParityTest, BlockGemmBitExactAcrossIsasAndThreads) {
  IsaRestore restore;
  Rng rng(35);
  // K values straddling block boundaries: 1 and 33 exercise the zero-code
  // padding, 32/64/96 the exact multiples.
  for (int64_t k : {int64_t{1}, int64_t{32}, int64_t{33}, int64_t{64},
                    int64_t{96}}) {
    const int64_t m = 5, n = 17;
    Tensor x({m, k}), w({n, k});
    x.FillGaussian(&rng, 1.0f);
    w.FillGaussian(&rng, 0.5f);
    Q8BlockMatrix qa = Q8BlockQuantizeRows(x);
    Q8BlockMatrix qb8 = Q8BlockQuantizeRows(w);
    Q4BlockMatrix qb4 = Q4BlockQuantizeRows(w);
    const int64_t kp = qa.padded_cols;
    ASSERT_EQ(kp, PadToQuantBlock(k));
    ASSERT_EQ(qb8.padded_cols, kp);
    ASSERT_EQ(qb4.padded_cols, kp);

    std::vector<float> ref8(static_cast<size_t>(m * n));
    std::vector<float> ref4(static_cast<size_t>(m * n));
    NaiveQ8BlockGemmTransBInto(qa.values.data(), qa.scales.data(),
                               qb8.values.data(), qb8.scales.data(),
                               ref8.data(), m, kp, n);
    NaiveQ4BlockGemmTransBInto(qa.values.data(), qa.scales.data(),
                               qb4.values.data(), qb4.scales.data(),
                               ref4.data(), m, kp, n);

    std::vector<float> c(static_cast<size_t>(m * n));
    for (simd::Isa isa : SupportedIsas()) {
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                     " threads=" + std::to_string(threads) +
                     " k=" + std::to_string(k));
        std::fill(c.begin(), c.end(), -1.0f);
        Q8BlockGemmTransBInto(qa.values.data(), qa.scales.data(),
                              qb8.values.data(), qb8.scales.data(), c.data(),
                              m, kp, n);
        EXPECT_TRUE(BitwiseEqual(c.data(), ref8.data(), m * n));
        std::fill(c.begin(), c.end(), -1.0f);
        Q4BlockGemmTransBInto(qa.values.data(), qa.scales.data(),
                              qb4.values.data(), qb4.scales.data(), c.data(),
                              m, kp, n);
        EXPECT_TRUE(BitwiseEqual(c.data(), ref4.data(), m * n));
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

// ------------------------------------------------- q8 quantizer parity

/// The q8 row quantizer as it stood before it became a kernel-table entry,
/// kept verbatim as an independent reference: one std::lround per element.
void ReferenceQ8QuantizeRow(const float* row, int64_t cols, int8_t* values,
                            float* scales) {
  const int64_t kp = PadToQuantBlock(cols);
  const int64_t nb = kp / kQuantBlock;
  for (int64_t b = 0; b < nb; ++b) {
    const int64_t j0 = b * kQuantBlock;
    const int64_t j1 = std::min<int64_t>(j0 + kQuantBlock, cols);
    float maxabs = 0.0f;
    for (int64_t j = j0; j < j1; ++j) {
      const float a = std::abs(row[j]);
      maxabs = a > maxabs ? a : maxabs;
    }
    const float scale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
    const float inv = 1.0f / scale;
    scales[b] = scale;
    for (int64_t j = j0; j < j1; ++j) {
      const long q = std::lround(row[j] * inv);
      values[j] = static_cast<int8_t>(std::clamp<long>(q, -127, 127));
    }
    for (int64_t j = j1; j < j0 + kQuantBlock; ++j) values[j] = 0;
  }
}

float FloatFromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Row generators for the quantizer parity test, each aimed at one corner
/// of the exactness argument in src/simd/kernels.h.
enum class QuantRowKind {
  kGaussian,    ///< ordinary activations
  kTies,        ///< exact +-k.5 ties and +-126.5 / +-127 after scaling
  kTinyMax,     ///< block max 0 or denormal: the scale underflows
  kNonFinite,   ///< Gaussian with +-inf and NaN mixed in
  kRandomBits,  ///< arbitrary 32-bit patterns
};

std::vector<float> MakeQuantRow(QuantRowKind kind, int64_t cols, Rng* rng) {
  std::vector<float> row(static_cast<size_t>(cols));
  switch (kind) {
    case QuantRowKind::kGaussian:
      for (float& v : row) v = static_cast<float>(rng->Gaussian(0.0, 3.0));
      break;
    case QuantRowKind::kTies: {
      // max = 127 * 2^e makes the scale 2^e and the inverse exact, so
      // (k + 0.5) * 2^e lands exactly on a tie after scaling.
      const float unit =
          std::ldexp(1.0f, static_cast<int>(rng->Next() % 41) - 20);
      const float edges[] = {126.5f, -126.5f, 127.0f, -127.0f};
      for (int64_t j = 0; j < cols; ++j) {
        const int64_t t = static_cast<int64_t>(rng->Next() % 253) - 126;
        const float half = (rng->Next() % 4 == 0) ? 0.0f : 0.5f;
        float v = static_cast<float>(t) + (t < 0 ? -half : half);
        if (rng->Next() % 8 == 0) v = edges[rng->Next() % 4];
        row[static_cast<size_t>(j)] = v * unit;
      }
      for (int64_t j = 0; j < cols; j += kQuantBlock) {
        row[static_cast<size_t>(j)] = edges[2 + rng->Next() % 2] * unit;
      }
      break;
    }
    case QuantRowKind::kTinyMax: {
      // Every block, the tail block included, gets a max of 0, a
      // denormal, or a tiny normal whose scale max/127 is denormal, so
      // inv = 1/scale is infinite (the scale underflows to 0 or its
      // inverse overflows) or huge there.
      const float maxes[] = {0.0f,    FloatFromBits(1), FloatFromBits(0x7F),
                             1e-40f,  1e-38f,           1e-37f,
                             1e-36f};
      for (int64_t j0 = 0; j0 < cols; j0 += kQuantBlock) {
        const float m = maxes[rng->Next() % (sizeof(maxes) / sizeof(maxes[0]))];
        for (int64_t j = j0; j < std::min(j0 + kQuantBlock, cols); ++j) {
          const uint64_t r = rng->Next() % 4;
          row[static_cast<size_t>(j)] =
              r == 0 ? 0.0f : r == 1 ? m : r == 2 ? -m : m * 0.5f;
        }
      }
      break;
    }
    case QuantRowKind::kNonFinite: {
      const float specials[] = {std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity(),
                                std::numeric_limits<float>::quiet_NaN(),
                                -std::numeric_limits<float>::quiet_NaN()};
      for (float& v : row) {
        v = rng->Next() % 6 == 0 ? specials[rng->Next() % 4]
                                 : static_cast<float>(rng->Gaussian());
      }
      break;
    }
    case QuantRowKind::kRandomBits:
      for (float& v : row) {
        v = FloatFromBits(static_cast<uint32_t>(rng->Next()));
      }
      break;
  }
  return row;
}

const int64_t kQuantCols[] = {1, 31, 32, 33, 97, 128, 200};
const QuantRowKind kQuantKinds[] = {
    QuantRowKind::kGaussian, QuantRowKind::kTies, QuantRowKind::kTinyMax,
    QuantRowKind::kNonFinite, QuantRowKind::kRandomBits};

TEST(QuantizerParityTest, EveryIsaMatchesLroundReference) {
  Rng rng(41);
  for (int64_t cols : kQuantCols) {
    const int64_t kp = PadToQuantBlock(cols);
    const int64_t nb = kp / kQuantBlock;
    std::vector<int8_t> ref_vals(static_cast<size_t>(kp));
    std::vector<float> ref_scales(static_cast<size_t>(nb));
    std::vector<int8_t> vals(static_cast<size_t>(kp));
    std::vector<float> scales(static_cast<size_t>(nb));
    for (QuantRowKind kind : kQuantKinds) {
      int mismatches = 0;
      for (int r = 0; r < 300; ++r) {
        const std::vector<float> row = MakeQuantRow(kind, cols, &rng);
        ReferenceQ8QuantizeRow(row.data(), cols, ref_vals.data(),
                               ref_scales.data());
        for (simd::Isa isa : SupportedIsas()) {
          const simd::KernelTable& table = *TableFor(isa);
          std::fill(vals.begin(), vals.end(), int8_t{55});
          std::fill(scales.begin(), scales.end(), -3.0f);
          table.q8_quantize_row(row.data(), cols, vals.data(), scales.data());
          const bool same =
              std::memcmp(vals.data(), ref_vals.data(), vals.size()) == 0 &&
              BitwiseEqual(scales.data(), ref_scales.data(), nb);
          if (!same && ++mismatches <= 3) {
            ADD_FAILURE() << "isa=" << simd::IsaName(isa) << " cols=" << cols
                          << " kind=" << static_cast<int>(kind) << " row=" << r;
          }
        }
      }
      EXPECT_EQ(mismatches, 0) << "cols=" << cols
                               << " kind=" << static_cast<int>(kind);
    }
  }
}

TEST(QuantizerParityTest, FusedEpilogueMatchesBiasReluThenLround) {
  Rng rng(42);
  for (int64_t cols : kQuantCols) {
    const int64_t kp = PadToQuantBlock(cols);
    const int64_t nb = kp / kQuantBlock;
    std::vector<int8_t> ref_vals(static_cast<size_t>(kp));
    std::vector<float> ref_scales(static_cast<size_t>(nb));
    std::vector<int8_t> vals(static_cast<size_t>(kp));
    std::vector<float> scales(static_cast<size_t>(nb));
    for (QuantRowKind kind : kQuantKinds) {
      for (int r = 0; r < 100; ++r) {
        const std::vector<float> x = MakeQuantRow(kind, cols, &rng);
        // Half the rows get a zero bias, so the special rows reach the
        // quantizer unchanged; the rest a Gaussian one.
        std::vector<float> bias(static_cast<size_t>(cols), 0.0f);
        if (r % 2 == 1) {
          for (float& v : bias) v = static_cast<float>(rng.Gaussian());
        }
        for (const int relu : {0, 1}) {
          std::vector<float> ref = x;
          for (size_t j = 0; j < ref.size(); ++j) {
            const float v = ref[j] + bias[j];
            ref[j] = relu != 0 ? (v > 0.0f ? v : 0.0f) : v;
          }
          ReferenceQ8QuantizeRow(ref.data(), cols, ref_vals.data(),
                                 ref_scales.data());
          for (simd::Isa isa : SupportedIsas()) {
            SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                         " cols=" + std::to_string(cols) +
                         " kind=" + std::to_string(static_cast<int>(kind)) +
                         " relu=" + std::to_string(relu));
            const simd::KernelTable& table = *TableFor(isa);
            std::vector<float> row = x;
            std::fill(vals.begin(), vals.end(), int8_t{55});
            std::fill(scales.begin(), scales.end(), -3.0f);
            table.q8_bias_act_quantize_row(row.data(), bias.data(), cols, relu,
                                           vals.data(), scales.data());
            ASSERT_TRUE(BitwiseEqual(row.data(), ref.data(), cols));
            ASSERT_EQ(std::memcmp(vals.data(), ref_vals.data(), vals.size()),
                      0);
            ASSERT_TRUE(BitwiseEqual(scales.data(), ref_scales.data(), nb));
            // Without a code buffer the entry is the bias/relu pass alone.
            row = x;
            table.q8_bias_act_quantize_row(row.data(), bias.data(), cols, relu,
                                           nullptr, nullptr);
            ASSERT_TRUE(BitwiseEqual(row.data(), ref.data(), cols));
          }
        }
      }
    }
  }
}

TEST(QuantizerParityTest, RowsIntoMatchesReferenceAcrossIsasAndThreads) {
  IsaRestore restore;
  Rng rng(43);
  const int64_t rows = 37;
  for (int64_t cols : kQuantCols) {
    const int64_t kp = PadToQuantBlock(cols);
    const int64_t nb = kp / kQuantBlock;
    std::vector<float> x;
    for (int64_t i = 0; i < rows; ++i) {
      const std::vector<float> row = MakeQuantRow(
          kQuantKinds[static_cast<size_t>(i) % std::size(kQuantKinds)], cols,
          &rng);
      x.insert(x.end(), row.begin(), row.end());
    }
    std::vector<int8_t> ref_vals(static_cast<size_t>(rows * kp));
    std::vector<float> ref_scales(static_cast<size_t>(rows * nb));
    for (int64_t i = 0; i < rows; ++i) {
      ReferenceQ8QuantizeRow(x.data() + i * cols, cols,
                             ref_vals.data() + i * kp,
                             ref_scales.data() + i * nb);
    }
    std::vector<int8_t> vals(ref_vals.size());
    std::vector<float> scales(ref_scales.size());
    for (simd::Isa isa : SupportedIsas()) {
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                     " threads=" + std::to_string(threads) +
                     " cols=" + std::to_string(cols));
        std::fill(vals.begin(), vals.end(), int8_t{55});
        std::fill(scales.begin(), scales.end(), -3.0f);
        Q8BlockQuantizeRowsInto(x.data(), rows, cols, vals.data(),
                                scales.data());
        EXPECT_EQ(std::memcmp(vals.data(), ref_vals.data(), vals.size()), 0);
        EXPECT_TRUE(BitwiseEqual(scales.data(), ref_scales.data(),
                                 rows * nb));
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

// ------------------------------------------------------------- crc32

/// The byte-at-a-time CRC-32 loop src/nn/serialize.cc ran before the
/// checksum became a kernel-table entry, on the raw register: the
/// reference every table's crc32_update must equal.
uint32_t NaiveCrc32Update(uint32_t crc, const uint8_t* p, int64_t n) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  for (int64_t i = 0; i < n; ++i) crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc;
}

std::vector<uint8_t> RandomBytes(size_t n, Rng* rng) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng->Next());
  return bytes;
}

TEST(Crc32Test, CheckValueOnEveryTable) {
  const char* check = "123456789";
  const auto* p = reinterpret_cast<const uint8_t*>(check);
  for (simd::Isa isa : SupportedIsas()) {
    const simd::KernelTable* table = TableFor(isa);
    ASSERT_NE(table->crc32_update, nullptr) << simd::IsaName(isa);
    EXPECT_EQ(table->crc32_update(0xFFFFFFFFu, p, 9) ^ 0xFFFFFFFFu,
              0xCBF43926u)
        << simd::IsaName(isa);
    EXPECT_EQ(table->crc32_update(0x12345678u, p, 0), 0x12345678u)
        << simd::IsaName(isa);
  }
}

TEST(Crc32Test, EveryTableEqualsByteLoopAtEveryLengthAndOffset) {
  // Lengths 0-300 reach every path: the scalar body alone below 64
  // bytes, one and several 64-byte fold steps, the 16-byte steps and
  // every tail length. Sixteen start offsets put every block at every
  // alignment; the register starts at a seeded value each time.
  Rng rng(71);
  const std::vector<uint8_t> buf = RandomBytes(300 + 16, &rng);
  for (simd::Isa isa : SupportedIsas()) {
    const simd::KernelTable* table = TableFor(isa);
    for (int64_t offset = 0; offset < 16; ++offset) {
      for (int64_t n = 0; n <= 300; ++n) {
        const uint32_t start = static_cast<uint32_t>(rng.Next());
        const uint8_t* p = buf.data() + offset;
        ASSERT_EQ(table->crc32_update(start, p, n),
                  NaiveCrc32Update(start, p, n))
            << "isa=" << simd::IsaName(isa) << " offset=" << offset
            << " n=" << n;
      }
    }
  }
}

TEST(Crc32Test, EveryTableEqualsByteLoopOnLongBuffersInAnyChunking) {
  // The three served models' payloads (fleet_chaos 11,048 B,
  // online_serve 22,056 B, LeNet 1,074,280 B) and 13 seeded lengths up to
  // 1 MB, one at each start offset 0-15. Each is checked in one call and
  // in a seeded chunking whose pieces straddle the 16- and 64-byte steps,
  // which must compose to the same register.
  Rng rng(72);
  constexpr int64_t kLeNetPayload = 1074280;
  const std::vector<uint8_t> buf = RandomBytes(kLeNetPayload + 16, &rng);
  std::vector<int64_t> lengths = {11048, 22056, kLeNetPayload};
  while (lengths.size() < 16) {
    lengths.push_back(301 + static_cast<int64_t>(rng.Index(1 << 20)));
  }
  for (size_t i = 0; i < lengths.size(); ++i) {
    const int64_t n = lengths[i];
    const int64_t offset = static_cast<int64_t>(i);
    const uint8_t* p = buf.data() + offset;
    const uint32_t start = static_cast<uint32_t>(rng.Next());
    const uint32_t want = NaiveCrc32Update(start, p, n);
    std::vector<int64_t> cuts;  // chunk sizes summing to n
    for (int64_t left = n; left > 0;) {
      const int64_t piece =
          std::min<int64_t>(left, rng.Bernoulli(0.5)
                                      ? static_cast<int64_t>(rng.Index(130))
                                      : static_cast<int64_t>(rng.Index(70000)));
      cuts.push_back(piece);
      left -= piece;
    }
    for (simd::Isa isa : SupportedIsas()) {
      const simd::KernelTable* table = TableFor(isa);
      SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                   " n=" + std::to_string(n) +
                   " offset=" + std::to_string(offset));
      EXPECT_EQ(table->crc32_update(start, p, n), want);
      uint32_t chunked = start;
      const uint8_t* q = p;
      for (int64_t piece : cuts) {
        chunked = table->crc32_update(chunked, q, piece);
        q += piece;
      }
      EXPECT_EQ(chunked, want) << cuts.size() << " chunks";
    }
  }
}

// ------------------------------------------- block quantization formats

TEST(BlockQuantTest, Q8RoundTripWithinHalfScale) {
  Rng rng(36);
  const int64_t rows = 7, cols = 75;  // pads to 96
  Tensor x({rows, cols});
  x.FillGaussian(&rng, 2.0f);
  Q8BlockMatrix q = Q8BlockQuantizeRows(x);
  EXPECT_EQ(q.rows, rows);
  EXPECT_EQ(q.cols, cols);
  EXPECT_EQ(q.padded_cols, PadToQuantBlock(cols));
  Tensor deq = q.Dequantize();
  ASSERT_EQ(deq.dim(0), rows);
  ASSERT_EQ(deq.dim(1), cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      const float scale =
          q.scales[static_cast<size_t>(i * (q.padded_cols / kQuantBlock) +
                                       j / kQuantBlock)];
      EXPECT_LE(std::abs(x[i * cols + j] - deq[i * cols + j]),
                0.5f * scale + 1e-7f)
          << "row " << i << " col " << j;
    }
  }
  // Padding codes are zero so they contribute exactly nothing to a dot.
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = cols; j < q.padded_cols; ++j) {
      EXPECT_EQ(q.values[static_cast<size_t>(i * q.padded_cols + j)], 0);
    }
  }
}

TEST(BlockQuantTest, Q4RoundTripWithinHalfScale) {
  Rng rng(37);
  const int64_t rows = 5, cols = 40;  // pads to 64
  Tensor x({rows, cols});
  x.FillGaussian(&rng, 1.0f);
  Q4BlockMatrix q = Q4BlockQuantizeRows(x);
  Tensor deq = q.Dequantize();
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      const float scale =
          q.scales[static_cast<size_t>(i * (q.padded_cols / kQuantBlock) +
                                       j / kQuantBlock)];
      EXPECT_LE(std::abs(x[i * cols + j] - deq[i * cols + j]),
                0.5f * scale + 1e-7f)
          << "row " << i << " col " << j;
    }
  }
  // q4 halves the weight bytes again vs q8 (16 bytes per 32-element block).
  EXPECT_EQ(static_cast<int64_t>(q.values.size()),
            rows * q.padded_cols / 2);
}

TEST(BlockQuantTest, ZeroBlockQuantizesExactly) {
  Tensor x({1, 64});  // two blocks, all zeros
  Q8BlockMatrix q8 = Q8BlockQuantizeRows(x);
  Q4BlockMatrix q4 = Q4BlockQuantizeRows(x);
  Tensor d8 = q8.Dequantize();
  Tensor d4 = q4.Dequantize();
  for (int64_t j = 0; j < 64; ++j) {
    EXPECT_EQ(d8[j], 0.0f);
    EXPECT_EQ(d4[j], 0.0f);
  }
}

TEST(BlockQuantTest, Q4NibbleLayoutMatchesContract) {
  // Verify the documented packing directly against Dequantize: byte t of a
  // block holds element t in the low nibble and element 16+t in the high
  // nibble, stored code = q + 8.
  Rng rng(38);
  Tensor x({1, 32});
  x.FillGaussian(&rng, 1.0f);
  Q4BlockMatrix q = Q4BlockQuantizeRows(x);
  Tensor deq = q.Dequantize();
  const float scale = q.scales[0];
  for (int t = 0; t < 16; ++t) {
    const uint8_t byte = q.values[static_cast<size_t>(t)];
    const int lo = static_cast<int>(byte & 0x0F) - 8;
    const int hi = static_cast<int>(byte >> 4) - 8;
    EXPECT_GE(lo, -7);  // quantizer emits [-7, 7]; -8 is never produced
    EXPECT_LE(lo, 7);
    EXPECT_GE(hi, -7);
    EXPECT_LE(hi, 7);
    EXPECT_EQ(deq[t], static_cast<float>(lo) * scale);
    EXPECT_EQ(deq[16 + t], static_cast<float>(hi) * scale);
  }
}

TEST(BlockQuantTest, QuantizeRowsIntoMatchesAllocatingPath) {
  Rng rng(39);
  const int64_t rows = 6, cols = 33;
  Tensor x({rows, cols});
  x.FillGaussian(&rng, 1.5f);
  Q8BlockMatrix ref = Q8BlockQuantizeRows(x);
  const int64_t kp = ref.padded_cols;
  std::vector<int8_t> vals(static_cast<size_t>(rows * kp), 42);
  std::vector<float> scales(static_cast<size_t>(rows * kp / kQuantBlock),
                            -1.0f);
  Q8BlockQuantizeRowsInto(x.data(), rows, cols, vals.data(), scales.data());
  EXPECT_EQ(std::memcmp(vals.data(), ref.values.data(), vals.size()), 0);
  EXPECT_EQ(std::memcmp(scales.data(), ref.scales.data(),
                        scales.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace dlsys
