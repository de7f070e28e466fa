#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

/// \file kernels_scalar.cc
/// \brief The always-available reference kernels, compiled with the
/// kernel TUs' flags (-O3 -march=native -ffp-contract=off via
/// src/CMakeLists.txt). The fp32 GEMMs are the pre-dispatch loop nests of
/// src/tensor/ops.cc, with the short row blocks and column tails zeroing
/// their part of C before adding onto it; the conv GEMM is a register
/// tile over the implicit-GEMM phase planes, the one conv forward that
/// Conv2D and the inference engine both run; the max pool is the
/// engine's pool loop. Every entry here, the q8/q4 block kernels and the
/// q8 quantizer included, is the reference the SIMD variants bit-compare
/// against, so a -DDLSYS_SIMD=OFF or DLSYS_ISA=scalar run gives the same
/// bits as any other table.

namespace dlsys {
namespace simd {

// ---------------------------------------------------------------- fp32
//
// Tile shape: kMr x kNr floats of C held in registers across the whole
// p loop. The accumulation order for any single C element is ascending-p,
// one float multiply then one add per term — the contract every other ISA
// reproduces exactly.

namespace {
constexpr int64_t kMr = 4;   // C rows per register tile
constexpr int64_t kNr = 32;  // C columns per register tile
}  // namespace

void MatMulRangeScalar(const float* a, const float* b, float* c, int64_t i0,
                       int64_t i1, int64_t k, int64_t n) {
  const float* pa = a;
  const float* pb = b;
  float* pc = c;
  for (int64_t i = i0; i < i1; i += kMr) {
    const int64_t ir = std::min<int64_t>(kMr, i1 - i);
    int64_t j = 0;
    for (; j + kNr <= n && ir == kMr; j += kNr) {
      float acc[kMr][kNr] = {};
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = pb + p * n + j;
        for (int64_t ii = 0; ii < kMr; ++ii) {
          const float av = pa[(i + ii) * k + p];
          for (int64_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += av * brow[jj];
        }
      }
      for (int64_t ii = 0; ii < kMr; ++ii) {
        float* crow = pc + (i + ii) * n + j;
        for (int64_t jj = 0; jj < kNr; ++jj) crow[jj] = acc[ii][jj];
      }
    }
    // Edge tiles (tail columns, or a short row block): plain loops with
    // the same +0 start and ascending-p accumulation order per element.
    for (int64_t ii = 0; ii < ir; ++ii) {
      const float* arow = pa + (i + ii) * k;
      float* crow = pc + (i + ii) * n;
      std::fill(crow + j, crow + n, 0.0f);
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        const float* brow = pb + p * n;
        for (int64_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
      }
    }
  }
}

void MatMulTransARangeScalar(const float* a, const float* b, float* c,
                             int64_t i0, int64_t i1, int64_t k, int64_t m,
                             int64_t n) {
  const float* pa = a;
  const float* pb = b;
  float* pc = c;
  for (int64_t i = i0; i < i1; i += kMr) {
    const int64_t ir = std::min<int64_t>(kMr, i1 - i);
    int64_t j = 0;
    for (; j + kNr <= n && ir == kMr; j += kNr) {
      float acc[kMr][kNr] = {};
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = pb + p * n + j;
        const float* acol = pa + p * m + i;
        for (int64_t ii = 0; ii < kMr; ++ii) {
          const float av = acol[ii];
          for (int64_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += av * brow[jj];
        }
      }
      for (int64_t ii = 0; ii < kMr; ++ii) {
        float* crow = pc + (i + ii) * n + j;
        for (int64_t jj = 0; jj < kNr; ++jj) crow[jj] = acc[ii][jj];
      }
    }
    for (int64_t ii = 0; ii < ir; ++ii) {
      float* crow = pc + (i + ii) * n;
      std::fill(crow + j, crow + n, 0.0f);
      for (int64_t p = 0; p < k; ++p) {
        const float av = pa[p * m + i + ii];
        const float* brow = pb + p * n;
        for (int64_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
      }
    }
  }
}

void MatMulTransBRangeScalar(const float* a, const float* b, float* c,
                             int64_t i0, int64_t i1, int64_t k, int64_t n) {
  const float* pa = a;
  const float* pb = b;
  float* pc = c;
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = pa + i * k;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = pb + (j + 0) * k;
      const float* b1 = pb + (j + 1) * k;
      const float* b2 = pb + (j + 2) * k;
      const float* b3 = pb + (j + 3) * k;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        s0 += av * b0[p];
        s1 += av * b1[p];
        s2 += av * b2[p];
        s3 += av * b3[p];
      }
      pc[i * n + j + 0] = static_cast<float>(s0);
      pc[i * n + j + 1] = static_cast<float>(s1);
      pc[i * n + j + 2] = static_cast<float>(s2);
      pc[i * n + j + 3] = static_cast<float>(s3);
    }
    for (; j < n; ++j) {
      const float* brow = pb + j * k;
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      pc[i * n + j] = static_cast<float>(s);
    }
  }
}

// Conv GEMM, implicit: output rows [oy0, oy1) of one image, every
// channel. Tap p's B row for output row oy is the contiguous run
// planes + tap_off[p] + oy * row_stride, read straight from the phase
// planes the caller wrote. Register tile: kConvMr output channels x
// kConvNr positions of one output row, double accumulators each started
// at its channel's bias. Per tap p the tile reads one contiguous run of
// its B row and reuses it for every channel: float multiply, widen,
// double add, ascending p — the operation sequence every ISA
// reproduces. relu (when set) clamps each element as it is stored.

namespace {
constexpr int64_t kConvMr = 4;   // output channels per register tile
constexpr int64_t kConvNr = 16;  // output positions per register tile

inline float ConvAct(double acc, int relu) {
  const float v = static_cast<float>(acc);
  return relu != 0 ? (v > 0.0f ? v : 0.0f) : v;
}

/// A four-channel tile: channels [i, i + 4) at the nr <= kConvNr
/// positions whose tap-p run starts at b + tap_off[p] and whose channel-0
/// outputs start at c (channel stride cs). A short tile (kShort) reads
/// only its nr positions, treating the rest of the run as zeros it never
/// stores. One named accumulator row per channel (not a 2-D array) is
/// what lets the compiler keep all four rows in vector registers.
template <bool kShort>
void ConvTileScalar(const float* a, const float* b, const int64_t* tap_off,
                    const float* bias, float* c, int64_t k, int64_t cs,
                    int64_t i, int64_t nr, int relu) {
  double s0[kConvNr], s1[kConvNr], s2[kConvNr], s3[kConvNr];
  for (int64_t jj = 0; jj < kConvNr; ++jj) {
    s0[jj] = static_cast<double>(bias[i + 0]);
    s1[jj] = static_cast<double>(bias[i + 1]);
    s2[jj] = static_cast<double>(bias[i + 2]);
    s3[jj] = static_cast<double>(bias[i + 3]);
  }
  const float* a0 = a + i * k;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = b + tap_off[p];
    const float w0 = a0[p], w1 = a1[p], w2 = a2[p], w3 = a3[p];
    for (int64_t jj = 0; jj < kConvNr; ++jj) {
      const float bv = !kShort || jj < nr ? brow[jj] : 0.0f;
      s0[jj] += w0 * bv;
      s1[jj] += w1 * bv;
      s2[jj] += w2 * bv;
      s3[jj] += w3 * bv;
    }
  }
  float* c0 = c + i * cs;
  for (int64_t jj = 0; jj < (kShort ? nr : kConvNr); ++jj) {
    c0[jj] = ConvAct(s0[jj], relu);
    c0[cs + jj] = ConvAct(s1[jj], relu);
    c0[2 * cs + jj] = ConvAct(s2[jj], relu);
    c0[3 * cs + jj] = ConvAct(s3[jj], relu);
  }
}

/// An edge tile (fewer than four channels): the same chain, one element
/// at a time.
void ConvEdgeScalar(const float* a, const float* b, const int64_t* tap_off,
                    const float* bias, float* c, int64_t k, int64_t cs,
                    int64_t i, int64_t mr, int64_t nr, int relu) {
  for (int64_t ii = i; ii < i + mr; ++ii) {
    const float* arow = a + ii * k;
    for (int64_t jj = 0; jj < nr; ++jj) {
      double acc = static_cast<double>(bias[ii]);
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * b[tap_off[p] + jj];
      c[ii * cs + jj] = ConvAct(acc, relu);
    }
  }
}
}  // namespace

void ConvGemmBiasActRowsScalar(const float* a, const float* planes,
                               const int64_t* tap_off, int64_t row_stride,
                               const float* bias, float* c, int64_t m,
                               int64_t k, int64_t ho, int64_t wo, int64_t oy0,
                               int64_t oy1, int relu) {
  const int64_t cs = ho * wo;
  for (int64_t oy = oy0; oy < oy1; ++oy) {
    for (int64_t j = 0; j < wo; j += kConvNr) {
      const int64_t nr = std::min(kConvNr, wo - j);
      const float* b = planes + oy * row_stride + j;
      float* crow = c + oy * wo + j;
      for (int64_t i = 0; i < m; i += kConvMr) {
        const int64_t mr = std::min(kConvMr, m - i);
        if (mr == kConvMr && nr == kConvNr) {
          ConvTileScalar<false>(a, b, tap_off, bias, crow, k, cs, i, nr, relu);
        } else if (mr == kConvMr) {
          ConvTileScalar<true>(a, b, tap_off, bias, crow, k, cs, i, nr, relu);
        } else {
          ConvEdgeScalar(a, b, tap_off, bias, crow, k, cs, i, mr, nr, relu);
        }
      }
    }
  }
}

// ------------------------------------------------------------ max pool
//
// The engine's pool loop moved verbatim: the reference the AVX2 and
// AVX-512 entries reproduce lane for lane (see kernels.h).

void MaxPoolScalar(const float* x, float* y, int64_t h, int64_t w,
                   int64_t window, int64_t t0, int64_t t1) {
  const int64_t ho = h / window, wo = w / window;
  for (int64_t t = t0; t < t1; ++t) {
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

// ------------------------------------------------------ fused epilogues
//
// The fusion pass's dense epilogue: run the untouched GEMM range, then
// add the bias and (optionally) apply relu to the finished rows while
// they are cache-hot. A float stored and reloaded is the identical bit
// pattern, so folding the former separate bias/relu output passes into
// the kernel cannot change any result.

void MatMulBiasActRangeScalar(const float* a, const float* b,
                              const float* bias, float* c, int64_t i0,
                              int64_t i1, int64_t k, int64_t n, int relu) {
  MatMulRangeScalar(a, b, c, i0, i1, k, n);
  for (int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float v = crow[j] + bias[j];
      crow[j] = relu != 0 ? (v > 0.0f ? v : 0.0f) : v;
    }
  }
}

// ------------------------------------------------------- block-quantized
//
// Per 32-element block: the integer dot product is exact (int32), and the
// running float sum adds float(dot) * (a_scale * b_scale) in ascending
// block order. SIMD variants keep this exact float chain per element and
// only vectorize the integer dot, so results are bitwise identical.

void Q8GemmRowsScalar(const int8_t* a, const float* a_scales, const int8_t* b,
                      const float* b_scales, float* c, int64_t i0, int64_t i1,
                      int64_t kp, int64_t n) {
  const int64_t nb = kp / 32;
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* arow = a + i * kp;
    const float* as = a_scales + i * nb;
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* brow = b + j * kp;
      const float* bs = b_scales + j * nb;
      float sum = 0.0f;
      for (int64_t bb = 0; bb < nb; ++bb) {
        const int8_t* ab = arow + bb * 32;
        const int8_t* bbp = brow + bb * 32;
        int32_t dot = 0;
        for (int t = 0; t < 32; ++t) {
          dot += static_cast<int32_t>(ab[t]) * static_cast<int32_t>(bbp[t]);
        }
        sum += static_cast<float>(dot) * (as[bb] * bs[bb]);
      }
      c[i * n + j] = sum;
    }
  }
}

void Q4GemmRowsScalar(const int8_t* a, const float* a_scales,
                      const uint8_t* b, const float* b_scales, float* c,
                      int64_t i0, int64_t i1, int64_t kp, int64_t n) {
  const int64_t nb = kp / 32;
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* arow = a + i * kp;
    const float* as = a_scales + i * nb;
    for (int64_t j = 0; j < n; ++j) {
      const uint8_t* brow = b + j * (kp / 2);
      const float* bs = b_scales + j * nb;
      float sum = 0.0f;
      for (int64_t bb = 0; bb < nb; ++bb) {
        const int8_t* ab = arow + bb * 32;
        const uint8_t* bbp = brow + bb * 16;
        // Block layout (see Q4BlockMatrix): byte t holds element t in its
        // low nibble and element 16+t in its high nibble, code = q + 8.
        int32_t dot = 0;
        for (int t = 0; t < 16; ++t) {
          const int32_t blo = static_cast<int32_t>(bbp[t] & 0x0F) - 8;
          const int32_t bhi = static_cast<int32_t>(bbp[t] >> 4) - 8;
          dot += static_cast<int32_t>(ab[t]) * blo;
          dot += static_cast<int32_t>(ab[16 + t]) * bhi;
        }
        sum += static_cast<float>(dot) * (as[bb] * bs[bb]);
      }
      c[i * n + j] = sum;
    }
  }
}

// ------------------------------------------------------- q8 quantizer
//
// The reference the AVX2 and AVX-512 quantizers reproduce bit for bit
// (see the parity contract in kernels.h): the quantizer body from
// src/compress/quantization.cc moved verbatim, one std::lround per
// element.

namespace {
constexpr int64_t kQuantBlock = 32;  // elements per q8 block scale
}  // namespace

void Q8QuantizeRowScalar(const float* row, int64_t cols, int8_t* values,
                         float* scales) {
  const int64_t kp = (cols + kQuantBlock - 1) / kQuantBlock * kQuantBlock;
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

void Q8BiasActQuantizeRowScalar(float* row, const float* bias, int64_t cols,
                                int relu, int8_t* values, float* scales) {
  for (int64_t j = 0; j < cols; ++j) {
    const float v = row[j] + bias[j];
    row[j] = relu != 0 ? (v > 0.0f ? v : 0.0f) : v;
  }
  if (values != nullptr) Q8QuantizeRowScalar(row, cols, values, scales);
}

namespace {
const KernelTable kScalarTable = {
    Isa::kScalar,
    "kernel.scalar",
    &MatMulRangeScalar,
    &MatMulTransARangeScalar,
    &MatMulTransBRangeScalar,
    &Q8GemmRowsScalar,
    &Q4GemmRowsScalar,
    &MatMulBiasActRangeScalar,
    &ConvGemmBiasActRowsScalar,
    &MaxPoolScalar,
    &Q8QuantizeRowScalar,
    &Q8BiasActQuantizeRowScalar,
};
}  // namespace

const KernelTable* GetScalarTable() { return &kScalarTable; }

}  // namespace simd
}  // namespace dlsys
