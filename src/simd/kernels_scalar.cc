#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

/// \file kernels_scalar.cc
/// \brief The always-available reference kernels, compiled with the
/// kernel TUs' flags (-O3 -ffp-contract=off via src/CMakeLists.txt) for
/// baseline x86-64, so this table runs on any CPU the binary loads on
/// and any vector code GCC makes of it is SSE2. The fp32 dense GEMM and
/// the implicit conv GEMM are one register-tile body, the chain every
/// other table reproduces (see kernels.h), and the max pool is the
/// engine's pool loop. Every
/// entry here, the q8/q4 block kernels, the q8 quantizer and the CRC-32
/// included, is the reference the SIMD variants bit-compare against, so a
/// -DDLSYS_SIMD=OFF or DLSYS_ISA=scalar run gives the same bits as any
/// other table.

namespace dlsys {
namespace simd {
namespace {

// ---------------------------------------------------------------- fp32
//
// One tile body serves matmul_bias_act_range and
// conv_gemm_bias_act_rows: up to kMr x kNr floats of C held in a local
// accumulator across the whole p loop. Each element starts at +0, adds
// one float product per p in ascending p, then its bias and the relu
// `v > 0.0f ? v : 0.0f` before its one store.

constexpr int64_t kMr = 4;   // C rows per register tile
constexpr int64_t kNr = 32;  // C columns per register tile

/// C(i..i+mr, j..j+nr) from the row-major A(MxK) rows at a and B's row
/// p at rows.Row(b, p); C's rows are ldc apart, and a, c and the bias
/// (nullptr: none) start at the tile's row and column. A full tile
/// (kFull) has the compile-time extents kMr x kNr, so GCC keeps its
/// accumulators in vector registers; an edge tile (a short row block or
/// a column tail) runs the same chain over its mr x nr live elements.
template <bool kFull, class Rows>
void GemmTileScalar(const float* a, const float* b, Rows rows,
                    const float* bias, float* c, int64_t ldc, int64_t k,
                    int64_t mr, int64_t nr, int relu) {
  if constexpr (kFull) {
    mr = kMr;
    nr = kNr;
  }
  float acc[kMr][kNr] = {};
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = rows.Row(b, p);
    for (int64_t ii = 0; ii < mr; ++ii) {
      const float av = a[ii * k + p];
      for (int64_t jj = 0; jj < nr; ++jj) acc[ii][jj] += av * brow[jj];
    }
  }
  for (int64_t ii = 0; ii < mr; ++ii) {
    for (int64_t jj = 0; jj < nr; ++jj) {
      float v = acc[ii][jj];
      if (bias != nullptr) v += Rows::kRowBias ? bias[ii] : bias[jj];
      c[ii * ldc + jj] = relu != 0 ? (v > 0.0f ? v : 0.0f) : v;
    }
  }
}

/// C rows [i0, i1), n columns, in kMr x kNr tiles.
template <class Rows>
void GemmRangeScalar(const float* a, const float* b, Rows rows,
                     const float* bias, float* c, int64_t ldc, int64_t i0,
                     int64_t i1, int64_t k, int64_t n, int relu) {
  for (int64_t i = i0; i < i1; i += kMr) {
    const int64_t mr = std::min(kMr, i1 - i);
    for (int64_t j = 0; j < n; j += kNr) {
      const int64_t nr = std::min(kNr, n - j);
      const float* tile_bias =
          bias == nullptr ? nullptr : bias + (Rows::kRowBias ? i : j);
      auto* tile = mr == kMr && nr == kNr ? &GemmTileScalar<true, Rows>
                                          : &GemmTileScalar<false, Rows>;
      tile(a + i * k, b + j, rows, tile_bias, c + i * ldc + j, ldc, k, mr,
           nr, relu);
    }
  }
}

void MatMulBiasActRangeScalar(const float* a, const float* b,
                              const float* bias, float* c, int64_t i0,
                              int64_t i1, int64_t k, int64_t n, int relu) {
  GemmRangeScalar(a, b, DenseRows{n}, bias, c, n, i0, i1, k, n, relu);
}

/// The implicit conv of output rows [oy0, oy1): per output row, an
/// (m x k) * (k x wo) GEMM whose B row p is tap p's run of the phase
/// planes, with channel i's outputs ho * wo floats apart.
void ConvGemmBiasActRowsScalar(const float* a, const float* planes,
                               const int64_t* tap_off, int64_t row_stride,
                               const float* bias, float* c, int64_t m,
                               int64_t k, int64_t ho, int64_t wo, int64_t oy0,
                               int64_t oy1, int relu) {
  for (int64_t oy = oy0; oy < oy1; ++oy) {
    GemmRangeScalar(a, planes + oy * row_stride, TapRows{tap_off}, bias,
                    c + oy * wo, ho * wo, 0, m, k, wo, relu);
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

}  // namespace

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

// --------------------------------------------------------------- crc32
//
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) on the raw
// register, slicing-by-8: table 0 is the byte-at-a-time table, and
// table s maps a byte to its remainder after s further zero bytes, so
// one step folds eight input bytes with eight independent lookups.

struct Crc32Tables {
  uint32_t t[8][256];
};

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables.t[0][i] = c;
  }
  for (int s = 1; s < 8; ++s) {
    for (int i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[s - 1][i];
      tables.t[s][i] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

/// The little-endian 32-bit word at \p p, whatever the host's byte order
/// (GCC folds it into one load on x86).
inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32UpdateScalar(uint32_t crc, const uint8_t* p, int64_t n) {
  const auto& t = kCrc32Tables.t;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

namespace {

const KernelTable kScalarTable = {
    Isa::kScalar,
    "kernel.scalar",
    &MatMulBiasActRangeScalar,
    &Q8GemmRowsScalar,
    &Q4GemmRowsScalar,
    &ConvGemmBiasActRowsScalar,
    &MaxPoolScalar,
    &Q8QuantizeRowScalar,
    &Q8BiasActQuantizeRowScalar,
    &Crc32UpdateScalar,
};
}  // namespace

const KernelTable* GetScalarTable() { return &kScalarTable; }

}  // namespace simd
}  // namespace dlsys
