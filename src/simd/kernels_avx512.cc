#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

/// \file kernels_avx512.cc
/// \brief AVX-512 microkernels (F+BW+VL+DQ). Compiled with -mavx512f
/// -mavx512bw -mavx512vl -mavx512dq -O3 -ffp-contract=off. Same parity
/// contract as the AVX2 TU: fp32 is bitwise identical to scalar (mul then
/// add, ascending p, vectorized across output elements only), integer
/// paths are exact int32.

#if DLSYS_SIMD && (defined(__x86_64__) || defined(__i386__)) &&      \
    defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512DQ__)

// GCC 12's intrinsics header raises -W(maybe-)uninitialized false
// positives from _mm512_undefined_ps's self-initialization (GCC bug
// 105593). Silence them for the header only; this file's own code keeps
// both warnings.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <algorithm>
#include <cstdint>
#include <limits>

namespace dlsys {
namespace simd {
namespace {

// ---------------------------------------------------------------- fp32

// One register-tile template serves matmul_bias_act_range and
// conv_gemm_bias_act_rows. A tile is MR rows (1-4 or 8) x NV zmm of 16
// columns of C, held in registers across the whole p loop: a full 8 x 2
// tile is 16 accumulators, 2 B vectors and one broadcast of the 32 zmm,
// and each B row it loads serves 8 rows of C. Every row block of a
// range, short or not, and every column tail runs through it. A column
// tail loads B (and a column bias) zero-masked and stores only its live
// lanes, so no element leaves the vector path. Each element starts at +0
// and adds one float product per p in ascending p, then its bias and
// max(v, 0) in registers before the single store: the scalar table's
// chain element for element (see kernels.h).

constexpr int64_t kMr = 8;   // C rows per full register tile
constexpr int64_t kNr = 32;  // C columns per full register tile (2 zmm)

inline __mmask16 LaneMask(int64_t lanes) {
  return static_cast<__mmask16>((1u << lanes) - 1u);
}

/// C(i..i+MR, j..j+16*NV) from the row-major A(MxK) rows at a and B's
/// row p at rows.Row(b, p); C's rows are ldc apart, and a, c and the
/// bias (nullptr: none) start at the tile's row and column. On a tail
/// tile (kTail) the last zmm covers only the lanes of \p tail. The
/// unroll pragmas flatten the row and vector loops so the accumulator
/// array stays in registers.
template <int MR, int NV, bool kTail, class Rows>
inline void GemmTileAvx512(const float* a, const float* b, Rows rows,
                           const float* bias, float* c, int64_t ldc,
                           int64_t k, __mmask16 tail, int relu) {
  __m512 acc[MR][NV];
#pragma GCC unroll 8
  for (int ii = 0; ii < MR; ++ii) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[ii][v] = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = rows.Row(b, p);
    __m512 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      bv[v] = kTail && v == NV - 1 ? _mm512_maskz_loadu_ps(tail, brow + 16 * v)
                                   : _mm512_loadu_ps(brow + 16 * v);
    }
#pragma GCC unroll 8
    for (int ii = 0; ii < MR; ++ii) {
      const __m512 av = _mm512_set1_ps(a[ii * k + p]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[ii][v] = _mm512_add_ps(acc[ii][v], _mm512_mul_ps(av, bv[v]));
      }
    }
  }
  __m512 bias_v[NV];
#pragma GCC unroll 2
  for (int v = 0; v < NV; ++v) {
    bias_v[v] = bias == nullptr || Rows::kRowBias ? _mm512_setzero_ps()
                : kTail && v == NV - 1
                    ? _mm512_maskz_loadu_ps(tail, bias + 16 * v)
                    : _mm512_loadu_ps(bias + 16 * v);
  }
#pragma GCC unroll 8
  for (int ii = 0; ii < MR; ++ii) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      __m512 x = acc[ii][v];
      if (bias != nullptr) {
        x = _mm512_add_ps(
            x, Rows::kRowBias ? _mm512_set1_ps(bias[ii]) : bias_v[v]);
      }
      // Zero as the second operand: max_ps returns it on NaN and on the
      // -0/+0 tie, which is the scalar `v > 0.0f ? v : 0.0f`.
      if (relu != 0) x = _mm512_max_ps(x, _mm512_setzero_ps());
      float* crow = c + ii * ldc + 16 * v;
      if (kTail && v == NV - 1) {
        _mm512_mask_storeu_ps(crow, tail, x);
      } else {
        _mm512_storeu_ps(crow, x);
      }
    }
  }
}

/// Every column of MR rows of C: full 32-column tiles, then one tail tile
/// of one or two zmm. A column bias moves with the tiles.
template <int MR, class Rows>
void GemmRowBlockAvx512(const float* a, const float* b, Rows rows,
                        const float* bias, float* c, int64_t ldc, int64_t k,
                        int64_t n, int relu) {
  const auto bias_at = [bias](int64_t j) {
    return bias == nullptr || Rows::kRowBias ? bias : bias + j;
  };
  int64_t j = 0;
  for (; j + kNr <= n; j += kNr) {
    GemmTileAvx512<MR, 2, false>(a, b + j, rows, bias_at(j), c + j, ldc, k,
                                 LaneMask(16), relu);
  }
  const int64_t rest = n - j;
  if (rest == 0) return;
  if (rest > 16) {
    GemmTileAvx512<MR, 2, true>(a, b + j, rows, bias_at(j), c + j, ldc, k,
                                LaneMask(rest - 16), relu);
  } else {
    GemmTileAvx512<MR, 1, true>(a, b + j, rows, bias_at(j), c + j, ldc, k,
                                LaneMask(rest), relu);
  }
}

/// C rows [i0, i1) in blocks of eight rows, then at most one block of
/// four and one of 1-3 rows. A row bias moves with the blocks.
template <class Rows>
void GemmRangeAvx512(const float* a, const float* b, Rows rows,
                     const float* bias, float* c, int64_t ldc, int64_t i0,
                     int64_t i1, int64_t k, int64_t n, int relu) {
  const auto bias_at = [bias](int64_t i) {
    return bias != nullptr && Rows::kRowBias ? bias + i : bias;
  };
  int64_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    GemmRowBlockAvx512<kMr>(a + i * k, b, rows, bias_at(i), c + i * ldc, ldc,
                            k, n, relu);
  }
  if (i + 4 <= i1) {
    GemmRowBlockAvx512<4>(a + i * k, b, rows, bias_at(i), c + i * ldc, ldc, k,
                          n, relu);
    i += 4;
  }
  switch (i1 - i) {
    case 3:
      GemmRowBlockAvx512<3>(a + i * k, b, rows, bias_at(i), c + i * ldc,
                            ldc, k, n, relu);
      break;
    case 2:
      GemmRowBlockAvx512<2>(a + i * k, b, rows, bias_at(i), c + i * ldc,
                            ldc, k, n, relu);
      break;
    case 1:
      GemmRowBlockAvx512<1>(a + i * k, b, rows, bias_at(i), c + i * ldc,
                            ldc, k, n, relu);
      break;
    default:
      break;
  }
}

void MatMulBiasActRangeAvx512(const float* a, const float* b,
                              const float* bias, float* c, int64_t i0,
                              int64_t i1, int64_t k, int64_t n, int relu) {
  GemmRangeAvx512(a, b, DenseRows{n}, bias, c, n, i0, i1, k, n, relu);
}

/// The implicit conv of output rows [oy0, oy1): per output row, an
/// (m x k) * (k x wo) GEMM whose B row p is tap p's run of the phase
/// planes, with channel i's outputs ho * wo floats apart.
void ConvGemmBiasActRowsAvx512(const float* a, const float* planes,
                               const int64_t* tap_off, int64_t row_stride,
                               const float* bias, float* c, int64_t m,
                               int64_t k, int64_t ho, int64_t wo, int64_t oy0,
                               int64_t oy1, int relu) {
  for (int64_t oy = oy0; oy < oy1; ++oy) {
    GemmRangeAvx512(a, planes + oy * row_stride, TapRows{tap_off}, bias,
                    c + oy * wo, ho * wo, 0, m, k, wo, relu);
  }
}

// ------------------------------------------------------------ max pool
//
// One lane per output column, `lanes` = max(1, min(16, 32 / window))
// outputs per vector. Per window row, two masked loads hold the (up to)
// 32 adjacent floats that the row's taps of those outputs read, and
// tap kx reaches lane l by one permute of the pair: element
// window * l + kx. A window wider than 32 (one lane) takes its row in
// chunks of 32 taps. The loads are masked to the floats the window
// reads, so none runs past a plane, and only live lanes are stored.
// Each lane folds its window in row-major (ky, kx) order from -inf as
// best = max_ps(x, best), which is the scalar `x > best ? x : best`
// (see kernels.h). kWindow > 0 fixes the window at compile time, so the
// permute indices are constants; 0 reads it at run time.

template <int kWindow>
void MaxPoolBodyAvx512(const float* x, float* y, int64_t h, int64_t w,
                       int64_t runtime_window, int64_t t0, int64_t t1) {
  const int64_t window = kWindow > 0 ? kWindow : runtime_window;
  const int64_t ho = h / window, wo = w / window;
  const int64_t lanes =
      std::max<int64_t>(1, std::min<int64_t>(16, 32 / window));
  const __m512 neg_inf =
      _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  // Lane l's first tap in the loaded pair; lanes past `lanes` wrap and
  // are never stored.
  const __m512i first = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(window)));
  for (int64_t t = t0; t < t1; ++t) {
    const float* xplane = x + t * h * w;
    float* yplane = y + t * ho * wo;
    for (int64_t oy = 0; oy < ho; ++oy) {
      for (int64_t ox = 0; ox < wo; ox += lanes) {
        const int64_t nr = std::min(lanes, wo - ox);
        const float* win = xplane + oy * window * w + ox * window;
        __m512 best = neg_inf;
        for (int64_t ky = 0; ky < window; ++ky) {
          const float* xrow = win + ky * w;
          for (int64_t kx0 = 0; kx0 < window; kx0 += 32) {
            const int64_t span = std::min<int64_t>(32, nr * window - kx0);
            const __m512 lo = _mm512_maskz_loadu_ps(
                LaneMask(std::min<int64_t>(16, span)), xrow + kx0);
            const __m512 hi = _mm512_maskz_loadu_ps(
                LaneMask(std::max<int64_t>(0, span - 16)), xrow + kx0 + 16);
            const int64_t kx1 = std::min<int64_t>(window, kx0 + 32);
            for (int64_t kx = kx0; kx < kx1; ++kx) {
              const __m512i idx = _mm512_add_epi32(
                  first, _mm512_set1_epi32(static_cast<int>(kx - kx0)));
              best = _mm512_max_ps(_mm512_permutex2var_ps(lo, idx, hi), best);
            }
          }
        }
        _mm512_mask_storeu_ps(yplane + oy * wo + ox, LaneMask(nr), best);
      }
    }
  }
}

void MaxPoolAvx512(const float* x, float* y, int64_t h, int64_t w,
                   int64_t window, int64_t t0, int64_t t1) {
  if (window == 2) {
    MaxPoolBodyAvx512<2>(x, y, h, w, window, t0, t1);
  } else {
    MaxPoolBodyAvx512<0>(x, y, h, w, window, t0, t1);
  }
}

// ------------------------------------------------------- block-quantized

/// Lane c of the result is the sum of the 16 int32 lanes of p[c]: sixteen
/// horizontal reductions done together by unpack-and-add (pairs, then
/// quads within each 128-bit lane) and two 128-bit-lane shuffle rounds.
/// Integer adds, so any order is exact.
inline __m512i ReduceDots16Avx512(const __m512i* p) {
  __m512i s2[8], s4[4];
#pragma GCC unroll 8
  for (int c = 0; c < 8; ++c) {
    s2[c] = _mm512_add_epi32(_mm512_unpacklo_epi32(p[2 * c], p[2 * c + 1]),
                             _mm512_unpackhi_epi32(p[2 * c], p[2 * c + 1]));
  }
  // s4[c], 128-bit lane L: the lane-L sums of p[4c] .. p[4c + 3].
#pragma GCC unroll 4
  for (int c = 0; c < 4; ++c) {
    s4[c] = _mm512_add_epi32(_mm512_unpacklo_epi64(s2[2 * c], s2[2 * c + 1]),
                             _mm512_unpackhi_epi64(s2[2 * c], s2[2 * c + 1]));
  }
  constexpr int kEven = _MM_SHUFFLE(2, 0, 2, 0);
  constexpr int kOdd = _MM_SHUFFLE(3, 1, 3, 1);
  const __m512i t01 =
      _mm512_add_epi32(_mm512_shuffle_i32x4(s4[0], s4[1], kEven),
                       _mm512_shuffle_i32x4(s4[0], s4[1], kOdd));
  const __m512i t23 =
      _mm512_add_epi32(_mm512_shuffle_i32x4(s4[2], s4[3], kEven),
                       _mm512_shuffle_i32x4(s4[2], s4[3], kOdd));
  return _mm512_add_epi32(_mm512_shuffle_i32x4(t01, t23, kEven),
                          _mm512_shuffle_i32x4(t01, t23, kOdd));
}

/// A column tile of the q8 GEMM: outputs [j, j + nr) of row i, nr <= 16.
/// Per block, the 16 columns' int32 dots are reduced together and each
/// lane then adds float(dot) * (a_scale * b_scale) to its own float
/// chain, in ascending block order — the scalar chain per output. Lanes
/// past nr re-read column j and are never stored.
inline void Q8TileAvx512(const int8_t* arow, const float* as, const int8_t* b,
                         const float* b_scales, float* crow, int64_t j,
                         int64_t nr, int64_t kp, int64_t nb) {
  const int8_t* bcol[16];
  alignas(64) int32_t scale_idx[16];
  for (int64_t c = 0; c < 16; ++c) {
    const int64_t col = j + (c < nr ? c : 0);
    bcol[c] = b + col * kp;
    scale_idx[c] = static_cast<int32_t>(col * nb);
  }
  const __m512i vidx = _mm512_load_si512(scale_idx);
  __m512 sum = _mm512_setzero_ps();
  for (int64_t bb = 0; bb < nb; ++bb) {
    const __m512i a16 = _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + bb * 32)));
    __m512i p[16];
#pragma GCC unroll 16
    for (int c = 0; c < 16; ++c) {
      const __m512i b16 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(bcol[c] + bb * 32)));
      p[c] = _mm512_madd_epi16(a16, b16);
    }
    const __m512 dot = _mm512_cvtepi32_ps(ReduceDots16Avx512(p));
    const __m512 bs = _mm512_i32gather_ps(vidx, b_scales + bb, 4);
    const __m512 ab = _mm512_mul_ps(_mm512_set1_ps(as[bb]), bs);
    sum = _mm512_add_ps(sum, _mm512_mul_ps(dot, ab));
  }
  _mm512_mask_storeu_ps(crow + j, static_cast<__mmask16>((1u << nr) - 1u),
                        sum);
}

void Q8GemmRowsAvx512(const int8_t* a, const float* a_scales, const int8_t* b,
                      const float* b_scales, float* c, int64_t i0, int64_t i1,
                      int64_t kp, int64_t n) {
  const int64_t nb = kp / 32;
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* arow = a + i * kp;
    const float* as = a_scales + i * nb;
    for (int64_t j = 0; j < n; j += 16) {
      Q8TileAvx512(arow, as, b, b_scales, c + i * n, j,
                   std::min<int64_t>(16, n - j), kp, nb);
    }
  }
}

/// Exact int32 dot of a q8 activation block against a nibble-packed q4
/// weight block (byte t = elements t and 16+t, code = q + 8).
inline int32_t DotQ4BlockAvx512(const int8_t* a, const uint8_t* b) {
  const __m128i packed = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m128i mask = _mm_set1_epi8(0x0F);
  const __m128i lo = _mm_and_si128(packed, mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi16(packed, 4), mask);
  const __m256i codes =
      _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
  const __m512i b16 = _mm512_sub_epi16(_mm512_cvtepu8_epi16(codes),
                                       _mm512_set1_epi16(8));
  const __m512i a16 = _mm512_cvtepi8_epi16(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)));
  return _mm512_reduce_add_epi32(_mm512_madd_epi16(a16, b16));
}

void Q4GemmRowsAvx512(const int8_t* a, const float* a_scales,
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
        const int32_t dot = DotQ4BlockAvx512(arow + bb * 32, brow + bb * 16);
        sum += static_cast<float>(dot) * (as[bb] * bs[bb]);
      }
      c[i * n + j] = sum;
    }
  }
}

// ------------------------------------------------------- q8 quantizer
//
// Bit-exact with Q8QuantizeRowScalar by the argument in kernels.h. One
// block is two zmm of 16 floats; a short last block loads with zero masks
// and stores its pad lanes as code 0.

/// lround(y) clamped to [-127, 127] per lane, as int32; lanes outside
/// \p valid are 0. Non-finite y converts to INT32_MIN and clamps to -127,
/// as glibc's lround + clamp does.
inline __m512i RoundClampAvx512(__m512 y, __mmask16 valid) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 t =
      _mm512_roundscale_ps(y, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m512 d = _mm512_sub_ps(y, t);
  __m512 q = _mm512_mask_add_ps(
      t, _mm512_cmp_ps_mask(d, _mm512_set1_ps(0.5f), _CMP_GE_OQ), t, one);
  q = _mm512_mask_sub_ps(
      q, _mm512_cmp_ps_mask(d, _mm512_set1_ps(-0.5f), _CMP_LE_OQ), q, one);
  const __m512i qi = _mm512_min_epi32(
      _mm512_max_epi32(_mm512_cvttps_epi32(q), _mm512_set1_epi32(-127)),
      _mm512_set1_epi32(127));
  return _mm512_maskz_mov_epi32(valid, qi);
}

/// Quantizes one block held in v0 (elements 0..15) and v1 (16..31), whose
/// lanes outside k0/k1 are +0: writes 32 codes and the block scale.
inline void QuantizeBlockAvx512(__m512 v0, __m512 v1, __mmask16 k0,
                                __mmask16 k1, int8_t* values, float* scale) {
  const __m512 m = _mm512_max_ps(
      _mm512_abs_ps(v1),
      _mm512_max_ps(_mm512_abs_ps(v0), _mm512_setzero_ps()));
  const float maxabs = _mm512_reduce_max_ps(m);
  const float s = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  const __m512 inv = _mm512_set1_ps(1.0f / s);
  *scale = s;
  _mm_storeu_si128(
      reinterpret_cast<__m128i*>(values),
      _mm512_cvtepi32_epi8(RoundClampAvx512(_mm512_mul_ps(v0, inv), k0)));
  _mm_storeu_si128(
      reinterpret_cast<__m128i*>(values + 16),
      _mm512_cvtepi32_epi8(RoundClampAvx512(_mm512_mul_ps(v1, inv), k1)));
}

/// Load masks for the two halves of the block starting at j0.
inline void BlockMasksAvx512(int64_t j0, int64_t cols, __mmask16* k0,
                             __mmask16* k1) {
  const int64_t valid = std::min<int64_t>(32, cols - j0);
  *k0 = static_cast<__mmask16>(valid >= 16 ? 0xFFFFu : (1u << valid) - 1u);
  *k1 = static_cast<__mmask16>(valid >= 32 ? 0xFFFFu
                               : valid > 16 ? (1u << (valid - 16)) - 1u
                                            : 0u);
}

void Q8QuantizeRowAvx512(const float* row, int64_t cols, int8_t* values,
                         float* scales) {
  for (int64_t j0 = 0, b = 0; j0 < cols; j0 += 32, ++b) {
    __mmask16 k0, k1;
    BlockMasksAvx512(j0, cols, &k0, &k1);
    QuantizeBlockAvx512(_mm512_maskz_loadu_ps(k0, row + j0),
                        _mm512_maskz_loadu_ps(k1, row + j0 + 16), k0, k1,
                        values + j0, scales + b);
  }
}

/// act(x + bias) matches the scalar `v > 0.0f ? v : 0.0f` through
/// _mm512_max_ps(v, 0), as in GemmTileAvx512.
void Q8BiasActQuantizeRowAvx512(float* row, const float* bias, int64_t cols,
                                int relu, int8_t* values, float* scales) {
  const __m512 zero = _mm512_setzero_ps();
  for (int64_t j0 = 0, b = 0; j0 < cols; j0 += 32, ++b) {
    __mmask16 k0, k1;
    BlockMasksAvx512(j0, cols, &k0, &k1);
    __m512 v0 = _mm512_add_ps(_mm512_maskz_loadu_ps(k0, row + j0),
                              _mm512_maskz_loadu_ps(k0, bias + j0));
    __m512 v1 = _mm512_add_ps(_mm512_maskz_loadu_ps(k1, row + j0 + 16),
                              _mm512_maskz_loadu_ps(k1, bias + j0 + 16));
    if (relu != 0) {
      v0 = _mm512_max_ps(v0, zero);
      v1 = _mm512_max_ps(v1, zero);
    }
    _mm512_mask_storeu_ps(row + j0, k0, v0);
    _mm512_mask_storeu_ps(row + j0 + 16, k1, v1);
    if (values != nullptr) {
      QuantizeBlockAvx512(v0, v1, k0, k1, values + j0, scales + b);
    }
  }
}

const KernelTable kAvx512Table = {
    Isa::kAvx512,
    "kernel.avx512",
    &MatMulBiasActRangeAvx512,
    &Q8GemmRowsAvx512,
    &Q4GemmRowsAvx512,
    &ConvGemmBiasActRowsAvx512,
    &MaxPoolAvx512,
    &Q8QuantizeRowAvx512,
    &Q8BiasActQuantizeRowAvx512,
    &Crc32UpdateClmul,  // the AVX2 TU's fold (kernels.h)
};

}  // namespace

const KernelTable* GetAvx512Table() { return &kAvx512Table; }

}  // namespace simd
}  // namespace dlsys

#else  // stub: SIMD off, non-x86, or AVX-512 F+BW+VL+DQ not all available

namespace dlsys {
namespace simd {
const KernelTable* GetAvx512Table() { return nullptr; }
}  // namespace simd
}  // namespace dlsys

#endif
