#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

/// \file kernels_avx2.cc
/// \brief AVX2 microkernels. Compiled with -mavx2 -O3 -ffp-contract=off
/// (no -mfma: the parity contract forbids contraction). Self-guarded so a
/// -DDLSYS_SIMD=OFF or non-x86 build compiles only the nullptr stub.
///
/// fp32 kernels vectorize across independent output columns and keep each
/// element's mul-then-add chain in ascending p, so they are bitwise
/// identical to the scalar reference. Integer kernels accumulate in int32
/// (associative — exact in any lane order) via sign-extend + vpmaddwd.
/// The CRC-32 fold, shared with the AVX-512 table, adds PCLMULQDQ through
/// a per-function target attribute rather than a TU flag.

#if DLSYS_SIMD && (defined(__x86_64__) || defined(__i386__)) && \
    defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <limits>

namespace dlsys {
namespace simd {
namespace {

// ---------------------------------------------------------------- fp32

// One register-tile template serves matmul_bias_act_range and
// conv_gemm_bias_act_rows. A tile is MR rows (1-4) x NV ymm of 8 columns
// of C, held in registers across the whole p loop; every row block of a
// range, short or not, and every column tail runs through it. A column
// tail loads B (and a column bias) with _mm256_maskload_ps, which reads
// zeros in the dead lanes and never touches their memory, and stores
// only the live lanes with _mm256_maskstore_ps. Each element starts at
// +0 and adds one float product per p in ascending p, then its bias and
// max(v, 0) in registers before the single store: the scalar table's
// chain element for element (see kernels.h).

constexpr int64_t kMr = 4;   // C rows per register tile
constexpr int64_t kNr = 16;  // C columns per full register tile (2 ymm)

/// All-ones in the first \p lanes int32 lanes (1..8), zero above.
inline __m256i LaneMask(int64_t lanes) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// C(i..i+MR, j..j+8*NV) from the row-major A(MxK) rows at a and B's
/// row p at rows.Row(b, p); C's rows are ldc apart, and a, c and the
/// bias (nullptr: none) start at the tile's row and column. On a tail
/// tile (kTail) the last ymm covers only the lanes of \p tail. The
/// unroll pragmas flatten the row and vector loops so the accumulator
/// array stays in registers.
template <int MR, int NV, bool kTail, class Rows>
inline void GemmTileAvx2(const float* a, const float* b, Rows rows,
                         const float* bias, float* c, int64_t ldc, int64_t k,
                         __m256i tail, int relu) {
  __m256 acc[MR][NV];
#pragma GCC unroll 4
  for (int ii = 0; ii < MR; ++ii) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[ii][v] = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = rows.Row(b, p);
    __m256 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      bv[v] = kTail && v == NV - 1 ? _mm256_maskload_ps(brow + 8 * v, tail)
                                   : _mm256_loadu_ps(brow + 8 * v);
    }
#pragma GCC unroll 4
    for (int ii = 0; ii < MR; ++ii) {
      const __m256 av = _mm256_set1_ps(a[ii * k + p]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[ii][v] = _mm256_add_ps(acc[ii][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
  __m256 bias_v[NV];
#pragma GCC unroll 2
  for (int v = 0; v < NV; ++v) {
    bias_v[v] = bias == nullptr || Rows::kRowBias ? _mm256_setzero_ps()
                : kTail && v == NV - 1 ? _mm256_maskload_ps(bias + 8 * v, tail)
                                       : _mm256_loadu_ps(bias + 8 * v);
  }
#pragma GCC unroll 4
  for (int ii = 0; ii < MR; ++ii) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      __m256 x = acc[ii][v];
      if (bias != nullptr) {
        x = _mm256_add_ps(
            x, Rows::kRowBias ? _mm256_set1_ps(bias[ii]) : bias_v[v]);
      }
      // Zero as the second operand: max_ps returns it on NaN and on the
      // -0/+0 tie, which is the scalar `v > 0.0f ? v : 0.0f`.
      if (relu != 0) x = _mm256_max_ps(x, _mm256_setzero_ps());
      float* crow = c + ii * ldc + 8 * v;
      if (kTail && v == NV - 1) {
        _mm256_maskstore_ps(crow, tail, x);
      } else {
        _mm256_storeu_ps(crow, x);
      }
    }
  }
}

/// Every column of MR rows of C: full 16-column tiles, then one tail tile
/// of one or two ymm. A column bias moves with the tiles.
template <int MR, class Rows>
void GemmRowBlockAvx2(const float* a, const float* b, Rows rows,
                      const float* bias, float* c, int64_t ldc, int64_t k,
                      int64_t n, int relu) {
  const auto bias_at = [bias](int64_t j) {
    return bias == nullptr || Rows::kRowBias ? bias : bias + j;
  };
  int64_t j = 0;
  for (; j + kNr <= n; j += kNr) {
    GemmTileAvx2<MR, 2, false>(a, b + j, rows, bias_at(j), c + j, ldc, k,
                               LaneMask(8), relu);
  }
  const int64_t rest = n - j;
  if (rest == 0) return;
  if (rest > 8) {
    GemmTileAvx2<MR, 2, true>(a, b + j, rows, bias_at(j), c + j, ldc, k,
                              LaneMask(rest - 8), relu);
  } else {
    GemmTileAvx2<MR, 1, true>(a, b + j, rows, bias_at(j), c + j, ldc, k,
                              LaneMask(rest), relu);
  }
}

/// C rows [i0, i1) in blocks of four rows, the last block 1-3 rows. A
/// row bias moves with the blocks.
template <class Rows>
void GemmRangeAvx2(const float* a, const float* b, Rows rows,
                   const float* bias, float* c, int64_t ldc, int64_t i0,
                   int64_t i1, int64_t k, int64_t n, int relu) {
  const auto bias_at = [bias](int64_t i) {
    return bias != nullptr && Rows::kRowBias ? bias + i : bias;
  };
  int64_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    GemmRowBlockAvx2<4>(a + i * k, b, rows, bias_at(i), c + i * ldc, ldc, k,
                        n, relu);
  }
  switch (i1 - i) {
    case 3:
      GemmRowBlockAvx2<3>(a + i * k, b, rows, bias_at(i), c + i * ldc, ldc,
                          k, n, relu);
      break;
    case 2:
      GemmRowBlockAvx2<2>(a + i * k, b, rows, bias_at(i), c + i * ldc, ldc,
                          k, n, relu);
      break;
    case 1:
      GemmRowBlockAvx2<1>(a + i * k, b, rows, bias_at(i), c + i * ldc, ldc,
                          k, n, relu);
      break;
    default:
      break;
  }
}

void MatMulBiasActRangeAvx2(const float* a, const float* b, const float* bias,
                            float* c, int64_t i0, int64_t i1, int64_t k,
                            int64_t n, int relu) {
  GemmRangeAvx2(a, b, DenseRows{n}, bias, c, n, i0, i1, k, n, relu);
}

/// The implicit conv of output rows [oy0, oy1): per output row, an
/// (m x k) * (k x wo) GEMM whose B row p is tap p's run of the phase
/// planes, with channel i's outputs ho * wo floats apart.
void ConvGemmBiasActRowsAvx2(const float* a, const float* planes,
                             const int64_t* tap_off, int64_t row_stride,
                             const float* bias, float* c, int64_t m,
                             int64_t k, int64_t ho, int64_t wo, int64_t oy0,
                             int64_t oy1, int relu) {
  for (int64_t oy = oy0; oy < oy1; ++oy) {
    GemmRangeAvx2(a, planes + oy * row_stride, TapRows{tap_off}, bias,
                  c + oy * wo, ho * wo, 0, m, k, wo, relu);
  }
}

// ------------------------------------------------------------ max pool
//
// One lane per output column. A window tap (ky, kx) of 8 adjacent outputs
// is 8 floats `window` apart, read with one masked gather; each lane folds
// its window in row-major order from -inf as best = max_ps(x, best),
// which is the scalar `x > best ? x : best` (see kernels.h). Lanes past
// the row's end are masked off in the gather and the store. The same
// body serves every window.

void MaxPoolAvx2(const float* x, float* y, int64_t h, int64_t w,
                 int64_t window, int64_t t0, int64_t t1) {
  const int64_t ho = h / window, wo = w / window;
  const __m256 neg_inf =
      _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i idx =
      _mm256_mullo_epi32(lanes, _mm256_set1_epi32(static_cast<int>(window)));
  for (int64_t t = t0; t < t1; ++t) {
    const float* xplane = x + t * h * w;
    float* yplane = y + t * ho * wo;
    for (int64_t oy = 0; oy < ho; ++oy) {
      for (int64_t ox = 0; ox < wo; ox += 8) {
        const int nr = static_cast<int>(std::min<int64_t>(8, wo - ox));
        const __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(nr), lanes);
        const __m256 fmask = _mm256_castsi256_ps(mask);
        const float* win = xplane + oy * window * w + ox * window;
        __m256 best = neg_inf;
        for (int64_t ky = 0; ky < window; ++ky) {
          const float* xrow = win + ky * w;
          for (int64_t kx = 0; kx < window; ++kx) {
            best = _mm256_max_ps(
                _mm256_mask_i32gather_ps(neg_inf, xrow + kx, idx, fmask, 4),
                best);
          }
        }
        _mm256_maskstore_ps(yplane + oy * wo + ox, mask, best);
      }
    }
  }
}

// ------------------------------------------------------- block-quantized

inline int32_t HorizontalSumI32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// Lane c of the result is the sum of the 8 int32 lanes of p[c]: eight
/// horizontal reductions done together (hadd within 128-bit lanes, then
/// one cross-lane add). Integer adds, so any order is exact.
inline __m256i ReduceDots8Avx2(const __m256i* p) {
  // h0123, 128-bit lane L: the lane-L sums of p[0] .. p[3]; h4567 likewise.
  const __m256i h0123 = _mm256_hadd_epi32(_mm256_hadd_epi32(p[0], p[1]),
                                          _mm256_hadd_epi32(p[2], p[3]));
  const __m256i h4567 = _mm256_hadd_epi32(_mm256_hadd_epi32(p[4], p[5]),
                                          _mm256_hadd_epi32(p[6], p[7]));
  return _mm256_add_epi32(_mm256_permute2x128_si256(h0123, h4567, 0x20),
                          _mm256_permute2x128_si256(h0123, h4567, 0x31));
}

/// A column tile of the q8 GEMM: outputs [j, j + nr) of row i, nr <= 8.
/// Per block, the 8 columns' int32 dots are reduced together and each lane
/// then adds float(dot) * (a_scale * b_scale) to its own float chain, in
/// ascending block order — the scalar chain per output. Lanes past nr
/// re-read column j and are never stored.
inline void Q8TileAvx2(const int8_t* arow, const float* as, const int8_t* b,
                       const float* b_scales, float* crow, int64_t j,
                       int64_t nr, int64_t kp, int64_t nb) {
  const int8_t* bcol[8];
  alignas(32) int32_t scale_idx[8];
  alignas(32) int32_t store_mask[8];
  for (int64_t c = 0; c < 8; ++c) {
    const int64_t col = j + (c < nr ? c : 0);
    bcol[c] = b + col * kp;
    scale_idx[c] = static_cast<int32_t>(col * nb);
    store_mask[c] = c < nr ? -1 : 0;
  }
  const __m256i vidx =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(scale_idx));
  __m256 sum = _mm256_setzero_ps();
  for (int64_t bb = 0; bb < nb; ++bb) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(arow + bb * 32));
    const __m256i a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
    const __m256i a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
    __m256i p[8];
#pragma GCC unroll 8
    for (int c = 0; c < 8; ++c) {
      const __m256i vb = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(bcol[c] + bb * 32));
      const __m256i b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
      const __m256i b_hi =
          _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
      p[c] = _mm256_add_epi32(_mm256_madd_epi16(a_lo, b_lo),
                              _mm256_madd_epi16(a_hi, b_hi));
    }
    const __m256 dot = _mm256_cvtepi32_ps(ReduceDots8Avx2(p));
    const __m256 bs = _mm256_i32gather_ps(b_scales + bb, vidx, 4);
    const __m256 ab = _mm256_mul_ps(_mm256_set1_ps(as[bb]), bs);
    sum = _mm256_add_ps(sum, _mm256_mul_ps(dot, ab));
  }
  _mm256_maskstore_ps(
      crow + j,
      _mm256_load_si256(reinterpret_cast<const __m256i*>(store_mask)), sum);
}

void Q8GemmRowsAvx2(const int8_t* a, const float* a_scales, const int8_t* b,
                    const float* b_scales, float* c, int64_t i0, int64_t i1,
                    int64_t kp, int64_t n) {
  const int64_t nb = kp / 32;
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* arow = a + i * kp;
    const float* as = a_scales + i * nb;
    for (int64_t j = 0; j < n; j += 8) {
      Q8TileAvx2(arow, as, b, b_scales, c + i * n, j,
                 std::min<int64_t>(8, n - j), kp, nb);
    }
  }
}

/// Exact int32 dot of a q8 activation block against a nibble-packed q4
/// weight block: byte t = element t (low nibble) and 16+t (high nibble),
/// code = q + 8.
inline int32_t DotQ4BlockAvx2(const int8_t* a, const uint8_t* b) {
  const __m128i packed = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m128i mask = _mm_set1_epi8(0x0F);
  const __m128i lo = _mm_and_si128(packed, mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi16(packed, 4), mask);
  const __m256i eight = _mm256_set1_epi16(8);
  const __m256i b_lo = _mm256_sub_epi16(_mm256_cvtepu8_epi16(lo), eight);
  const __m256i b_hi = _mm256_sub_epi16(_mm256_cvtepu8_epi16(hi), eight);
  const __m256i a_lo = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(a)));
  const __m256i a_hi = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + 16)));
  const __m256i acc = _mm256_add_epi32(_mm256_madd_epi16(a_lo, b_lo),
                                       _mm256_madd_epi16(a_hi, b_hi));
  return HorizontalSumI32(acc);
}

void Q4GemmRowsAvx2(const int8_t* a, const float* a_scales, const uint8_t* b,
                    const float* b_scales, float* c, int64_t i0, int64_t i1,
                    int64_t kp, int64_t n) {
  const int64_t nb = kp / 32;
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* arow = a + i * kp;
    const float* as = a_scales + i * nb;
    for (int64_t j = 0; j < n; ++j) {
      const uint8_t* brow = b + j * (kp / 2);
      const float* bs = b_scales + j * nb;
      float sum = 0.0f;
      for (int64_t bb = 0; bb < nb; ++bb) {
        const int32_t dot = DotQ4BlockAvx2(arow + bb * 32, brow + bb * 16);
        sum += static_cast<float>(dot) * (as[bb] * bs[bb]);
      }
      c[i * n + j] = sum;
    }
  }
}

// ------------------------------------------------------- q8 quantizer
//
// Bit-exact with Q8QuantizeRowScalar by the argument in kernels.h. One
// block is four ymm of 8 floats; a short last block loads through zero
// masks and stores its pad lanes as code 0.

/// lround(y) clamped to [-127, 127] per lane, as int32; lanes where
/// \p valid is 0 are 0. Non-finite y converts to INT32_MIN and clamps to
/// -127, as glibc's lround + clamp does.
inline __m256i RoundClampAvx2(__m256 y, __m256i valid) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 t = _mm256_round_ps(y, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256 d = _mm256_sub_ps(y, t);
  const __m256 up =
      _mm256_and_ps(_mm256_cmp_ps(d, _mm256_set1_ps(0.5f), _CMP_GE_OQ), one);
  const __m256 down =
      _mm256_and_ps(_mm256_cmp_ps(d, _mm256_set1_ps(-0.5f), _CMP_LE_OQ), one);
  const __m256 q = _mm256_sub_ps(_mm256_add_ps(t, up), down);
  const __m256i qi = _mm256_min_epi32(
      _mm256_max_epi32(_mm256_cvttps_epi32(q), _mm256_set1_epi32(-127)),
      _mm256_set1_epi32(127));
  return _mm256_and_si256(qi, valid);
}

/// Lane masks for the four 8-float quarters of the block starting at j0:
/// all-ones where the element is inside the row.
inline void BlockMasksAvx2(int64_t j0, int64_t cols, __m256i* k) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const int32_t valid = static_cast<int32_t>(std::min<int64_t>(32, cols - j0));
  for (int q = 0; q < 4; ++q) {
    k[q] = _mm256_cmpgt_epi32(_mm256_set1_epi32(valid - 8 * q), iota);
  }
}

/// Quantizes one block held in v[0..3] (8 elements each), whose lanes
/// outside k[0..3] are +0: writes 32 codes and the block scale.
inline void QuantizeBlockAvx2(const __m256* v, const __m256i* k,
                              int8_t* values, float* scale) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 m = _mm256_setzero_ps();
  for (int q = 0; q < 4; ++q) {
    m = _mm256_max_ps(_mm256_and_ps(v[q], abs_mask), m);
  }
  __m128 m4 =
      _mm_max_ps(_mm256_castps256_ps128(m), _mm256_extractf128_ps(m, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  const float maxabs = _mm_cvtss_f32(m4);
  const float s = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  const __m256 inv = _mm256_set1_ps(1.0f / s);
  *scale = s;
  __m256i q[4];
  for (int i = 0; i < 4; ++i) {
    q[i] = RoundClampAvx2(_mm256_mul_ps(v[i], inv), k[i]);
  }
  // The saturating packs work per 128-bit lane, so dword d of `packed`
  // holds elements 8*(d%4) + 4*(d/4) .. +3; the permute restores element
  // order. Every code is in [-127, 127], so no pack saturates.
  const __m256i packed = _mm256_packs_epi16(_mm256_packs_epi32(q[0], q[1]),
                                            _mm256_packs_epi32(q[2], q[3]));
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(values),
      _mm256_permutevar8x32_epi32(packed,
                                  _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7)));
}

void Q8QuantizeRowAvx2(const float* row, int64_t cols, int8_t* values,
                       float* scales) {
  for (int64_t j0 = 0, b = 0; j0 < cols; j0 += 32, ++b) {
    __m256i k[4];
    __m256 v[4];
    BlockMasksAvx2(j0, cols, k);
    for (int q = 0; q < 4; ++q) {
      v[q] = _mm256_maskload_ps(row + j0 + 8 * q, k[q]);
    }
    QuantizeBlockAvx2(v, k, values + j0, scales + b);
  }
}

/// act(x + bias) matches the scalar `v > 0.0f ? v : 0.0f` through
/// _mm256_max_ps(v, 0), as in GemmTileAvx2.
void Q8BiasActQuantizeRowAvx2(float* row, const float* bias, int64_t cols,
                              int relu, int8_t* values, float* scales) {
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t j0 = 0, b = 0; j0 < cols; j0 += 32, ++b) {
    __m256i k[4];
    __m256 v[4];
    BlockMasksAvx2(j0, cols, k);
    for (int q = 0; q < 4; ++q) {
      float* r = row + j0 + 8 * q;
      v[q] = _mm256_add_ps(_mm256_maskload_ps(r, k[q]),
                           _mm256_maskload_ps(bias + j0 + 8 * q, k[q]));
      if (relu != 0) v[q] = _mm256_max_ps(v[q], zero);
      _mm256_maskstore_ps(r, k[q], v[q]);
    }
    if (values != nullptr) QuantizeBlockAvx2(v, k, values + j0, scales + b);
  }
}

// --------------------------------------------------------------- crc32
//
// The CRC-32 fold of Intel's "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", in its bit-reflected form
// with the constants of Linux's crc32-pclmul. Four 128-bit accumulators
// each fold 16 bytes forward by x^(4*128) per 64-byte step, are folded
// into one, which then folds 16 bytes per step; the 128-bit remainder is
// reduced to 64 bits, then 32, and a Barrett reduction gives the
// register. Only these functions carry the pclmul target, so no other
// function in this TU compiles differently; the AVX-512 table enters
// the same body (kernels.h).

/// x.lo * k.lo ^ x.hi * k.hi: \p x moved forward by the distance \p k
/// encodes.
__attribute__((target("pclmul"))) inline __m128i ClmulFold(__m128i x,
                                                           __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

__attribute__((target("pclmul"))) uint32_t Crc32UpdateClmul(
    uint32_t crc, const uint8_t* p, int64_t n) {
  if (n < 64) return Crc32UpdateScalar(crc, p, n);
  // Reflected and shifted left by one, as _mm_set_epi64x(hi, lo):
  // x^(4*128-32) : x^(4*128+32) mod P for the 64-byte step,
  // x^(128-32) : x^(128+32) mod P for the 16-byte step and the 128 -> 64
  // fold, x^64 mod P for the 64 -> 32 fold, and mu = x^64 / P : P for
  // the Barrett reduction.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(ClmulFold(x0, k1k2), Load128(p));
    x1 = _mm_xor_si128(ClmulFold(x1, k1k2), Load128(p + 16));
    x2 = _mm_xor_si128(ClmulFold(x2, k1k2), Load128(p + 32));
    x3 = _mm_xor_si128(ClmulFold(x3, k1k2), Load128(p + 48));
  }
  x0 = _mm_xor_si128(ClmulFold(x0, k3k4), x1);
  x0 = _mm_xor_si128(ClmulFold(x0, k3k4), x2);
  x0 = _mm_xor_si128(ClmulFold(x0, k3k4), x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = _mm_xor_si128(ClmulFold(x0, k3k4), Load128(p));
  }
  // 128 -> 64 bits (this also appends the 32 zero bits the register
  // needs), then 64 -> 32 more, then the Barrett reduction.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  crc = static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
  return Crc32UpdateScalar(crc, p, n);
}

namespace {

const KernelTable kAvx2Table = {
    Isa::kAvx2,
    "kernel.avx2",
    &MatMulBiasActRangeAvx2,
    &Q8GemmRowsAvx2,
    &Q4GemmRowsAvx2,
    &ConvGemmBiasActRowsAvx2,
    &MaxPoolAvx2,
    &Q8QuantizeRowAvx2,
    &Q8BiasActQuantizeRowAvx2,
    &Crc32UpdateClmul,
};

}  // namespace

const KernelTable* GetAvx2Table() { return &kAvx2Table; }

}  // namespace simd
}  // namespace dlsys

#else  // stub: SIMD off, non-x86 (NEON backend not yet written), or no AVX2

namespace dlsys {
namespace simd {
const KernelTable* GetAvx2Table() { return nullptr; }
}  // namespace simd
}  // namespace dlsys

#endif
