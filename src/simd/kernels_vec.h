#ifndef DLSYS_SIMD_KERNELS_VEC_H_
#define DLSYS_SIMD_KERNELS_VEC_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/simd/kernels.h"

/// \file kernels_vec.h
/// \brief The AVX2 and AVX-512 tables' kernel bodies, each written once as
/// a template over a per-ISA trait T. Only kernels_avx2.cc and
/// kernels_avx512.cc include this header, after <immintrin.h> and their
/// trait, so every instantiation is compiled with exactly its TU's target
/// flags and -ffp-contract=off. The anonymous namespace gives each TU its
/// own copies, so the linker can never merge an -mavx512f body into the
/// AVX2 table or into baseline code.
///
/// The trait carries only what differs between the tables:
/// - F, I and Mask: the float, int32 and lane-mask vector types, and
///   kLanes, the floats per vector (8 or 16);
/// - kMr, the full fp32 tile height (4 or 8), which fixes the row ladder;
/// - thin wrappers: FirstLanes(n), a mask of lanes [0, n) for 0 <= n <=
///   kLanes; Zero, Set1, Load, LoadMasked (dead lanes read as +0 and
///   their memory is never touched), Store, StoreMasked, Add, Mul, Max,
///   Abs, ReduceMax and ToFloat; Gather (float lanes at base + idx); LoadI
///   (an aligned int32 vector), Set1I, AddI, MulI and Iota (0, 1, ...);
///   Widen8 (2 * kLanes int8 codes sign-extended to int16) and Madd16
///   (vpmaddwd);
/// - five whole ISA pieces: ReduceDots (lane c = the sum of the int32
///   lanes of p[c]), RoundClamp (lround clamped to [-127, 127], 0 outside
///   the mask), StoreCodes (32 int32 codes narrowed to 32 int8 in element
///   order), DotQ4Block (the exact int32 dot of a q8 block against a
///   nibble-packed q4 block) and Permute2 (lane l = element idx[l] of the
///   2 * kLanes floats lo:hi; index bits above that are ignored).

namespace dlsys {
namespace simd {
namespace {

// ---------------------------------------------------------------- fp32
//
// One register-tile template serves matmul_bias_act_range and
// conv_gemm_bias_act_rows. A tile is MR rows (1-4, or 8 on AVX-512) x NV
// vectors of C, held in registers across the whole p loop: a full 8 x 2
// AVX-512 tile is 16 accumulators, 2 B vectors and one broadcast of the
// 32 zmm, and each B row it loads serves 8 rows of C. Every row block of
// a range, short or not, and every column tail runs through it. A column
// tail loads B (and a column bias) lane-masked and stores only its live
// lanes, so no element leaves the vector path. Each element starts at +0
// and adds one float product per p in ascending p, then its bias and
// max(v, 0) in registers before the single store: the scalar table's
// chain element for element (see kernels.h).

/// C(i..i+MR, j..j+kLanes*NV) from the row-major A(MxK) rows at a and B's
/// row p at rows.Row(b, p); C's rows are ldc apart, and a, c and the bias
/// (nullptr: none) start at the tile's row and column. On a tail tile
/// (kTail) the last vector covers only the lanes of \p tail. The unroll
/// pragmas flatten the row and vector loops so the accumulator array
/// stays in registers.
template <class T, int MR, int NV, bool kTail, class Rows>
inline void GemmTile(const float* a, const float* b, Rows rows,
                     const float* bias, float* c, int64_t ldc, int64_t k,
                     typename T::Mask tail, int relu) {
  using F = typename T::F;
  constexpr int kL = T::kLanes;
  F acc[MR][NV];
#pragma GCC unroll 8
  for (int ii = 0; ii < MR; ++ii) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[ii][v] = T::Zero();
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = rows.Row(b, p);
    F bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      bv[v] = kTail && v == NV - 1 ? T::LoadMasked(brow + kL * v, tail)
                                   : T::Load(brow + kL * v);
    }
#pragma GCC unroll 8
    for (int ii = 0; ii < MR; ++ii) {
      const F av = T::Set1(a[ii * k + p]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[ii][v] = T::Add(acc[ii][v], T::Mul(av, bv[v]));
      }
    }
  }
  F bias_v[NV];
#pragma GCC unroll 2
  for (int v = 0; v < NV; ++v) {
    bias_v[v] = bias == nullptr || Rows::kRowBias ? T::Zero()
                : kTail && v == NV - 1 ? T::LoadMasked(bias + kL * v, tail)
                                       : T::Load(bias + kL * v);
  }
#pragma GCC unroll 8
  for (int ii = 0; ii < MR; ++ii) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      F x = acc[ii][v];
      if (bias != nullptr) {
        x = T::Add(x, Rows::kRowBias ? T::Set1(bias[ii]) : bias_v[v]);
      }
      // Zero as the second operand: max_ps returns it on NaN and on the
      // -0/+0 tie, which is the scalar `v > 0.0f ? v : 0.0f`.
      if (relu != 0) x = T::Max(x, T::Zero());
      float* crow = c + ii * ldc + kL * v;
      if (kTail && v == NV - 1) {
        T::StoreMasked(crow, tail, x);
      } else {
        T::Store(crow, x);
      }
    }
  }
}

/// Every column of MR rows of C: full two-vector tiles, then one tail
/// tile of one or two vectors. A column bias moves with the tiles.
template <class T, int MR, class Rows>
void GemmRowBlock(const float* a, const float* b, Rows rows,
                  const float* bias, float* c, int64_t ldc, int64_t k,
                  int64_t n, int relu) {
  constexpr int64_t kL = T::kLanes;
  const auto bias_at = [bias](int64_t j) {
    return bias == nullptr || Rows::kRowBias ? bias : bias + j;
  };
  int64_t j = 0;
  for (; j + 2 * kL <= n; j += 2 * kL) {
    GemmTile<T, MR, 2, false>(a, b + j, rows, bias_at(j), c + j, ldc, k,
                              T::FirstLanes(kL), relu);
  }
  const int64_t rest = n - j;
  if (rest == 0) return;
  if (rest > kL) {
    GemmTile<T, MR, 2, true>(a, b + j, rows, bias_at(j), c + j, ldc, k,
                             T::FirstLanes(rest - kL), relu);
  } else {
    GemmTile<T, MR, 1, true>(a, b + j, rows, bias_at(j), c + j, ldc, k,
                             T::FirstLanes(rest), relu);
  }
}

/// C rows [i0, i1) in blocks of kMr rows, then (when kMr is 8) at most
/// one block of four, and one of 1-3 rows. A row bias moves with the
/// blocks.
template <class T, class Rows>
void GemmRange(const float* a, const float* b, Rows rows, const float* bias,
               float* c, int64_t ldc, int64_t i0, int64_t i1, int64_t k,
               int64_t n, int relu) {
  const auto bias_at = [bias](int64_t i) {
    return bias != nullptr && Rows::kRowBias ? bias + i : bias;
  };
  int64_t i = i0;
  for (; i + T::kMr <= i1; i += T::kMr) {
    GemmRowBlock<T, T::kMr>(a + i * k, b, rows, bias_at(i), c + i * ldc,
                            ldc, k, n, relu);
  }
  if constexpr (T::kMr > 4) {
    if (i + 4 <= i1) {
      GemmRowBlock<T, 4>(a + i * k, b, rows, bias_at(i), c + i * ldc, ldc,
                         k, n, relu);
      i += 4;
    }
  }
  switch (i1 - i) {
    case 3:
      GemmRowBlock<T, 3>(a + i * k, b, rows, bias_at(i), c + i * ldc, ldc,
                         k, n, relu);
      break;
    case 2:
      GemmRowBlock<T, 2>(a + i * k, b, rows, bias_at(i), c + i * ldc, ldc,
                         k, n, relu);
      break;
    case 1:
      GemmRowBlock<T, 1>(a + i * k, b, rows, bias_at(i), c + i * ldc, ldc,
                         k, n, relu);
      break;
    default:
      break;
  }
}

template <class T>
void MatMulBiasActRange(const float* a, const float* b, const float* bias,
                        float* c, int64_t i0, int64_t i1, int64_t k,
                        int64_t n, int relu) {
  GemmRange<T>(a, b, DenseRows{n}, bias, c, n, i0, i1, k, n, relu);
}

/// The implicit conv of output rows [oy0, oy1): per output row, an
/// (m x k) * (k x wo) GEMM whose B row p is tap p's run of the phase
/// planes, with channel i's outputs ho * wo floats apart.
template <class T>
void ConvGemmBiasActRows(const float* a, const float* planes,
                         const int64_t* tap_off, int64_t row_stride,
                         const float* bias, float* c, int64_t m, int64_t k,
                         int64_t ho, int64_t wo, int64_t oy0, int64_t oy1,
                         int relu) {
  for (int64_t oy = oy0; oy < oy1; ++oy) {
    GemmRange<T>(a, planes + oy * row_stride, TapRows{tap_off}, bias,
                 c + oy * wo, ho * wo, 0, m, k, wo, relu);
  }
}

// ------------------------------------------------------------ max pool
//
// One lane per output column, `lanes` = max(1, min(kLanes, 2 * kLanes /
// window)) outputs per vector. Per window row, two masked loads hold the
// (up to) 2 * kLanes adjacent floats that the row's taps of those outputs
// read, and tap kx reaches lane l by one two-source permute of the pair:
// element window * l + kx. A window wider than the pair (one lane) takes
// its row in chunks of 2 * kLanes taps. The loads are masked to the
// floats the window reads, so none runs past a plane, and only live
// lanes are stored. Each lane folds its window in row-major (ky, kx)
// order from -inf as best = max_ps(x, best), which is the scalar
// `x > best ? x : best` (see kernels.h). kWindow > 0 fixes the window at
// compile time, so the permute indices are constants; 0 reads it at run
// time.

template <class T, int kWindow>
void MaxPoolBody(const float* x, float* y, int64_t h, int64_t w,
                 int64_t runtime_window, int64_t t0, int64_t t1) {
  using F = typename T::F;
  using I = typename T::I;
  constexpr int64_t kL = T::kLanes;
  const int64_t window = kWindow > 0 ? kWindow : runtime_window;
  const int64_t ho = h / window, wo = w / window;
  const int64_t lanes = std::max<int64_t>(1, std::min(kL, 2 * kL / window));
  const F neg_inf = T::Set1(-std::numeric_limits<float>::infinity());
  // tap_idx(o): lane l's tap at offset o into the loaded pair. Lanes past
  // `lanes` wrap and are never stored. A run-time window reads them from
  // idx, built once per call rather than once per tap.
  const I first = T::MulI(T::Iota(), T::Set1I(static_cast<int>(window)));
  I idx[kWindow > 0 ? 1 : 2 * kL];
  if constexpr (kWindow == 0) {
    for (int64_t o = 0; o < std::min(window, 2 * kL); ++o) {
      idx[o] = T::AddI(first, T::Set1I(static_cast<int>(o)));
    }
  }
  const auto tap_idx = [&](int64_t o) {
    return kWindow > 0 ? T::AddI(first, T::Set1I(static_cast<int>(o)))
                       : idx[o];
  };
  for (int64_t t = t0; t < t1; ++t) {
    const float* xplane = x + t * h * w;
    float* yplane = y + t * ho * wo;
    for (int64_t oy = 0; oy < ho; ++oy) {
      for (int64_t ox = 0; ox < wo; ox += lanes) {
        const int64_t nr = std::min(lanes, wo - ox);
        const float* win = xplane + oy * window * w + ox * window;
        F best = neg_inf;
        for (int64_t ky = 0; ky < window; ++ky) {
          const float* xrow = win + ky * w;
          for (int64_t kx0 = 0; kx0 < window; kx0 += 2 * kL) {
            const int64_t span = std::min(2 * kL, nr * window - kx0);
            const F lo = T::LoadMasked(xrow + kx0,
                                       T::FirstLanes(std::min(kL, span)));
            const F hi = T::LoadMasked(
                xrow + kx0 + kL,
                T::FirstLanes(std::max<int64_t>(0, span - kL)));
            const int64_t kx1 = std::min(window, kx0 + 2 * kL);
            for (int64_t kx = kx0; kx < kx1; ++kx) {
              best = T::Max(T::Permute2(lo, tap_idx(kx - kx0), hi), best);
            }
          }
        }
        T::StoreMasked(yplane + oy * wo + ox, T::FirstLanes(nr), best);
      }
    }
  }
}

template <class T>
void MaxPool(const float* x, float* y, int64_t h, int64_t w, int64_t window,
             int64_t t0, int64_t t1) {
  if (window == 2) {
    MaxPoolBody<T, 2>(x, y, h, w, window, t0, t1);
  } else {
    MaxPoolBody<T, 0>(x, y, h, w, window, t0, t1);
  }
}

// ------------------------------------------------------- block-quantized

/// A column tile of the q8 GEMM: outputs [j, j + nr) of row i, nr <=
/// kLanes. Per block, the kLanes columns' int32 dots are reduced together
/// and each lane then adds float(dot) * (a_scale * b_scale) to its own
/// float chain, in ascending block order: the scalar chain per output.
/// Lanes past nr re-read column j and are never stored.
template <class T>
inline void Q8Tile(const int8_t* arow, const float* as, const int8_t* b,
                   const float* b_scales, float* crow, int64_t j, int64_t nr,
                   int64_t kp, int64_t nb) {
  using F = typename T::F;
  using I = typename T::I;
  constexpr int kL = T::kLanes;
  constexpr int kParts = 16 / kL;  // int16 vectors per 32-code block: 1, 2
  const int8_t* bcol[kL];
  alignas(sizeof(I)) int32_t scale_idx[kL];
  for (int64_t c = 0; c < kL; ++c) {
    const int64_t col = j + (c < nr ? c : 0);
    bcol[c] = b + col * kp;
    scale_idx[c] = static_cast<int32_t>(col * nb);
  }
  const I vidx = T::LoadI(scale_idx);
  F sum = T::Zero();
  for (int64_t bb = 0; bb < nb; ++bb) {
    const int8_t* ablock = arow + bb * 32;
    const I a16 = T::Widen8(ablock);
    I p[kL];
#pragma GCC unroll 16
    for (int c = 0; c < kL; ++c) {
      const int8_t* bblock = bcol[c] + bb * 32;
      p[c] = T::Madd16(a16, T::Widen8(bblock));
      if constexpr (kParts == 2) {
        p[c] = T::AddI(p[c], T::Madd16(T::Widen8(ablock + 2 * kL),
                                       T::Widen8(bblock + 2 * kL)));
      }
    }
    const F dot = T::ToFloat(T::ReduceDots(p));
    const F bs = T::Gather(b_scales + bb, vidx);
    const F ab = T::Mul(T::Set1(as[bb]), bs);
    sum = T::Add(sum, T::Mul(dot, ab));
  }
  T::StoreMasked(crow + j, T::FirstLanes(nr), sum);
}

template <class T>
void Q8GemmRows(const int8_t* a, const float* a_scales, const int8_t* b,
                const float* b_scales, float* c, int64_t i0, int64_t i1,
                int64_t kp, int64_t n) {
  constexpr int64_t kL = T::kLanes;
  const int64_t nb = kp / 32;
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* arow = a + i * kp;
    const float* as = a_scales + i * nb;
    for (int64_t j = 0; j < n; j += kL) {
      Q8Tile<T>(arow, as, b, b_scales, c + i * n, j, std::min(kL, n - j), kp,
                nb);
    }
  }
}

template <class T>
void Q4GemmRows(const int8_t* a, const float* a_scales, const uint8_t* b,
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
        const int32_t dot = T::DotQ4Block(arow + bb * 32, brow + bb * 16);
        sum += static_cast<float>(dot) * (as[bb] * bs[bb]);
      }
      c[i * n + j] = sum;
    }
  }
}

// ------------------------------------------------------- q8 quantizer
//
// Bit-exact with Q8QuantizeRowScalar by the argument in kernels.h. One
// block is 32 / kLanes vectors; a short last block loads through zero
// masks and stores its pad lanes as code 0.

/// Masks for the vectors of the block starting at j0: lanes inside the
/// row.
template <class T>
inline void BlockMasks(int64_t j0, int64_t cols, typename T::Mask* k) {
  constexpr int64_t kL = T::kLanes;
  const int64_t valid = std::min<int64_t>(32, cols - j0);
  for (int64_t q = 0; q < 32 / kL; ++q) {
    k[q] = T::FirstLanes(std::clamp<int64_t>(valid - kL * q, 0, kL));
  }
}

/// Quantizes one block held in v[0 .. 32 / kLanes), whose lanes outside
/// k are +0: writes 32 codes and the block scale.
template <class T>
inline void QuantizeBlock(const typename T::F* v, const typename T::Mask* k,
                          int8_t* values, float* scale) {
  using F = typename T::F;
  constexpr int kParts = 32 / T::kLanes;
  F m = T::Zero();
  for (int q = 0; q < kParts; ++q) m = T::Max(T::Abs(v[q]), m);
  const float maxabs = T::ReduceMax(m);
  const float s = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  const F inv = T::Set1(1.0f / s);
  *scale = s;
  typename T::I q[kParts];
  for (int i = 0; i < kParts; ++i) {
    q[i] = T::RoundClamp(T::Mul(v[i], inv), k[i]);
  }
  T::StoreCodes(values, q);
}

template <class T>
void Q8QuantizeRow(const float* row, int64_t cols, int8_t* values,
                   float* scales) {
  constexpr int kParts = 32 / T::kLanes;
  for (int64_t j0 = 0, b = 0; j0 < cols; j0 += 32, ++b) {
    typename T::Mask k[kParts];
    typename T::F v[kParts];
    BlockMasks<T>(j0, cols, k);
    for (int q = 0; q < kParts; ++q) {
      v[q] = T::LoadMasked(row + j0 + T::kLanes * q, k[q]);
    }
    QuantizeBlock<T>(v, k, values + j0, scales + b);
  }
}

/// act(x + bias) matches the scalar `v > 0.0f ? v : 0.0f` through
/// max_ps(v, 0), as in GemmTile.
template <class T>
void Q8BiasActQuantizeRow(float* row, const float* bias, int64_t cols,
                          int relu, int8_t* values, float* scales) {
  constexpr int kParts = 32 / T::kLanes;
  for (int64_t j0 = 0, b = 0; j0 < cols; j0 += 32, ++b) {
    typename T::Mask k[kParts];
    typename T::F v[kParts];
    BlockMasks<T>(j0, cols, k);
    for (int q = 0; q < kParts; ++q) {
      float* r = row + j0 + T::kLanes * q;
      v[q] = T::Add(T::LoadMasked(r, k[q]),
                    T::LoadMasked(bias + j0 + T::kLanes * q, k[q]));
      if (relu != 0) v[q] = T::Max(v[q], T::Zero());
      T::StoreMasked(r, k[q], v[q]);
    }
    if (values != nullptr) QuantizeBlock<T>(v, k, values + j0, scales + b);
  }
}

}  // namespace
}  // namespace simd
}  // namespace dlsys

#endif  // DLSYS_SIMD_KERNELS_VEC_H_
