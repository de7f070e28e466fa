#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

/// \file kernels_avx512.cc
/// \brief The AVX-512 table (F+BW+VL+DQ): its trait over zmm registers,
/// 16 floats per vector and an 8-row fp32 tile, instantiating the shared
/// bodies of kernels_vec.h. Compiled with -mavx512f -mavx512bw -mavx512vl
/// -mavx512dq -O3 -ffp-contract=off, and self-guarded so a build without
/// those flags compiles only the nullptr stub. Same parity contract as
/// every table (kernels.h).

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

#include <cstdint>

namespace dlsys {
namespace simd {
namespace {

struct Avx512 {
  using F = __m512;
  using I = __m512i;
  using Mask = __mmask16;
  static constexpr int kLanes = 16;
  static constexpr int kMr = 8;  // C rows per full fp32 tile

  static Mask FirstLanes(int64_t n) {
    return static_cast<Mask>((1u << n) - 1u);
  }
  static F Zero() { return _mm512_setzero_ps(); }
  static F Set1(float v) { return _mm512_set1_ps(v); }
  static F Load(const float* p) { return _mm512_loadu_ps(p); }
  static F LoadMasked(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void Store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static void StoreMasked(float* p, Mask m, F v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  static F Add(F a, F b) { return _mm512_add_ps(a, b); }
  static F Mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F Max(F a, F b) { return _mm512_max_ps(a, b); }
  static F Abs(F v) { return _mm512_abs_ps(v); }
  static float ReduceMax(F v) { return _mm512_reduce_max_ps(v); }
  static F ToFloat(I v) { return _mm512_cvtepi32_ps(v); }
  static F Gather(const float* base, I idx) {
    return _mm512_i32gather_ps(idx, base, 4);
  }
  static I LoadI(const int32_t* p) { return _mm512_load_si512(p); }
  static I Set1I(int v) { return _mm512_set1_epi32(v); }
  static I AddI(I a, I b) { return _mm512_add_epi32(a, b); }
  static I MulI(I a, I b) { return _mm512_mullo_epi32(a, b); }
  static I Iota() {
    return _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                             14, 15);
  }
  static I Widen8(const int8_t* p) {
    return _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static I Madd16(I a, I b) { return _mm512_madd_epi16(a, b); }

  /// Lane c of the result is the sum of the 16 int32 lanes of p[c]:
  /// sixteen horizontal reductions done together by unpack-and-add
  /// (pairs, then quads within each 128-bit lane) and two 128-bit-lane
  /// shuffle rounds. Integer adds, so any order is exact.
  static I ReduceDots(const I* p) {
    I s2[8], s4[4];
#pragma GCC unroll 8
    for (int c = 0; c < 8; ++c) {
      s2[c] = _mm512_add_epi32(_mm512_unpacklo_epi32(p[2 * c], p[2 * c + 1]),
                               _mm512_unpackhi_epi32(p[2 * c], p[2 * c + 1]));
    }
    // s4[c], 128-bit lane L: the lane-L sums of p[4c] .. p[4c + 3].
#pragma GCC unroll 4
    for (int c = 0; c < 4; ++c) {
      s4[c] = _mm512_add_epi32(
          _mm512_unpacklo_epi64(s2[2 * c], s2[2 * c + 1]),
          _mm512_unpackhi_epi64(s2[2 * c], s2[2 * c + 1]));
    }
    constexpr int kEven = _MM_SHUFFLE(2, 0, 2, 0);
    constexpr int kOdd = _MM_SHUFFLE(3, 1, 3, 1);
    const I t01 = _mm512_add_epi32(_mm512_shuffle_i32x4(s4[0], s4[1], kEven),
                                   _mm512_shuffle_i32x4(s4[0], s4[1], kOdd));
    const I t23 = _mm512_add_epi32(_mm512_shuffle_i32x4(s4[2], s4[3], kEven),
                                   _mm512_shuffle_i32x4(s4[2], s4[3], kOdd));
    return _mm512_add_epi32(_mm512_shuffle_i32x4(t01, t23, kEven),
                            _mm512_shuffle_i32x4(t01, t23, kOdd));
  }

  /// lround(y) clamped to [-127, 127] per lane, as int32; lanes outside
  /// \p valid are 0. Non-finite y converts to INT32_MIN and clamps to
  /// -127, as glibc's lround + clamp does.
  static I RoundClamp(F y, Mask valid) {
    const F one = _mm512_set1_ps(1.0f);
    const F t = _mm512_roundscale_ps(y, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const F d = _mm512_sub_ps(y, t);
    F q = _mm512_mask_add_ps(
        t, _mm512_cmp_ps_mask(d, _mm512_set1_ps(0.5f), _CMP_GE_OQ), t, one);
    q = _mm512_mask_sub_ps(
        q, _mm512_cmp_ps_mask(d, _mm512_set1_ps(-0.5f), _CMP_LE_OQ), q, one);
    const I qi = _mm512_min_epi32(
        _mm512_max_epi32(_mm512_cvttps_epi32(q), _mm512_set1_epi32(-127)),
        _mm512_set1_epi32(127));
    return _mm512_maskz_mov_epi32(valid, qi);
  }

  /// The block's two vectors of codes, each narrowed to 16 bytes.
  static void StoreCodes(int8_t* values, const I* q) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(values),
                     _mm512_cvtepi32_epi8(q[0]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(values + 16),
                     _mm512_cvtepi32_epi8(q[1]));
  }

  /// Exact int32 dot of a q8 activation block against a nibble-packed q4
  /// weight block (byte t = elements t and 16+t, code = q + 8).
  static int32_t DotQ4Block(const int8_t* a, const uint8_t* b) {
    const __m128i packed =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    const __m128i mask = _mm_set1_epi8(0x0F);
    const __m128i lo = _mm_and_si128(packed, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(packed, 4), mask);
    const __m256i codes =
        _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
    const I b16 = _mm512_sub_epi16(_mm512_cvtepu8_epi16(codes),
                                   _mm512_set1_epi16(8));
    return _mm512_reduce_add_epi32(_mm512_madd_epi16(Widen8(a), b16));
  }

  static F Permute2(F lo, I idx, F hi) {
    return _mm512_permutex2var_ps(lo, idx, hi);
  }
};

}  // namespace
}  // namespace simd
}  // namespace dlsys

#include "src/simd/kernels_vec.h"

namespace dlsys {
namespace simd {
namespace {

const KernelTable kAvx512Table = {
    Isa::kAvx512,
    "kernel.avx512",
    &MatMulBiasActRange<Avx512>,
    &Q8GemmRows<Avx512>,
    &Q4GemmRows<Avx512>,
    &ConvGemmBiasActRows<Avx512>,
    &MaxPool<Avx512>,
    &Q8QuantizeRow<Avx512>,
    &Q8BiasActQuantizeRow<Avx512>,
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
