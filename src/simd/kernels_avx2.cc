#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

/// \file kernels_avx2.cc
/// \brief The AVX2 table: its trait over ymm registers, 8 floats per
/// vector and a 4-row fp32 tile, instantiating the shared bodies of
/// kernels_vec.h, and the PCLMULQDQ CRC-32 fold both vector tables enter.
/// Compiled with -mavx2 -O3 -ffp-contract=off (no -mfma: the parity
/// contract forbids contraction), and self-guarded so a -DDLSYS_SIMD=OFF
/// or non-x86 build compiles only the nullptr stub. The fold adds
/// PCLMULQDQ through a per-function target attribute rather than a TU
/// flag.

#if DLSYS_SIMD && (defined(__x86_64__) || defined(__i386__)) && \
    defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

namespace dlsys {
namespace simd {
namespace {

struct Avx2 {
  using F = __m256;
  using I = __m256i;
  using Mask = __m256i;  // all-ones in the live int32 lanes
  static constexpr int kLanes = 8;
  static constexpr int kMr = 4;  // C rows per full fp32 tile

  static I Iota() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }
  static Mask FirstLanes(int64_t n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)), Iota());
  }
  static F Zero() { return _mm256_setzero_ps(); }
  static F Set1(float v) { return _mm256_set1_ps(v); }
  static F Load(const float* p) { return _mm256_loadu_ps(p); }
  static F LoadMasked(const float* p, Mask m) {
    return _mm256_maskload_ps(p, m);
  }
  static void Store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static void StoreMasked(float* p, Mask m, F v) {
    _mm256_maskstore_ps(p, m, v);
  }
  static F Add(F a, F b) { return _mm256_add_ps(a, b); }
  static F Mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F Max(F a, F b) { return _mm256_max_ps(a, b); }
  static F Abs(F v) {
    return _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF)));
  }
  static float ReduceMax(F v) {
    __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(v),
                           _mm256_extractf128_ps(v, 1));
    m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
    return _mm_cvtss_f32(m4);
  }
  static F ToFloat(I v) { return _mm256_cvtepi32_ps(v); }
  static F Gather(const float* base, I idx) {
    return _mm256_i32gather_ps(base, idx, 4);
  }
  static I LoadI(const int32_t* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static I Set1I(int v) { return _mm256_set1_epi32(v); }
  static I AddI(I a, I b) { return _mm256_add_epi32(a, b); }
  static I MulI(I a, I b) { return _mm256_mullo_epi32(a, b); }
  static I Widen8(const int8_t* p) {
    return _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static I Madd16(I a, I b) { return _mm256_madd_epi16(a, b); }

  /// Lane c of the result is the sum of the 8 int32 lanes of p[c]: eight
  /// horizontal reductions done together (hadd within 128-bit lanes, then
  /// one cross-lane add). Integer adds, so any order is exact.
  static I ReduceDots(const I* p) {
    // h0123, 128-bit lane L: the lane-L sums of p[0] .. p[3]; h4567
    // likewise.
    const I h0123 = _mm256_hadd_epi32(_mm256_hadd_epi32(p[0], p[1]),
                                      _mm256_hadd_epi32(p[2], p[3]));
    const I h4567 = _mm256_hadd_epi32(_mm256_hadd_epi32(p[4], p[5]),
                                      _mm256_hadd_epi32(p[6], p[7]));
    return _mm256_add_epi32(_mm256_permute2x128_si256(h0123, h4567, 0x20),
                            _mm256_permute2x128_si256(h0123, h4567, 0x31));
  }

  /// lround(y) clamped to [-127, 127] per lane, as int32; lanes where
  /// \p valid is 0 are 0. Non-finite y converts to INT32_MIN and clamps
  /// to -127, as glibc's lround + clamp does.
  static I RoundClamp(F y, Mask valid) {
    const F one = _mm256_set1_ps(1.0f);
    const F t = _mm256_round_ps(y, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const F d = _mm256_sub_ps(y, t);
    const F up =
        _mm256_and_ps(_mm256_cmp_ps(d, _mm256_set1_ps(0.5f), _CMP_GE_OQ), one);
    const F down = _mm256_and_ps(
        _mm256_cmp_ps(d, _mm256_set1_ps(-0.5f), _CMP_LE_OQ), one);
    const F q = _mm256_sub_ps(_mm256_add_ps(t, up), down);
    const I qi = _mm256_min_epi32(
        _mm256_max_epi32(_mm256_cvttps_epi32(q), _mm256_set1_epi32(-127)),
        _mm256_set1_epi32(127));
    return _mm256_and_si256(qi, valid);
  }

  /// The block's four vectors of codes as 32 bytes. The saturating packs
  /// work per 128-bit lane, so dword d of `packed` holds elements
  /// 8*(d%4) + 4*(d/4) .. +3; the permute restores element order. Every
  /// code is in [-127, 127], so no pack saturates.
  static void StoreCodes(int8_t* values, const I* q) {
    const I packed = _mm256_packs_epi16(_mm256_packs_epi32(q[0], q[1]),
                                        _mm256_packs_epi32(q[2], q[3]));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(values),
        _mm256_permutevar8x32_epi32(packed,
                                    _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7)));
  }

  /// Exact int32 dot of a q8 activation block against a nibble-packed q4
  /// weight block: byte t = element t (low nibble) and 16+t (high
  /// nibble), code = q + 8.
  static int32_t DotQ4Block(const int8_t* a, const uint8_t* b) {
    const __m128i packed =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    const __m128i mask = _mm_set1_epi8(0x0F);
    const __m128i lo = _mm_and_si128(packed, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(packed, 4), mask);
    const I eight = _mm256_set1_epi16(8);
    const I b_lo = _mm256_sub_epi16(_mm256_cvtepu8_epi16(lo), eight);
    const I b_hi = _mm256_sub_epi16(_mm256_cvtepu8_epi16(hi), eight);
    const I a_lo = Widen8(a);
    const I a_hi = Widen8(a + 16);
    const I acc = _mm256_add_epi32(_mm256_madd_epi16(a_lo, b_lo),
                                   _mm256_madd_epi16(a_hi, b_hi));
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
  }

  /// vpermps reads only an index's low three bits, so each source is
  /// permuted whole and bit 3, shifted into the sign bit, picks hi.
  static F Permute2(F lo, I idx, F hi) {
    return _mm256_blendv_ps(_mm256_permutevar8x32_ps(lo, idx),
                            _mm256_permutevar8x32_ps(hi, idx),
                            _mm256_castsi256_ps(_mm256_slli_epi32(idx, 28)));
  }
};

}  // namespace
}  // namespace simd
}  // namespace dlsys

#include "src/simd/kernels_vec.h"

namespace dlsys {
namespace simd {
namespace {

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
    &MatMulBiasActRange<Avx2>,
    &Q8GemmRows<Avx2>,
    &Q4GemmRows<Avx2>,
    &ConvGemmBiasActRows<Avx2>,
    &MaxPool<Avx2>,
    &Q8QuantizeRow<Avx2>,
    &Q8BiasActQuantizeRow<Avx2>,
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
