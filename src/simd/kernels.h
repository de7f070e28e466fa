#ifndef DLSYS_SIMD_KERNELS_H_
#define DLSYS_SIMD_KERNELS_H_

#include <cstdint>

/// \file kernels.h
/// \brief Internal per-ISA microkernel declarations behind the dispatch
/// registry (src/simd/dispatch.h). Not part of the public API: callers go
/// through src/tensor/ops.h and src/tensor/int8_gemm.h, which fetch the
/// active KernelTable and hand these range kernels to ParallelFor, and
/// through src/nn/serialize.h, whose checksum runs crc32_update.
///
/// ## Parity contract (the reason these signatures look the way they do)
///
/// Every kernel computes a *range* of output elements — GEMM rows
/// [i0, i1), conv output rows [oy0, oy1), or pooled planes [t0, t1) — so
/// the runtime's static partition decides only which worker runs a range,
/// never the arithmetic inside it. Within a range:
///
/// - fp32 kernels reproduce the scalar reference's per-element operation
///   sequence exactly: one float multiply then one float add per p, in
///   ascending p — one chain for every fp32 kernel. SIMD variants
///   vectorize across *independent output elements* only, never across
///   the reduction, and are compiled with -ffp-contract=off, so they are
///   **bitwise identical** to the scalar kernels — no FMA, no
///   reassociation, no tolerance needed. (Built with default flags, GCC
///   fuses the mul+add pair into an FMA and the bits change, so the
///   register tiles live only in the kernel TUs.)
/// - every kernel body of the AVX2 and AVX-512 tables is written once,
///   in kernels_vec.h, as a template over a per-ISA trait (vector and
///   mask types, lane count, tile height, thin intrinsic wrappers and
///   five ISA-specific pieces); each vector TU instantiates it over its
///   own trait. A change to an algorithm lands on both tables at once,
///   and tests/test_simd.cc's parity tests check it on every table.
/// - the one dense entry, matmul_bias_act_range (row-major A and B; a
///   null bias and relu off give the plain product), and the implicit
///   conv GEMM share one fp32 register tile per table: 1-4 rows of C
///   (1-4 or 8 on AVX-512) by up to 16 (AVX2) or 32 (scalar, AVX-512)
///   columns, so a short row block runs the same chain as a full one,
///   and how a range is cut into row blocks never changes a bit; the
///   AVX2/AVX-512 column tails load B and a column bias with a lane mask
///   and store only their live lanes. The dense and conv GEMMs differ
///   only in the tile's B-row policy below and C's row stride. Every
///   element starts at +0, adds its float products in ascending p, then
///   adds its bias and applies relu as max(v, 0) before its single
///   store. max_ps(v, 0) returns its second operand on a NaN and on the
///   -0/+0 tie, which is the scalar `v > 0.0f ? v : 0.0f`. A sum started
///   at +0 is never -0, so a +-0 product (a conv tap on the zero border,
///   say) leaves it unchanged.
/// - integer kernels (q8/q4 block) accumulate in int32, which is
///   associative: any vector order is exact, so they are bit-exact by
///   construction. The per-block float epilogue of the q8/q4 kernels
///   follows the scalar chain (ascending block index, float(dot) *
///   (a_scale * b_scale)) element-for-element. A column tile reduces the
///   int32 block dots of all its outputs together (still exact) and then
///   runs each output's float chain in its own lane.
/// - max pooling folds each output's window in row-major (ky, kx) order
///   from -inf with best = x > best ? x : best. The vector entries keep
///   that fold per lane, one lane per output column, as
///   max_ps(x, best): the instruction returns its second operand on a
///   NaN or on a -0/+0 tie, which is exactly the scalar ternary. So NaN,
///   all-NaN windows (-inf), -inf and signed-zero ties are bit-identical;
///   folding the window in any other order would not be (a column-first
///   fold returns +0 where the reference returns -0). How a tap's lanes
///   are fetched does not touch the fold: both vector tables permute them
///   out of two loads that hold a window row's taps (AVX-512 with one
///   two-source permute, AVX2 with two vpermps and a blend on index bit
///   3). MaxPool2D's training forward runs this entry too.
/// - the q8 quantizer (q8_quantize_row, and the fused epilogue that ends
///   in it) reproduces the scalar `std::lround` loop per block:
///   - the block max is |x| folded with `a > m ? a : m` from m = 0. NaN
///     never wins that compare and every candidate is a non-negative
///     float, so the max does not depend on order or lane layout;
///   - scale = max > 0 ? max / 127 : 1 and inv = 1 / scale are the same
///     two scalar float operations the reference runs;
///   - y = x * inv rounds half away from zero as t = trunc(y), q = t +
///     (y - t >= 0.5) - (y - t <= -0.5): for |y| < 2^23 the difference
///     y - t is exact, and above that y is already an integer;
///   - q is clamped to [-127, 127], and lanes past `cols` (the pad) are
///     forced to code 0 whatever the arithmetic gave them.
///   A finite inv keeps |y| near 127: |x| <= max, and scale and inv are
///   each one rounding from max / 127 (a denormal scale that still has a
///   finite inverse is at least 2^-128, so its rounding error stays below
///   2^-20), so q fits the 32-bit conversion with room to spare. An
///   infinite inv (a zero or denormal max whose scale underflows) makes
///   y = +-inf, or NaN where x = 0; an infinite x makes inv = 0 and
///   y = NaN. glibc's x86-64 lround returns LONG_MIN for all three, which
///   the clamp sends to -127; the vector path keeps them non-finite
///   through t and q, converts them to INT32_MIN, and clamps that to
///   -127 too. Zeroing the pad lanes matters exactly there: a pad lane
///   holds x = 0, and 0 * inf is NaN.
/// - crc32_update is integer arithmetic over GF(2), so it is exact: every
///   table returns the same register for every input, at any length and
///   start alignment. The scalar table runs slicing-by-8; the AVX2 and
///   AVX-512 tables share one PCLMULQDQ fold (Crc32UpdateClmul below),
///   which folds 64-byte steps, then 16-byte steps, reduces the 128-bit
///   remainder to 32 bits with a Barrett reduction, and hands the last
///   n mod 16 bytes (and any n < 64) to the scalar body. The v2
///   parameter file (src/nn/serialize.h) checks and stamps its CRC
///   through the active table, so its bytes do not depend on the table.
///
/// Each ISA translation unit is compiled with exactly the target flags it
/// needs (-mavx2 / -mavx512*) and self-guards, and every other TU,
/// kernels_scalar.cc included, compiles for baseline x86-64, so the
/// binary stays safe to load on any CPU: AVX code only executes after
/// runtime detection.
/// Non-x86 builds (e.g. aarch64/NEON, currently a stub) fall back to the
/// scalar table.

namespace dlsys {
namespace simd {

struct KernelTable;

/// Scalar reference table: always available; every other table
/// reproduces its per-element chains bit for bit.
const KernelTable* GetScalarTable();
/// AVX2 table, or nullptr when not compiled into this binary.
const KernelTable* GetAvx2Table();
/// AVX-512 (F+BW+VL+DQ) table, or nullptr when not compiled in.
const KernelTable* GetAvx512Table();

/// The fp32 register tile's B-row policies. DenseRows reads B(KxN) row
/// p at b + p * ldb, with one bias per column of C. TapRows reads the
/// implicit conv's phase planes (ConvGeometry, src/tensor/ops.h): tap p's
/// run for the tile's output row starts tap_off[p] floats past b, and
/// the bias is one per row of C, that is per output channel. b points at
/// the tile's first column either way.
struct DenseRows {
  static constexpr bool kRowBias = false;
  int64_t ldb;
  const float* Row(const float* b, int64_t p) const { return b + p * ldb; }
};
struct TapRows {
  static constexpr bool kRowBias = true;
  const int64_t* tap_off;
  const float* Row(const float* b, int64_t p) const { return b + tap_off[p]; }
};

// The scalar table's q8/q4 block GEMM bodies, which the naive int8
// references in src/tensor/int8_gemm.cc also run.
void Q8GemmRowsScalar(const int8_t* a, const float* a_scales, const int8_t* b,
                      const float* b_scales, float* c, int64_t i0, int64_t i1,
                      int64_t kp, int64_t n);
void Q4GemmRowsScalar(const int8_t* a, const float* a_scales,
                      const uint8_t* b, const float* b_scales, float* c,
                      int64_t i0, int64_t i1, int64_t kp, int64_t n);

// The scalar table's CRC-32 body (slicing-by-8), which also finishes the
// fold's tail.
uint32_t Crc32UpdateScalar(uint32_t crc, const uint8_t* p, int64_t n);
// The PCLMULQDQ CRC-32 fold, defined once in kernels_avx2.cc with
// __attribute__((target("pclmul"))) and entered by both the AVX2 and the
// AVX-512 table, so it needs AVX2 and PCLMULQDQ and nothing more. Only
// those two tables reference it: a build whose AVX2 TU is a stub has no
// AVX-512 table either, since -mavx512f implies -mavx2.
uint32_t Crc32UpdateClmul(uint32_t crc, const uint8_t* p, int64_t n);

}  // namespace simd
}  // namespace dlsys

#endif  // DLSYS_SIMD_KERNELS_H_
