#ifndef DLSYS_SIMD_DISPATCH_H_
#define DLSYS_SIMD_DISPATCH_H_

#include <cstdint>

#include "src/core/status.h"

/// \file dispatch.h
/// \brief Runtime CPU-feature dispatch for the microkernels: the fp32 and
/// block-quantized GEMMs, the implicit conv GEMM, max pooling, the q8 row
/// quantizer and the CRC-32 that checks parameter files.
///
/// The binary carries one kernel table per instruction set — scalar
/// (always), AVX2, and AVX-512 (F+BW+VL+DQ) — each compiled in its own
/// translation unit with exactly the target flags it needs; the scalar
/// table builds for baseline x86-64. The two vector tables instantiate
/// one set of kernel bodies (src/simd/kernels_vec.h) over their own
/// per-ISA trait, so each algorithm is written once. At first use
/// the registry probes the CPU (GCC/Clang __builtin_cpu_supports) and
/// selects the best table the machine can run; every public kernel entry
/// point in src/tensor then fetches the active table and hands its range
/// functions to ParallelFor.
///
/// ## Forcing a path
///
/// - `DLSYS_ISA=scalar|avx2|avx512` (environment, read once at first
///   dispatch) forces that table. An unknown value, or an ISA the CPU or
///   the build cannot run, never aborts and never falls back silently —
///   a forced path that quietly ran another table would invalidate any
///   parity or perf conclusion drawn from the run. IsaEnvStatus() turns
///   it into an InvalidArgument that InferenceEngine::Compile (and so
///   Server::Publish) returns before anything else; kernels used outside
///   an engine keep the best supported table and write one stderr line
///   naming the rejected value.
/// - SetIsa() is the API equivalent for tests and benches; call it between
///   kernels (like RuntimeConfig::SetThreads), not inside a ParallelFor.
///   Unlike the environment it aborts on an unsupported ISA: that is API
///   misuse, not outside input.
/// - Building with -DDLSYS_SIMD=OFF compiles the AVX translation units to
///   stubs: only the scalar table exists, and because every other table
///   reproduces the scalar table's per-element chains, that build gives
///   the same bits as a build with every table.
///
/// ## Observability
///
/// Each dispatched GEMM launch tags its trace span with the ISA-specific
/// category ("kernel.scalar" / "kernel.avx2" / "kernel.avx512") and bumps
/// the `kernel.dispatch.<isa>` counter, so an exported Perfetto trace or a
/// registry snapshot shows which microkernel actually ran. The q8 row
/// entries (quantizer, fused epilogue) run once per row inside a caller's
/// step and carry neither: a span per row would cost more than the row.
/// Nor does max_pool: it is a pooling step, not a GEMM, and its time is
/// the engine step's own. Nor does crc32_update: its time is the
/// parameter load's or save's own (the `nn.load_ms` figure).
///
/// Determinism: dispatch never changes results. fp32 kernels are bitwise
/// identical across every ISA (see src/simd/kernels.h for the contract);
/// integer kernels, the CRC-32 among them, are exact and return the same
/// value on every table. DLSYS_ISA is a speed knob, not a numerics knob,
/// and tests enforce that.

#ifndef DLSYS_SIMD
#define DLSYS_SIMD 1
#endif

namespace dlsys {
namespace simd {

/// \brief Instruction sets the dispatcher knows, in ascending preference.
enum class Isa : int {
  kScalar = 0,  ///< reference kernels; always available
  kAvx2 = 1,    ///< 256-bit float + vpmaddwd integer kernels
  kAvx512 = 2,  ///< 512-bit kernels (requires F+BW+VL+DQ)
};

inline constexpr int kNumIsas = 3;

/// \brief Lowercase name, e.g. "avx512"; also the DLSYS_ISA spelling.
const char* IsaName(Isa isa);

/// \brief One ISA's full set of range microkernels.
///
/// Function pointers, not virtuals: the table is selected once and the hot
/// path pays one pointer load per kernel launch (not per range). All
/// members are always non-null within a registered table.
struct KernelTable {
  Isa isa = Isa::kScalar;
  /// Trace-span category literal ("kernel.<isa>"); pointer-stable for the
  /// process lifetime as TraceSpan requires.
  const char* span_cat = "kernel.scalar";

  /// C[i0:i1, :] = act(A(MxK) * B(KxN) + bias(N)) rows, A and B
  /// row-major (act = relu when relu != 0, else identity; bias nullptr:
  /// none; C's prior contents are never read). The one fp32 dense GEMM
  /// entry: MatMul, MatMulInto and the graph compiler's fused dense step
  /// all run it, and training's backward GEMMs run it over transposed
  /// operands. Every element starts at +0, adds its float products in
  /// ascending p, then adds its bias (if any) and, with relu, becomes
  /// max(v, 0) before its one store. Each table runs every row block (4
  /// rows, 8 on AVX-512, and the shorter ones a range ends with) and every
  /// column tail through its one fp32 register tile; the AVX2/AVX-512
  /// tails load and store lane-masked.
  void (*matmul_bias_act_range)(const float* a, const float* b,
                                const float* bias, float* c, int64_t i0,
                                int64_t i1, int64_t k, int64_t n,
                                int relu) = nullptr;
  /// Fused block-dequant q8 x q8 GEMM rows (see int8_gemm.h).
  void (*q8_gemm_rows)(const int8_t* a, const float* a_scales,
                       const int8_t* b, const float* b_scales, float* c,
                       int64_t i0, int64_t i1, int64_t kp,
                       int64_t n) = nullptr;
  /// Fused block-dequant q8 x q4 GEMM rows (B nibble-packed).
  void (*q4_gemm_rows)(const int8_t* a, const float* a_scales,
                       const uint8_t* b, const float* b_scales, float* c,
                       int64_t i0, int64_t i1, int64_t kp,
                       int64_t n) = nullptr;
  /// The implicit-GEMM convolution of one image, output rows [oy0, oy1)
  /// of every channel: C[i][oy][ox] = act(sum_p A[i][p] * B_p[oy][ox] +
  /// bias[i]) for i < m, ox < wo, with A the (m x k) weight matrix, C
  /// the (m, ho, wo) output planes, and tap p's B row for output row oy
  /// the wo contiguous floats at planes + tap_off[p] + oy * row_stride
  /// (ConvGeometry's phase-plane layout, src/tensor/ops.h, makes that run
  /// contiguous at every stride). Per output row this is the dense
  /// chain on the table's fp32 register tile: each element starts at
  /// +0, adds its float products in ascending p (the taps' (ic, ky, kx)
  /// order), then adds its channel's bias; relu != 0 clamps it to
  /// max(v, 0) before the store, relu == 0 stores it as is.
  void (*conv_gemm_bias_act_rows)(const float* a, const float* planes,
                                  const int64_t* tap_off, int64_t row_stride,
                                  const float* bias, float* c, int64_t m,
                                  int64_t k, int64_t ho, int64_t wo,
                                  int64_t oy0, int64_t oy1,
                                  int relu) = nullptr;
  /// Max pooling of planes [t0, t1): plane t is the h x w input at
  /// x + t * h * w and the (h / window) x (w / window) output at
  /// y + t * (h / window) * (w / window). Each output folds its window in
  /// row-major (ky, kx) order from -inf with best = x > best ? x : best,
  /// so NaN inputs never win and a -0/+0 tie keeps the earlier one.
  void (*max_pool)(const float* x, float* y, int64_t h, int64_t w,
                   int64_t window, int64_t t0, int64_t t1) = nullptr;
  /// q8 block quantization of one row (see Q8BlockMatrix): \p cols floats
  /// into PadToQuantBlock(cols) codes, pad codes 0, and one scale per
  /// 32-element block. Every q8 activation and weight quantization runs
  /// through this entry; callers parallelize across rows.
  void (*q8_quantize_row)(const float* row, int64_t cols, int8_t* values,
                          float* scales) = nullptr;
  /// The int8 dense epilogue for one row: row[j] = act(row[j] + bias[j])
  /// in place (act = relu when relu != 0), then, when values != nullptr,
  /// q8_quantize_row of the updated row into values/scales — one pass per
  /// block, sharing q8_quantize_row's per-block code.
  void (*q8_bias_act_quantize_row)(float* row, const float* bias,
                                   int64_t cols, int relu, int8_t* values,
                                   float* scales) = nullptr;
  /// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of \p n bytes
  /// at \p p, continuing from the raw register \p crc: no inversion at
  /// either end, so chunked calls compose, update(update(c, p, a), p + a,
  /// n - a) == update(c, p, n), and the standard CRC-32 of a buffer is
  /// update(~0u, p, n) ^ ~0u. Exact: every table returns the same value
  /// for every input, at any length and alignment. The v2 parameter file
  /// (src/nn/serialize.h) checks and stamps its CRC through this entry.
  uint32_t (*crc32_update)(uint32_t crc, const uint8_t* p,
                           int64_t n) = nullptr;
};

/// \brief True when \p isa is both compiled into this binary and runnable
/// on this CPU. kScalar is always true.
bool IsaSupported(Isa isa);

/// \brief Best supported ISA on this machine (the startup default unless
/// DLSYS_ISA overrides it).
Isa BestSupportedIsa();

/// \brief The currently dispatched ISA. First call resolves DLSYS_ISA,
/// else BestSupportedIsa().
Isa ActiveIsa();

/// \brief Forces \p isa for all subsequent kernel launches. Aborts
/// (DLSYS_CHECK) when unsupported — a forced path must never silently
/// fall back. Call between kernels, not inside a ParallelFor body.
void SetIsa(Isa isa);

/// \brief Checks DLSYS_ISA as it reads now: OK when unset, empty, or
/// naming an ISA this build and CPU can run; otherwise InvalidArgument
/// naming the value. Never aborts.
Status IsaEnvStatus();

/// \brief Parses a DLSYS_ISA spelling ("scalar"/"avx2"/"avx512") into
/// \p out; returns false on an unknown spelling.
bool ParseIsa(const char* name, Isa* out);

/// \brief The active ISA's kernel table (never null).
const KernelTable& ActiveKernels();

/// \brief Bumps kernel.dispatch.<isa> for one kernel launch. Compiled to
/// nothing with -DDLSYS_OBS=0.
void CountDispatch(const KernelTable& table);

}  // namespace simd
}  // namespace dlsys

#endif  // DLSYS_SIMD_DISPATCH_H_
