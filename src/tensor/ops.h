#ifndef DLSYS_TENSOR_OPS_H_
#define DLSYS_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

/// \file ops.h
/// \brief Dense kernels over Tensor: the fp32 GEMM, the implicit-GEMM
/// convolution and max pooling, elementwise math, row-wise reductions.
///
/// The GEMM entry points (MatMul, MatMulInto, MatMulBiasActInto) are one
/// register-tiled kernel over row-major operands, dispatched through the
/// multi-threaded runtime (src/runtime/runtime.h) and the per-ISA
/// microkernel registry (src/simd/dispatch.h), which selects the best
/// SIMD table the CPU supports (scalar / AVX2 / AVX-512) at startup; a
/// product with a transposed operand (Dense::Backward's) transposes it
/// first. Elementwise ops, RowSoftmax, and Transpose route through the
/// same ParallelFor primitive. Every kernel is **bitwise deterministic for
/// any thread count and any dispatched ISA**: workers own disjoint,
/// statically partitioned output ranges, so the floating-point
/// accumulation order per output element never depends on DLSYS_THREADS,
/// and the SIMD kernels vectorize only across independent output elements
/// (see src/simd/kernels.h for the parity contract). The NaiveMatMul
/// reference keeps the plain loop nest with the same per-element
/// operation order; tests assert bitwise equality between the optimised
/// and naive paths at every ISA.

namespace dlsys {

/// \brief C = A(MxK) * B(KxN): MatMulInto into a new tensor. Shapes are
/// checked.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// \brief Reference GEMM: plain single-threaded loop nest with the same
/// per-element accumulation order as MatMul. Retained for determinism
/// tests and as the bench baseline; bitwise identical to MatMul.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b);

/// \brief C(MxN) = A(MxK) * B(KxN) written into caller storage \p c.
///
/// The same blocked kernel as MatMul (bitwise identical output), but
/// allocation-free: every element of \p c is overwritten, and its prior
/// contents are never read. The inference engine's arena-planned hot loop
/// dispatches through this entry point.
void MatMulInto(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);

/// \brief The geometry of one image's 2-D convolution: in_ch planes of
/// h x w in, out_ch planes of ho x wo out, a square kernel at stride with
/// pad zeros on every side (ho = (h + 2 pad - kernel) / stride + 1,
/// likewise wo; the caller guarantees kernel <= h + 2 pad and kernel <=
/// w + 2 pad).
///
/// The implicit-GEMM convolution reads its B operand from the image's
/// *phase planes*: the zero-padded input split by stride phase. Phase
/// (py, px) of channel c holds padded[c][r * stride + py][q * stride + px]
/// for r < phase_rows() and q < phase_cols(), zero where that padded
/// coordinate lies outside the input or past the padded extent. Tap
/// (c, ky, kx) at output (oy, ox) then reads phase (ky % stride,
/// kx % stride) at row oy + ky / stride and column ox + kx / stride, so a
/// tap's values along an output row are one contiguous run at every
/// stride. At stride 1 there is one (h + 2 pad) x (w + 2 pad) plane per
/// channel.
struct ConvGeometry {
  int64_t in_ch = 0, out_ch = 0, kernel = 0, stride = 1, pad = 0;
  int64_t h = 0, w = 0, ho = 0, wo = 0;

  /// Rows of one phase plane: ceil((h + 2 pad) / stride).
  int64_t phase_rows() const { return (h + 2 * pad + stride - 1) / stride; }
  /// Columns of one phase plane, ceil((w + 2 pad) / stride): the planes'
  /// row stride.
  int64_t phase_cols() const { return (w + 2 * pad + stride - 1) / stride; }
  /// Floats of one image's in_ch * stride^2 phase planes.
  int64_t planes_elems() const {
    return in_ch * stride * stride * phase_rows() * phase_cols();
  }
  /// GEMM reduction length: one tap per (c, ky, kx).
  int64_t taps() const { return in_ch * kernel * kernel; }
};

/// \brief Writes the phase planes of one image \p x (in_ch x h x w,
/// row-major) into \p planes (g.planes_elems() floats), zero border
/// included. Single-threaded and allocation-free.
void ConvPhasePlanesInto(const float* x, const ConvGeometry& g,
                         float* planes);

/// \brief Where each tap's run for output (0, 0) starts in the phase
/// planes, in (c, ky, kx) order: g.taps() offsets for
/// ConvGemmBiasActInto. Depends on the geometry alone, so a caller
/// computes it once per convolution.
std::vector<int64_t> ConvTapOffsets(const ConvGeometry& g);

/// \brief The implicit-GEMM convolution of one image into caller storage:
/// C(out_ch x ho x wo) = act(bias + A * B), with A the (out_ch x taps)
/// weight matrix and tap p's B row for output row oy the wo floats at
/// planes + tap_off[p] + oy * g.phase_cols() (act = relu when \p relu is
/// true, identity otherwise). \p planes holds the image's phase planes
/// (ConvPhasePlanesInto) and \p tap_off the offsets ConvTapOffsets gives.
///
/// Each output element runs the dense GEMMs' float chain: it starts at
/// +0, adds the float products in ascending (ic, ky, kx) tap order,
/// padding taps included (a tap on the zero border adds a +/-0.0f
/// product, NaN for an infinite weight), then adds bias[i]. A sum
/// started at +0 is never -0, so a +/-0 term leaves it unchanged: a
/// clipped loop nest that skips the padding taps, like test_runtime's
/// reference, gives the same bits whenever the weights are finite.
/// The inference engine runs this entry and Conv2D::Forward its kernel
/// (one image per call, from its own split of the batch), so training
/// and serving share its bits. The output rows are split across
/// workers; each range runs the table's fp32 GEMM register tile once per
/// output row, with tap p's run as B row p and one bias per output
/// channel. The relu is applied as max(v, 0) to each finished element
/// before it is stored, bitwise identical to a separate relu pass over
/// the output. Allocation-free.
void ConvGemmBiasActInto(const float* a, const float* planes,
                         const int64_t* tap_off, const float* bias, float* c,
                         const ConvGeometry& g, bool relu);

/// \brief Max pooling of \p planes row-major h x w planes at \p x into
/// (h / window) x (w / window) planes at \p y: each output is the max of
/// its window x window block, folded in row-major order from -inf with
/// `x > best`, so NaN inputs never win (an all-NaN window gives -inf) and
/// a -0/+0 tie keeps the earlier element. Bitwise identical on every ISA
/// and thread count; allocation-free.
void MaxPoolInto(const float* x, float* y, int64_t planes, int64_t h,
                 int64_t w, int64_t window);

/// \brief C(MxN) = act(A(MxK) * B(KxN) + bias(N)) into caller storage —
/// MatMulInto with the bias add and optional relu fused into the range
/// kernel's epilogue (act = relu when \p relu is true, identity
/// otherwise).
///
/// The GEMM accumulation sequence is exactly MatMulInto's; the epilogue
/// adds bias[j] to each finished element and applies
/// `v > 0.0f ? v : 0.0f`, so the result is bitwise identical to
/// MatMulInto followed by separate bias / relu output passes. The graph
/// compiler's fusion pass (src/infer/passes.h) dispatches dense layers
/// through this entry point, and Dense::Forward runs it with relu off.
void MatMulBiasActInto(const float* a, const float* b, const float* bias,
                       float* c, int64_t m, int64_t k, int64_t n, bool relu);

/// \brief Returns a + b elementwise (same shape required).
Tensor Add(const Tensor& a, const Tensor& b);
/// \brief Returns a - b elementwise (same shape required).
Tensor Sub(const Tensor& a, const Tensor& b);
/// \brief Returns a * b elementwise (same shape required).
Tensor Mul(const Tensor& a, const Tensor& b);
/// \brief a += alpha * b, elementwise in place (same size required).
void Axpy(float alpha, const Tensor& b, Tensor* a);
/// \brief a *= alpha in place.
void Scale(float alpha, Tensor* a);

/// \brief Row-wise numerically-stable softmax of a rank-2 tensor.
Tensor RowSoftmax(const Tensor& logits);
/// \brief Per-row argmax of a rank-2 tensor.
std::vector<int64_t> ArgMaxRows(const Tensor& m);
/// \brief One-hot encodes \p labels into an NxC matrix.
Tensor OneHot(const std::vector<int64_t>& labels, int64_t num_classes);

/// \brief Mean over rows: returns a length-C vector tensor from NxC.
Tensor MeanRows(const Tensor& m);
/// \brief Extracts row range [begin, end) of a rank-2 tensor.
Tensor SliceRows(const Tensor& m, int64_t begin, int64_t end);
/// \brief Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& m);

/// \brief Fraction of rows whose argmax equals the label.
double Accuracy(const Tensor& logits, const std::vector<int64_t>& labels);

}  // namespace dlsys

#endif  // DLSYS_TENSOR_OPS_H_
