#ifndef DLSYS_TENSOR_INT8_GEMM_H_
#define DLSYS_TENSOR_INT8_GEMM_H_

#include <cstdint>

/// \file int8_gemm.h
/// \brief Block-quantized integer GEMMs for the quantized inference path.
///
/// The int8 and int4 engine modes (src/infer) store Dense weights in the
/// ggml-style block formats of src/compress/quantization.h — Q8BlockMatrix
/// or the nibble-packed Q4BlockMatrix, one float scale per 32-element
/// block along K — and quantize activations to q8 blocks on the fly. The
/// GEMMs below multiply those operands with dequantization fused into the
/// inner loop and write fp32 output directly. Each block's int8 x int8
/// dot accumulates in int32, which is associative, so any instruction
/// schedule (the AVX2/AVX-512 vpmaddwd microkernels behind the dispatch
/// registry, src/simd/dispatch.h) gives the exact same dot; the float
/// chain across blocks runs in ascending block order on every ISA, so
/// results are bitwise identical at any thread count.

namespace dlsys {

/// \brief C(MxN) = dequant(A) * dequant(B)^T for q8-block operands with
/// dequantization fused into the inner loop.
///
/// A is M x kp int8 with one float scale per 32-element block (kp = K
/// padded up to a multiple of 32; pad codes are 0 so they contribute
/// nothing). B is N x kp in the same layout. Per block the int32 dot is
/// exact; the fp32 output accumulates float(dot) * (a_scale * b_scale) in
/// ascending block order, so every ISA produces bit-identical results.
void Q8BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                           const int8_t* b, const float* b_scales, float* c,
                           int64_t m, int64_t kp, int64_t n);

/// \brief Like Q8BlockGemmTransBInto but B is nibble-packed q4: 16 bytes
/// per 32-element block, byte t = element t (low nibble) | element 16+t
/// (high nibble), stored code = q + 8 with q in [-8, 7] (the quantizer
/// emits [-7, 7]; -8 only ever appears via the fused subtract).
void Q4BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                           const uint8_t* b, const float* b_scales, float* c,
                           int64_t m, int64_t kp, int64_t n);

/// \brief Reference for Q8BlockGemmTransBInto (bit-exact target).
void NaiveQ8BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                                const int8_t* b, const float* b_scales,
                                float* c, int64_t m, int64_t kp, int64_t n);

/// \brief Reference for Q4BlockGemmTransBInto (bit-exact target).
void NaiveQ4BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                                const uint8_t* b, const float* b_scales,
                                float* c, int64_t m, int64_t kp, int64_t n);

}  // namespace dlsys

#endif  // DLSYS_TENSOR_INT8_GEMM_H_
