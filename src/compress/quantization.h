#ifndef DLSYS_COMPRESS_QUANTIZATION_H_
#define DLSYS_COMPRESS_QUANTIZATION_H_

#include <cstdint>
#include <vector>

#include "src/core/rng.h"
#include "src/core/status.h"
#include "src/nn/sequential.h"
#include "src/tensor/tensor.h"

/// \file quantization.h
/// \brief Weight quantization (tutorial Section 2.1).
///
/// Quantization replaces float parameters with low-bit codes plus a
/// codebook. The codebook may be lossless in its effect on size only
/// (entropy/Huffman coding of the codes) or lossy (uniform fixed-point,
/// k-means, binary). This module implements all three families and
/// reports honest compressed byte sizes (codes + codebook).

namespace dlsys {

/// \brief How codewords are chosen.
enum class QuantizerKind {
  kUniform,  ///< evenly spaced levels over [min, max] (fixed-point style)
  kKMeans,   ///< Lloyd-optimized scalar codebook
  kBinary,   ///< one bit: sign(w) * mean(|w|), per tensor
};

/// \brief A tensor stored as per-element codes plus a codebook.
struct QuantizedTensor {
  Shape shape;
  int64_t bits = 8;                 ///< bits per code
  std::vector<uint32_t> codes;      ///< one code per element
  std::vector<float> codebook;      ///< 2^bits (or fewer) centroids
  /// True when the codebook is an affine grid (uniform/binary): such a
  /// codebook ships as just scale+offset (8 bytes), not a full table.
  bool affine_codebook = false;

  /// \brief Reconstructs the dense float tensor.
  Tensor Dequantize() const;
  /// \brief Raw storage cost: packed codes + float codebook.
  int64_t PackedBytes() const;
  /// \brief Storage cost if codes were Huffman coded (lossless entropy
  /// coding of the code stream) plus codebook and code-length table.
  int64_t HuffmanBytes() const;
};

/// \brief Quantizes \p t to \p bits using \p kind.
///
/// kBinary ignores \p bits (always 1). kKMeans runs Lloyd iterations
/// seeded from uniform levels. Returns InvalidArgument for bits outside
/// [1, 16].
Result<QuantizedTensor> Quantize(const Tensor& t, QuantizerKind kind,
                                 int64_t bits);

/// \brief Outcome of quantizing a whole network.
struct NetworkQuantization {
  int64_t original_bytes = 0;
  int64_t packed_bytes = 0;
  int64_t huffman_bytes = 0;
  double max_abs_error = 0.0;   ///< max |w - w_hat| over all params
  double mean_sq_error = 0.0;   ///< mean (w - w_hat)^2 over all params
};

/// \brief Quantize-dequantizes every parameter of \p net in place
/// (weights and biases), simulating deployment of the compressed model,
/// and reports size/error statistics.
Result<NetworkQuantization> QuantizeNetwork(Sequential* net,
                                            QuantizerKind kind, int64_t bits);

/// \brief Exact Huffman-coded bit length of a code stream with the given
/// code frequency histogram (canonical Huffman, no stream overhead).
int64_t HuffmanBitLength(const std::vector<int64_t>& frequencies);

// ----------------------------------------------------- block quantization
//
// ggml-style block formats: one float scale per kQuantBlock consecutive
// elements along a row (the GEMM reduction dimension). These are the
// storage formats of the inference engine's int8 and int4 paths
// (src/infer); the codebook formats above serve the compression study
// instead. A single outlier only costs its own 32-element block its
// precision, and the scales live next to the codes the GEMM is already
// streaming, which is what lets src/tensor/int8_gemm.h fuse dequantization
// into the inner loop. Rows are padded to a multiple of kQuantBlock with
// zero codes, so pad blocks contribute exactly nothing to any dot product.

/// \brief Elements covered by one block scale.
inline constexpr int64_t kQuantBlock = 32;

/// \brief \p k rounded up to a multiple of kQuantBlock.
inline constexpr int64_t PadToQuantBlock(int64_t k) {
  return (k + kQuantBlock - 1) / kQuantBlock * kQuantBlock;
}

/// \brief A rank-2 matrix stored as symmetric per-block int8 codes.
///
/// Block b of row i holds round(x / s) clamped to [-127, 127] with
/// s = max|block| / 127 (1.0 for an all-zero block).
struct Q8BlockMatrix {
  int64_t rows = 0;
  int64_t cols = 0;         ///< logical width
  int64_t padded_cols = 0;  ///< cols rounded up to kQuantBlock
  std::vector<int8_t> values;  ///< rows x padded_cols, row-major
  std::vector<float> scales;   ///< rows x (padded_cols / kQuantBlock)

  /// \brief Reconstructs the dense float matrix (pad columns dropped).
  Tensor Dequantize() const;
  /// \brief Raw storage cost: codes + block scales.
  int64_t PackedBytes() const;
};

/// \brief A rank-2 matrix stored as symmetric per-block 4-bit codes,
/// nibble-packed.
///
/// Block b of row i holds q = round(x / s) clamped to [-7, 7] with
/// s = max|block| / 7 (1.0 for an all-zero block), stored as code = q + 8.
/// Each 32-element block packs into 16 bytes: byte t carries element t in
/// its low nibble and element 16+t in its high nibble (pad code 8 = 0).
struct Q4BlockMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t padded_cols = 0;
  std::vector<uint8_t> values;  ///< rows x padded_cols/2, row-major
  std::vector<float> scales;    ///< rows x (padded_cols / kQuantBlock)

  /// \brief Reconstructs the dense float matrix (pad columns dropped).
  Tensor Dequantize() const;
  /// \brief Raw storage cost: packed codes + block scales.
  int64_t PackedBytes() const;
};

/// \brief Symmetric per-block q8 quantization of a rank-2 tensor.
Q8BlockMatrix Q8BlockQuantizeRows(const Tensor& t);

/// \brief Allocation-free q8 block quantization into caller storage
/// (\p values: rows * PadToQuantBlock(cols) int8, \p scales: rows *
/// PadToQuantBlock(cols)/kQuantBlock floats). Pad codes are written as 0.
/// Row-parallel through the active SIMD table's q8_quantize_row, which is
/// bitwise identical on every ISA; the engine's int8 path quantizes
/// activations with this inside the zero-allocation hot loop, and weight
/// folding uses it through Q8BlockQuantizeRows.
void Q8BlockQuantizeRowsInto(const float* x, int64_t rows, int64_t cols,
                             int8_t* values, float* scales);

/// \brief The int8 engine's fused dense epilogue: x = act(x + bias) in
/// place over \p rows rows of \p cols floats (act = relu when \p relu),
/// then, when \p values is non-null, the q8 block quantization of the
/// updated rows into \p values / \p scales in Q8BlockQuantizeRowsInto's
/// layout. One pass per row through the active SIMD table; bitwise equal
/// to a bias/relu loop followed by Q8BlockQuantizeRowsInto. Under the
/// quant/dequant elimination pass this hands the consumer's codes
/// straight through.
void Q8BiasActQuantizeRowsInto(float* x, const float* bias, int64_t rows,
                               int64_t cols, bool relu, int8_t* values,
                               float* scales);

/// \brief Symmetric per-block q4 quantization of a rank-2 tensor.
Q4BlockMatrix Q4BlockQuantizeRows(const Tensor& t);

/// \brief Allocation-free q4 block quantization into caller storage
/// (\p values: rows * PadToQuantBlock(cols)/2 bytes, \p scales: rows *
/// PadToQuantBlock(cols)/kQuantBlock floats). Pad elements encode q = 0.
/// Row-parallel; the engine's unfolded int4 path re-derives weight codes
/// with this inside the zero-allocation hot loop.
void Q4BlockQuantizeRowsInto(const float* x, int64_t rows, int64_t cols,
                             uint8_t* values, float* scales);

}  // namespace dlsys

#endif  // DLSYS_COMPRESS_QUANTIZATION_H_
