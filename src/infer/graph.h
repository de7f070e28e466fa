#ifndef DLSYS_INFER_GRAPH_H_
#define DLSYS_INFER_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/compress/quantization.h"
#include "src/core/status.h"
#include "src/nn/sequential.h"
#include "src/tensor/tensor.h"

/// \file graph.h
/// \brief Op-graph IR the inference compiler lowers a Sequential into.
///
/// Nodes are ops (with their shapes, constants, and dtype choice), edges
/// are activation tensors. `InferenceEngine::Compile` lowers the layer
/// pipeline into this IR, runs the rewrite passes in src/infer/passes.h
/// over it, and only then emits the executable schedule and the arena
/// plan. The IR is deliberately explicit rather than implicit in the
/// schedule: passes talk about producers, consumers, and tensor lifetimes,
/// none of which the old flat step list could express.
///
/// Rewrites never erase nodes in place (that would invalidate every
/// recorded node index); they mark nodes `dead` and re-route tensor
/// edges, and `RebuildEdges()` recomputes producer/consumer links over the
/// surviving nodes. The emitter simply skips dead nodes.

namespace dlsys {

/// \brief Arithmetic used for Dense layers.
enum class EngineNumeric {
  kFp32,  ///< full float pipeline, bitwise equal to training forward
  kInt8,  ///< q8-block weights x q8-block activations, fused dequant GEMM
  kInt4,  ///< q4-block weights x q8-block activations, fused dequant GEMM
};

namespace infer {

/// \brief Operation kinds the IR distinguishes. Fusion does not add new
/// kinds; it sets rewrite flags on the surviving node, and the emitter
/// turns a flagged node into a single fused step.
enum class OpKind {
  kDense,
  kDenseInt8,
  kDenseInt4,
  kConv,
  kPool,
  kRelu,
  kSigmoid,
  kTanh,
  kBatchNorm,
};

/// \brief True for elementwise ops that may run in place on their input
/// buffer (output aliases input in the emitted plan).
bool IsElementwise(OpKind kind);

/// \brief True for the block-quantized dense kinds (int8 and int4).
bool IsQuantDense(OpKind kind);

/// \brief One activation edge: per-example shape plus producer/consumer
/// links (node indices; producer -1 means the graph input).
struct TensorDef {
  Shape shape;
  int64_t elems = 0;
  int producer = -1;
  std::vector<int> consumers;
};

/// \brief One op node: kind, activation edges, constants, and the rewrite
/// flags the passes set.
struct OpNode {
  OpKind kind = OpKind::kRelu;
  std::string name;  ///< source layer name, for diagnostics
  int input = -1;    ///< tensor id
  int output = -1;   ///< tensor id
  bool in_place = false;  ///< elementwise: emitted output aliases input
  bool dead = false;      ///< removed by a rewrite; emitter skips it

  int64_t in_elems = 0;   ///< per-example input elements
  int64_t out_elems = 0;  ///< per-example output elements

  /// Constants. Quantized Dense nodes carry the fp32 weight out of
  /// lowering; the constant-folding pass turns it into qweight8/qweight4
  /// at compile time (with folding off, the emitted step re-derives the
  /// codes from `weight` on every call — bitwise the same, just slower).
  Tensor weight;  ///< dense: (in, out); conv: (oc, ic, k, k)
  Tensor bias;
  Q8BlockMatrix qweight8;
  Q4BlockMatrix qweight4;

  int64_t in_ch = 0, out_ch = 0, kernel = 0, stride = 0, pad = 0;
  int64_t h = 0, w = 0, ho = 0, wo = 0;  ///< spatial extents
  int64_t window = 0;                    ///< pooling

  /// BatchNorm inference constants. Lowering stores the raw statistics;
  /// folding precomputes bn_inv[j] = 1/sqrt(running_var+eps) — the exact
  /// float the training path (and the unfolded step) recomputes per
  /// element.
  std::vector<float> bn_gamma, bn_beta, bn_mean, bn_var, bn_inv;
  float bn_eps = 0.0f;

  // ---- rewrite flags (set by src/infer/passes.cc) ----
  bool epilogue_fused = false;  ///< bias (+relu) fused into the kernel pass
  bool relu_fused = false;      ///< a trailing ReLU folded into this node
  bool folded = false;          ///< weight-only subexpressions precomputed
  bool quant_in = false;   ///< consumes q8 codes the producer already wrote
  bool quant_out = false;  ///< epilogue emits q8 codes for the consumer
};

/// \brief The lowered op graph: a node list in execution order plus the
/// tensor table. Linear today (Sequential has one data path), but edges
/// are explicit so passes reason about adjacency rather than list order.
struct OpGraph {
  std::vector<OpNode> nodes;
  std::vector<TensorDef> tensors;
  int input = -1;   ///< graph input tensor id
  int output = -1;  ///< graph output tensor id
  Shape in_shape, out_shape;  ///< per-example shapes

  /// \brief Lowers \p net for per-example inputs of \p example_shape.
  /// Dense layers lower to the kind \p numeric selects; Flatten becomes a
  /// metadata-only reshape and Dropout disappears (inference identity).
  /// Returns InvalidArgument when shapes do not thread through, and
  /// Unimplemented for unrecognized layer types.
  static Result<OpGraph> Lower(const Sequential& net,
                               const Shape& example_shape,
                               EngineNumeric numeric);

  /// \brief Recomputes every tensor's producer/consumers from the live
  /// nodes. Call after marking nodes dead or re-routing edges.
  void RebuildEdges();

  /// \brief Number of live (non-dead) nodes.
  int64_t live_nodes() const;
};

}  // namespace infer
}  // namespace dlsys

#endif  // DLSYS_INFER_GRAPH_H_
