#ifndef DLSYS_INFER_ENGINE_H_
#define DLSYS_INFER_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/compress/quantization.h"
#include "src/core/status.h"
#include "src/infer/arena.h"
#include "src/infer/graph.h"
#include "src/infer/passes.h"
#include "src/nn/sequential.h"
#include "src/tensor/tensor.h"

/// \file engine.h
/// \brief Batched inference engine: a trained Sequential compiled through a
/// graph pass pipeline into a preplanned, allocation-free schedule.
///
/// Training optimizes for flexibility (any batch size, caches for the
/// backward pass); serving optimizes for steady-state latency. Compile()
/// lowers the layer pipeline into an explicit op graph (src/infer/graph.h),
/// runs the rewrite passes (src/infer/passes.h) — operator fusion,
/// quant/dequant elimination, constant folding, liveness-packed arena
/// layout — and emits an executable schedule whose workspace is reserved
/// once in a TensorArena. After compilation the hot path (PredictInto)
/// performs **zero heap allocations** for any batch size up to the declared
/// ceiling and any DLSYS_THREADS setting.
///
/// ## Numerics contract
///
/// In fp32 mode the engine's output is **bitwise identical** to
/// `Sequential::Forward(x, CacheMode::kNoCache)` for every pass
/// combination. Dense and Conv2D layers run the same dispatched kernels
/// in training and in the engine (the matmul range kernels for dense;
/// ConvPhasePlanesInto then ConvGemmBiasActInto for conv, see
/// src/tensor/ops.h), so those layers agree on any data, signed zeros
/// and infinities included. The other steps reproduce the training
/// path's per-element operation sequence, and every rewrite pass is
/// bitwise-neutral (fusion removes stores/reloads and kernel launches,
/// folding moves where identical float expressions evaluate, packing
/// moves where buffers live — see src/infer/passes.h).
///
/// In int8 mode Dense layers run as ggml-style block-quantized integer
/// GEMM (src/compress/quantization.h): weights quantize to q8 codes with
/// one scale per 32-element block of each output feature's row (at compile
/// time under the fold pass, per call without it — same bits either way),
/// activations quantize per block at run time unless the quant-elimination
/// pass lets the producing layer hand codes through directly, and
/// dequantization is fused into the GEMM inner loop. int4 mode is
/// identical except weights store 4-bit codes (scale = max|block|/7),
/// halving weight bytes again; activations stay q8. Non-Dense layers keep
/// fp32 arithmetic in both modes. The per-element operation sequence is
/// fixed, so both quantized paths are bitwise deterministic across thread
/// counts, SIMD ISAs, and pass combinations — divergence from fp32 is pure
/// quantization error.

namespace dlsys {

/// \brief Compile-time engine options. (EngineNumeric lives in
/// src/infer/graph.h with the IR; PassConfig in src/infer/passes.h.)
struct EngineConfig {
  EngineConfig() = default;
  /// Convenience: every default except the batch bound.
  explicit EngineConfig(int64_t batch) : max_batch(batch) {}

  int64_t max_batch = 64;  ///< largest batch PredictInto will accept
  EngineNumeric numeric = EngineNumeric::kFp32;
  /// Which rewrite passes Compile runs (all on by default). The
  /// DLSYS_PASSES environment variable overrides this field — see
  /// src/infer/passes.h for the accepted spellings.
  PassConfig passes;
};

/// \brief A compiled, arena-backed forward pipeline for one model.
///
/// Thread-compatible: one engine serves one request at a time (the
/// workspace is shared across calls); concurrent producers go through the
/// Server (src/serve) or their own queue. Holds its own copies of all
/// parameters — the source network may be freed or mutated afterwards.
class InferenceEngine {
 public:
  /// \brief Compiles \p net for inputs of per-example shape
  /// \p example_shape (no batch dimension).
  ///
  /// Returns InvalidArgument when shapes do not thread through the
  /// pipeline, the config is malformed or DLSYS_PASSES names an unknown
  /// pass, and Unimplemented for layer
  /// types the engine does not recognize. Dropout layers compile to
  /// identity, matching inference-mode training semantics.
  static Result<InferenceEngine> Compile(const Sequential& net,
                                         const Shape& example_shape,
                                         const EngineConfig& config = {});

  InferenceEngine(InferenceEngine&&) = default;
  InferenceEngine& operator=(InferenceEngine&&) = default;

  /// \brief Runs a batch (rank 1 + example rank, leading dim <= max_batch)
  /// and returns a freshly allocated output tensor.
  Result<Tensor> Predict(const Tensor& batch);

  /// \brief Allocation-free forward: \p batch points at \p batch_size
  /// row-major examples of input_elems_per_example() floats; \p out
  /// receives batch_size * output_elems_per_example() floats.
  Status PredictInto(const float* batch, int64_t batch_size, float* out);

  /// \brief Per-example input shape the engine was compiled for.
  const Shape& example_input_shape() const { return in_shape_; }
  /// \brief Per-example output shape.
  const Shape& example_output_shape() const { return out_shape_; }
  /// \brief Flat input element count per example.
  int64_t input_elems_per_example() const { return in_elems_; }
  /// \brief Flat output element count per example.
  int64_t output_elems_per_example() const { return out_elems_; }
  /// \brief Batch ceiling declared at compile time.
  int64_t max_batch() const { return config_.max_batch; }
  /// \brief The compile-time configuration (as passed; see pass_config()
  /// for the effective pass set after the DLSYS_PASSES override).
  const EngineConfig& config() const { return config_; }
  /// \brief Committed workspace bytes (activations + scratch) under the
  /// emitted layout — liveness-packed when the pack pass ran.
  int64_t workspace_bytes() const { return arena_.total_bytes(); }
  /// \brief Workspace bytes the ping-pong (pack-off) layout of the same
  /// schedule would commit; with packing on, the before/after pair
  /// (unpacked_workspace_bytes(), workspace_bytes()) quantifies the win.
  int64_t unpacked_workspace_bytes() const { return unpacked_bytes_; }
  /// \brief Number of executable steps in the compiled schedule.
  int64_t step_count() const { return static_cast<int64_t>(steps_.size()); }
  /// \brief Live op-graph nodes after the rewrite passes (== step count).
  int64_t graph_node_count() const { return graph_.live_nodes(); }
  /// \brief What the rewrite passes did at compile time.
  const infer::PassStats& pass_stats() const { return stats_; }
  /// \brief The effective pass set (config after DLSYS_PASSES override).
  const PassConfig& pass_config() const { return passes_; }

 private:
  /// One executable schedule entry: a live graph node plus the arena
  /// buffers the emitter assigned it. Constants and rewrite flags stay on
  /// the OpNode; the step only binds storage and the fixed trace/cost
  /// plan.
  struct Step {
    int node = -1;  ///< index into graph_.nodes (never a dead node)
    TensorArena::BufferId in = -1;   ///< input activations (floats)
    TensorArena::BufferId out = -1;  ///< output activations (== in when
                                     ///< the node runs in place)
    /// Conv: one image's phase planes (scratch), and each tap's offset
    /// into them, computed once at compile time.
    TensorArena::BufferId planes = -1;
    std::vector<int64_t> tap_off;
    /// Quantized dense: q8 codes + per-block scales of the input batch.
    /// With quant_in these alias the producer step's qout buffers.
    TensorArena::BufferId qin_vals = -1;
    TensorArena::BufferId qin_scales = -1;
    /// quant_out: codes + scales this step's epilogue writes for the
    /// consumer (live from this step through the consumer's step).
    TensorArena::BufferId qout_vals = -1;
    TensorArena::BufferId qout_scales = -1;
    /// Fold-off scratch: transposed fp32 weight and the block codes +
    /// scales re-derived from it on every call.
    TensorArena::BufferId wt = -1;
    TensorArena::BufferId wvals = -1;
    TensorArena::BufferId wscales = -1;

    /// Trace/cost plan, fixed at compile time: span name plus per-example
    /// FLOPs and bytes moved, scaled by the batch at run time.
    const char* trace_name = "engine.step";
    int64_t flops_per_example = 0;
    int64_t bytes_per_example = 0;
  };

  InferenceEngine() = default;

  /// Assigns schedule positions, computes tensor live intervals, places
  /// every buffer (packed first-fit or ping-pong), and commits the arena.
  /// InvalidArgument, before the arena is sized, when max_batch puts the
  /// workspace past int64 bytes.
  Status PlanAndEmit();

  void RunStep(const Step& step, int64_t batch) const;

  EngineConfig config_;
  PassConfig passes_;        ///< effective passes (after DLSYS_PASSES)
  infer::PassStats stats_;   ///< what the passes did
  infer::OpGraph graph_;     ///< rewritten IR; owns all constants
  Shape in_shape_, out_shape_;
  int64_t in_elems_ = 0, out_elems_ = 0;
  std::vector<Step> steps_;
  TensorArena arena_;
  TensorArena::BufferId input_buf_ = -1;   ///< where PredictInto copies in
  TensorArena::BufferId output_buf_ = -1;  ///< where the result lands
  int64_t unpacked_bytes_ = 0;  ///< ping-pong layout size of this schedule
};

}  // namespace dlsys

#endif  // DLSYS_INFER_ENGINE_H_
