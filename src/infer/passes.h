#ifndef DLSYS_INFER_PASSES_H_
#define DLSYS_INFER_PASSES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/infer/graph.h"

/// \file passes.h
/// \brief Rewrite passes over the inference op-graph IR (src/infer/graph.h).
///
/// The pipeline runs in a fixed order at Compile time:
///
///   1. **fuse** — operator fusion. dense+bias(+relu) and conv+bias+relu
///      collapse into single fused steps dispatched through the fused
///      epilogue kernels in the src/simd tables; quantized dense epilogues
///      (bias+relu) become one pass.
///   2. **quant_elim** — quant/dequant elimination. At int8->int8 and
///      q4/q8 block boundaries the producer's epilogue quantizes its rows
///      once and the consumer reads codes+scales directly, skipping the
///      activation re-quantization pass.
///   3. **fold** — constant folding of weight-only subexpressions:
///      transpose+block-quantize of Dense weights and the BatchNorm
///      1/sqrt(var+eps) vector move from run time to compile time.
///   4. **pack** — liveness-analysis-driven arena packing. Per-tensor live
///      intervals replace the ping-pong activation pair with first-fit
///      offset assignment, so non-overlapping intermediates share storage
///      (the emitter consumes the intervals; PackLiveRanges does the
///      placement).
///
/// **Determinism contract:** every pass is bitwise-neutral in fp32 — the
/// per-element float operation sequence of the unfused schedule is
/// preserved exactly (fusion only removes intermediate stores/reloads and
/// kernel launches, folding only moves *where* identical float expressions
/// are evaluated, packing only moves *where* buffers live). Output with
/// all passes on equals output with all passes off bit for bit, at any
/// DLSYS_THREADS and under every forced ISA; tests enforce this.
///
/// Each pass is individually toggleable via EngineConfig::passes, and the
/// `DLSYS_PASSES` environment variable overrides the config (values:
/// `all`, `none`, `default`, or a comma list like `fuse,pack` naming the
/// passes to enable). An unknown spelling fails Compile with
/// InvalidArgument — a forced pass list that silently fell back would
/// invalidate any conclusion drawn from the run, and an environment knob
/// must not abort the process.

namespace dlsys {

/// \brief Which rewrite passes Compile runs. Defaults to all on.
struct PassConfig {
  bool fuse = true;        ///< operator/epilogue fusion
  bool quant_elim = true;  ///< block-code pass-through at quantized edges
  bool fold = true;        ///< compile-time constant folding
  bool pack = true;        ///< liveness-packed arena layout
};

namespace infer {

/// \brief What the passes did, for counters/gauges and tests.
struct PassStats {
  int64_t fused = 0;        ///< nodes absorbed or rewritten by fusion
  int64_t quant_elided = 0; ///< activation quantize passes eliminated
  int64_t folded = 0;       ///< nodes whose weight expressions folded
};

/// \brief Parses a DLSYS_PASSES spelling into \p out. Accepts "all",
/// "none", "default", or a comma-separated subset of
/// {fuse,quant_elim,fold,pack} (named passes on, the rest off). Returns
/// InvalidArgument on an unknown token.
Status ParsePassList(const std::string& spec, PassConfig* out);

/// \brief Applies the DLSYS_PASSES environment override (if set) to
/// \p base and returns the effective config, or ParsePassList's
/// InvalidArgument on a malformed override (never a silent fallback).
Result<PassConfig> ResolvePassConfig(const PassConfig& base);

/// \brief Runs the enabled rewrite passes over \p graph in pipeline
/// order, tracing one span per pass and bumping infer.pass.* counters.
/// (The pack pass only emits liveness decisions at schedule emission —
/// see PackLiveRanges — so it has no graph rewrite here.)
PassStats RunPasses(OpGraph* graph, const PassConfig& config);

/// \brief One buffer the liveness packer places: a byte size plus the
/// inclusive interval of schedule steps during which it is live.
struct LiveBuffer {
  int64_t bytes = 0;
  int begin = 0;
  int end = 0;
};

/// \brief First-fit offset assignment over live intervals: each buffer
/// (in order) lands at the lowest 64-byte-aligned offset that does not
/// collide with any already-placed buffer whose live interval overlaps
/// its own. Buffers with disjoint intervals may share bytes. Returns the
/// packed arena size; \p offsets receives one offset per buffer.
int64_t PackLiveRanges(const std::vector<LiveBuffer>& buffers,
                       std::vector<int64_t>* offsets);

}  // namespace infer
}  // namespace dlsys

#endif  // DLSYS_INFER_PASSES_H_
