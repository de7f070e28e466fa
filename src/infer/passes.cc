#include "src/infer/passes.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/infer/arena.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace infer {
namespace {

bool IsDense(OpKind kind) {
  return kind == OpKind::kDense || IsQuantDense(kind);
}

/// Returns the index of the sole live consumer of \p tensor_id, or -1.
int SoleConsumer(const OpGraph& g, int tensor_id) {
  const TensorDef& t = g.tensors[static_cast<size_t>(tensor_id)];
  return t.consumers.size() == 1 ? t.consumers[0] : -1;
}

int64_t FusePass(OpGraph* g) {
  int64_t fused = 0;
  for (size_t i = 0; i < g->nodes.size(); ++i) {
    OpNode& node = g->nodes[i];
    if (node.dead) continue;
    if (IsDense(node.kind)) {
      // The bias add (and any absorbed ReLU) runs as the GEMM's epilogue:
      // one output pass instead of two or three.
      node.epilogue_fused = true;
    }
    if (!IsDense(node.kind) && node.kind != OpKind::kConv) continue;
    const int c = SoleConsumer(*g, node.output);
    if (c < 0) continue;
    OpNode& relu = g->nodes[static_cast<size_t>(c)];
    if (relu.dead || relu.kind != OpKind::kRelu) continue;
    // Absorb the ReLU: this node now produces the ReLU's output tensor
    // and applies max(x, 0) in its epilogue — the same float op on the
    // same value, minus a full store/reload pass over the activation.
    node.relu_fused = true;
    node.output = relu.output;
    relu.dead = true;
  }
  g->RebuildEdges();
  for (const OpNode& node : g->nodes) {
    if (!node.dead && (node.epilogue_fused || node.relu_fused)) ++fused;
  }
  return fused;
}

int64_t QuantElimPass(OpGraph* g) {
  int64_t elided = 0;
  for (size_t i = 0; i < g->nodes.size(); ++i) {
    OpNode& node = g->nodes[i];
    if (node.dead || !IsQuantDense(node.kind)) continue;
    const int c = SoleConsumer(*g, node.output);
    if (c < 0) continue;
    OpNode& next = g->nodes[static_cast<size_t>(c)];
    if (next.dead || !IsQuantDense(next.kind) || next.quant_in) continue;
    // Adjacent quantized layers: the producer's epilogue quantizes each
    // finished row once (q8 codes + per-block scales), and the consumer
    // reads those directly instead of re-quantizing the fp32 activation.
    // Activations are q8 in both the int8 and int4 modes, so the boundary
    // format matches for any q8/q4 weight combination.
    node.quant_out = true;
    next.quant_in = true;
    ++elided;
  }
  return elided;
}

int64_t FoldPass(OpGraph* g) {
  int64_t folded = 0;
  for (OpNode& node : g->nodes) {
    if (node.dead) continue;
    switch (node.kind) {
      case OpKind::kDenseInt8:
        // Weight-only subexpression: transpose + block-quantize moves to
        // compile time. With folding off the emitted step re-derives the
        // same codes from the fp32 weight on every call.
        node.qweight8 = Q8BlockQuantizeRows(Transpose(node.weight));
        node.weight = Tensor();
        node.folded = true;
        ++folded;
        break;
      case OpKind::kDenseInt4:
        node.qweight4 = Q4BlockQuantizeRows(Transpose(node.weight));
        node.weight = Tensor();
        node.folded = true;
        ++folded;
        break;
      case OpKind::kBatchNorm: {
        // Precompute the exact float the training path (and the unfolded
        // step) recomputes per element. Folding BN into a*x+b would change
        // the float op sequence and break the bitwise contract, so only
        // the rsqrt is lifted.
        const size_t f = node.bn_var.size();
        node.bn_inv.resize(f);
        for (size_t j = 0; j < f; ++j) {
          node.bn_inv[j] = 1.0f / std::sqrt(node.bn_var[j] + node.bn_eps);
        }
        node.folded = true;
        ++folded;
        break;
      }
      default:
        break;  // fp32 dense/conv weights are already in executable form
    }
  }
  return folded;
}

}  // namespace

Status ParsePassList(const std::string& spec, PassConfig* out) {
  if (spec == "all" || spec == "default") {
    *out = PassConfig{};
    return Status::OK();
  }
  if (spec == "none") {
    *out = PassConfig{false, false, false, false};
    return Status::OK();
  }
  PassConfig config{false, false, false, false};
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(start, comma - start);
    if (token == "fuse") {
      config.fuse = true;
    } else if (token == "quant_elim") {
      config.quant_elim = true;
    } else if (token == "fold") {
      config.fold = true;
    } else if (token == "pack") {
      config.pack = true;
    } else {
      return Status::InvalidArgument(
          "DLSYS_PASSES: unknown pass '" + token +
          "' (want all|none|default or a comma list of "
          "fuse|quant_elim|fold|pack)");
    }
    start = comma + 1;
  }
  *out = config;
  return Status::OK();
}

Result<PassConfig> ResolvePassConfig(const PassConfig& base) {
  const char* env = std::getenv("DLSYS_PASSES");
  if (env == nullptr || env[0] == '\0') return base;
  const std::string spec(env);
  if (spec == "default") return base;
  PassConfig config;
  // A forced pass list that silently fell back would invalidate any
  // parity or perf conclusion drawn from the run, so a bad spelling is
  // an error, never the base config.
  const Status parsed = ParsePassList(spec, &config);
  if (!parsed.ok()) return parsed;
  return config;
}

PassStats RunPasses(OpGraph* graph, const PassConfig& config) {
  PassStats stats;
  if (config.fuse) {
    DLSYS_TRACE_SPAN("infer.pass.fuse", "compile");
    stats.fused = FusePass(graph);
    DLSYS_COUNTER_ADD("infer.pass.fuse.rewrites", stats.fused);
  }
  if (config.quant_elim) {
    DLSYS_TRACE_SPAN("infer.pass.quant_elim", "compile");
    stats.quant_elided = QuantElimPass(graph);
    DLSYS_COUNTER_ADD("infer.pass.quant_elim.elided", stats.quant_elided);
  }
  if (config.fold) {
    DLSYS_TRACE_SPAN("infer.pass.fold", "compile");
    stats.folded = FoldPass(graph);
    DLSYS_COUNTER_ADD("infer.pass.fold.folded", stats.folded);
  }
  return stats;
}

int64_t PackLiveRanges(const std::vector<LiveBuffer>& buffers,
                       std::vector<int64_t>* offsets) {
  struct Placed {
    int64_t offset;
    int64_t bytes;
    int begin;
    int end;
  };
  std::vector<Placed> placed;
  offsets->assign(buffers.size(), 0);
  int64_t total = 0;
  for (size_t b = 0; b < buffers.size(); ++b) {
    const int64_t bytes =
        TensorArena::AlignUp(std::max<int64_t>(buffers[b].bytes, 1));
    // Obstacles: already-placed buffers whose live interval overlaps.
    std::vector<Placed> obstacles;
    for (const Placed& p : placed) {
      if (p.begin <= buffers[b].end && buffers[b].begin <= p.end) {
        obstacles.push_back(p);
      }
    }
    std::sort(obstacles.begin(), obstacles.end(),
              [](const Placed& x, const Placed& y) {
                return x.offset < y.offset;
              });
    // First fit: slide past each obstacle until a gap fits.
    int64_t offset = 0;
    for (const Placed& p : obstacles) {
      if (offset + bytes <= p.offset) break;
      offset = std::max(offset, TensorArena::AlignUp(p.offset + p.bytes));
    }
    (*offsets)[b] = offset;
    placed.push_back(Placed{offset, bytes, buffers[b].begin, buffers[b].end});
    total = std::max(total, offset + bytes);
  }
  return TensorArena::AlignUp(std::max<int64_t>(total, 1));
}

}  // namespace infer
}  // namespace dlsys
