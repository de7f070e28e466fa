#include "src/infer/engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/infer/graph.h"
#include "src/infer/passes.h"
#include "src/obs/cost.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"
#include "src/tensor/int8_gemm.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

using infer::IsQuantDense;
using infer::LiveBuffer;
using infer::OpGraph;
using infer::OpKind;
using infer::OpNode;

constexpr int64_t kEwGrain = 1 << 15;  ///< elementwise elements per range

ConvGeometry ConvGeometryOf(const OpNode& node) {
  return {node.in_ch, node.out_ch, node.kernel, node.stride, node.pad,
          node.h,     node.w,      node.ho,     node.wo};
}

}  // namespace

Result<InferenceEngine> InferenceEngine::Compile(const Sequential& net,
                                                 const Shape& example_shape,
                                                 const EngineConfig& config) {
  // Environment knobs first: a bad DLSYS_ISA or DLSYS_THREADS is reported
  // here (and so by Server::Publish) rather than aborting the process.
  if (Status isa = simd::IsaEnvStatus(); !isa.ok()) return isa;
  if (Status threads = RuntimeConfig::ThreadsEnvStatus(); !threads.ok()) {
    return threads;
  }
  if (config.max_batch < 1) {
    return Status::InvalidArgument("inference compile: max_batch must be >= 1, got " +
                                   std::to_string(config.max_batch));
  }
  if (example_shape.empty() || NumElements(example_shape) <= 0) {
    return Status::InvalidArgument(
        "inference compile: example shape must be non-empty with positive "
        "extents, got " +
        ShapeToString(example_shape));
  }

  auto passes = infer::ResolvePassConfig(config.passes);
  if (!passes.ok()) return passes.status();

  InferenceEngine eng;
  eng.config_ = config;
  eng.passes_ = passes.value();

  DLSYS_TRACE_SPAN("engine.compile", "compile");
  auto lowered = OpGraph::Lower(net, example_shape, config.numeric);
  if (!lowered.ok()) return lowered.status();
  eng.graph_ = std::move(lowered).value();
  eng.stats_ = infer::RunPasses(&eng.graph_, eng.passes_);
  if (Status planned = eng.PlanAndEmit(); !planned.ok()) return planned;

  DLSYS_GAUGE_SET("infer.workspace_bytes", eng.arena_.total_bytes());
  DLSYS_GAUGE_SET("infer.graph.nodes", eng.graph_.live_nodes());
  DLSYS_GAUGE_SET("infer.graph.fused", eng.stats_.fused);
  return eng;
}

Status InferenceEngine::PlanAndEmit() {
  const OpGraph& g = graph_;
  const int64_t kMaxB = config_.max_batch;
  in_shape_ = g.in_shape;
  out_shape_ = g.out_shape;
  in_elems_ = NumElements(g.in_shape);
  out_elems_ = NumElements(g.out_shape);

  // ---- schedule order (live nodes, lowering order) --------------------
  std::vector<int> order;
  std::vector<int> node_step(g.nodes.size(), -1);
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    if (g.nodes[i].dead) continue;
    node_step[i] = static_cast<int>(order.size());
    order.push_back(static_cast<int>(i));
  }
  const int num_steps = static_cast<int>(order.size());

  // ---- activation alias groups + ping-pong slots ----------------------
  //
  // In-place (elementwise) nodes write into their input's storage, so
  // their input and output tensors share one buffer: an alias group. The
  // group is also what carries a ping-pong slot (0/1) for the pack-off
  // layout, and a live interval [first def, last use] for the packed one.
  const size_t num_tensors = g.tensors.size();
  std::vector<int> group(num_tensors, -1);
  std::vector<int> slot(num_tensors, -1);
  int num_groups = 0;
  group[static_cast<size_t>(g.input)] = num_groups++;
  slot[static_cast<size_t>(g.input)] = 0;
  for (const int ni : order) {
    const OpNode& node = g.nodes[static_cast<size_t>(ni)];
    const size_t tin = static_cast<size_t>(node.input);
    const size_t tout = static_cast<size_t>(node.output);
    if (node.in_place) {
      group[tout] = group[tin];
      slot[tout] = slot[tin];
    } else {
      group[tout] = num_groups++;
      slot[tout] = 1 - slot[tin];
    }
  }

  std::vector<int64_t> group_elems(static_cast<size_t>(num_groups), 0);
  std::vector<int> group_begin(static_cast<size_t>(num_groups), num_steps);
  std::vector<int> group_end(static_cast<size_t>(num_groups), 0);
  for (size_t t = 0; t < num_tensors; ++t) {
    if (group[t] < 0) continue;  // orphaned by a rewrite
    const size_t gi = static_cast<size_t>(group[t]);
    group_elems[gi] = std::max(group_elems[gi], g.tensors[t].elems);
  }
  group_begin[static_cast<size_t>(group[static_cast<size_t>(g.input)])] = 0;
  for (int p = 0; p < num_steps; ++p) {
    const OpNode& node = g.nodes[static_cast<size_t>(order[static_cast<size_t>(p)])];
    const size_t gin = static_cast<size_t>(group[static_cast<size_t>(node.input)]);
    const size_t gout = static_cast<size_t>(group[static_cast<size_t>(node.output)]);
    group_begin[gout] = std::min(group_begin[gout], p);
    group_end[gin] = std::max(group_end[gin], p);
    group_end[gout] = std::max(group_end[gout], p);
  }
  // The output group survives past the last step for the copy-out.
  const size_t out_group =
      static_cast<size_t>(group[static_cast<size_t>(g.output)]);
  group_end[out_group] = num_steps;
  group_begin[out_group] = std::min(group_begin[out_group], num_steps);

  // ---- steps + scratch requests ---------------------------------------
  //
  // Scratch buffers (conv phase planes, activation codes, fold-off weight
  // prep) are requested with live intervals; how they are satisfied
  // depends on the pack pass. Fields name the Step member to bind.
  // Activation-code scratch is requested per example (`batched`) and
  // scaled by max_batch once the workspace bound below has been checked.
  enum ScratchField {
    kPlanes,
    kQinVals,
    kQinScales,
    kQoutVals,
    kQoutScales,
    kWt,
    kWVals,
    kWScales,
  };
  struct ScratchReq {
    size_t step;
    ScratchField field;
    bool floats;
    int64_t count;
    bool batched;
    int begin;
    int end;
  };
  std::vector<ScratchReq> scratch;

  steps_.clear();
  steps_.reserve(static_cast<size_t>(num_steps));
  for (int p = 0; p < num_steps; ++p) {
    const int ni = order[static_cast<size_t>(p)];
    const OpNode& node = g.nodes[static_cast<size_t>(ni)];
    Step step;
    step.node = ni;

    if (node.kind == OpKind::kConv) {
      const ConvGeometry geom = ConvGeometryOf(node);
      scratch.push_back({static_cast<size_t>(p), kPlanes, true,
                         geom.planes_elems(), false, p, p});
      step.tap_off = ConvTapOffsets(geom);
    }
    if (IsQuantDense(node.kind)) {
      const int64_t kp_in = PadToQuantBlock(node.in_elems);
      if (!node.quant_in) {
        scratch.push_back(
            {static_cast<size_t>(p), kQinVals, false, kp_in, true, p, p});
        scratch.push_back({static_cast<size_t>(p), kQinScales, true,
                           kp_in / kQuantBlock, true, p, p});
      }
      if (node.quant_out) {
        // Live until the (sole) consumer's step reads the codes.
        const int consumer =
            g.tensors[static_cast<size_t>(node.output)].consumers[0];
        const int cpos = node_step[static_cast<size_t>(consumer)];
        const int64_t kp_out = PadToQuantBlock(node.out_elems);
        scratch.push_back({static_cast<size_t>(p), kQoutVals, false, kp_out,
                           true, p, cpos});
        scratch.push_back({static_cast<size_t>(p), kQoutScales, true,
                           kp_out / kQuantBlock, true, p, cpos});
      }
      if (!node.folded) {
        // Constant folding off: the step re-derives transposed block
        // codes from the fp32 weight on every call, allocation-free.
        scratch.push_back({static_cast<size_t>(p), kWt, true,
                           node.in_elems * node.out_elems, false, p, p});
        const int64_t code_bytes =
            node.kind == OpKind::kDenseInt8
                ? node.out_elems * kp_in
                : node.out_elems * (kp_in / 2);  // nibble-packed q4
        scratch.push_back({static_cast<size_t>(p), kWVals, false, code_bytes,
                           false, p, p});
        scratch.push_back({static_cast<size_t>(p), kWScales, true,
                           node.out_elems * (kp_in / kQuantBlock), false, p,
                           p});
      }
    }

    // Fixed trace/cost plan: FLOPs from the node's arithmetic, bytes from
    // the activations it reads/writes plus resident parameters, scaled by
    // the batch at run time.
    int64_t param_elems =
        node.weight.size() + node.bias.size() +
        (node.qweight8.PackedBytes() + node.qweight4.PackedBytes() + 3) / 4;
    switch (node.kind) {
      case OpKind::kDense:
        step.trace_name =
            node.relu_fused ? "engine.dense_relu" : "engine.dense";
        step.flops_per_example = 2 * node.in_elems * node.out_elems;
        break;
      case OpKind::kDenseInt8:
        step.trace_name =
            node.relu_fused ? "engine.dense_int8_relu" : "engine.dense_int8";
        step.flops_per_example = 2 * node.in_elems * node.out_elems;
        break;
      case OpKind::kDenseInt4:
        step.trace_name =
            node.relu_fused ? "engine.dense_int4_relu" : "engine.dense_int4";
        step.flops_per_example = 2 * node.in_elems * node.out_elems;
        break;
      case OpKind::kConv:
        step.trace_name =
            node.relu_fused ? "engine.conv_relu" : "engine.conv";
        step.flops_per_example =
            2 * node.out_elems * node.in_ch * node.kernel * node.kernel;
        break;
      case OpKind::kPool:
        step.trace_name = "engine.pool";
        step.flops_per_example = node.out_elems * node.window * node.window;
        break;
      case OpKind::kRelu:
        step.trace_name = "engine.relu";
        step.flops_per_example = node.in_elems;
        break;
      case OpKind::kSigmoid:
        step.trace_name = "engine.sigmoid";
        step.flops_per_example = 4 * node.in_elems;
        break;
      case OpKind::kTanh:
        step.trace_name = "engine.tanh";
        step.flops_per_example = 4 * node.in_elems;
        break;
      case OpKind::kBatchNorm:
        step.trace_name = "engine.batchnorm";
        step.flops_per_example = 4 * node.in_elems;
        param_elems += 4 * node.in_elems;
        break;
    }
    if (node.relu_fused) step.flops_per_example += node.out_elems;
    step.bytes_per_example =
        4 * (node.in_elems + node.out_elems + param_elems);
    steps_.push_back(step);
  }

  // ---- workspace bound ------------------------------------------------
  //
  // Either layout below needs at most twice the sum of every buffer's
  // aligned bytes at max_batch rows: the packer places no buffer past that
  // sum, and ping-pong holds two copies of the largest activation plus
  // one buffer per scratch family. The sum is formed with overflow checks
  // before any batch-scaled size exists, so every size computed after it
  // fits in int64, and a max_batch that would not is rejected here
  // rather than wrapping into a negative arena request.
  {
    int64_t bound = 0;
    bool overflow = false;
    auto add = [&](int64_t count, bool batched, int64_t elem_bytes) {
      int64_t bytes = 0;
      overflow = overflow ||
                 (batched && __builtin_mul_overflow(count, kMaxB, &count)) ||
                 __builtin_mul_overflow(count, elem_bytes, &bytes) ||
                 __builtin_add_overflow(bound, bytes, &bound) ||
                 __builtin_add_overflow(bound, TensorArena::kAlign,
                                        &bound);
    };
    for (int gi = 0; gi < num_groups; ++gi) {
      add(group_elems[static_cast<size_t>(gi)], true, 4);
    }
    for (const ScratchReq& req : scratch) {
      add(req.count, req.batched, req.floats ? 4 : 1);
    }
    if (overflow || __builtin_mul_overflow(bound, 2, &bound)) {
      return Status::InvalidArgument(
          "inference compile: max_batch " + std::to_string(kMaxB) +
          " puts the workspace past int64 bytes");
    }
  }
  for (ScratchReq& req : scratch) {
    if (req.batched) req.count *= kMaxB;
  }

  // ---- shared (ping-pong) sizing --------------------------------------
  //
  // The pack-off layout of this exact schedule: two max-sized activation
  // buffers plus one shared buffer per scratch family. Computed always so
  // unpacked_workspace_bytes() reports the before/after pair.
  int64_t max_act = in_elems_;
  for (int gi = 0; gi < num_groups; ++gi) {
    max_act = std::max(max_act, group_elems[static_cast<size_t>(gi)]);
  }
  int64_t shared_max[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (const ScratchReq& req : scratch) {
    // qout shares the activation-code buffer with qin in the ping-pong
    // layout (the ParallelFor barrier between a GEMM and its epilogue
    // makes the overwrite safe).
    const int fam = req.field == kQoutVals     ? kQinVals
                    : req.field == kQoutScales ? kQinScales
                                               : req.field;
    shared_max[fam] = std::max(shared_max[fam], req.count);
  }
  unpacked_bytes_ = 2 * TensorArena::AlignUp(4 * max_act * kMaxB);
  for (int fam = 0; fam < 8; ++fam) {
    if (shared_max[fam] == 0) continue;
    const bool floats = fam == kPlanes || fam == kQinScales ||
                        fam == kQoutScales || fam == kWt || fam == kWScales;
    unpacked_bytes_ +=
        TensorArena::AlignUp(shared_max[fam] * (floats ? 4 : 1));
  }
  unpacked_bytes_ = std::max<int64_t>(unpacked_bytes_, TensorArena::kAlign);

  auto bind = [&](Step* step, ScratchField field, TensorArena::BufferId id) {
    switch (field) {
      case kPlanes:
        step->planes = id;
        return;
      case kQinVals:
        step->qin_vals = id;
        return;
      case kQinScales:
        step->qin_scales = id;
        return;
      case kQoutVals:
        step->qout_vals = id;
        return;
      case kQoutScales:
        step->qout_scales = id;
        return;
      case kWt:
        step->wt = id;
        return;
      case kWVals:
        step->wvals = id;
        return;
      case kWScales:
        step->wscales = id;
    }
  };

  std::vector<TensorArena::BufferId> group_buf(
      static_cast<size_t>(num_groups), -1);
  if (passes_.pack) {
    // Liveness-packed layout: first-fit offsets over per-buffer live
    // intervals; disjoint lifetimes share bytes. Commit() cross-checks
    // every placed pair, so a packer bug aborts at plan time.
    DLSYS_TRACE_SPAN("infer.pass.pack", "compile");
    std::vector<LiveBuffer> buffers;
    buffers.reserve(static_cast<size_t>(num_groups) + scratch.size());
    for (int gi = 0; gi < num_groups; ++gi) {
      buffers.push_back(
          LiveBuffer{4 * group_elems[static_cast<size_t>(gi)] * kMaxB,
                     group_begin[static_cast<size_t>(gi)],
                     group_end[static_cast<size_t>(gi)]});
    }
    for (const ScratchReq& req : scratch) {
      buffers.push_back(LiveBuffer{req.count * (req.floats ? 4 : 1),
                                   req.begin, req.end});
    }
    std::vector<int64_t> offsets;
    const int64_t packed_bytes = infer::PackLiveRanges(buffers, &offsets);
    DLSYS_COUNTER_ADD("infer.pass.pack.buffers",
                      static_cast<int64_t>(buffers.size()));
    (void)packed_bytes;  // the arena recomputes the same total from places
    for (int gi = 0; gi < num_groups; ++gi) {
      group_buf[static_cast<size_t>(gi)] = arena_.PlaceFloats(
          offsets[static_cast<size_t>(gi)],
          group_elems[static_cast<size_t>(gi)] * kMaxB,
          group_begin[static_cast<size_t>(gi)],
          group_end[static_cast<size_t>(gi)]);
    }
    for (size_t s = 0; s < scratch.size(); ++s) {
      const ScratchReq& req = scratch[s];
      const int64_t off = offsets[static_cast<size_t>(num_groups) + s];
      const TensorArena::BufferId id =
          req.floats
              ? arena_.PlaceFloats(off, req.count, req.begin, req.end)
              : arena_.PlaceInt8s(off, req.count, req.begin, req.end);
      bind(&steps_[req.step], req.field, id);
    }
  } else {
    // Ping-pong layout: the pre-pass-pipeline plan. Non-in-place steps
    // flip between two max-sized activation buffers; scratch families
    // share one max-sized buffer each.
    const TensorArena::BufferId act0 = arena_.ReserveFloats(max_act * kMaxB);
    const TensorArena::BufferId act1 = arena_.ReserveFloats(max_act * kMaxB);
    for (size_t t = 0; t < num_tensors; ++t) {
      if (group[t] < 0) continue;
      group_buf[static_cast<size_t>(group[t])] = slot[t] == 0 ? act0 : act1;
    }
    TensorArena::BufferId shared[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
    for (int fam = 0; fam < 8; ++fam) {
      if (shared_max[fam] == 0) continue;
      const bool floats = fam == kPlanes || fam == kQinScales ||
                          fam == kQoutScales || fam == kWt || fam == kWScales;
      shared[fam] = floats ? arena_.ReserveFloats(shared_max[fam])
                           : arena_.ReserveInt8s(shared_max[fam]);
    }
    for (const ScratchReq& req : scratch) {
      const int fam = req.field == kQoutVals     ? kQinVals
                      : req.field == kQoutScales ? kQinScales
                                                 : req.field;
      bind(&steps_[req.step], req.field, shared[fam]);
    }
  }

  // Bind activation buffers, then wire quant_in steps to their producer's
  // qout codes (identical ids in the ping-pong layout; distinct placed
  // buffers in the packed one).
  for (size_t s = 0; s < steps_.size(); ++s) {
    const OpNode& node = g.nodes[static_cast<size_t>(steps_[s].node)];
    steps_[s].in =
        group_buf[static_cast<size_t>(group[static_cast<size_t>(node.input)])];
    steps_[s].out = group_buf[static_cast<size_t>(
        group[static_cast<size_t>(node.output)])];
    if (node.quant_in) {
      const int producer =
          g.tensors[static_cast<size_t>(node.input)].producer;
      const Step& src = steps_[static_cast<size_t>(
          node_step[static_cast<size_t>(producer)])];
      steps_[s].qin_vals = src.qout_vals;
      steps_[s].qin_scales = src.qout_scales;
    }
  }

  input_buf_ =
      group_buf[static_cast<size_t>(group[static_cast<size_t>(g.input)])];
  output_buf_ = group_buf[out_group];
  arena_.Commit();
  return Status::OK();
}

Result<Tensor> InferenceEngine::Predict(const Tensor& batch) {
  if (batch.rank() != static_cast<int64_t>(in_shape_.size()) + 1) {
    return Status::InvalidArgument(
        "Predict: batch rank " + std::to_string(batch.rank()) +
        " does not match compiled example shape " + ShapeToString(in_shape_));
  }
  for (size_t d = 0; d < in_shape_.size(); ++d) {
    if (batch.dim(static_cast<int64_t>(d) + 1) != in_shape_[d]) {
      return Status::InvalidArgument(
          "Predict: batch shape " + ShapeToString(batch.shape()) +
          " does not match compiled example shape " +
          ShapeToString(in_shape_));
    }
  }
  const int64_t b = batch.dim(0);
  Shape out_shape;
  out_shape.reserve(out_shape_.size() + 1);
  out_shape.push_back(b);
  out_shape.insert(out_shape.end(), out_shape_.begin(), out_shape_.end());
  Tensor out(std::move(out_shape));
  DLSYS_RETURN_NOT_OK(PredictInto(batch.data(), b, out.data()));
  return out;
}

Status InferenceEngine::PredictInto(const float* batch, int64_t batch_size,
                                    float* out) {
  if (batch == nullptr || out == nullptr) {
    return Status::InvalidArgument("PredictInto: null buffer");
  }
  if (batch_size < 1 || batch_size > config_.max_batch) {
    return Status::InvalidArgument(
        "PredictInto: batch size " + std::to_string(batch_size) +
        " outside [1, " + std::to_string(config_.max_batch) +
        "] declared at compile time");
  }
  DLSYS_PHASE_SCOPE(obs::Phase::kServe);
  DLSYS_TRACE_SPAN_COST("engine.predict", "serve", 0,
                        4 * batch_size * (in_elems_ + out_elems_));
  std::copy(batch, batch + batch_size * in_elems_, arena_.Floats(input_buf_));
  for (const Step& step : steps_) {
    DLSYS_TRACE_SPAN_COST(step.trace_name, "serve",
                          batch_size * step.flops_per_example,
                          batch_size * step.bytes_per_example);
    RunStep(step, batch_size);
  }
  const float* result = arena_.Floats(output_buf_);
  std::copy(result, result + batch_size * out_elems_, out);
  return Status::OK();
}

void InferenceEngine::RunStep(const Step& step, int64_t batch) const {
  const OpNode& node = graph_.nodes[static_cast<size_t>(step.node)];
  const float* in = arena_.Floats(step.in);
  float* out = arena_.Floats(step.out);
  switch (node.kind) {
    case OpKind::kDense: {
      const int64_t in_f = node.in_elems, out_f = node.out_elems;
      const float* pb = node.bias.data();
      if (node.epilogue_fused) {
        // Fusion pass on: bias (+ absorbed relu) runs in the GEMM range
        // kernel's epilogue — same float ops, fewer output passes.
        MatMulBiasActInto(in, node.weight.data(), pb, out, batch, in_f,
                          out_f, node.relu_fused);
        return;
      }
      MatMulInto(in, node.weight.data(), out, batch, in_f, out_f);
      ParallelFor(0, batch, 8, [=](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          float* row = out + i * out_f;
          for (int64_t j = 0; j < out_f; ++j) row[j] += pb[j];
        }
      });
      return;
    }
    case OpKind::kDenseInt8:
    case OpKind::kDenseInt4: {
      const int64_t in_f = node.in_elems, out_f = node.out_elems;
      const int64_t kp = PadToQuantBlock(in_f);
      // Weight codes: folded at compile time, or re-derived here from the
      // fp32 weight (transpose + block-quantize into arena scratch —
      // identical codes, recomputed every call).
      const int8_t* wv8 = nullptr;
      const uint8_t* wv4 = nullptr;
      const float* ws = nullptr;
      if (node.folded) {
        if (node.kind == OpKind::kDenseInt8) {
          wv8 = node.qweight8.values.data();
          ws = node.qweight8.scales.data();
        } else {
          wv4 = node.qweight4.values.data();
          ws = node.qweight4.scales.data();
        }
      } else {
        const float* w = node.weight.data();
        float* wt = arena_.Floats(step.wt);
        ParallelFor(0, out_f, 8, [=](int64_t o0, int64_t o1) {
          for (int64_t o = o0; o < o1; ++o) {
            float* trow = wt + o * in_f;
            for (int64_t i = 0; i < in_f; ++i) trow[i] = w[i * out_f + o];
          }
        });
        float* wscales = arena_.Floats(step.wscales);
        if (node.kind == OpKind::kDenseInt8) {
          int8_t* wvals = arena_.Int8s(step.wvals);
          Q8BlockQuantizeRowsInto(wt, out_f, in_f, wvals, wscales);
          wv8 = wvals;
        } else {
          uint8_t* wvals = reinterpret_cast<uint8_t*>(arena_.Int8s(step.wvals));
          Q4BlockQuantizeRowsInto(wt, out_f, in_f, wvals, wscales);
          wv4 = wvals;
        }
        ws = wscales;
      }
      // Input codes: the quant-elimination pass hands the producer's q8
      // codes straight through; otherwise quantize the fp32 batch here.
      const int8_t* qv;
      const float* qs;
      if (node.quant_in) {
        qv = arena_.Int8s(step.qin_vals);
        qs = arena_.Floats(step.qin_scales);
      } else {
        int8_t* qv_mut = arena_.Int8s(step.qin_vals);
        float* qs_mut = arena_.Floats(step.qin_scales);
        Q8BlockQuantizeRowsInto(in, batch, in_f, qv_mut, qs_mut);
        qv = qv_mut;
        qs = qs_mut;
      }
      if (node.kind == OpKind::kDenseInt8) {
        Q8BlockGemmTransBInto(qv, qs, wv8, ws, out, batch, kp, out_f);
      } else {
        Q4BlockGemmTransBInto(qv, qs, wv4, ws, out, batch, kp, out_f);
      }
      // Epilogue: bias, absorbed relu, and (under quant elimination) the
      // row quantization the consumer would otherwise redo, in one SIMD
      // pass per row. The GEMM's ParallelFor join above guarantees the
      // input codes are fully consumed before a shared code buffer is
      // overwritten.
      const float* pb = node.bias.data();
      int8_t* oqv =
          node.quant_out ? arena_.Int8s(step.qout_vals) : nullptr;
      float* oqs =
          node.quant_out ? arena_.Floats(step.qout_scales) : nullptr;
      if (node.epilogue_fused) {
        Q8BiasActQuantizeRowsInto(out, pb, batch, out_f, node.relu_fused, oqv,
                                  oqs);
        return;
      }
      ParallelFor(0, batch, 8, [=](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          float* row = out + i * out_f;
          for (int64_t j = 0; j < out_f; ++j) row[j] += pb[j];
        }
      });
      if (oqv != nullptr) Q8BlockQuantizeRowsInto(out, batch, out_f, oqv, oqs);
      return;
    }
    case OpKind::kRelu: {
      ParallelFor(0, batch * node.in_elems, kEwGrain,
                  [=](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) {
                      out[i] = in[i] > 0.0f ? in[i] : 0.0f;
                    }
                  });
      return;
    }
    case OpKind::kSigmoid: {
      ParallelFor(0, batch * node.in_elems, kEwGrain,
                  [=](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) {
                      out[i] = 1.0f / (1.0f + std::exp(-in[i]));
                    }
                  });
      return;
    }
    case OpKind::kTanh: {
      ParallelFor(0, batch * node.in_elems, kEwGrain,
                  [=](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) {
                      out[i] = std::tanh(in[i]);
                    }
                  });
      return;
    }
    case OpKind::kBatchNorm: {
      const int64_t f = node.in_elems;
      const float* gamma = node.bn_gamma.data();
      const float* bt = node.bn_beta.data();
      const float* mu = node.bn_mean.data();
      if (node.folded) {
        const float* inv = node.bn_inv.data();
        ParallelFor(0, batch, 8, [=](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            const float* xrow = in + i * f;
            float* yrow = out + i * f;
            for (int64_t j = 0; j < f; ++j) {
              yrow[j] = gamma[j] * (xrow[j] - mu[j]) * inv[j] + bt[j];
            }
          }
        });
        return;
      }
      // Folding off: recompute 1/sqrt(var+eps) per element — the exact
      // float the folded path precomputed, so results are identical.
      const float* var = node.bn_var.data();
      const float eps = node.bn_eps;
      ParallelFor(0, batch, 8, [=](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* xrow = in + i * f;
          float* yrow = out + i * f;
          for (int64_t j = 0; j < f; ++j) {
            yrow[j] = gamma[j] * (xrow[j] - mu[j]) *
                          (1.0f / std::sqrt(var[j] + eps)) +
                      bt[j];
          }
        }
      });
      return;
    }
    case OpKind::kPool: {
      MaxPoolInto(in, out, batch * node.in_ch, node.h, node.w, node.window);
      return;
    }
    case OpKind::kConv: {
      const ConvGeometry geom = ConvGeometryOf(node);
      const int64_t in_elems = geom.in_ch * geom.h * geom.w;
      const int64_t out_elems = geom.out_ch * geom.ho * geom.wo;
      float* planes = arena_.Floats(step.planes);
      for (int64_t img = 0; img < batch; ++img) {
        // The image's zero-padded phase planes, then the GEMM reading
        // each tap's run straight from them. With the fusion pass on, an
        // absorbed ReLU runs in the conv GEMM's epilogue instead of as a
        // separate output pass.
        ConvPhasePlanesInto(in + img * in_elems, geom, planes);
        ConvGemmBiasActInto(node.weight.data(), planes, step.tap_off.data(),
                            node.bias.data(), out + img * out_elems, geom,
                            node.relu_fused);
      }
      return;
    }
  }
}

}  // namespace dlsys
