#include "src/infer/graph.h"

#include <string>

#include "src/nn/conv.h"
#include "src/nn/layers.h"

namespace dlsys {
namespace infer {
namespace {

Status ShapeError(const std::string& layer, const Shape& got,
                  const std::string& want) {
  return Status::InvalidArgument("inference compile: layer '" + layer +
                                 "' cannot consume activations of shape " +
                                 ShapeToString(got) + " (expected " + want +
                                 ")");
}

}  // namespace

bool IsElementwise(OpKind kind) {
  switch (kind) {
    case OpKind::kRelu:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kBatchNorm:
      return true;
    default:
      return false;
  }
}

bool IsQuantDense(OpKind kind) {
  return kind == OpKind::kDenseInt8 || kind == OpKind::kDenseInt4;
}

Result<OpGraph> OpGraph::Lower(const Sequential& net,
                               const Shape& example_shape,
                               EngineNumeric numeric) {
  OpGraph g;
  g.in_shape = example_shape;
  TensorDef in_def;
  in_def.shape = example_shape;
  in_def.elems = NumElements(example_shape);
  g.tensors.push_back(in_def);
  g.input = 0;

  Shape cur = example_shape;
  int cur_tensor = g.input;

  auto new_tensor = [&](const Shape& shape) -> int {
    TensorDef def;
    def.shape = shape;
    def.elems = NumElements(shape);
    g.tensors.push_back(def);
    return static_cast<int>(g.tensors.size()) - 1;
  };

  for (int64_t li = 0; li < net.size(); ++li) {
    const Layer* layer = net.layer(li);
    OpNode node;
    node.name = layer->name();

    if (const auto* dense = dynamic_cast<const Dense*>(layer)) {
      if (cur.size() != 1 || cur[0] != dense->in_features()) {
        return ShapeError(layer->name(), cur,
                          "[" + std::to_string(dense->in_features()) + "]");
      }
      node.in_elems = dense->in_features();
      node.out_elems = dense->out_features();
      node.bias = dense->bias();
      // The fp32 weight is carried in all three numerics; constant folding
      // (or the emitted prep pass when folding is off) derives the block
      // codes for the quantized kinds.
      node.weight = dense->weight();
      node.kind = numeric == EngineNumeric::kInt8   ? OpKind::kDenseInt8
                  : numeric == EngineNumeric::kInt4 ? OpKind::kDenseInt4
                                                    : OpKind::kDense;
      cur = {node.out_elems};
    } else if (const auto* conv = dynamic_cast<const Conv2D*>(layer)) {
      if (cur.size() != 3 || cur[0] != conv->in_channels()) {
        return ShapeError(layer->name(), cur,
                          "[" + std::to_string(conv->in_channels()) +
                              ", H, W]");
      }
      node.kind = OpKind::kConv;
      node.in_ch = conv->in_channels();
      node.out_ch = conv->out_channels();
      node.kernel = conv->kernel();
      node.stride = conv->stride();
      node.pad = conv->pad();
      node.h = cur[1];
      node.w = cur[2];
      node.ho = conv->OutExtent(node.h);
      node.wo = conv->OutExtent(node.w);
      if (node.ho <= 0 || node.wo <= 0) {
        return ShapeError(layer->name(), cur,
                          "extents yielding a positive output plane");
      }
      node.weight = conv->weight();
      node.bias = conv->bias();
      node.in_elems = NumElements(cur);
      node.out_elems = node.out_ch * node.ho * node.wo;
      cur = {node.out_ch, node.ho, node.wo};
    } else if (const auto* pool = dynamic_cast<const MaxPool2D*>(layer)) {
      if (cur.size() != 3) {
        return ShapeError(layer->name(), cur, "[C, H, W]");
      }
      node.kind = OpKind::kPool;
      node.window = pool->window();
      node.in_ch = cur[0];
      node.h = cur[1];
      node.w = cur[2];
      node.ho = node.h / node.window;
      node.wo = node.w / node.window;
      if (node.ho <= 0 || node.wo <= 0) {
        return ShapeError(layer->name(), cur,
                          "extents at least one pooling window wide");
      }
      node.in_elems = NumElements(cur);
      node.out_elems = node.in_ch * node.ho * node.wo;
      cur = {node.in_ch, node.ho, node.wo};
    } else if (const auto* bn = dynamic_cast<const BatchNorm1d*>(layer)) {
      if (cur.size() != 1 || cur[0] != bn->features()) {
        return ShapeError(layer->name(), cur,
                          "[" + std::to_string(bn->features()) + "]");
      }
      node.kind = OpKind::kBatchNorm;
      node.in_elems = node.out_elems = bn->features();
      node.bn_eps = bn->epsilon();
      const int64_t f = bn->features();
      node.bn_gamma.resize(static_cast<size_t>(f));
      node.bn_beta.resize(static_cast<size_t>(f));
      node.bn_mean.resize(static_cast<size_t>(f));
      node.bn_var.resize(static_cast<size_t>(f));
      for (int64_t j = 0; j < f; ++j) {
        node.bn_gamma[static_cast<size_t>(j)] = bn->gamma()[j];
        node.bn_beta[static_cast<size_t>(j)] = bn->beta()[j];
        node.bn_mean[static_cast<size_t>(j)] = bn->running_mean()[j];
        node.bn_var[static_cast<size_t>(j)] = bn->running_var()[j];
      }
    } else if (dynamic_cast<const ReLU*>(layer) != nullptr) {
      node.kind = OpKind::kRelu;
      node.in_elems = node.out_elems = NumElements(cur);
    } else if (dynamic_cast<const Sigmoid*>(layer) != nullptr) {
      node.kind = OpKind::kSigmoid;
      node.in_elems = node.out_elems = NumElements(cur);
    } else if (dynamic_cast<const Tanh*>(layer) != nullptr) {
      node.kind = OpKind::kTanh;
      node.in_elems = node.out_elems = NumElements(cur);
    } else if (dynamic_cast<const Flatten*>(layer) != nullptr) {
      // Row-major reshape: metadata only, no node. The current tensor's
      // logical shape changes but its storage does not.
      cur = {NumElements(cur)};
      g.tensors[static_cast<size_t>(cur_tensor)].shape = cur;
      continue;
    } else if (dynamic_cast<const Dropout*>(layer) != nullptr) {
      continue;  // identity at inference
    } else {
      return Status::Unimplemented(
          "inference compile: unsupported layer '" + layer->name() + "'");
    }

    node.in_place = IsElementwise(node.kind);
    node.input = cur_tensor;
    node.output = new_tensor(cur);
    cur_tensor = node.output;
    g.nodes.push_back(std::move(node));
  }

  g.output = cur_tensor;
  g.out_shape = cur;
  g.RebuildEdges();
  return g;
}

void OpGraph::RebuildEdges() {
  for (TensorDef& t : tensors) {
    t.producer = -1;
    t.consumers.clear();
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const OpNode& node = nodes[i];
    if (node.dead) continue;
    tensors[static_cast<size_t>(node.output)].producer = static_cast<int>(i);
    tensors[static_cast<size_t>(node.input)].consumers.push_back(
        static_cast<int>(i));
  }
}

int64_t OpGraph::live_nodes() const {
  int64_t n = 0;
  for (const OpNode& node : nodes) {
    if (!node.dead) ++n;
  }
  return n;
}

}  // namespace infer
}  // namespace dlsys
