// E1 — Quantization trades size for accuracy (tutorial Section 2.1).
// Sweeps bit width x quantizer kind on a trained MLP; prints accuracy,
// packed bytes, and Huffman-coded bytes per cell. A second table covers
// the serving-path block formats (ggml-style q8/q4, one scale per
// 32-element block) executed through the real InferenceEngine integer
// GEMM, and a timing section reads the per-block q8 activation
// quantizer's latency quantiles back from the CounterRegistry histogram
// rather than local timing plumbing.

#include <algorithm>
#include <cmath>

#include "bench/report.h"
#include "src/compress/quantization.h"
#include "src/core/metrics.h"
#include "src/data/synthetic.h"
#include "src/infer/engine.h"
#include "src/nn/layers.h"
#include "src/nn/train.h"
#include "src/obs/counters.h"
#include "src/optim/optimizer.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

/// Fraction of \p split test examples the engine classifies correctly.
double EngineAccuracy(const Sequential& net, const TrainTestSplit& split,
                      EngineNumeric numeric) {
  EngineConfig config;
  config.max_batch = 64;
  config.numeric = numeric;
  auto compiled = InferenceEngine::Compile(net, {16}, config);
  if (!compiled.ok()) {
    std::fprintf(stderr, "engine compile failed: %s\n",
                 compiled.status().ToString().c_str());
    return 0.0;
  }
  InferenceEngine engine = std::move(compiled).value();
  int64_t hits = 0;
  const int64_t n = split.test.size();
  for (int64_t begin = 0; begin < n; begin += 64) {
    const int64_t end = std::min<int64_t>(begin + 64, n);
    const Tensor logits =
        std::move(engine.Predict(SliceRows(split.test.x, begin, end))).value();
    const std::vector<int64_t> pred = ArgMaxRows(logits);
    for (int64_t i = 0; i < end - begin; ++i) {
      if (pred[static_cast<size_t>(i)] ==
          split.test.y[static_cast<size_t>(begin + i)]) {
        ++hits;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

/// Block-format storage and reconstruction error across every Dense weight
/// matrix of \p net (quantized per output feature, as the engine stores
/// them).
struct BlockCell {
  int64_t packed_bytes = 0;
  double max_err = 0.0;
};

template <typename QuantizeFn>
BlockCell MeasureBlockFormat(const Sequential& net, QuantizeFn&& quantize) {
  BlockCell cell;
  for (int64_t i = 0; i < net.size(); ++i) {
    const Dense* dense = dynamic_cast<const Dense*>(net.layer(i));
    if (dense == nullptr) continue;
    const Tensor wt = Transpose(dense->weight());
    auto q = quantize(wt);
    cell.packed_bytes += q.PackedBytes();
    Tensor back = q.Dequantize();
    for (int64_t i = 0; i < wt.size(); ++i) {
      cell.max_err = std::max(
          cell.max_err, static_cast<double>(std::abs(back[i] - wt[i])));
    }
  }
  return cell;
}

/// Adds \p name's p50/p99 ms over `iters` runs of \p fn to \p table,
/// read back from the registry histogram.
template <typename Fn>
void TimeIntoHistogram(bench::Table* table, const char* name, int iters,
                       Fn&& fn) {
  obs::SharedHistogram* hist =
      obs::CounterRegistry::Global().histogram("bench.quantize_ms");
  hist->Reset();
  fn();  // warm
  for (int it = 0; it < iters; ++it) {
    Stopwatch watch;
    fn();
    hist->Record(watch.Seconds() * 1000.0);
  }
  table->Row(name, hist->Quantile(0.5), hist->Quantile(0.99));
}

}  // namespace
}  // namespace dlsys

int main() {
  using namespace dlsys;
  Rng rng(17);
  Dataset data = MakeGaussianBlobs(4000, 16, 8, 3.0, &rng);
  TrainTestSplit split = Split(data, 0.8);
  Sequential base = MakeMlp(16, {96, 64}, 8);
  base.Init(&rng);
  Sgd opt(0.05, 0.9);
  TrainConfig tc;
  tc.epochs = 25;
  Train(&base, &opt, split.train, tc);
  const double fp32_acc = Evaluate(&base, split.test).accuracy;

  bench::Report report("quantization");
  report
      .AddLine("baseline",
               {{"accuracy",
                 "E1: quantization bit-width sweep (fp32 baseline: acc=%.3f,"},
                {"bytes", " %lld bytes)"}})
      .Row(fp32_acc, base.ModelBytes());
  bench::Table& sweep = report.AddTable(
      "E1", {{"quantizer", "%-10s"}, {"bits", "%5lld"}, {"accuracy", "%10.3f"},
             {"packed_B", "%12lld"}, {"huffman_B", "%13lld"},
             {"max_err", "%10.4f"}});

  struct Cell {
    QuantizerKind kind;
    const char* name;
    int64_t bits;
  };
  std::vector<Cell> cells;
  for (int64_t bits : {16, 8, 4, 2, 1}) {
    cells.push_back({QuantizerKind::kUniform, "uniform", bits});
    cells.push_back({QuantizerKind::kKMeans, "kmeans", bits});
  }
  cells.push_back({QuantizerKind::kBinary, "binary", 1});

  for (const Cell& cell : cells) {
    Sequential net = base.Clone();
    auto nq = QuantizeNetwork(&net, cell.kind, cell.bits);
    if (!nq.ok()) {
      std::fprintf(stderr, "quantize failed: %s\n",
                   nq.status().ToString().c_str());
      return 1;
    }
    const double acc = Evaluate(&net, split.test).accuracy;
    sweep.Row(cell.name, cell.bits, acc, nq->packed_bytes, nq->huffman_bytes,
              nq->max_abs_error);
  }

  // Block formats run through the actual integer serving path (fused
  // dequant GEMM in InferenceEngine), not simulated quantize-dequantize:
  // the accuracy column includes runtime q8 activation quantization.
  report.Print("\nblock formats (engine-executed, scale per %lld "
               "elements):\n",
               static_cast<long long>(kQuantBlock));
  bench::Table& blocks = report.AddTable(
      "block formats", {{"format", "%-10s"}, {"bits", "%5d"},
                        {"accuracy", "%10.3f"}, {"packed_B", "%12lld"},
                        {"max_err", "%10.4f"}});
  const BlockCell q8 = MeasureBlockFormat(
      base, [](const Tensor& t) { return Q8BlockQuantizeRows(t); });
  const BlockCell q4 = MeasureBlockFormat(
      base, [](const Tensor& t) { return Q4BlockQuantizeRows(t); });
  blocks.Row("q8-block", 8, EngineAccuracy(base, split, EngineNumeric::kInt8),
             q8.packed_bytes, q8.max_err);
  blocks.Row("q4-block", 4, EngineAccuracy(base, split, EngineNumeric::kInt4),
             q4.packed_bytes, q4.max_err);

  // Activation quantization latency at the E31 serving shape, quantiles
  // from the registry histogram.
  report.Print("\nactivation quantization 64x768 (registry histogram):\n");
  bench::Table& latency = report.AddLine(
      "activation quantization", {{"quantizer", "%-22s"},
                                  {"p50_ms", " p50 %.4f ms |", bench::kWall},
                                  {"p99_ms", " p99 %.4f ms", bench::kWall}});
  Tensor act({64, 768});
  act.FillGaussian(&rng, 1.0f);
  std::vector<int8_t> codes(64 * 768);
  std::vector<float> scales(64 * 768 / kQuantBlock);
  TimeIntoHistogram(&latency, "per-block q8", 50, [&] {
    Q8BlockQuantizeRowsInto(act.data(), 64, 768, codes.data(), scales.data());
  });

  report.Print("\nexpected shape: accuracy flat down to ~4 bits, cliff at "
               "1-2 bits; kmeans >= uniform at equal bits; size ~ bits/32; "
               "block formats hold the envelope at 32x finer scale "
               "granularity with q4 halving q8's bytes.\n");
  return report.Finish();
}
