#include "src/compress/quantization.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"

namespace dlsys {

Tensor QuantizedTensor::Dequantize() const {
  Tensor out(shape);
  for (int64_t i = 0; i < out.size(); ++i) {
    out[i] = codebook[codes[static_cast<size_t>(i)]];
  }
  return out;
}

int64_t QuantizedTensor::PackedBytes() const {
  const int64_t code_bits = static_cast<int64_t>(codes.size()) * bits;
  const int64_t codebook_bytes =
      affine_codebook
          ? 8
          : static_cast<int64_t>(codebook.size()) *
                static_cast<int64_t>(sizeof(float));
  return (code_bits + 7) / 8 + codebook_bytes;
}

int64_t QuantizedTensor::HuffmanBytes() const {
  std::vector<int64_t> freq(codebook.size(), 0);
  for (uint32_t c : codes) freq[c] += 1;
  const int64_t code_bits = HuffmanBitLength(freq);
  // Codebook (8 bytes if affine) + one byte per symbol for canonical code
  // lengths.
  const int64_t codebook_bytes =
      (affine_codebook ? 8
                       : static_cast<int64_t>(codebook.size()) *
                             static_cast<int64_t>(sizeof(float))) +
      static_cast<int64_t>(codebook.size());
  return (code_bits + 7) / 8 + codebook_bytes;
}

int64_t HuffmanBitLength(const std::vector<int64_t>& frequencies) {
  // Standard two-queue-free construction with a priority queue; the total
  // coded length equals the sum of internal node weights.
  std::priority_queue<int64_t, std::vector<int64_t>, std::greater<>> pq;
  for (int64_t f : frequencies) {
    if (f > 0) pq.push(f);
  }
  if (pq.empty()) return 0;
  if (pq.size() == 1) return pq.top();  // single symbol: 1 bit each
  int64_t total = 0;
  while (pq.size() > 1) {
    int64_t a = pq.top();
    pq.pop();
    int64_t b = pq.top();
    pq.pop();
    total += a + b;
    pq.push(a + b);
  }
  return total;
}

namespace {

QuantizedTensor UniformQuantize(const Tensor& t, int64_t bits) {
  QuantizedTensor q;
  q.shape = t.shape();
  q.bits = bits;
  q.affine_codebook = true;
  const int64_t levels = int64_t{1} << bits;
  float lo = t[0], hi = t[0];
  for (int64_t i = 0; i < t.size(); ++i) {
    lo = std::min(lo, t[i]);
    hi = std::max(hi, t[i]);
  }
  if (hi == lo) hi = lo + 1e-8f;
  q.codebook.resize(static_cast<size_t>(levels));
  const float step = (hi - lo) / static_cast<float>(levels - 1);
  for (int64_t k = 0; k < levels; ++k) {
    q.codebook[static_cast<size_t>(k)] = lo + step * static_cast<float>(k);
  }
  q.codes.resize(static_cast<size_t>(t.size()));
  for (int64_t i = 0; i < t.size(); ++i) {
    int64_t code = static_cast<int64_t>(std::lround((t[i] - lo) / step));
    code = std::clamp<int64_t>(code, 0, levels - 1);
    q.codes[static_cast<size_t>(i)] = static_cast<uint32_t>(code);
  }
  return q;
}

// One Lloyd run from a given sorted seed codebook; returns the result
// and its mean squared error.
std::pair<QuantizedTensor, double> LloydFromSeed(
    const Tensor& t, int64_t bits, std::vector<float> seed) {
  QuantizedTensor q;
  q.shape = t.shape();
  q.bits = bits;
  q.affine_codebook = false;
  q.codebook = std::move(seed);
  const int64_t k = static_cast<int64_t>(q.codebook.size());
  q.codes.assign(static_cast<size_t>(t.size()), 0);
  for (int iter = 0; iter < 16; ++iter) {
    // Assign. Scalar k-means with a sorted codebook: the nearest
    // centroid is found by binary search (centroids stay sorted because
    // each update is the mean of a contiguous value range).
    for (int64_t i = 0; i < t.size(); ++i) {
      auto it = std::lower_bound(q.codebook.begin(), q.codebook.end(), t[i]);
      int64_t c = it - q.codebook.begin();
      if (c == k) {
        c = k - 1;
      } else if (c > 0 &&
                 std::abs(t[i] - q.codebook[static_cast<size_t>(c - 1)]) <=
                     std::abs(t[i] - q.codebook[static_cast<size_t>(c)])) {
        c = c - 1;
      }
      q.codes[static_cast<size_t>(i)] = static_cast<uint32_t>(c);
    }
    // Update.
    std::vector<double> sum(static_cast<size_t>(k), 0.0);
    std::vector<int64_t> count(static_cast<size_t>(k), 0);
    for (int64_t i = 0; i < t.size(); ++i) {
      sum[q.codes[static_cast<size_t>(i)]] += t[i];
      count[q.codes[static_cast<size_t>(i)]] += 1;
    }
    bool moved = false;
    for (int64_t c = 0; c < k; ++c) {
      if (count[static_cast<size_t>(c)] == 0) continue;
      const float next = static_cast<float>(sum[static_cast<size_t>(c)] /
                                            count[static_cast<size_t>(c)]);
      if (next != q.codebook[static_cast<size_t>(c)]) moved = true;
      q.codebook[static_cast<size_t>(c)] = next;
    }
    if (!moved) break;
  }
  double mse = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) {
    const double err =
        static_cast<double>(t[i]) - q.codebook[q.codes[static_cast<size_t>(i)]];
    mse += err * err;
  }
  mse /= std::max<int64_t>(t.size(), 1);
  return {std::move(q), mse};
}

QuantizedTensor KMeansQuantize(const Tensor& t, int64_t bits) {
  // Two Lloyd runs — one seeded from the uniform grid (guarantees MSE no
  // worse than uniform quantization), one from data quantiles (better on
  // skewed data) — keep the lower-MSE result. Never more centroids than
  // elements.
  const int64_t k = std::min<int64_t>(int64_t{1} << bits, t.size());
  float lo = t[0], hi = t[0];
  for (int64_t i = 0; i < t.size(); ++i) {
    lo = std::min(lo, t[i]);
    hi = std::max(hi, t[i]);
  }
  if (hi == lo) hi = lo + 1e-8f;
  std::vector<float> grid(static_cast<size_t>(k));
  for (int64_t c = 0; c < k; ++c) {
    grid[static_cast<size_t>(c)] =
        lo + (hi - lo) * static_cast<float>(c) / static_cast<float>(k - 1 > 0 ? k - 1 : 1);
  }
  std::vector<float> sorted(t.data(), t.data() + t.size());
  std::sort(sorted.begin(), sorted.end());
  std::vector<float> quantiles(static_cast<size_t>(k));
  for (int64_t c = 0; c < k; ++c) {
    const int64_t idx = std::min<int64_t>(
        t.size() - 1, (t.size() * (2 * c + 1)) / (2 * k));
    quantiles[static_cast<size_t>(c)] = sorted[static_cast<size_t>(idx)];
  }
  auto from_grid = LloydFromSeed(t, bits, std::move(grid));
  auto from_quantiles = LloydFromSeed(t, bits, std::move(quantiles));
  return from_quantiles.second < from_grid.second
             ? std::move(from_quantiles.first)
             : std::move(from_grid.first);
}

QuantizedTensor BinaryQuantize(const Tensor& t) {
  QuantizedTensor q;
  q.shape = t.shape();
  q.bits = 1;
  q.affine_codebook = true;
  double mean_abs = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) mean_abs += std::abs(t[i]);
  mean_abs /= std::max<int64_t>(t.size(), 1);
  const float alpha = static_cast<float>(mean_abs);
  q.codebook = {-alpha, alpha};
  q.codes.resize(static_cast<size_t>(t.size()));
  for (int64_t i = 0; i < t.size(); ++i) {
    q.codes[static_cast<size_t>(i)] = t[i] >= 0.0f ? 1u : 0u;
  }
  return q;
}

}  // namespace

Result<QuantizedTensor> Quantize(const Tensor& t, QuantizerKind kind,
                                 int64_t bits) {
  if (t.empty()) {
    return Status::InvalidArgument("cannot quantize an empty tensor");
  }
  if (bits < 1 || bits > 16) {
    return Status::InvalidArgument("bits must be in [1, 16], got " +
                                   std::to_string(bits));
  }
  switch (kind) {
    case QuantizerKind::kUniform:
      return UniformQuantize(t, bits);
    case QuantizerKind::kKMeans:
      return KMeansQuantize(t, bits);
    case QuantizerKind::kBinary:
      return BinaryQuantize(t);
  }
  return Status::InvalidArgument("unknown quantizer kind");
}

Tensor Q8BlockMatrix::Dequantize() const {
  Tensor out({rows, cols});
  float* pout = out.data();
  const int64_t nb = padded_cols / kQuantBlock;
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      const float s = scales[static_cast<size_t>(i * nb + j / kQuantBlock)];
      pout[i * cols + j] =
          static_cast<float>(values[static_cast<size_t>(i * padded_cols + j)]) *
          s;
    }
  }
  return out;
}

int64_t Q8BlockMatrix::PackedBytes() const {
  return static_cast<int64_t>(values.size()) +
         static_cast<int64_t>(scales.size()) *
             static_cast<int64_t>(sizeof(float));
}

Tensor Q4BlockMatrix::Dequantize() const {
  Tensor out({rows, cols});
  float* pout = out.data();
  const int64_t nb = padded_cols / kQuantBlock;
  const int64_t row_bytes = padded_cols / 2;
  for (int64_t i = 0; i < rows; ++i) {
    const uint8_t* vrow = values.data() + i * row_bytes;
    for (int64_t j = 0; j < cols; ++j) {
      const int64_t b = j / kQuantBlock;
      const int64_t t = j % kQuantBlock;
      const uint8_t byte = vrow[b * (kQuantBlock / 2) + (t % 16)];
      const int32_t code = t < 16 ? (byte & 0x0F) : (byte >> 4);
      pout[i * cols + j] = static_cast<float>(code - 8) *
                           scales[static_cast<size_t>(i * nb + b)];
    }
  }
  return out;
}

int64_t Q4BlockMatrix::PackedBytes() const {
  return static_cast<int64_t>(values.size()) +
         static_cast<int64_t>(scales.size()) *
             static_cast<int64_t>(sizeof(float));
}

void Q8BlockQuantizeRowsInto(const float* x, int64_t rows, int64_t cols,
                             int8_t* values, float* scales) {
  const int64_t kp = PadToQuantBlock(cols);
  const int64_t nb = kp / kQuantBlock;
  auto* quantize = simd::ActiveKernels().q8_quantize_row;
  ParallelFor(0, rows, 4, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      quantize(x + i * cols, cols, values + i * kp, scales + i * nb);
    }
  });
}

void Q8BiasActQuantizeRowsInto(float* x, const float* bias, int64_t rows,
                               int64_t cols, bool relu, int8_t* values,
                               float* scales) {
  const int64_t kp = PadToQuantBlock(cols);
  const int64_t nb = kp / kQuantBlock;
  auto* epilogue = simd::ActiveKernels().q8_bias_act_quantize_row;
  ParallelFor(0, rows, 8, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      epilogue(x + i * cols, bias, cols, relu ? 1 : 0,
               values != nullptr ? values + i * kp : nullptr,
               values != nullptr ? scales + i * nb : nullptr);
    }
  });
}

Q8BlockMatrix Q8BlockQuantizeRows(const Tensor& t) {
  DLSYS_CHECK(t.rank() == 2, "Q8BlockQuantizeRows requires rank 2");
  Q8BlockMatrix q;
  q.rows = t.dim(0);
  q.cols = t.dim(1);
  q.padded_cols = PadToQuantBlock(q.cols);
  q.values.resize(static_cast<size_t>(q.rows * q.padded_cols));
  q.scales.resize(static_cast<size_t>(q.rows * q.padded_cols / kQuantBlock));
  Q8BlockQuantizeRowsInto(t.data(), q.rows, q.cols, q.values.data(),
                          q.scales.data());
  return q;
}

void Q4BlockQuantizeRowsInto(const float* x, int64_t rows, int64_t cols,
                             uint8_t* values, float* scales) {
  const int64_t kp = PadToQuantBlock(cols);
  const int64_t nb = kp / kQuantBlock;
  const int64_t row_bytes = kp / 2;
  ParallelFor(0, rows, 4, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = x + i * cols;
      uint8_t* vrow = values + i * row_bytes;
      float* srow = scales + i * nb;
      for (int64_t b = 0; b < nb; ++b) {
        const int64_t j0 = b * kQuantBlock;
        const int64_t j1 = std::min<int64_t>(j0 + kQuantBlock, cols);
        float maxabs = 0.0f;
        for (int64_t j = j0; j < j1; ++j) {
          const float a = std::abs(row[j]);
          maxabs = a > maxabs ? a : maxabs;
        }
        const float scale = maxabs > 0.0f ? maxabs / 7.0f : 1.0f;
        const float inv = 1.0f / scale;
        srow[b] = scale;
        uint8_t* block = vrow + b * (kQuantBlock / 2);
        // Pack code q+8: element t in byte t&15, low nibble for t<16,
        // high nibble for t>=16. Pad elements keep code 8 (q = 0).
        uint8_t codes[kQuantBlock];
        for (int64_t t = 0; t < kQuantBlock; ++t) {
          int32_t q4 = 0;
          if (j0 + t < j1) {
            const long q = std::lround(row[j0 + t] * inv);
            q4 = static_cast<int32_t>(std::clamp<long>(q, -7, 7));
          }
          codes[t] = static_cast<uint8_t>(q4 + 8);
        }
        for (int64_t t = 0; t < kQuantBlock / 2; ++t) {
          block[t] = static_cast<uint8_t>(codes[t] |
                                          (codes[t + kQuantBlock / 2] << 4));
        }
      }
    }
  });
}

Q4BlockMatrix Q4BlockQuantizeRows(const Tensor& t) {
  DLSYS_CHECK(t.rank() == 2, "Q4BlockQuantizeRows requires rank 2");
  Q4BlockMatrix q;
  q.rows = t.dim(0);
  q.cols = t.dim(1);
  q.padded_cols = PadToQuantBlock(q.cols);
  const int64_t nb = q.padded_cols / kQuantBlock;
  const int64_t row_bytes = q.padded_cols / 2;
  q.values.assign(static_cast<size_t>(q.rows * row_bytes), 0);
  q.scales.resize(static_cast<size_t>(q.rows * nb));
  Q4BlockQuantizeRowsInto(t.data(), q.rows, q.cols, q.values.data(),
                          q.scales.data());
  return q;
}

Result<NetworkQuantization> QuantizeNetwork(Sequential* net,
                                            QuantizerKind kind, int64_t bits) {
  NetworkQuantization out;
  double sq_sum = 0.0;
  int64_t count = 0;
  for (Tensor* p : net->Params()) {
    if (p->empty()) continue;
    auto q = Quantize(*p, kind, bits);
    if (!q.ok()) return q.status();
    Tensor deq = q->Dequantize();
    out.original_bytes += p->bytes();
    out.packed_bytes += q->PackedBytes();
    out.huffman_bytes += q->HuffmanBytes();
    for (int64_t i = 0; i < p->size(); ++i) {
      const double err = static_cast<double>((*p)[i]) - deq[i];
      out.max_abs_error = std::max(out.max_abs_error, std::abs(err));
      sq_sum += err * err;
    }
    count += p->size();
    *p = std::move(deq);
  }
  out.mean_sq_error = count > 0 ? sq_sum / static_cast<double>(count) : 0.0;
  return out;
}

}  // namespace dlsys
