#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/obs/cost.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"

namespace dlsys {
namespace {

// ---------------------------------------------------------------- GEMM
//
// Every fp32 dense GEMM (MatMul, MatMulInto, MatMulBiasActInto) runs one
// table entry, matmul_bias_act_range, over row-major operands: the
// output row range is statically partitioned across workers by
// ParallelFor, and the range kernel itself comes from the SIMD dispatch
// registry (src/simd) — the scalar reference or an AVX2/AVX-512
// microkernel, chosen once per process from the CPU (override:
// DLSYS_ISA). Every table obeys the same parity contract: the
// accumulation order for any single C element is ascending-p with one
// float multiply then one add per term (no contraction), so every ISA is
// bitwise identical to the naive loop nest below, at every thread count.
// A product with a transposed operand transposes it first (Transpose).

constexpr int64_t kRowGrain = 8;  // min C rows per ParallelFor range
constexpr int64_t kEwGrain = 1 << 15;  // elementwise elements per range

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  DLSYS_CHECK(a.shape() == b.shape(), op);
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  DLSYS_CHECK(a.rank() == 2 && b.rank() == 2, "MatMul requires rank 2");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  DLSYS_CHECK(b.dim(0) == k, "MatMul inner dimension mismatch");
  Tensor c({m, n});
  MatMulInto(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

void MatMulInto(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n) {
  MatMulBiasActInto(a, b, nullptr, c, m, k, n, /*relu=*/false);
}

void MatMulBiasActInto(const float* a, const float* b, const float* bias,
                       float* c, int64_t m, int64_t k, int64_t n,
                       bool relu) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_TRACE_SPAN_COST("gemm.matmul_bias_act", kt.span_cat,
                        2 * m * k * n, 4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  auto* kernel = kt.matmul_bias_act_range;
  const int relu_flag = relu ? 1 : 0;
  ParallelFor(0, m, kRowGrain, [=](int64_t i0, int64_t i1) {
    kernel(a, b, bias, c, i0, i1, k, n, relu_flag);
  });
}

void ConvPhasePlanesInto(const float* x, const ConvGeometry& g,
                         float* planes) {
  const int64_t s = g.stride, pad = g.pad;
  const int64_t rows = g.phase_rows(), cols = g.phase_cols();
  // The first phase coordinate at or past t: ceil(t / s), 0 for t <= 0.
  const auto first_at = [s](int64_t t) {
    return t <= 0 ? int64_t{0} : (t + s - 1) / s;
  };
  // Zero everything once (the border, and the ragged phase rows and
  // columns past the padded extent), then copy the input in.
  std::fill(planes, planes + g.planes_elems(), 0.0f);
  float* dst = planes;
  for (int64_t c = 0; c < g.in_ch; ++c) {
    const float* xplane = x + c * g.h * g.w;
    for (int64_t py = 0; py < s; ++py) {
      for (int64_t px = 0; px < s; ++px, dst += rows * cols) {
        // Phase row r reads input row r * s + py - pad and phase column q
        // input column q * s + px - pad: [r_lo, r_hi) x [q_lo, q_hi) is
        // where both lie inside the input.
        const int64_t r_lo = std::min(rows, first_at(pad - py));
        const int64_t r_hi =
            std::max(r_lo, std::min(rows, first_at(g.h + pad - py)));
        const int64_t q_lo = std::min(cols, first_at(pad - px));
        const int64_t q_hi =
            std::max(q_lo, std::min(cols, first_at(g.w + pad - px)));
        for (int64_t r = r_lo; r < r_hi; ++r) {
          const float* xrow = xplane + (r * s + py - pad) * g.w;
          float* drow = dst + r * cols;
          if (s == 1) {  // px == 0: one contiguous run
            std::copy(xrow + (q_lo - pad), xrow + (q_hi - pad), drow + q_lo);
          } else {
            for (int64_t q = q_lo; q < q_hi; ++q) {
              drow[q] = xrow[q * s + px - pad];
            }
          }
        }
      }
    }
  }
}

std::vector<int64_t> ConvTapOffsets(const ConvGeometry& g) {
  const int64_t s = g.stride, k = g.kernel;
  const int64_t rows = g.phase_rows(), cols = g.phase_cols();
  std::vector<int64_t> off;
  off.reserve(static_cast<size_t>(g.taps()));
  for (int64_t c = 0; c < g.in_ch; ++c) {
    for (int64_t ky = 0; ky < k; ++ky) {
      for (int64_t kx = 0; kx < k; ++kx) {
        const int64_t phase = (c * s + ky % s) * s + kx % s;
        off.push_back(phase * rows * cols + (ky / s) * cols + kx / s);
      }
    }
  }
  return off;
}

void ConvGemmBiasActInto(const float* a, const float* planes,
                         const int64_t* tap_off, const float* bias, float* c,
                         const ConvGeometry& g, bool relu) {
  const int64_t m = g.out_ch, k = g.taps(), ho = g.ho, wo = g.wo;
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_TRACE_SPAN_COST("gemm.conv_gemm_bias_act", kt.span_cat,
                        2 * m * k * ho * wo,
                        4 * (m * k + g.planes_elems() + m * ho * wo));
  DLSYS_COST_FLOPS(2 * m * k * ho * wo);
  // Output channels are few and output rows many, so the rows are what
  // gets partitioned, at least 64 positions per range. Each element is
  // owned by exactly one range and runs the dense float chain (+0, the
  // products in ascending tap order, then the bias) — the same operation
  // sequence in every table.
  auto* kernel = kt.conv_gemm_bias_act_rows;
  const int64_t row_stride = g.phase_cols();
  const int relu_flag = relu ? 1 : 0;
  ParallelFor(0, ho, (64 + wo - 1) / wo, [=](int64_t oy0, int64_t oy1) {
    kernel(a, planes, tap_off, row_stride, bias, c, m, k, ho, wo, oy0, oy1,
           relu_flag);
  });
}

void MaxPoolInto(const float* x, float* y, int64_t planes, int64_t h,
                 int64_t w, int64_t window) {
  auto* kernel = simd::ActiveKernels().max_pool;
  ParallelFor(0, planes, 1, [=](int64_t t0, int64_t t1) {
    kernel(x, y, h, w, window, t0, t1);
  });
}

// ------------------------------------------------- naive reference
//
// The seed library's loop nest, retained verbatim minus the
// `if (av == 0.0f) continue;` branch (the branch defeated vectorization
// on the dense inputs every caller passes, and silently changed the cost
// model on sparse data). Skipping a zero term and adding it are bitwise
// identical on finite data, so this remains the reference the optimised
// kernels are tested against; a product with a transposed operand is
// NaiveMatMul over Transpose.

Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  DLSYS_CHECK(a.rank() == 2 && b.rank() == 2, "MatMul requires rank 2");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  DLSYS_CHECK(b.dim(0) == k, "MatMul inner dimension mismatch");
  DLSYS_TRACE_SPAN_COST("gemm.matmul", "kernel", 2 * m * k * n,
                        4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = pa[i * k + p];
      const float* brow = pb + p * n;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

// ------------------------------------------------------- elementwise

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add shape mismatch");
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  ParallelFor(0, c.size(), kEwGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] += pb[i];
  });
  return c;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub shape mismatch");
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  ParallelFor(0, c.size(), kEwGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] -= pb[i];
  });
  return c;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul shape mismatch");
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  ParallelFor(0, c.size(), kEwGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] *= pb[i];
  });
  return c;
}

void Axpy(float alpha, const Tensor& b, Tensor* a) {
  DLSYS_CHECK(a->size() == b.size(), "Axpy size mismatch");
  float* pa = a->data();
  const float* pb = b.data();
  ParallelFor(0, a->size(), kEwGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] += alpha * pb[i];
  });
}

void Scale(float alpha, Tensor* a) {
  float* pa = a->data();
  ParallelFor(0, a->size(), kEwGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] *= alpha;
  });
}

Tensor RowSoftmax(const Tensor& logits) {
  DLSYS_CHECK(logits.rank() == 2, "RowSoftmax requires rank 2");
  const int64_t n = logits.dim(0), c = logits.dim(1);
  Tensor out({n, c});
  const float* pin = logits.data();
  float* pout = out.data();
  ParallelFor(0, n, 8, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = pin + i * c;
      float* orow = pout + i * c;
      float mx = row[0];
      for (int64_t j = 1; j < c; ++j) mx = row[j] > mx ? row[j] : mx;
      double denom = 0.0;
      for (int64_t j = 0; j < c; ++j) {
        orow[j] = std::exp(row[j] - mx);
        denom += orow[j];
      }
      for (int64_t j = 0; j < c; ++j) {
        orow[j] = static_cast<float>(orow[j] / denom);
      }
    }
  });
  return out;
}

std::vector<int64_t> ArgMaxRows(const Tensor& m) {
  DLSYS_CHECK(m.rank() == 2, "ArgMaxRows requires rank 2");
  const int64_t n = m.dim(0), c = m.dim(1);
  std::vector<int64_t> out(n);
  for (int64_t i = 0; i < n; ++i) {
    const float* row = m.data() + i * c;
    int64_t best = 0;
    for (int64_t j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = best;
  }
  return out;
}

Tensor OneHot(const std::vector<int64_t>& labels, int64_t num_classes) {
  const int64_t n = static_cast<int64_t>(labels.size());
  Tensor out({n, num_classes});
  const int64_t* plabels = labels.data();
  float* pout = out.data();
  ParallelFor(0, n, 256, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      DLSYS_CHECK(plabels[i] >= 0 && plabels[i] < num_classes,
                  "label out of range");
      pout[i * num_classes + plabels[i]] = 1.0f;
    }
  });
  return out;
}

Tensor MeanRows(const Tensor& m) {
  DLSYS_CHECK(m.rank() == 2, "MeanRows requires rank 2");
  const int64_t n = m.dim(0), c = m.dim(1);
  Tensor out({c});
  const float* pin = m.data();
  float* pout = out.data();
  // Workers own disjoint column ranges; each column sums rows in ascending
  // i, the serial loop's per-element order, so results are bitwise stable
  // across thread counts.
  ParallelFor(0, c, 8, [=](int64_t j0, int64_t j1) {
    for (int64_t i = 0; i < n; ++i) {
      const float* row = pin + i * c;
      for (int64_t j = j0; j < j1; ++j) pout[j] += row[j];
    }
  });
  if (n > 0) Scale(1.0f / static_cast<float>(n), &out);
  return out;
}

Tensor SliceRows(const Tensor& m, int64_t begin, int64_t end) {
  DLSYS_CHECK(m.rank() == 2, "SliceRows requires rank 2");
  DLSYS_CHECK(begin >= 0 && begin <= end && end <= m.dim(0),
              "SliceRows range invalid");
  const int64_t c = m.dim(1);
  Tensor out({end - begin, c});
  const float* pin = m.data();
  float* pout = out.data();
  const int64_t row_grain = std::max<int64_t>(1, kEwGrain / std::max<int64_t>(c, 1));
  ParallelFor(0, end - begin, row_grain, [=](int64_t r0, int64_t r1) {
    std::copy(pin + (begin + r0) * c, pin + (begin + r1) * c, pout + r0 * c);
  });
  return out;
}

Tensor Transpose(const Tensor& m) {
  DLSYS_CHECK(m.rank() == 2, "Transpose requires rank 2");
  const int64_t r = m.dim(0), c = m.dim(1);
  Tensor out({c, r});
  const float* pin = m.data();
  float* pout = out.data();
  // Each worker owns input rows [i0, i1), that is disjoint output
  // columns, and copies them in strips of 16 rows: for each column j the
  // strip's 16 floats become one contiguous run (a cache line) of output
  // row j. A strip reads 16 input lines, each for 16 consecutive columns,
  // and writes one output line at a time, so power-of-two strides, whose
  // lines share a few L1 sets, do not evict what the strip still uses.
  // The 1-15 rows a range ends with, the whole of a matrix shorter than
  // 16 rows, are copied in 32-column blocks with contiguous reads. A
  // strip of run-time height is slower at both: as the only loop it
  // loses the unrolled 16-float copy (1.5x slower in the median of 115
  // shapes, 16x64 0.37 -> 0.77 us), and as the tail loop alone it took
  // 1.5x as long on matrices under 16 rows (1x1024 0.57 -> 1.66 us; one
  // AVX-512 core, min of 400 calls).
  constexpr int64_t kStrip = 16;
  constexpr int64_t kTailCols = 32;
  ParallelFor(0, r, kStrip, [=](int64_t i0, int64_t i1) {
    int64_t i = i0;
    for (; i + kStrip <= i1; i += kStrip) {
      for (int64_t j = 0; j < c; ++j) {
        const float* src = pin + i * c + j;
        float* dst = pout + j * r + i;
        for (int64_t ii = 0; ii < kStrip; ++ii) dst[ii] = src[ii * c];
      }
    }
    for (int64_t jb = 0; jb < c; jb += kTailCols) {
      const int64_t je = std::min<int64_t>(jb + kTailCols, c);
      for (int64_t it = i; it < i1; ++it) {
        for (int64_t j = jb; j < je; ++j) pout[j * r + it] = pin[it * c + j];
      }
    }
  });
  return out;
}

double Accuracy(const Tensor& logits, const std::vector<int64_t>& labels) {
  DLSYS_CHECK(logits.dim(0) == static_cast<int64_t>(labels.size()),
              "Accuracy: row/label count mismatch");
  if (labels.empty()) return 0.0;
  std::vector<int64_t> pred = ArgMaxRows(logits);
  int64_t hits = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (pred[i] == labels[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(labels.size());
}

}  // namespace dlsys
