// Microkernel bench (E34): ISA x format sweep of the dispatched
// microkernels — fp32 matmul / fp32 matmul with the fused bias+relu
// epilogue / q8-block / q4-block GEMMs and the q8 row quantizer at the
// E31 serving shape (64x768x768), one tail shape,
// the two q8 GEMMs of the served int8 MLP (8x32x128 and 8x128x10), and
// the fp32 GEMMs the workloads serve (the fleet's 32->64->10 replica MLP
// at batches 1, 2 and 8, LeNet's 392->512, 512->128 and 128->10 dense
// layers at batch 16); the implicit conv GEMM at LeNet's two conv
// geometries and at one whose 64-wide output rows fill whole vector
// tiles, and the max pool at LeNet's two 2x2 pool shapes (a batch of 16
// images, as perfbench's offline_batch runs them) and one 3x3 pool, so
// both bodies of each vector table's pool run, and the CRC-32 at the three
// workloads' parameter payloads — plus the lookup primitives (B+-tree,
// RMI, bloom) behind the learned-index experiments. Per-cell
// latency quantiles are exact quantiles of the timed samples, reported
// at 1 ns (microseconds to three decimals) beside the fastest sample;
// results land in BENCH_microkernels.json with speedup vs the scalar
// table per cell.
//
// The sweep is also a cross-ISA parity gate: every cell's output is
// bit-compared against the scalar table's on the same operands, and any
// mismatch makes the binary exit 1.
//
// Standalone binary (not google-benchmark): the sweep forces each SIMD
// table via simd::SetIsa between sections, which must not interleave with
// a framework's own repetition scheduling. Pass --smoke for a
// seconds-scale CI run at small shapes.

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/compress/quantization.h"
#include "src/core/metrics.h"
#include "src/core/rng.h"
#include "src/db/bloom.h"
#include "src/db/btree.h"
#include "src/learned/learned_index.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"
#include "src/tensor/int8_gemm.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

volatile float g_sink = 0.0f;  // defeats dead-code elimination
bool g_smoke = false;

/// offline_batch's LeNet parameter payload, the CRC cell E34 reads GB/s at.
constexpr int64_t kCrcLeNetBytes = 1074280;

struct Quantiles {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// The fastest sample: the least disturbed by the host, so it resolves
  /// a change of the kernel that p50 and p99 bury in host noise.
  double min_ms = 0.0;
};

/// The \p q quantile of \p samples, interpolated linearly between the
/// two order statistics around rank (count - 1) * q, so q = 0.5 is the
/// exact median (the mean of the middle two on an even count).
double SampleQuantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double h = static_cast<double>(samples.size() - 1) * q;
  const size_t lo = static_cast<size_t>(h);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

/// Runs \p fn in `iters` timed samples and returns the exact {p50_ms,
/// p99_ms, min_ms} of the per-sample times divided by the calls per
/// sample. A
/// sample is enough back-to-back calls to last about kSampleMs, so a
/// sub-microsecond kernel is timed well above the timer's own cost. When
/// a sample holds more than one call, p99 is the 99th percentile of
/// sample means, not of single calls: a tail shorter than a sample
/// averages away.
template <typename Fn>
Quantiles TimeKernel(int iters, Fn&& fn) {
  constexpr double kSampleMs = 0.05;
  fn();  // warm: touch every page, resolve the dispatch table
  Stopwatch once;
  fn();
  const double once_ms = once.Seconds() * 1000.0;
  // At most kSampleMs / 1e-6 repetitions, even if one call read 0 ms.
  const int reps =
      once_ms >= kSampleMs
          ? 1
          : static_cast<int>(kSampleMs / std::max(once_ms, 1e-6)) + 1;
  std::vector<double> ms(static_cast<size_t>(iters));
  for (double& sample : ms) {
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) fn();
    sample = watch.Seconds() * 1000.0 / reps;
  }
  return {SampleQuantile(ms, 0.5), SampleQuantile(ms, 0.99),
          *std::min_element(ms.begin(), ms.end())};
}

// ------------------------------------------------------ ISA x format sweep

struct SweepCell {
  std::string shape;
  std::string kernel;
  std::string isa;
  Quantiles q;
  double speedup_vs_scalar = 0.0;  ///< scalar p50 / this p50
};

struct GemmShape {
  int64_t m, k, n;
  std::string Name() const {
    return std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(n);
  }
};

/// All operand/output buffers for one GEMM shape, prepared once so every
/// ISA times identical memory.
struct GemmOperands {
  GemmShape s;
  Tensor a, b, bias;
  Q8BlockMatrix qa8, qb8;
  Q4BlockMatrix qb4;
  std::vector<float> c;
  std::vector<int8_t> q_vals;  ///< q8_quantize_rows output: codes ...
  std::vector<float> q_scales;  ///< ... and block scales of A

  explicit GemmOperands(const GemmShape& shape, Rng* rng) : s(shape) {
    a = Tensor({s.m, s.k});
    b = Tensor({s.k, s.n});
    a.FillGaussian(rng, 1.0f);
    b.FillGaussian(rng, 0.5f);
    bias = Tensor({s.n});
    bias.FillGaussian(rng, 0.5f);
    const Tensor bt = Transpose(b);  // (n, k): the q8/q4 weight layout
    qa8 = Q8BlockQuantizeRows(a);
    qb8 = Q8BlockQuantizeRows(bt);
    qb4 = Q4BlockQuantizeRows(bt);
    c.resize(static_cast<size_t>(s.m * s.n));
    q_vals.resize(qa8.values.size());
    q_scales.resize(qa8.scales.size());
  }
};

/// The bytes of \p v, for the parity comparison.
template <typename T>
std::string Bytes(const T* v, size_t count) {
  return std::string(reinterpret_cast<const char*>(v), count * sizeof(T));
}

struct KernelDef {
  const char* name;
  std::function<void()> run;
  std::function<std::string()> output;  ///< the bytes run() wrote
};

/// Times \p kernel on every supported ISA, appending one cell per ISA, and
/// bit-compares each ISA's output with the scalar table's; a mismatch
/// bumps \p parity_failures.
void SweepKernel(const std::string& shape, const KernelDef& kernel,
                 std::vector<SweepCell>* cells, int* parity_failures) {
  const int iters = g_smoke ? 3 : 15;
  double scalar_p50 = 0.0;
  std::string scalar_out;
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (!simd::IsaSupported(isa)) continue;
    simd::SetIsa(isa);
    SweepCell cell;
    cell.shape = shape;
    cell.kernel = kernel.name;
    cell.isa = simd::IsaName(isa);
    cell.q = TimeKernel(iters, kernel.run);
    if (isa == simd::Isa::kScalar) {
      scalar_p50 = cell.q.p50_ms;
      scalar_out = kernel.output();
    } else if (kernel.output() != scalar_out) {
      std::fprintf(stderr, "PARITY MISMATCH: %s %s %s differs from scalar\n",
                   cell.shape.c_str(), cell.kernel.c_str(),
                   cell.isa.c_str());
      ++*parity_failures;
    }
    cell.speedup_vs_scalar =
        cell.q.p50_ms > 0.0 ? scalar_p50 / cell.q.p50_ms : 0.0;
    cells->push_back(cell);
  }
}

/// Runs the sweep; \p parity_failures counts cells whose output differs
/// from the scalar table's by a single bit.
std::vector<SweepCell> RunSweep(const std::vector<GemmShape>& shapes,
                                int* parity_failures) {
  std::vector<SweepCell> cells;
  Rng rng(61);

  for (const GemmShape& shape : shapes) {
    GemmOperands op(shape, &rng);
    const int64_t m = shape.m, k = shape.k, n = shape.n;
    const int64_t kp = op.qa8.padded_cols;

    const size_t mn = static_cast<size_t>(m * n);
    const std::vector<KernelDef> kernels = {
        {"fp32_matmul",
         [&] {
           MatMulInto(op.a.data(), op.b.data(), op.c.data(), m, k, n);
           g_sink = op.c[0];
         },
         [&] { return Bytes(op.c.data(), mn); }},
        {"fp32_matmul_bias_act",
         [&] {
           MatMulBiasActInto(op.a.data(), op.b.data(), op.bias.data(),
                             op.c.data(), m, k, n, /*relu=*/true);
           g_sink = op.c[0];
         },
         [&] { return Bytes(op.c.data(), mn); }},
        {"q8_block",
         [&] {
           Q8BlockGemmTransBInto(op.qa8.values.data(), op.qa8.scales.data(),
                                 op.qb8.values.data(), op.qb8.scales.data(),
                                 op.c.data(), m, kp, n);
           g_sink = op.c[0];
         },
         [&] { return Bytes(op.c.data(), mn); }},
        {"q4_block",
         [&] {
           Q4BlockGemmTransBInto(op.qa8.values.data(), op.qa8.scales.data(),
                                 op.qb4.values.data(), op.qb4.scales.data(),
                                 op.c.data(), m, kp, n);
           g_sink = op.c[0];
         },
         [&] { return Bytes(op.c.data(), mn); }},
        {"q8_quantize_rows",
         [&] {
           Q8BlockQuantizeRowsInto(op.a.data(), m, k, op.q_vals.data(),
                                   op.q_scales.data());
           g_sink = op.q_scales[0];
         },
         [&] {
           return Bytes(op.q_vals.data(), op.q_vals.size()) +
                  Bytes(op.q_scales.data(), op.q_scales.size());
         }},
    };

    for (const KernelDef& kernel : kernels) {
      SweepKernel(shape.Name(), kernel, &cells, parity_failures);
    }
  }

  // LeNet's convs (1->4 5x5 pad 2 on 28x28, 4->8 3x3 pad 1 on 14x14),
  // whose 28- and 14-wide output rows end in a tail tile on every table,
  // and 8->16 3x3 pad 1 on 64x64, whose rows are whole 16- and 32-column
  // tiles: one image's implicit GEMM over phase planes written once up
  // front.
  for (const ConvGeometry& g :
       {ConvGeometry{1, 4, 5, 1, 2, 28, 28, 28, 28},
        ConvGeometry{4, 8, 3, 1, 1, 14, 14, 14, 14},
        ConvGeometry{8, 16, 3, 1, 1, 64, 64, 64, 64}}) {
    Tensor x({g.in_ch, g.h, g.w}), w({g.out_ch, g.taps()}), bias({g.out_ch});
    x.FillGaussian(&rng, 1.0f);
    w.FillGaussian(&rng, 0.5f);
    bias.FillGaussian(&rng, 1.0f);
    const std::vector<int64_t> tap_off = ConvTapOffsets(g);
    std::vector<float> planes(static_cast<size_t>(g.planes_elems()));
    std::vector<float> c(static_cast<size_t>(g.out_ch * g.ho * g.wo));
    ConvPhasePlanesInto(x.data(), g, planes.data());
    SweepKernel(std::to_string(g.in_ch) + "to" + std::to_string(g.out_ch) +
                    "_" + std::to_string(g.h) + "x" + std::to_string(g.w) +
                    "_k" + std::to_string(g.kernel) + "p" +
                    std::to_string(g.pad),
                {"fp32_conv_gemm",
                 [&] {
                   ConvGemmBiasActInto(w.data(), planes.data(), tap_off.data(),
                                       bias.data(), c.data(), g,
                                       /*relu=*/false);
                   g_sink = c[0];
                 },
                 [&] { return Bytes(c.data(), c.size()); }},
                &cells, parity_failures);
  }
  // LeNet's 2x2 pools over a batch of 16 images (4 28x28 and 8 14x14
  // planes per image), and a 3x3 pool over the 28x28 planes, which runs
  // the vector tables' run-time-window body where 2x2 runs its own.
  struct PoolCell {
    int64_t planes, extent, window;
  };
  for (const PoolCell& p : {PoolCell{16 * 4, 28, 2}, PoolCell{16 * 8, 14, 2},
                            PoolCell{16 * 4, 28, 3}}) {
    const int64_t out = p.extent / p.window;
    Tensor x({p.planes, p.extent, p.extent});
    x.FillGaussian(&rng, 1.0f);
    std::vector<float> y(static_cast<size_t>(p.planes * out * out));
    SweepKernel(std::to_string(p.planes) + "x" + std::to_string(p.extent) +
                    "x" + std::to_string(p.extent) + "/" +
                    std::to_string(p.window),
                {"max_pool",
                 [&] {
                   MaxPoolInto(x.data(), y.data(), p.planes, p.extent,
                               p.extent, p.window);
                   g_sink = y[0];
                 },
                 [&] { return Bytes(y.data(), y.size()); }},
                &cells, parity_failures);
  }
  // The CRC-32 that checks and stamps parameter files, at the three
  // workloads' payloads: fleet_chaos's 32->64->10 MLP, online_serve's
  // 32->128->10 MLP and offline_batch's LeNet. --smoke adds the scalar
  // body alone (1, 15, 63), the fold's first step and tails (64, 65,
  // 1023) and an unaligned start. The value joins the parity gate.
  std::vector<std::pair<int64_t, int64_t>> crc_cells = {
      {11048, 0}, {22056, 0}, {kCrcLeNetBytes, 0}};
  if (g_smoke) {
    for (int64_t n : {1, 15, 63, 64, 65, 1023}) crc_cells.push_back({n, 0});
    crc_cells.push_back({22056, 3});
  }
  std::vector<uint8_t> crc_buf(static_cast<size_t>(kCrcLeNetBytes + 3));
  for (uint8_t& byte : crc_buf) byte = static_cast<uint8_t>(rng.Next());
  for (const auto& [n, offset] : crc_cells) {
    const uint8_t* p = crc_buf.data() + offset;
    uint32_t crc = 0;
    SweepKernel(std::to_string(n) + "B" +
                    (offset != 0 ? "@" + std::to_string(offset) : ""),
                {"crc32",
                 [&crc, p, n = n] {
                   crc = simd::ActiveKernels().crc32_update(0xFFFFFFFFu, p,
                                                            n) ^
                         0xFFFFFFFFu;
                   g_sink = static_cast<float>(crc & 1u);
                 },
                 [&crc] { return Bytes(&crc, 1); }},
                &cells, parity_failures);
  }
  simd::SetIsa(simd::BestSupportedIsa());
  return cells;
}

// ---------------------------------------------------- lookup primitives

struct LookupRow {
  std::string name;
  Quantiles per_probe_us;  ///< probes run in batches of 1000: ms == us/probe
};

std::vector<int64_t> BenchKeys(int64_t n) {
  Rng rng(4);
  std::set<int64_t> keys;
  while (static_cast<int64_t>(keys.size()) < n) {
    keys.insert(static_cast<int64_t>(rng.Next() >> 16));
  }
  return {keys.begin(), keys.end()};
}

std::vector<LookupRow> RunLookups() {
  const int64_t n = g_smoke ? 10000 : 100000;
  const int batches = g_smoke ? 5 : 30;
  const std::vector<int64_t> keys = BenchKeys(n);

  BTree tree(128);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], static_cast<int64_t>(i));
  }
  auto rmi = LearnedIndex::Build(keys, n / 400);
  BloomFilter bloom = BloomFilter::ForKeys(n, 10.0);
  for (int64_t key : keys) bloom.Insert(key);

  // Each timed call is a batch of 1000 probes striding through the key
  // set, so its millisecond quantiles read directly as microseconds per
  // probe.
  std::vector<LookupRow> rows;
  size_t probe = 0;
  rows.push_back({"btree", TimeKernel(batches, [&] {
                    for (int i = 0; i < 1000; ++i) {
                      auto v = tree.Find(keys[probe]);
                      g_sink = v.ok() ? 1.0f : 0.0f;
                      probe = (probe + 7919) % keys.size();
                    }
                  })});
  probe = 0;
  rows.push_back({"rmi", TimeKernel(batches, [&] {
                    for (int i = 0; i < 1000; ++i) {
                      auto v = rmi->Find(keys[probe]);
                      g_sink = v.ok() ? 1.0f : 0.0f;
                      probe = (probe + 7919) % keys.size();
                    }
                  })});
  probe = 0;
  rows.push_back({"bloom", TimeKernel(batches, [&] {
                    for (int i = 0; i < 1000; ++i) {
                      g_sink = bloom.MayContain(keys[probe]) ? 1.0f : 0.0f;
                      probe = (probe + 7919) % keys.size();
                    }
                  })});
  return rows;
}

/// Pins the calling thread to the highest-numbered CPU it may run on, so
/// every sample of every cell runs on one core (unpinned, a cell's
/// fastest sample moved by up to about 15% between runs; E34). Returns
/// that CPU, or -1 when the affinity calls fail and the run stays
/// unpinned.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

}  // namespace
}  // namespace dlsys

int main(int argc, char** argv) {
  using namespace dlsys;
  using bench::kWall;
  g_smoke = bench::HasFlag(argc, argv, "--smoke");
  // Single-threaded so the sweep compares kernel codegen, not scheduling.
  RuntimeConfig::SetThreads(1);
  const int cpu = PinToOneCpu();

  std::vector<GemmShape> shapes;
  if (g_smoke) {
    shapes.push_back({8, 64, 32});
    shapes.push_back({3, 33, 17});
    shapes.push_back({15, 33, 40});  // AVX-512 rows 8 + 4 + 3
  } else {
    shapes.push_back({64, 768, 768});  // E31 serving shape
    shapes.push_back({61, 765, 771});  // unaligned tails on every dimension
  }
  // The served int8 MLP's two q8 GEMMs (online_serve's 32->128->10 at
  // batch 8): the regime where quantization, not the GEMM, dominated.
  shapes.push_back({8, 32, 128});
  shapes.push_back({8, 128, 10});
  // The served fp32 GEMMs: fleet_chaos's replica MLP 32->64->10 at batches
  // 1, 2 and 8 (its mean batch is about 1.5), and offline_batch's LeNet
  // dense layers 392->512, 512->128 and 128->10 at batch 16. Row blocks
  // of 1, 2 and 8 rows (4 on AVX2) and both column tails (64 = 4 x 16,
  // 10 < 16) run here; the shapes above add the 3-row block and, on
  // AVX-512, the 4-row one.
  shapes.push_back({1, 32, 64});
  shapes.push_back({2, 32, 64});
  shapes.push_back({8, 32, 64});
  shapes.push_back({8, 64, 10});
  shapes.push_back({16, 392, 512});
  shapes.push_back({16, 512, 128});
  shapes.push_back({16, 128, 10});

  int parity_failures = 0;
  const std::vector<SweepCell> cells = RunSweep(shapes, &parity_failures);
  bench::Report report("microkernels");
  if (cpu >= 0) {
    report.Print("pinned to cpu %d\n", cpu);
  } else {
    report.Print("unpinned: sched_setaffinity failed\n");
  }
  bench::Table& sweep = report.AddTable(
      "sweep", {{"shape", "%-16s"}, {"kernel", "%-20s"}, {"isa", "%-8s"},
                {"p50_us", "%10.3f", kWall}, {"p99_us", "%10.3f", kWall},
                {"min_us", "%10.3f", kWall}, {"vs_scalar", "%8.2fx", kWall}});
  double best_e31_speedup = 0.0;
  std::string best_e31_cell;
  for (const SweepCell& cell : cells) {
    sweep.Row(cell.shape, cell.kernel, cell.isa, cell.q.p50_ms * 1e3,
              cell.q.p99_ms * 1e3, cell.q.min_ms * 1e3,
              cell.speedup_vs_scalar);
    if (cell.shape == shapes[0].Name() &&
        cell.speedup_vs_scalar > best_e31_speedup) {
      best_e31_speedup = cell.speedup_vs_scalar;
      best_e31_cell = cell.kernel + "/" + cell.isa;
    }
  }
  report
      .AddLine("best", {{"shape", "best %s speedup vs scalar:"},
                        {"speedup", " %.2fx", kWall}, {"cell", " (%s)", kWall}})
      .Row(shapes[0].Name(), best_e31_speedup, best_e31_cell);
  // E34's CRC row: the LeNet payload over each table's fastest sample.
  const std::string crc_shape = std::to_string(kCrcLeNetBytes) + "B";
  bench::Table& crc = report.AddLine(
      "crc32", {{"payload", "crc32 %s GB/s"}, {"isa", " (%s):"},
                {"gb_per_s", " %.2f", kWall}});
  for (const SweepCell& cell : cells) {
    if (cell.kernel == "crc32" && cell.shape == crc_shape &&
        cell.q.min_ms > 0.0) {
      crc.Row(crc_shape, cell.isa,
              static_cast<double>(kCrcLeNetBytes) / cell.q.min_ms / 1e6);
    }
  }

  bench::Table& lookups = report.AddLine(
      "lookup", {{"structure", "lookup %-6s"},
                 {"p50_us", "  p50 %.4f us |", kWall},
                 {"p99_us", " p99 %.4f us", kWall}});
  for (const LookupRow& row : RunLookups()) {
    lookups.Row(row.name, row.per_probe_us.p50_ms, row.per_probe_us.p99_ms);
  }

  if (parity_failures > 0) {
    std::fprintf(stderr, "FAIL: %d cell(s) differ from the scalar table\n",
                 parity_failures);
  } else {
    report.Print("parity: every cell bit-equal to the scalar table\n");
  }
  return report.Finish(parity_failures == 0);
}
