// E28 — High-dimensional vector similarity search (Part 2): the IVF
// index's recall/latency frontier against exact brute force on a
// clustered embedding corpus.

#include "bench/report.h"
#include "src/core/metrics.h"
#include "src/vecsearch/knn.h"

int main() {
  using namespace dlsys;
  Rng rng(127);
  const int64_t n = 50000, dims = 32, k = 10;
  Tensor base = MakeEmbeddingCorpus(n, dims, 64, &rng);
  // Query set: perturbed base vectors.
  const int64_t num_queries = 100;
  Tensor queries({num_queries, dims});
  for (int64_t q = 0; q < num_queries; ++q) {
    for (int64_t d = 0; d < dims; ++d) {
      queries[q * dims + d] = base[(q * 331) * dims + d] +
                              static_cast<float>(rng.Gaussian() * 0.1);
    }
  }
  // Exact ground truth + brute-force latency.
  std::vector<std::vector<int64_t>> truth;
  Stopwatch brute_watch;
  for (int64_t q = 0; q < num_queries; ++q) {
    truth.push_back(BruteForceKnn(base, queries.data() + q * dims, k));
  }
  const double brute_us =
      brute_watch.Seconds() * 1e6 / static_cast<double>(num_queries);
  using bench::kWall;
  bench::Report report("vector_search");
  report
      .AddLine("brute force",
               {{"embeddings", "E28: IVF recall/latency on %lld"},
                {"dims", " x %lld embeddings"},
                {"brute_us", " (brute force: %.0f us/query)", kWall}})
      .Row(n, dims, brute_us);
  bench::Table& table = report.AddTable(
      "E28", {{"lists", "%-8lld"}, {"nprobe", "%-8lld"},
              {"recall@10", "%12.3f"}, {"us_per_query", "%14.1f", kWall},
              {"speedup", "%9.1fx", kWall}, {"index_KB", "%12.1f"}});
  for (int64_t lists : {64, 256}) {
    auto index = IvfIndex::Build(base, lists, 8, 131);
    if (!index.ok()) return 1;
    for (int64_t nprobe : std::vector<int64_t>{1, 2, 4, 8, 16}) {
      double recall = 0.0;
      Stopwatch watch;
      for (int64_t q = 0; q < num_queries; ++q) {
        auto approx = index->Search(queries.data() + q * dims, k, nprobe);
        recall += RecallAtK(approx, truth[static_cast<size_t>(q)]);
      }
      const double us =
          watch.Seconds() * 1e6 / static_cast<double>(num_queries);
      table.Row(lists, nprobe, recall / static_cast<double>(num_queries), us,
                brute_us / us,
                static_cast<double>(index->MemoryBytes()) / 1e3);
    }
  }
  report.Print("\nexpected shape: recall climbs toward 1.0 with nprobe "
               "while the speedup over brute force shrinks — the classic "
               "recall/latency frontier; more lists shift the frontier "
               "toward better speedups at equal recall.\n");
  return report.Finish();
}
