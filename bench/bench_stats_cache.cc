// E25 — Data-Canopy-style statistics cache (Part 2 data exploration):
// chunk-level basic aggregates make repeated exploratory statistics
// queries orders of magnitude cheaper than rescanning.

#include "bench/report.h"
#include "src/core/metrics.h"
#include "src/db/stats_cache.h"

int main() {
  using namespace dlsys;
  Rng rng(103);
  Table t = MakeCorrelatedTable(1000000, 4, 0.5, &rng);

  using bench::kExact;
  using bench::kWall;
  bench::Report report("stats_cache");
  report.Print("E25a: 200 random range-statistic queries over 1M rows\n");
  // sink (cached minus scanned sums) keeps both loops live.
  bench::Table& queries = report.AddTable(
      "E25a", {{"statistic", "%-11s"}, {"mode", "%-13s"},
               {"total_ms", "%12.2f", kWall}, {"per_query", "%12.4f", kWall},
               {"speedup", "%9.0fx", kWall},
               {"sink", "  [sink %.3g]", kExact, ""}});
  Rng qrng(107);
  std::vector<std::pair<int64_t, int64_t>> ranges;
  for (int i = 0; i < 200; ++i) {
    const int64_t lo = static_cast<int64_t>(qrng.Index(900000));
    ranges.push_back({lo, lo + 50000 + static_cast<int64_t>(
                                           qrng.Index(50000))});
  }
  StatsCache cache(&t, 1024);
  // Warm the one pair used below.
  cache.RangeCorrelation(0, 1, 0, t.rows);

  auto run = [&](const char* stat, auto cached, auto scan) {
    Stopwatch cw;
    double sink = 0.0;
    for (const auto& [lo, hi] : ranges) sink += cached(lo, hi);
    const double cached_ms = cw.Seconds() * 1e3;
    Stopwatch sw;
    for (const auto& [lo, hi] : ranges) sink -= scan(lo, hi);
    const double scan_ms = sw.Seconds() * 1e3;
    queries.Row(stat, "cached", cached_ms, cached_ms / 200.0, "");
    queries.Row(stat, "scan", scan_ms, scan_ms / 200.0, scan_ms / cached_ms,
                sink);
  };
  run("mean",
      [&](int64_t lo, int64_t hi) { return *cache.RangeMean(1, lo, hi); },
      [&](int64_t lo, int64_t hi) {
        return StatsCache::ScanMean(t, 1, lo, hi);
      });
  run("variance",
      [&](int64_t lo, int64_t hi) {
        return *cache.RangeVariance(1, lo, hi);
      },
      [&](int64_t lo, int64_t hi) {
        return StatsCache::ScanVariance(t, 1, lo, hi);
      });
  run("correlation",
      [&](int64_t lo, int64_t hi) {
        return *cache.RangeCorrelation(0, 1, lo, hi);
      },
      [&](int64_t lo, int64_t hi) {
        return StatsCache::ScanCorrelation(t, 0, 1, lo, hi);
      });

  report.Print("\nE25b: chunk-size sweep (cache bytes vs mean-query "
               "time)\n");
  bench::Table& chunks = report.AddTable(
      "E25b", {{"chunk_rows", "%-12lld"}, {"cache_KB", "%14.1f"},
               {"per_query_us", "%14.3f", kWall}});
  for (int64_t chunk : {64, 256, 1024, 4096, 16384}) {
    StatsCache c(&t, chunk);
    Stopwatch w;
    double sink = 0.0;
    for (const auto& [lo, hi] : ranges) sink += *c.RangeMean(0, lo, hi);
    chunks.Row(chunk, static_cast<double>(c.MemoryBytes()) / 1e3,
               w.Seconds() * 1e6 / 200.0);
  }
  report.Print("\nexpected shape: cached statistics 10-1000x faster than "
               "scans on large ranges; smaller chunks cost memory and edge "
               "scans shrink, with a sweet spot in the middle — the Data "
               "Canopy tradeoff.\n");
  return report.Finish();
}
