// E10 — Learned index vs B+-tree vs binary search (Part 2, Kraska et
// al.): the learned index should be orders of magnitude smaller and
// competitive or better on lookup latency.

#include <algorithm>
#include <cmath>
#include <set>

#include "bench/report.h"
#include "src/core/metrics.h"
#include "src/core/rng.h"
#include "src/db/btree.h"
#include "src/learned/learned_index.h"

namespace {

std::vector<int64_t> MakeKeys(const char* dist, int64_t n, dlsys::Rng* rng) {
  std::set<int64_t> keys;
  while (static_cast<int64_t>(keys.size()) < n) {
    if (std::string(dist) == "uniform") {
      keys.insert(static_cast<int64_t>(rng->Next() >> 16));
    } else {
      keys.insert(
          static_cast<int64_t>(std::exp(rng->Gaussian() * 1.5 + 13.0)));
    }
  }
  return {keys.begin(), keys.end()};
}

}  // namespace

int main() {
  using namespace dlsys;
  using bench::kExact;
  bench::Report report("learned_index");
  report.Print("E10: learned index vs B+-tree vs binary search\n");
  bench::Table& table = report.AddTable(
      "E10", {{"dist", "%-11s"}, {"keys", "%9lld"}, {"struct", "%-8s"},
              {"build_ms", "%12.1f", bench::kWall},
              {"lookup_ns", "%12.0f", bench::kWall}, {"bytes", "%12lld"},
              {"window", "%10.1f"}, {"sink", " [sink %lld]", kExact, ""}});
  for (const char* dist : {"uniform", "lognormal"}) {
    for (int64_t n : {100000, 1000000}) {
      Rng rng(53);
      std::vector<int64_t> keys = MakeKeys(dist, n, &rng);
      // Probe set: every 13th key.
      std::vector<int64_t> probes;
      for (size_t i = 0; i < keys.size(); i += 13) probes.push_back(keys[i]);

      // B+-tree.
      Stopwatch bt_build;
      BTree btree(128);
      for (size_t i = 0; i < keys.size(); ++i) {
        btree.Insert(keys[i], static_cast<int64_t>(i));
      }
      const double bt_build_ms = bt_build.Seconds() * 1e3;
      Stopwatch bt_lookup;
      int64_t sink = 0;
      for (int64_t key : probes) sink += *btree.Find(key);
      const double bt_ns =
          bt_lookup.Seconds() * 1e9 / static_cast<double>(probes.size());
      table.Row(dist, n, "b+tree", bt_build_ms, bt_ns, btree.MemoryBytes(),
                "-");

      // Learned index (RMI).
      Stopwatch rmi_build;
      auto rmi = LearnedIndex::Build(keys, std::max<int64_t>(16, n / 400));
      const double rmi_build_ms = rmi_build.Seconds() * 1e3;
      if (!rmi.ok()) return 1;
      Stopwatch rmi_lookup;
      for (int64_t key : probes) sink -= *rmi->Find(key);
      const double rmi_ns =
          rmi_lookup.Seconds() * 1e9 / static_cast<double>(probes.size());
      table.Row(dist, n, "rmi", rmi_build_ms, rmi_ns, rmi->MemoryBytes(),
                rmi->MeanSearchWindow());

      // Plain binary search over the sorted array (zero index bytes).
      Stopwatch bin_lookup;
      for (int64_t key : probes) {
        sink += std::lower_bound(keys.begin(), keys.end(), key) -
                keys.begin();
      }
      const double bin_ns =
          bin_lookup.Seconds() * 1e9 / static_cast<double>(probes.size());
      table.Row(dist, n, "binary", "-", bin_ns, 0, "-", sink % 1000);
    }
  }
  report.Print("\nexpected shape: RMI is 10-100x smaller than the B+-tree "
               "and at least competitive on lookups (beating full binary "
               "search via its narrow certified windows).\n");
  return report.Finish();
}
