// E11 — Learned Bloom filter vs classic at matched memory (Part 2):
// on structured key sets the classifier absorbs most members, cutting
// FPR (equivalently, memory at equal FPR).

#include "bench/report.h"
#include "src/db/bloom.h"
#include "src/learned/learned_bloom.h"

int main() {
  using namespace dlsys;
  bench::Report report("learned_bloom");
  report.Print("E11: learned vs classic bloom filter "
               "(4000 members, clustered key sets)\n");
  bench::Table& table = report.AddTable(
      "E11", {{"clusters", "%-9lld"}, {"recall", "%-9.1f"}, {"bytes", "%10lld"},
              {"classic_fpr", "%12.4f"}, {"learned_fpr", "%12.4f"},
              {"backup", "%10lld"}});
  for (int64_t clusters : {2, 4, 8}) {
    Rng rng(59 + static_cast<uint64_t>(clusters));
    MembershipData data =
        MakeClusteredMembership(4000, 12000, 1 << 22, clusters, &rng);
    std::vector<int64_t> train_nm(data.non_members.begin(),
                                  data.non_members.begin() + 6000);
    std::vector<int64_t> test_nm(data.non_members.begin() + 6000,
                                 data.non_members.end());
    for (double recall : {0.5, 0.7, 0.9}) {
      LearnedBloomConfig config;
      config.epochs = 30;
      config.member_recall = recall;
      auto learned = LearnedBloomFilter::Train(data.members, train_nm, 0,
                                               1 << 22, config);
      if (!learned.ok()) return 1;
      const double bits_per_key =
          static_cast<double>(learned->MemoryBytes() * 8) /
          static_cast<double>(data.members.size());
      BloomFilter classic = BloomFilter::ForKeys(
          static_cast<int64_t>(data.members.size()), bits_per_key);
      for (int64_t key : data.members) classic.Insert(key);
      table.Row(clusters, recall, learned->MemoryBytes(),
                classic.MeasureFpr(test_nm), learned->MeasureFpr(test_nm),
                learned->backup_keys());
    }
  }
  report.Print("\nexpected shape: at matched memory the learned filter's "
               "FPR undercuts the classic filter when member keys are "
               "clustered; higher classifier recall shrinks the backup "
               "filter at some FPR risk.\n");
  return report.Finish();
}
