// E17 — t-SNE preserves cluster structure of high-dimensional data
// (Section 4.2): purity of the 2-D embedding across separations and
// perplexities, against a PCA-free random-projection baseline.

#include "bench/report.h"
#include "src/data/synthetic.h"
#include "src/interpret/tsne.h"

namespace {
// Random 2-D projection baseline.
dlsys::Tensor RandomProjection(const dlsys::Tensor& x, dlsys::Rng* rng) {
  const int64_t n = x.dim(0), d = x.dim(1);
  dlsys::Tensor proj({d, 2});
  proj.FillGaussian(rng, 1.0f);
  dlsys::Tensor out({n, 2});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t k = 0; k < 2; ++k) {
      double s = 0.0;
      for (int64_t j = 0; j < d; ++j) s += x[i * d + j] * proj[j * 2 + k];
      out[i * 2 + k] = static_cast<float>(s);
    }
  }
  return out;
}
}  // namespace

int main() {
  using namespace dlsys;
  bench::Report report("tsne");
  report.Print("E17: t-SNE embedding purity (64-D, 8 clusters, 320 points, "
               "k=10 neighbours)\n");
  bench::Table& table = report.AddTable(
      "E17", {{"separation", "%-12.1f"}, {"perplexity", "%-12.0f"},
              {"tsne", "%10.3f"}, {"rand_proj", "%12.3f"}});
  for (double separation : {0.25, 0.5, 1.0}) {
    Rng rng(83);
    Dataset data = MakeGaussianBlobs(320, 64, 8, separation, &rng);
    Tensor baseline = RandomProjection(data.x, &rng);
    const double base_purity = EmbeddingPurity(baseline, data.y, 10);
    for (double perplexity : {5.0, 15.0, 40.0}) {
      TsneConfig config;
      config.perplexity = perplexity;
      config.iterations = 300;
      auto embedding = Tsne(data.x, config);
      if (!embedding.ok()) return 1;
      table.Row(separation, perplexity,
                EmbeddingPurity(*embedding, data.y, 10), base_purity);
    }
  }
  report.Print("\nexpected shape: t-SNE purity far above the random "
               "projection at every separation; purity rises with cluster "
               "separation; moderate perplexities work best.\n");
  return report.Finish();
}
