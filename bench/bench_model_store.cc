// E18 — Mistique-style activation stores: quantization and dedup cut
// storage by an order of magnitude at bounded query error
// (Section 4.2, Vartak et al.).

#include "bench/report.h"
#include "src/data/synthetic.h"
#include "src/interpret/model_store.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"

int main() {
  using namespace dlsys;
  Rng rng(89);
  Dataset data = MakeGaussianBlobs(1024, 16, 6, 3.0, &rng);
  Sequential net = MakeMlp(16, {128, 128}, 6);
  net.Init(&rng);
  Adam opt(0.005);
  TrainConfig tc;
  tc.epochs = 10;
  Train(&net, &opt, data, tc);

  // Diagnostic batches: unique inputs, and a redundant batch (repeated
  // inputs, as in repeated debugging queries over the same examples).
  Tensor unique_batch = data.x;
  Tensor redundant({1024, 16});
  for (int64_t i = 0; i < 1024; ++i) {
    for (int64_t j = 0; j < 16; ++j) {
      redundant[i * 16 + j] = data.x[(i % 64) * 16 + j];
    }
  }

  using bench::kExact;
  bench::Report report("model_store");
  report.Print("E18: activation store storage/error tradeoff "
               "(1024 examples, 6-layer MLP)\n");
  bench::Table& table = report.AddTable(
      "E18", {{"batch", "%-11s"}, {"mode", "%-18s"}, {"stored_KB", "%12.1f"},
              {"max_abs_err", "%14.5f"}});
  struct Case {
    const char* batch_name;
    const Tensor* batch;
    StorageMode mode;
    const char* mode_name;
  };
  const Case cases[] = {
      {"unique", &unique_batch, StorageMode::kExact, "exact"},
      {"unique", &unique_batch, StorageMode::kQuantized, "8-bit"},
      {"unique", &unique_batch, StorageMode::kQuantizedDedup, "8-bit+dedup"},
      {"redundant", &redundant, StorageMode::kExact, "exact"},
      {"redundant", &redundant, StorageMode::kQuantized, "8-bit"},
      {"redundant", &redundant, StorageMode::kQuantizedDedup,
       "8-bit+dedup"},
  };
  for (const Case& c : cases) {
    auto store = ModelStore::Capture(&net, *c.batch, c.mode);
    if (!store.ok()) return 1;
    // Reference final-layer activations for error measurement.
    Tensor reference = net.Forward(*c.batch, CacheMode::kNoCache);
    auto err = store->MaxAbsError(store->num_layers() - 1, reference);
    table.Row(c.batch_name, c.mode_name,
              static_cast<double>(store->StoredBytes()) / 1e3,
              err.ok() ? *err : -1.0);
  }
  report.Print("\nexpected shape: 8-bit cuts storage ~4x at small bounded "
               "error; dedup adds nothing on unique inputs but collapses "
               "redundant batches by the redundancy factor.\n");
  return report.Finish();
}
