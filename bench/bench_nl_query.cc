// E27 — Natural-language querying (Part 2): an RNN maps NL sentences to
// query predicates; the task is order-sensitive, so the bag-of-words
// baseline is capped near 50% on the column slot while the RNN solves
// it. Sweeps training-set size (the data-efficiency curve).

#include "bench/report.h"
#include "src/nlq/query_language.h"
#include "src/nlq/rnn.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"

int main() {
  using namespace dlsys;
  Rng rng(113);
  SequenceDataset test = MakeNlqData(600, &rng);

  bench::Report report("nl_query");
  report.Print("E27: NL-to-predicate accuracy vs training sentences "
               "(8 classes: 4 columns x 2 comparators)\n");
  bench::Table& table = report.AddTable(
      "E27", {{"sentences", "%-12lld"}, {"rnn", "%10.3f"},
              {"bag-of-words", "%14.3f"},
              {"rnn_train_s", "%12.2f", bench::kWall}});
  for (int64_t n : {100, 300, 1000, 3000}) {
    Rng drng(200 + static_cast<uint64_t>(n));
    SequenceDataset train = MakeNlqData(n, &drng);

    RnnClassifier rnn(kNlqVocabSize, 8, 24, kNlqNumClasses);
    Rng mrng(7);
    rnn.Init(&mrng);
    MetricsReport train_report = rnn.Train(train, 30, 32, 0.1, 7);

    Dataset bow_train;
    bow_train.x = NlqBagOfWords(train);
    bow_train.y = train.labels;
    Dataset bow_test;
    bow_test.x = NlqBagOfWords(test);
    bow_test.y = test.labels;
    Sequential bow = MakeMlp(kNlqVocabSize, {32}, kNlqNumClasses);
    bow.Init(&mrng);
    Adam opt(0.01);
    TrainConfig tc;
    tc.epochs = 40;
    Train(&bow, &opt, bow_train, tc);

    table.Row(n, rnn.Accuracy(test), Evaluate(&bow, bow_test).accuracy,
              train_report.Get(metric::kTrainSeconds));
  }
  // A few rendered examples with predictions.
  report.Print("\nsample parses:\n");
  bench::Table& parses = report.AddLine(
      "sample parses", {{"sentence", "  \"%s\""},
                        {"column", " -> predicate(c%lld"}, {"op", " %s ...)"},
                        {"true_column", "  [truth c%lld"},
                        {"true_op", " %s]"}});
  RnnClassifier rnn(kNlqVocabSize, 8, 24, kNlqNumClasses);
  Rng mrng(7);
  rnn.Init(&mrng);
  Rng drng(99);
  SequenceDataset train = MakeNlqData(2000, &drng);
  rnn.Train(train, 30, 32, 0.1, 7);
  SequenceDataset sample = MakeNlqData(4, &rng);
  Tensor logits = rnn.Forward(sample);
  for (int64_t i = 0; i < sample.size(); ++i) {
    int64_t best = 0;
    for (int64_t c = 1; c < kNlqNumClasses; ++c) {
      if (logits[i * kNlqNumClasses + c] >
          logits[i * kNlqNumClasses + best]) {
        best = c;
      }
    }
    const int64_t truth = sample.labels[static_cast<size_t>(i)];
    parses.Row(NlqToString(sample, i), best / kNlqNumOps,
               best % kNlqNumOps == 1 ? ">" : "<", truth / kNlqNumOps,
               truth % kNlqNumOps == 1 ? ">" : "<");
  }
  report.Print("\nexpected shape: bag-of-words plateaus near 50%% (it sees "
               "both columns but not which is left of the comparator); the "
               "RNN climbs to ~100%% with enough sentences.\n");
  return report.Finish();
}
