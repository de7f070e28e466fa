#include "src/tensor/tensor.h"

#include <gtest/gtest.h>

#include "src/tensor/ops.h"

namespace dlsys {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
  EXPECT_EQ(t.rank(), 0);
}

TEST(TensorTest, ZeroFilledConstruction) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.rank(), 2);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FillConstruction) {
  Tensor t({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(TensorTest, ExplicitValues) {
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, NegativeDimIndex) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
}

TEST(TensorTest, CopyIsDeep) {
  Tensor a({2}, 1.0f);
  Tensor b = a;
  b[0] = 5.0f;
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(b[0], 5.0f);
}

TEST(TensorTest, MoveLeavesSourceEmpty) {
  Tensor a({3}, 1.0f);
  Tensor b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.size(), 3);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = a.Reshaped({3, 2});
  EXPECT_EQ(b.at(2, 1), 6.0f);
  EXPECT_EQ(b.at(0, 1), 2.0f);
}

TEST(TensorTest, SumMaxArgMaxNorm) {
  Tensor t({4}, {1.0f, -2.0f, 3.0f, 0.0f});
  EXPECT_DOUBLE_EQ(t.Sum(), 2.0);
  EXPECT_EQ(t.Max(), 3.0f);
  EXPECT_EQ(t.ArgMax(), 2);
  EXPECT_NEAR(t.L2Norm(), std::sqrt(14.0), 1e-9);
}

TEST(TensorTest, FillGaussianIsSeeded) {
  Rng rng1(7), rng2(7);
  Tensor a({100});
  Tensor b({100});
  a.FillGaussian(&rng1, 1.0f);
  b.FillGaussian(&rng2, 1.0f);
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(MemoryTrackerTest, TracksAllocationAndRelease) {
  MemoryTracker& mt = MemoryTracker::Global();
  const int64_t before = mt.current_bytes();
  {
    Tensor t({1000});
    EXPECT_EQ(mt.current_bytes(), before + 4000);
  }
  EXPECT_EQ(mt.current_bytes(), before);
}

TEST(MemoryTrackerTest, PeakIsMonotoneUntilReset) {
  MemoryTracker& mt = MemoryTracker::Global();
  mt.ResetPeak();
  const int64_t base = mt.peak_bytes();
  {
    Tensor t({2000});
    EXPECT_GE(mt.peak_bytes(), base + 8000);
  }
  EXPECT_GE(mt.peak_bytes(), base + 8000);  // peak survives release
  mt.ResetPeak();
  EXPECT_LT(mt.peak_bytes(), base + 8000);
}

TEST(MemoryTrackerTest, CopyAssignTracksDelta) {
  MemoryTracker& mt = MemoryTracker::Global();
  const int64_t before = mt.current_bytes();
  {
    Tensor a({10});
    Tensor b({20});
    b = a;  // releases 80 bytes, allocates 40
    EXPECT_EQ(mt.current_bytes(), before + 80);
  }
  EXPECT_EQ(mt.current_bytes(), before);
}

TEST(OpsTest, MatMulSmall) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsTest, ElementwiseAddSubMul) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  EXPECT_EQ(Add(a, b)[1], 7.0f);
  EXPECT_EQ(Sub(a, b)[2], -3.0f);
  EXPECT_EQ(Mul(a, b)[0], 4.0f);
}

TEST(OpsTest, AxpyAndScale) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {10, 20});
  Axpy(0.5f, b, &a);
  EXPECT_EQ(a[0], 6.0f);
  EXPECT_EQ(a[1], 12.0f);
  Scale(2.0f, &a);
  EXPECT_EQ(a[0], 12.0f);
}

TEST(OpsTest, RowSoftmaxSumsToOne) {
  Tensor logits({2, 3}, {1, 2, 3, 1000, 1000, 1000});
  Tensor p = RowSoftmax(logits);
  for (int64_t i = 0; i < 2; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 3; ++j) s += p.at(i, j);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
  // Large logits must not overflow.
  EXPECT_NEAR(p.at(1, 0), 1.0 / 3.0, 1e-5);
}

TEST(OpsTest, OneHotRoundTrip) {
  std::vector<int64_t> labels = {0, 2, 1};
  Tensor oh = OneHot(labels, 3);
  std::vector<int64_t> back = ArgMaxRows(oh);
  EXPECT_EQ(back, labels);
}

TEST(OpsTest, SliceRows) {
  Tensor m({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = SliceRows(m, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.at(0, 0), 3.0f);
  EXPECT_EQ(s.at(1, 1), 6.0f);
}

TEST(OpsTest, MeanRows) {
  Tensor m({2, 2}, {1, 2, 3, 4});
  Tensor mean = MeanRows(m);
  EXPECT_EQ(mean[0], 2.0f);
  EXPECT_EQ(mean[1], 3.0f);
}

TEST(OpsTest, AccuracyCountsArgmaxHits) {
  Tensor logits({3, 2}, {0.9f, 0.1f, 0.2f, 0.8f, 0.6f, 0.4f});
  EXPECT_DOUBLE_EQ(Accuracy(logits, {0, 1, 0}), 1.0);
  EXPECT_NEAR(Accuracy(logits, {1, 1, 0}), 2.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace dlsys
