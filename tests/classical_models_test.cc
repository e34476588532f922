// Tests for datasets, metrics and logistic regression.

#include <gtest/gtest.h>

#include <cmath>

#include "classical/dataset.h"
#include "classical/logistic.h"
#include "classical/metrics.h"

namespace qdb {
namespace {

TEST(DatasetTest, GeneratorsProduceBalancedLabels) {
  Rng rng(1);
  for (auto make : {+[](Rng& r) { return MakeMoons(40, 0.1, r); },
                    +[](Rng& r) { return MakeCircles(40, 0.1, 0.5, r); },
                    +[](Rng& r) { return MakeXor(40, 0.2, r); },
                    +[](Rng& r) { return MakeBlobs(40, 2, 2.0, 0.5, r); }}) {
    Dataset d = make(rng);
    EXPECT_EQ(d.size(), 40u);
    EXPECT_EQ(d.num_features(), 2);
    int pos = 0;
    for (int y : d.labels) {
      ASSERT_TRUE(y == 1 || y == -1);
      pos += y == 1;
    }
    EXPECT_EQ(pos, 20);
  }
}

TEST(DatasetTest, XorIsNotLinearlySeparable) {
  Rng rng(3);
  Dataset d = MakeXor(200, 0.15, rng);
  auto model = LogisticRegression::Train(d);
  ASSERT_TRUE(model.ok());
  std::vector<int> preds;
  for (const auto& x : d.features) preds.push_back(model.value().Predict(x));
  EXPECT_LT(Accuracy(d.labels, preds), 0.7);  // A linear model fails on XOR.
}

TEST(DatasetTest, TrainTestSplitSizesAndContent) {
  Rng rng(5);
  Dataset d = MakeBlobs(50, 3, 2.0, 0.5, rng);
  auto [train, test] = TrainTestSplit(d, 0.2, rng);
  EXPECT_EQ(test.size(), 10u);
  EXPECT_EQ(train.size(), 40u);
  EXPECT_EQ(train.num_features(), 3);
}

TEST(DatasetTest, MinMaxScaleMapsToRange) {
  Rng rng(7);
  Dataset d = MakeMoons(30, 0.1, rng);
  MinMaxScale(d, d, 0.0, M_PI);
  for (const auto& row : d.features) {
    for (double v : row) {
      EXPECT_GE(v, -1e-12);
      EXPECT_LE(v, M_PI + 1e-12);
    }
  }
}

TEST(DatasetTest, MinMaxScaleUsesReferenceRanges) {
  Dataset ref;
  ref.features = {{0.0}, {10.0}};
  ref.labels = {1, -1};
  Dataset target;
  target.features = {{5.0}, {20.0}};
  target.labels = {1, -1};
  MinMaxScale(ref, target, 0.0, 1.0);
  EXPECT_NEAR(target.features[0][0], 0.5, 1e-12);
  EXPECT_NEAR(target.features[1][0], 2.0, 1e-12);  // Out-of-range passes through.
}

TEST(MetricsTest, AccuracyAndConfusion) {
  std::vector<int> labels = {1, 1, -1, -1, 1};
  std::vector<int> preds = {1, -1, -1, 1, 1};
  EXPECT_NEAR(Accuracy(labels, preds), 0.6, 1e-12);
  ConfusionMatrix cm = Confusion(labels, preds);
  EXPECT_EQ(cm.true_positive, 2);
  EXPECT_EQ(cm.false_negative, 1);
  EXPECT_EQ(cm.true_negative, 1);
  EXPECT_EQ(cm.false_positive, 1);
  EXPECT_NEAR(cm.Precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.Recall(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.F1(), 2.0 / 3.0, 1e-12);
}

TEST(MetricsTest, DegenerateConfusionIsZeroNotNan) {
  std::vector<int> labels = {-1, -1};
  std::vector<int> preds = {-1, -1};
  ConfusionMatrix cm = Confusion(labels, preds);
  EXPECT_EQ(cm.Precision(), 0.0);
  EXPECT_EQ(cm.Recall(), 0.0);
  EXPECT_EQ(cm.F1(), 0.0);
}

TEST(MetricsTest, MeanSquaredError) {
  std::vector<int> labels = {1, -1};
  DVector scores = {0.5, -1.0};
  EXPECT_NEAR(MeanSquaredError(labels, scores), 0.125, 1e-12);
}

TEST(LogisticTest, SolvesSeparableBlobs) {
  Rng rng(9);
  Dataset d = MakeBlobs(60, 2, 4.0, 0.4, rng);
  auto model = LogisticRegression::Train(d);
  ASSERT_TRUE(model.ok());
  std::vector<int> preds;
  for (const auto& x : d.features) preds.push_back(model.value().Predict(x));
  EXPECT_NEAR(Accuracy(d.labels, preds), 1.0, 1e-12);
}

TEST(LogisticTest, ProbabilitiesAreCalibratedDirectionally) {
  Rng rng(11);
  Dataset d = MakeBlobs(60, 2, 4.0, 0.4, rng);
  auto model = LogisticRegression::Train(d);
  ASSERT_TRUE(model.ok());
  // Deep inside the positive blob the probability should be near 1.
  EXPECT_GT(model.value().ProbabilityPositive({2.0, 2.0}), 0.9);
  EXPECT_LT(model.value().ProbabilityPositive({-2.0, -2.0}), 0.1);
}

TEST(LogisticTest, RejectsEmptyData) {
  EXPECT_FALSE(LogisticRegression::Train(Dataset{}).ok());
}

}  // namespace
}  // namespace qdb
