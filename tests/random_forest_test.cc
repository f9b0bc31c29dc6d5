#include "ml/random_forest.h"

#include <gtest/gtest.h>
#include "test_util.h"

namespace adahealth {
namespace ml {
namespace {

using transform::Matrix;

TEST(RandomForestTest, SeparatesBlobs) {
  test::Blobs train = test::MakeBlobs({{0.0, 0.0}, {8.0, 8.0}}, 50, 0.7,
                                      111);
  RandomForestClassifier model;
  ASSERT_TRUE(model.Fit(train.points, train.labels, 2).ok());
  EXPECT_EQ(model.num_trees(), 20u);
  EXPECT_EQ(model.Predict(std::vector<double>{0.1, 0.2}), 0);
  EXPECT_EQ(model.Predict(std::vector<double>{7.8, 8.3}), 1);
}

TEST(RandomForestTest, GeneralizesOnHeldOut) {
  test::Blobs train = test::MakeBlobs(
      {{0.0, 0.0, 0.0}, {4.0, 0.0, 4.0}, {0.0, 4.0, 4.0}}, 60, 0.7, 113);
  test::Blobs held_out = test::MakeBlobs(
      {{0.0, 0.0, 0.0}, {4.0, 0.0, 4.0}, {0.0, 4.0, 4.0}}, 40, 0.7, 114);
  RandomForestClassifier model;
  ASSERT_TRUE(model.Fit(train.points, train.labels, 3).ok());
  std::vector<int32_t> predicted = test::PredictRows(model, held_out.points);
  int correct = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] == held_out.labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / predicted.size(), 0.95);
}

TEST(RandomForestTest, BeatsSingleShallowTreeOnNoisyData) {
  // Noisy overlapping blobs: an ensemble of depth-3 trees should not
  // lose to one depth-3 tree (and usually wins).
  test::Blobs train = test::MakeBlobs({{0.0, 0.0}, {2.0, 2.0}}, 150, 1.2,
                                      117);
  test::Blobs held_out = test::MakeBlobs({{0.0, 0.0}, {2.0, 2.0}}, 100,
                                         1.2, 118);
  DecisionTreeOptions shallow;
  shallow.max_depth = 3;

  DecisionTreeClassifier single(shallow);
  ASSERT_TRUE(single.Fit(train.points, train.labels, 2).ok());
  RandomForestOptions forest_options;
  forest_options.num_trees = 40;
  forest_options.tree = shallow;
  RandomForestClassifier forest(forest_options);
  ASSERT_TRUE(forest.Fit(train.points, train.labels, 2).ok());

  auto accuracy = [&](const Classifier& model) {
    std::vector<int32_t> predicted = test::PredictRows(model, held_out.points);
    int correct = 0;
    for (size_t i = 0; i < predicted.size(); ++i) {
      if (predicted[i] == held_out.labels[i]) ++correct;
    }
    return static_cast<double>(correct) / predicted.size();
  };
  EXPECT_GE(accuracy(forest), accuracy(single) - 0.02);
}

TEST(RandomForestTest, DeterministicForSeed) {
  test::Blobs train = test::MakeBlobs({{0.0}, {5.0}}, 40, 0.8, 119);
  test::Blobs probe = test::MakeBlobs({{0.0}, {5.0}}, 20, 0.8, 120);
  RandomForestClassifier a;
  RandomForestClassifier b;
  ASSERT_TRUE(a.Fit(train.points, train.labels, 2).ok());
  ASSERT_TRUE(b.Fit(train.points, train.labels, 2).ok());
  EXPECT_EQ(test::PredictRows(a, probe.points),
            test::PredictRows(b, probe.points));
}

TEST(RandomForestTest, FeatureFractionOne) {
  test::Blobs train = test::MakeBlobs({{0.0, 0.0}, {6.0, 6.0}}, 30, 0.5,
                                      121);
  RandomForestOptions options;
  options.feature_fraction = 1.0;
  options.num_trees = 5;
  RandomForestClassifier model(options);
  ASSERT_TRUE(model.Fit(train.points, train.labels, 2).ok());
  EXPECT_EQ(model.Predict(std::vector<double>{6.0, 6.1}), 1);
}

TEST(RandomForestTest, RejectsInvalidOptions) {
  Matrix features(4, 2, 1.0);
  std::vector<int32_t> labels{0, 0, 1, 1};
  RandomForestOptions options;
  options.num_trees = 0;
  EXPECT_FALSE(
      RandomForestClassifier(options).Fit(features, labels, 2).ok());
  options = RandomForestOptions();
  options.feature_fraction = 0.0;
  EXPECT_FALSE(
      RandomForestClassifier(options).Fit(features, labels, 2).ok());
  options.feature_fraction = 1.5;
  EXPECT_FALSE(
      RandomForestClassifier(options).Fit(features, labels, 2).ok());
  RandomForestClassifier model;
  EXPECT_FALSE(model.Fit(Matrix(), {}, 2).ok());
  EXPECT_FALSE(model.Fit(features, {0, 1}, 2).ok());
}

}  // namespace
}  // namespace ml
}  // namespace adahealth
