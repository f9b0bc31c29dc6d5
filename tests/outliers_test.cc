#include "cluster/outliers.h"

#include <gtest/gtest.h>
#include "test_util.h"

namespace adahealth {
namespace cluster {
namespace {

using transform::Matrix;

/// A blob of 40 points around the origin plus one far-away point.
struct PlantedOutlier {
  Matrix points;
  size_t outlier_row;
};

PlantedOutlier MakePlanted() {
  test::Blobs blobs = test::MakeBlobs({{0.0, 0.0}}, 40, 0.5, 91);
  PlantedOutlier planted{Matrix(41, 2), 40};
  for (size_t i = 0; i < 40; ++i) {
    planted.points.At(i, 0) = blobs.points.At(i, 0);
    planted.points.At(i, 1) = blobs.points.At(i, 1);
  }
  planted.points.At(40, 0) = 25.0;
  planted.points.At(40, 1) = -25.0;
  return planted;
}

TEST(CentroidOutlierTest, PlantedOutlierScoresHighest) {
  PlantedOutlier planted = MakePlanted();
  KMeansOptions options;
  options.k = 1;
  auto clustering = RunKMeans(planted.points, options);
  ASSERT_TRUE(clustering.ok());
  auto scores = CentroidOutlierScores(planted.points, clustering.value());
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(TopOutliers(scores.value(), 1)[0], planted.outlier_row);
  EXPECT_GT((*scores)[planted.outlier_row], 3.0);
}

TEST(CentroidOutlierTest, TypicalMembersScoreNearOne) {
  test::Blobs blobs = test::MakeBlobs({{0.0}, {10.0}}, 50, 0.5, 93);
  KMeansOptions options;
  options.k = 2;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  auto scores = CentroidOutlierScores(blobs.points, clustering.value());
  ASSERT_TRUE(scores.ok());
  double mean = 0.0;
  for (double s : scores.value()) mean += s;
  mean /= static_cast<double>(scores->size());
  EXPECT_NEAR(mean, 1.0, 0.05);
}

TEST(CentroidOutlierTest, RejectsMismatchedShapes) {
  test::Blobs blobs = test::MakeBlobs({{0.0}}, 10, 0.5, 95);
  KMeansOptions options;
  options.k = 1;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  Matrix wrong(5, 1);
  EXPECT_FALSE(CentroidOutlierScores(wrong, clustering.value()).ok());
}

TEST(TopOutliersTest, OrderAndTruncation) {
  std::vector<double> scores{0.5, 3.0, 1.0, 3.0, 2.0};
  std::vector<size_t> top = TopOutliers(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // Tie between 1 and 3 -> lower index first.
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 4u);
  EXPECT_EQ(TopOutliers(scores, 99).size(), scores.size());
}

}  // namespace
}  // namespace cluster
}  // namespace adahealth
