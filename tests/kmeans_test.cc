#include "cluster/kmeans.h"

#include <set>

#include <gtest/gtest.h>
#include "cluster/quality.h"
#include "common/metrics.h"
#include "test_util.h"

namespace adahealth {
namespace cluster {
namespace {

using test::MakeBlobs;
using test::RandIndex;
using transform::Matrix;

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  test::Blobs blobs = MakeBlobs(
      {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}}, 50, 0.5, 1);
  KMeansOptions options;
  options.k = 3;
  options.seed = 3;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  EXPECT_TRUE(clustering->converged);
  EXPECT_GT(RandIndex(clustering->assignments, blobs.labels), 0.99);
}

TEST(KMeansTest, SseDecreasesWithMoreClusters) {
  test::Blobs blobs = MakeBlobs(
      {{0.0, 0.0}, {8.0, 0.0}, {0.0, 8.0}, {8.0, 8.0}}, 40, 1.0, 5);
  double previous_sse = 1e300;
  for (int32_t k : {2, 4, 8, 16}) {
    KMeansOptions options;
    options.k = k;
    options.seed = 7;
    auto clustering = RunKMeans(blobs.points, options);
    ASSERT_TRUE(clustering.ok());
    EXPECT_LT(clustering->sse, previous_sse);
    previous_sse = clustering->sse;
  }
}

TEST(KMeansTest, AssignmentsConsistentWithCentroids) {
  test::Blobs blobs = MakeBlobs({{0.0}, {5.0}}, 30, 0.3, 9);
  KMeansOptions options;
  options.k = 2;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  // Every point is assigned to its genuinely closest centroid.
  for (size_t i = 0; i < blobs.points.rows(); ++i) {
    double assigned = transform::SquaredDistance(
        blobs.points.Row(i),
        clustering->centroids.Row(
            static_cast<size_t>(clustering->assignments[i])));
    for (size_t c = 0; c < clustering->centroids.rows(); ++c) {
      EXPECT_LE(assigned, transform::SquaredDistance(
                              blobs.points.Row(i),
                              clustering->centroids.Row(c)) +
                              1e-9);
    }
  }
}

TEST(KMeansTest, SseMatchesAssignments) {
  // SumSquaredError is the reference: every engine and representation
  // must report a Clustering::sse within 1e-12 relative of it,
  // evaluated on the returned assignments and centroids.
  test::Blobs blobs = MakeBlobs({{0.0}, {4.0}}, 25, 0.4, 11);
  for (KMeansEngine engine :
       {KMeansEngine::kNaive, KMeansEngine::kAccelerated}) {
    for (KMeansRepresentation representation :
         {KMeansRepresentation::kDense, KMeansRepresentation::kSparse}) {
      KMeansOptions options;
      options.k = 2;
      options.engine = engine;
      options.representation = representation;
      auto clustering = RunKMeans(blobs.points, options);
      ASSERT_TRUE(clustering.ok());
      const double reference = SumSquaredError(
          blobs.points, clustering->assignments, clustering->centroids);
      EXPECT_NEAR(clustering->sse, reference, 1e-12 * reference);
    }
  }
}

TEST(KMeansTest, KEqualsOneGivesGlobalMean) {
  test::Blobs blobs = MakeBlobs({{1.0, 2.0}}, 40, 1.0, 13);
  KMeansOptions options;
  options.k = 1;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  std::vector<double> means = blobs.points.ColumnMeans();
  EXPECT_NEAR(clustering->centroids.At(0, 0), means[0], 1e-9);
  EXPECT_NEAR(clustering->centroids.At(0, 1), means[1], 1e-9);
}

TEST(KMeansTest, KEqualsNPerfectFit) {
  Matrix points(4, 1);
  for (size_t i = 0; i < 4; ++i) points.At(i, 0) = static_cast<double>(i * 10);
  KMeansOptions options;
  options.k = 4;
  auto clustering = RunKMeans(points, options);
  ASSERT_TRUE(clustering.ok());
  EXPECT_NEAR(clustering->sse, 0.0, 1e-12);
  std::set<int32_t> distinct(clustering->assignments.begin(),
                             clustering->assignments.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(KMeansTest, DeterministicForSeed) {
  test::Blobs blobs = MakeBlobs({{0.0}, {5.0}}, 30, 0.5, 15);
  KMeansOptions options;
  options.k = 2;
  options.seed = 99;
  auto a = RunKMeans(blobs.points, options);
  auto b = RunKMeans(blobs.points, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  EXPECT_DOUBLE_EQ(a->sse, b->sse);
}

TEST(KMeansTest, RandomInitAlsoConverges) {
  test::Blobs blobs = MakeBlobs({{0.0, 0.0}, {10.0, 10.0}}, 40, 0.5, 17);
  KMeansOptions options;
  options.k = 2;
  options.init = KMeansInit::kRandom;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  EXPECT_GT(RandIndex(clustering->assignments, blobs.labels), 0.99);
}

TEST(KMeansTest, NoEmptyClustersEvenWithDuplicatePoints) {
  Matrix points(10, 1, 3.0);  // All identical.
  KMeansOptions options;
  options.k = 3;
  auto clustering = RunKMeans(points, options);
  ASSERT_TRUE(clustering.ok());
  // SSE must be 0; assignments all valid.
  EXPECT_NEAR(clustering->sse, 0.0, 1e-12);
  for (int32_t a : clustering->assignments) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 3);
  }
}

TEST(KMeansTest, InvalidArgumentsRejected) {
  Matrix points(5, 2, 1.0);
  KMeansOptions options;
  options.k = 0;
  EXPECT_FALSE(RunKMeans(points, options).ok());
  options.k = 6;  // More clusters than points.
  EXPECT_FALSE(RunKMeans(points, options).ok());
  options.k = 2;
  options.max_iterations = 0;
  EXPECT_FALSE(RunKMeans(points, options).ok());
  EXPECT_FALSE(RunKMeans(Matrix(), options).ok());
}

TEST(KMeansTest, TwoEmptyClustersReseedWithDistinctPoints) {
  // Clusters 0 and 1 hold two points each; clusters 2 and 3 are empty.
  // Both reseed scans would pick the same globally-farthest point if
  // the donor were not marked as consumed after the first reseed.
  Matrix points(4, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 10.0;
  points.At(2, 0) = 100.0;
  points.At(3, 0) = 101.0;
  std::vector<int32_t> assignments{0, 0, 1, 1};
  Matrix centroids(4, 1, 0.0);
  RecomputeCentroids(points, assignments, centroids);
  // Non-empty clusters keep their means.
  EXPECT_NEAR(centroids.At(0, 0), 5.0, 1e-12);
  EXPECT_NEAR(centroids.At(1, 0), 100.5, 1e-12);
  // The two reseeded centroids must be distinct data points.
  EXPECT_NE(centroids.At(2, 0), centroids.At(3, 0));
}

TEST(KMeansTest, ConvergedRunSkipsRedundantFinalAssignment) {
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  test::Blobs blobs = MakeBlobs({{0.0, 0.0}, {10.0, 10.0}}, 30, 0.4, 23);
  KMeansOptions options;
  options.k = 2;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  ASSERT_TRUE(clustering->converged);
  // A converged run needs exactly one full-data assignment pass per
  // iteration — no extra pass after the loop.
  EXPECT_EQ(metrics.GetCounter("kmeans/assign_passes").value(),
            clustering->iterations);
  // SSE stays consistent with the returned assignments/centroids.
  double sse = 0.0;
  for (size_t i = 0; i < blobs.points.rows(); ++i) {
    sse += transform::SquaredDistance(
        blobs.points.Row(i),
        clustering->centroids.Row(
            static_cast<size_t>(clustering->assignments[i])));
  }
  EXPECT_NEAR(sse, clustering->sse, 1e-9);
}

TEST(KMeansTest, NonConvergedRunReassignsAgainstFinalCentroids) {
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  test::Blobs blobs = MakeBlobs(
      {{0.0, 0.0}, {3.0, 0.0}, {0.0, 3.0}, {3.0, 3.0}}, 30, 1.5, 29);
  KMeansOptions options;
  options.k = 4;
  options.max_iterations = 2;  // Force a non-converged exit.
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  ASSERT_FALSE(clustering->converged);
  EXPECT_EQ(metrics.GetCounter("kmeans/assign_passes").value(),
            clustering->iterations + 1);
  // The final assignment is consistent with the final centroids.
  for (size_t i = 0; i < blobs.points.rows(); ++i) {
    double assigned = transform::SquaredDistance(
        blobs.points.Row(i),
        clustering->centroids.Row(
            static_cast<size_t>(clustering->assignments[i])));
    for (size_t c = 0; c < clustering->centroids.rows(); ++c) {
      EXPECT_LE(assigned, transform::SquaredDistance(
                              blobs.points.Row(i),
                              clustering->centroids.Row(c)) +
                              1e-9);
    }
  }
}

TEST(ClusterSizesTest, CountsPerCluster) {
  std::vector<int32_t> assignments{0, 1, 1, 2, 1};
  EXPECT_EQ(ClusterSizes(assignments, 3),
            (std::vector<int64_t>{1, 3, 1}));
}

TEST(AdaptCentroidsTest, SameKReturnsCentroidsUnchanged) {
  test::Blobs blobs = MakeBlobs({{0.0}, {6.0}}, 20, 0.3, 91);
  KMeansOptions options;
  options.k = 2;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  Matrix adapted = AdaptCentroids(blobs.points, *clustering, 2);
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(adapted.At(c, 0), clustering->centroids.At(c, 0));
  }
}

TEST(AdaptCentroidsTest, ShrinkingKeepsLargestClusters) {
  // Cluster 1 is tiny; shrinking to k=2 must drop exactly its centroid.
  Matrix points(7, 1);
  for (size_t i = 0; i < 3; ++i) points.At(i, 0) = 0.0 + 0.1 * i;
  points.At(3, 0) = 50.0;
  for (size_t i = 4; i < 7; ++i) points.At(i, 0) = 100.0 + 0.1 * i;
  Clustering source;
  source.k = 3;
  source.assignments = {0, 0, 0, 1, 2, 2, 2};
  source.centroids = Matrix(3, 1);
  source.centroids.At(0, 0) = 0.1;
  source.centroids.At(1, 0) = 50.0;
  source.centroids.At(2, 0) = 100.5;
  Matrix adapted = AdaptCentroids(points, source, 2);
  ASSERT_EQ(adapted.rows(), 2u);
  EXPECT_EQ(adapted.At(0, 0), 0.1);
  EXPECT_EQ(adapted.At(1, 0), 100.5);
}

TEST(AdaptCentroidsTest, GrowingAddsFarthestPoints) {
  Matrix points(5, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 1.0;
  points.At(2, 0) = 2.0;
  points.At(3, 0) = 100.0;
  points.At(4, 0) = 101.0;
  Clustering source;
  source.k = 1;
  source.assignments = {0, 0, 0, 0, 0};
  source.centroids = Matrix(1, 1);
  source.centroids.At(0, 0) = 1.0;
  Matrix adapted = AdaptCentroids(points, source, 2);
  ASSERT_EQ(adapted.rows(), 2u);
  EXPECT_EQ(adapted.At(0, 0), 1.0);
  // The farthest point from the existing centroid is 101.
  EXPECT_EQ(adapted.At(1, 0), 101.0);
}

TEST(KMeansTest, WarmStartFromOwnSolutionConvergesImmediately) {
  test::Blobs blobs = MakeBlobs({{0.0, 0.0}, {9.0, 9.0}}, 40, 0.5, 93);
  KMeansOptions options;
  options.k = 2;
  auto first = RunKMeans(blobs.points, options);
  ASSERT_TRUE(first.ok());
  options.initial_centroids = first->centroids;
  auto second = RunKMeans(blobs.points, options);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->converged);
  // Seeding from a converged solution re-converges right after the
  // first pass (the loop needs a second pass to observe stability).
  EXPECT_EQ(second->iterations, 2);
  EXPECT_EQ(second->assignments, first->assignments);
  EXPECT_EQ(second->sse, first->sse);
}

TEST(InitializeCentroidsTest, PlusPlusPicksDistinctPoints) {
  test::Blobs blobs = MakeBlobs({{0.0}, {100.0}, {200.0}}, 10, 0.1, 19);
  common::Rng rng(21);
  Matrix centroids = InitializeCentroids(blobs.points, 3,
                                         KMeansInit::kKMeansPlusPlus, rng);
  // With D^2 seeding on well-separated blobs, the three seeds land in
  // three different blobs.
  std::set<int> regions;
  for (size_t c = 0; c < 3; ++c) {
    regions.insert(static_cast<int>(centroids.At(c, 0) / 50.0));
  }
  EXPECT_EQ(regions.size(), 3u);
}

}  // namespace
}  // namespace cluster
}  // namespace adahealth
