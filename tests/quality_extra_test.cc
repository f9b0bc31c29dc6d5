// Cross-index consistency sweeps of the clustering-quality indices
// (parameterized).
#include <gtest/gtest.h>
#include "cluster/kmeans.h"
#include "cluster/quality.h"
#include "test_util.h"

namespace adahealth {
namespace cluster {
namespace {

using transform::Matrix;

/// Property sweep: on well-separated blobs of every configuration, the
/// k-means clustering at the true K must score better than a random
/// labeling on every index (SSE lower, overall similarity higher).
struct IndexSweepCase {
  // 64-bit so the struct has no padding bytes: gtest names each case by
  // the bytes of its value, and padding would make the names vary.
  int64_t k;
  size_t per_cluster;
  double spread;
  uint64_t seed;
};

class QualityIndexSweep : public testing::TestWithParam<IndexSweepCase> {};

TEST_P(QualityIndexSweep, AllIndicesPreferTrueStructure) {
  const IndexSweepCase& param = GetParam();
  std::vector<std::vector<double>> centers;
  for (int32_t c = 0; c < param.k; ++c) {
    centers.push_back({12.0 * c, 12.0 * ((c * 7) % param.k)});
  }
  test::Blobs blobs =
      test::MakeBlobs(centers, param.per_cluster, param.spread, param.seed);
  KMeansOptions options;
  options.k = static_cast<int32_t>(param.k);
  options.seed = param.seed + 1;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());

  common::Rng rng(param.seed + 2);
  std::vector<int32_t> random(blobs.points.rows());
  while (true) {
    for (auto& a : random) {
      a = static_cast<int32_t>(
          rng.UniformUint64(static_cast<uint64_t>(param.k)));
    }
    std::vector<int64_t> sizes(static_cast<size_t>(param.k), 0);
    for (int32_t a : random) ++sizes[static_cast<size_t>(a)];
    bool ok = true;
    for (int64_t s : sizes) ok &= s > 0;
    if (ok) break;
  }

  // Centroids of the random labeling for its SSE.
  Matrix random_centroids(static_cast<size_t>(param.k),
                          blobs.points.cols(), 0.0);
  RecomputeCentroids(blobs.points, random, random_centroids);

  EXPECT_LT(clustering->sse,
            SumSquaredError(blobs.points, random, random_centroids));
  EXPECT_GT(OverallSimilarity(blobs.points, clustering->assignments,
                              param.k),
            OverallSimilarity(blobs.points, random, param.k));
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, QualityIndexSweep,
    testing::Values(IndexSweepCase{2, 30, 0.5, 1},
                    IndexSweepCase{3, 25, 0.8, 2},
                    IndexSweepCase{4, 20, 0.6, 3},
                    IndexSweepCase{5, 15, 0.7, 4},
                    IndexSweepCase{8, 12, 0.5, 5}));

}  // namespace
}  // namespace cluster
}  // namespace adahealth
