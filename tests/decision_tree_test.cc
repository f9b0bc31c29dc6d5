#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "ml/metrics.h"
#include "test_util.h"

namespace adahealth {
namespace ml {
namespace {

using transform::Matrix;

// Reference CART: the straightforward split search that sorts each
// node's rows once per feature. The production tree presorts once per
// Fit and scans nonzero entries only; it must grow exactly this tree.
class ReferenceCart {
 public:
  explicit ReferenceCart(DecisionTreeOptions options) : options_(options) {}

  void Fit(const Matrix& features, const std::vector<int32_t>& labels,
           int32_t num_classes) {
    nodes_.clear();
    depth_ = 0;
    num_classes_ = num_classes;
    num_features_ = features.cols();
    std::vector<size_t> sample_ids(features.rows());
    std::iota(sample_ids.begin(), sample_ids.end(), 0u);
    BuildNode(features, labels, sample_ids, 0, sample_ids.size(), 0);
  }

  int32_t Predict(std::span<const double> features) const {
    size_t current = 0;
    while (nodes_[current].left >= 0) {
      const Node& node = nodes_[current];
      current = static_cast<size_t>(
          features[static_cast<size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right);
    }
    return nodes_[current].label;
  }

  size_t num_nodes() const { return nodes_.size(); }
  int32_t depth() const { return depth_; }

 private:
  struct Node {
    int32_t feature = -1;
    double threshold = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    int32_t label = 0;
  };

  int32_t BuildNode(const Matrix& features,
                    const std::vector<int32_t>& labels,
                    std::vector<size_t>& sample_ids, size_t begin,
                    size_t end, int32_t depth) {
    depth_ = std::max(depth_, depth);
    const int32_t node_id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();

    std::vector<int64_t> counts(static_cast<size_t>(num_classes_), 0);
    for (size_t i = begin; i < end; ++i) {
      ++counts[static_cast<size_t>(labels[sample_ids[i]])];
    }
    int32_t majority = 0;
    for (int32_t c = 1; c < num_classes_; ++c) {
      if (counts[static_cast<size_t>(c)] >
          counts[static_cast<size_t>(majority)]) {
        majority = c;
      }
    }
    nodes_[static_cast<size_t>(node_id)].label = majority;

    const int64_t n = static_cast<int64_t>(end - begin);
    const double node_impurity = GiniImpurity(counts);
    if (depth >= options_.max_depth || n < options_.min_samples_split ||
        node_impurity == 0.0) {
      return node_id;
    }

    double best_gain = kMinImpurityDecrease;
    int32_t best_feature = -1;
    double best_threshold = 0.0;

    std::vector<size_t> order(end - begin);
    std::vector<int64_t> left_counts(static_cast<size_t>(num_classes_));
    for (size_t f = 0; f < num_features_; ++f) {
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = sample_ids[begin + i];
      }
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return features.At(a, f) < features.At(b, f);
      });
      if (features.At(order.front(), f) == features.At(order.back(), f)) {
        continue;
      }
      std::fill(left_counts.begin(), left_counts.end(), 0);
      for (size_t i = 0; i + 1 < order.size(); ++i) {
        ++left_counts[static_cast<size_t>(labels[order[i]])];
        double value = features.At(order[i], f);
        double next_value = features.At(order[i + 1], f);
        if (value == next_value) continue;
        const int64_t left_n = static_cast<int64_t>(i + 1);
        const int64_t right_n = n - left_n;
        if (left_n < options_.min_samples_leaf ||
            right_n < options_.min_samples_leaf) {
          continue;
        }
        double left_impurity = GiniImpurity(left_counts);
        std::vector<int64_t> right_counts(counts);
        for (int32_t c = 0; c < num_classes_; ++c) {
          right_counts[static_cast<size_t>(c)] -=
              left_counts[static_cast<size_t>(c)];
        }
        double right_impurity = GiniImpurity(right_counts);
        double weighted =
            (static_cast<double>(left_n) * left_impurity +
             static_cast<double>(right_n) * right_impurity) /
            static_cast<double>(n);
        double gain = node_impurity - weighted;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int32_t>(f);
          best_threshold = 0.5 * (value + next_value);
        }
      }
    }
    if (best_feature < 0) return node_id;

    auto middle = std::stable_partition(
        sample_ids.begin() + static_cast<ptrdiff_t>(begin),
        sample_ids.begin() + static_cast<ptrdiff_t>(end), [&](size_t id) {
          return features.At(id, static_cast<size_t>(best_feature)) <=
                 best_threshold;
        });
    size_t split = static_cast<size_t>(middle - sample_ids.begin());

    nodes_[static_cast<size_t>(node_id)].feature = best_feature;
    nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
    int32_t left =
        BuildNode(features, labels, sample_ids, begin, split, depth + 1);
    int32_t right =
        BuildNode(features, labels, sample_ids, split, end, depth + 1);
    nodes_[static_cast<size_t>(node_id)].left = left;
    nodes_[static_cast<size_t>(node_id)].right = right;
    return node_id;
  }

  DecisionTreeOptions options_;
  int32_t num_classes_ = 0;
  size_t num_features_ = 0;
  int32_t depth_ = 0;
  std::vector<Node> nodes_;
};

enum class ValueKind { kCounts, kReal, kTies, kDense };

// A random matrix, ~80% zeros unless kDense, plus one constant and one
// all-zero column whenever there is room for them.
Matrix RandomFeatures(common::Rng& rng, size_t rows, size_t cols,
                      ValueKind kind) {
  static constexpr double kTieValues[] = {-1.5, -0.5, -0.0, 0.5, 0.5, 2.0};
  Matrix features(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (kind != ValueKind::kDense && rng.UniformDouble() < 0.8) continue;
      switch (kind) {
        case ValueKind::kCounts:
          features.At(r, c) = static_cast<double>(1 + rng.Poisson(1.5));
          break;
        case ValueKind::kReal:
        case ValueKind::kDense:
          features.At(r, c) = rng.Normal(0.2, 1.0);
          break;
        case ValueKind::kTies:
          features.At(r, c) = kTieValues[rng.UniformUint64(6)];
          break;
      }
    }
  }
  if (cols >= 3) {
    const double constant = kind == ValueKind::kCounts ? 3.0 : -0.25;
    for (size_t r = 0; r < rows; ++r) {
      features.At(r, cols - 1) = constant;
      features.At(r, cols - 2) = 0.0;
    }
  }
  return features;
}

// Labels that mostly follow the features, so trees grow deep, with
// some noise so leaves stay impure.
std::vector<int32_t> RandomLabels(common::Rng& rng, const Matrix& features,
                                  int32_t num_classes) {
  std::vector<int32_t> labels(features.rows());
  for (size_t r = 0; r < features.rows(); ++r) {
    double key = 0.0;
    for (size_t c = 0; c < features.cols(); ++c) {
      key += features.At(r, c) * static_cast<double>(c + 1);
    }
    int64_t label = static_cast<int64_t>(std::floor(std::fabs(key) * 1.7));
    if (rng.UniformDouble() < 0.2) {
      label = static_cast<int64_t>(rng.NextUint64() >> 1);
    }
    labels[r] = static_cast<int32_t>(label % num_classes);
  }
  return labels;
}

// Every distinct value of every feature, and the midpoints between
// consecutive distinct values, planted into copies of a few rows.
std::vector<std::vector<double>> Probes(const Matrix& features) {
  std::vector<std::vector<double>> probes;
  for (size_t f = 0; f < features.cols(); ++f) {
    std::set<double> distinct;
    for (size_t r = 0; r < features.rows(); ++r) {
      distinct.insert(features.At(r, f));
    }
    std::vector<double> values(distinct.begin(), distinct.end());
    for (size_t i = 0; i + 1 < distinct.size(); ++i) {
      values.push_back(0.5 * (values[i] + values[i + 1]));
    }
    for (size_t base : {size_t{0}, features.rows() / 2, features.rows() - 1}) {
      for (double value : values) {
        std::vector<double> probe(features.Row(base).begin(),
                                  features.Row(base).end());
        probe[f] = value;
        probes.push_back(std::move(probe));
      }
    }
  }
  return probes;
}

TEST(DecisionTreeTest, GrowsTheSameTreeAsPerNodeSortCart) {
  common::Rng rng(20160516);
  const ValueKind kinds[] = {ValueKind::kCounts, ValueKind::kReal,
                             ValueKind::kTies, ValueKind::kDense};
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE(trial);
    const ValueKind kind = kinds[trial % 4];
    const size_t rows = 1 + rng.UniformUint64(300);
    const size_t cols = 1 + rng.UniformUint64(12);
    const int32_t num_classes = static_cast<int32_t>(1 + rng.UniformUint64(20));
    Matrix features = RandomFeatures(rng, rows, cols, kind);
    std::vector<int32_t> labels = RandomLabels(rng, features, num_classes);
    if (trial % 3 == 2) {
      // Bootstrap resample, as the random forest feeds its trees.
      std::vector<size_t> row_ids(rows);
      std::vector<int32_t> boot_labels(rows);
      for (size_t i = 0; i < rows; ++i) {
        row_ids[i] = static_cast<size_t>(rng.UniformUint64(rows));
        boot_labels[i] = labels[row_ids[i]];
      }
      features = features.SelectRows(row_ids);
      labels = std::move(boot_labels);
    }
    DecisionTreeOptions options;
    options.max_depth = static_cast<int32_t>(rng.UniformUint64(13));
    options.min_samples_leaf = static_cast<int32_t>(1 + rng.UniformUint64(5));
    options.min_samples_split = static_cast<int32_t>(2 + rng.UniformUint64(5));

    ReferenceCart reference(options);
    reference.Fit(features, labels, num_classes);
    DecisionTreeClassifier tree(options);
    ASSERT_TRUE(tree.Fit(features, labels, num_classes).ok());

    ASSERT_EQ(tree.num_nodes(), reference.num_nodes());
    ASSERT_EQ(tree.depth(), reference.depth());
    for (size_t r = 0; r < features.rows(); ++r) {
      ASSERT_EQ(tree.Predict(features.Row(r)),
                reference.Predict(features.Row(r)))
          << "training row " << r;
    }
    for (const std::vector<double>& probe : Probes(features)) {
      ASSERT_EQ(tree.Predict(probe), reference.Predict(probe));
    }
  }
}

TEST(DecisionTreeTest, LearnsAxisAlignedSplit) {
  Matrix features(6, 1);
  std::vector<int32_t> labels{0, 0, 0, 1, 1, 1};
  for (size_t i = 0; i < 6; ++i) {
    features.At(i, 0) = static_cast<double>(i);
  }
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(features, labels, 2).ok());
  EXPECT_EQ(tree.Predict(std::vector<double>{0.5}), 0);
  EXPECT_EQ(tree.Predict(std::vector<double>{4.5}), 1);
  EXPECT_EQ(tree.Predict(std::vector<double>{2.4}), 0);
  EXPECT_EQ(tree.Predict(std::vector<double>{2.6}), 1);
}

TEST(DecisionTreeTest, FitsAsymmetricXorWithDepthTwo) {
  // XOR labels with unequal corner multiplicities so the greedy first
  // split has strictly positive Gini gain (pure XOR famously has zero
  // first-level gain for any axis-aligned split).
  struct Corner {
    double x;
    double y;
    int copies;
  };
  const Corner corners[] = {
      {0.0, 0.0, 4}, {1.0, 1.0, 2}, {0.0, 1.0, 2}, {1.0, 0.0, 2}};
  size_t total = 0;
  for (const Corner& corner : corners) {
    total += static_cast<size_t>(corner.copies);
  }
  Matrix features(total, 2);
  std::vector<int32_t> labels;
  size_t row = 0;
  for (const Corner& corner : corners) {
    for (int repeat = 0; repeat < corner.copies; ++repeat) {
      features.At(row, 0) = corner.x;
      features.At(row, 1) = corner.y;
      labels.push_back(static_cast<int32_t>(corner.x) ^
                       static_cast<int32_t>(corner.y));
      ++row;
    }
  }
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(features, labels, 2).ok());
  std::vector<int32_t> predicted = test::PredictRows(tree, features);
  EXPECT_EQ(predicted, labels);
  EXPECT_GE(tree.depth(), 2);
}

TEST(DecisionTreeTest, PureNodeBecomesLeaf) {
  Matrix features(5, 2, 1.0);
  std::vector<int32_t> labels{1, 1, 1, 1, 1};
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(features, labels, 2).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.Predict(std::vector<double>{9.0, 9.0}), 1);
}

TEST(DecisionTreeTest, MaxDepthZeroGivesMajorityVote) {
  Matrix features(5, 1);
  for (size_t i = 0; i < 5; ++i) features.At(i, 0) = static_cast<double>(i);
  std::vector<int32_t> labels{0, 0, 0, 1, 1};
  DecisionTreeOptions options;
  options.max_depth = 0;
  DecisionTreeClassifier tree(options);
  ASSERT_TRUE(tree.Fit(features, labels, 2).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  for (double x : {0.0, 4.0}) {
    EXPECT_EQ(tree.Predict(std::vector<double>{x}), 0);
  }
}

TEST(DecisionTreeTest, MinSamplesLeafPreventsTinySplits) {
  Matrix features(10, 1);
  std::vector<int32_t> labels;
  for (size_t i = 0; i < 10; ++i) {
    features.At(i, 0) = static_cast<double>(i);
    labels.push_back(i == 9 ? 1 : 0);  // One outlier.
  }
  DecisionTreeOptions options;
  options.min_samples_leaf = 3;
  DecisionTreeClassifier tree(options);
  ASSERT_TRUE(tree.Fit(features, labels, 2).ok());
  // Splitting off the single outlier is forbidden; any allowed split
  // leaves the right child majority-0, so everything predicts 0.
  EXPECT_EQ(tree.Predict(std::vector<double>{9.0}), 0);
}

TEST(DecisionTreeTest, GeneralizesOnBlobs) {
  test::Blobs train = test::MakeBlobs(
      {{0.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}}, 50, 0.7, 51);
  test::Blobs test_set = test::MakeBlobs(
      {{0.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}}, 30, 0.7, 52);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(train.points, train.labels, 3).ok());
  std::vector<int32_t> predicted = test::PredictRows(tree, test_set.points);
  int correct = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] == test_set.labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / predicted.size(), 0.95);
}

TEST(DecisionTreeTest, RefitReplacesModel) {
  Matrix features(4, 1);
  for (size_t i = 0; i < 4; ++i) features.At(i, 0) = static_cast<double>(i);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(features, {0, 0, 1, 1}, 2).ok());
  EXPECT_EQ(tree.Predict(std::vector<double>{3.0}), 1);
  ASSERT_TRUE(tree.Fit(features, {1, 1, 0, 0}, 2).ok());
  EXPECT_EQ(tree.Predict(std::vector<double>{3.0}), 0);
}

TEST(DecisionTreeTest, RejectsInvalidInput) {
  Matrix features(3, 1, 1.0);
  DecisionTreeClassifier tree;
  EXPECT_FALSE(tree.Fit(features, {0, 1}, 2).ok());         // Size mismatch.
  EXPECT_FALSE(tree.Fit(features, {0, 1, 5}, 2).ok());      // Label range.
  EXPECT_FALSE(tree.Fit(features, {0, 1, 1}, 0).ok());      // num_classes.
  EXPECT_FALSE(tree.Fit(Matrix(), {}, 2).ok());             // Empty.
  DecisionTreeOptions bad;
  bad.min_samples_split = 1;
  DecisionTreeClassifier bad_tree(bad);
  EXPECT_FALSE(bad_tree.Fit(features, {0, 1, 1}, 2).ok());
}

}  // namespace
}  // namespace ml
}  // namespace adahealth
