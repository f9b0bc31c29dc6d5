#include "ml/decision_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "ml/metrics.h"

namespace adahealth {
namespace ml {

using common::Status;
using transform::Matrix;

struct DecisionTreeClassifier::Presort {
  /// One nonzero feature value of a training row.
  struct Entry {
    double value;
    uint32_t row;
    int32_t label;
  };

  /// Training rows; every node owns a contiguous range.
  std::vector<size_t> sample_ids;
  /// Nonzero entries of every feature, in feature order; within a
  /// feature every node owns a contiguous, value-sorted segment.
  std::vector<Entry> entries;
  std::vector<size_t> feature_start;
  /// Scratch reused by every node.
  std::vector<uint8_t> goes_left;
  std::vector<Entry> spill;
  std::vector<int64_t> counts;
  std::vector<int64_t> left_counts;
  std::vector<int64_t> right_counts;
  std::vector<int64_t> positive_counts;
};

Status DecisionTreeClassifier::Fit(const Matrix& features,
                                   const std::vector<int32_t>& labels,
                                   int32_t num_classes) {
  using Entry = Presort::Entry;
  if (features.rows() == 0 || features.cols() == 0) {
    return common::InvalidArgumentError("empty training data");
  }
  if (labels.size() != features.rows()) {
    return common::InvalidArgumentError("label count != sample count");
  }
  if (num_classes < 1) {
    return common::InvalidArgumentError("num_classes must be >= 1");
  }
  for (int32_t label : labels) {
    if (label < 0 || label >= num_classes) {
      return common::InvalidArgumentError("label outside [0, num_classes)");
    }
  }
  if (options_.max_depth < 0 || options_.min_samples_split < 2 ||
      options_.min_samples_leaf < 1) {
    return common::InvalidArgumentError("invalid decision-tree options");
  }
  if (features.rows() > std::numeric_limits<uint32_t>::max()) {
    return common::InvalidArgumentError("more than 2^32 - 1 training rows");
  }

  nodes_.clear();
  depth_ = 0;
  num_classes_ = num_classes;
  num_features_ = features.cols();

  // Presort once per Fit: feature f's nonzero entries, ascending by
  // value (ties by row), fill [feature_start[f], feature_start[f + 1]).
  const size_t rows = features.rows();
  Presort presort;
  presort.feature_start.assign(num_features_ + 1, 0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t f = 0; f < num_features_; ++f) {
      if (features.At(r, f) != 0.0) ++presort.feature_start[f + 1];
    }
  }
  std::partial_sum(presort.feature_start.begin(), presort.feature_start.end(),
                   presort.feature_start.begin());
  presort.entries.resize(presort.feature_start.back());
  std::vector<size_t> fill(presort.feature_start.begin(),
                           presort.feature_start.end() - 1);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t f = 0; f < num_features_; ++f) {
      const double value = features.At(r, f);
      if (value != 0.0) {
        presort.entries[fill[f]++] = {value, static_cast<uint32_t>(r),
                                      labels[r]};
      }
    }
  }
  for (size_t f = 0; f < num_features_; ++f) {
    std::sort(presort.entries.begin() +
                  static_cast<ptrdiff_t>(presort.feature_start[f]),
              presort.entries.begin() +
                  static_cast<ptrdiff_t>(presort.feature_start[f + 1]),
              [](const Entry& a, const Entry& b) {
                return a.value < b.value ||
                       (a.value == b.value && a.row < b.row);
              });
  }

  presort.sample_ids.resize(rows);
  std::iota(presort.sample_ids.begin(), presort.sample_ids.end(), 0u);
  presort.goes_left.resize(rows);
  const size_t classes = static_cast<size_t>(num_classes);
  presort.counts.resize(classes);
  presort.left_counts.resize(classes);
  presort.right_counts.resize(classes);
  presort.positive_counts.resize(classes);
  const std::span<const size_t> starts(presort.feature_start);
  BuildNode(features, labels, presort, 0, rows, starts.first(num_features_),
            starts.subspan(1), 0);
  return common::OkStatus();
}

int32_t DecisionTreeClassifier::BuildNode(
    const Matrix& features, const std::vector<int32_t>& labels,
    Presort& presort, size_t begin, size_t end,
    std::span<const size_t> segment_begin, std::span<const size_t> segment_end,
    int32_t depth) {
  using Entry = Presort::Entry;
  ADA_CHECK_LT(begin, end);
  depth_ = std::max(depth_, depth);
  const int32_t node_id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();

  // Class histogram and majority label of this node.
  std::vector<int64_t>& counts = presort.counts;
  std::fill(counts.begin(), counts.end(), 0);
  for (size_t i = begin; i < end; ++i) {
    ++counts[static_cast<size_t>(labels[presort.sample_ids[i]])];
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

  // Best split search. Each feature's node rows, in ascending value
  // order, are its negative entries, a run of zeros and its positive
  // entries; only the nonzero entries are stored. Candidate thresholds
  // sit between distinct consecutive values, features ascending then
  // values ascending, with a strict > on gain, so the first best split
  // in (feature, value) order wins. The zero run's class counts are
  // the node's minus the nonzero entries'.
  //
  // Each candidate is screened first: 1 - sum(c^2)/m^2 is the Gini
  // impurity of m rows, and both sums of squared counts are exact
  // integers kept up to date in O(1) per row, so the screen's gain
  // differs from GiniImpurity's by rounding only (~1e-14). A candidate
  // whose screened gain is kGainScreenMargin below the best so far
  // cannot beat it; every other one is scored with GiniImpurity, so
  // the chosen split and its gain are exactly those of an unscreened
  // scan.
  constexpr double kGainScreenMargin = 1e-9;
  double best_gain = kMinImpurityDecrease;
  int32_t best_feature = -1;
  double best_threshold = 0.0;

  std::vector<int64_t>& left_counts = presort.left_counts;
  std::vector<int64_t>& right_counts = presort.right_counts;
  std::vector<int64_t>& positive_counts = presort.positive_counts;
  int64_t left_n = 0;
  int64_t left_squares = 0;   // sum over classes of left_counts[c]^2
  int64_t right_squares = 0;  // the same for counts - left_counts
  size_t feature = 0;
  auto recount_squares = [&] {
    left_squares = 0;
    right_squares = 0;
    for (size_t c = 0; c < counts.size(); ++c) {
      const int64_t right = counts[c] - left_counts[c];
      left_squares += left_counts[c] * left_counts[c];
      right_squares += right * right;
    }
  };
  // Moves one row of class `label` from the right side to the left.
  auto add_left = [&](int32_t label) {
    int64_t& left = left_counts[static_cast<size_t>(label)];
    const int64_t right = counts[static_cast<size_t>(label)] - left;
    left_squares += 2 * left + 1;
    right_squares -= 2 * right - 1;
    ++left;
    ++left_n;
  };
  // Scores the threshold between `value` (the last of the left_n rows
  // counted in left_counts) and the next row's `next_value`.
  auto consider = [&](double value, double next_value) {
    if (value == next_value) return;
    const int64_t right_n = n - left_n;
    if (left_n < options_.min_samples_leaf ||
        right_n < options_.min_samples_leaf) {
      return;
    }
    const double left_rows = static_cast<double>(left_n);
    const double right_rows = static_cast<double>(right_n);
    const double screened =
        node_impurity -
        (left_rows - static_cast<double>(left_squares) / left_rows +
         right_rows - static_cast<double>(right_squares) / right_rows) /
            static_cast<double>(n);
    if (screened <= best_gain - kGainScreenMargin) return;
    // Weighted impurity of the split.
    double left_impurity = GiniImpurity(left_counts);
    for (size_t c = 0; c < counts.size(); ++c) {
      right_counts[c] = counts[c] - left_counts[c];
    }
    double right_impurity = GiniImpurity(right_counts);
    double weighted = (static_cast<double>(left_n) * left_impurity +
                       static_cast<double>(right_n) * right_impurity) /
                      static_cast<double>(n);
    double gain = node_impurity - weighted;
    if (gain > best_gain) {
      best_gain = gain;
      best_feature = static_cast<int32_t>(feature);
      best_threshold = 0.5 * (value + next_value);
    }
  };
  for (feature = 0; feature < num_features_; ++feature) {
    const Entry* entries = presort.entries.data() + segment_begin[feature];
    const size_t nonzeros = segment_end[feature] - segment_begin[feature];
    const size_t zeros = static_cast<size_t>(n) - nonzeros;
    if (nonzeros == 0 ||
        (zeros == 0 && entries[0].value == entries[nonzeros - 1].value)) {
      continue;  // Constant feature in this node.
    }
    const size_t negatives = static_cast<size_t>(
        std::partition_point(entries, entries + nonzeros,
                             [](const Entry& e) { return e.value < 0.0; }) -
        entries);
    std::fill(left_counts.begin(), left_counts.end(), 0);
    left_n = 0;
    recount_squares();
    for (size_t j = 0; j < negatives; ++j) {
      add_left(entries[j].label);
      if (j + 1 == negatives && zeros > 0) {
        consider(entries[j].value, 0.0);
      } else if (j + 1 < nonzeros) {
        consider(entries[j].value, entries[j + 1].value);
      }
    }
    if (zeros > 0) {
      std::fill(positive_counts.begin(), positive_counts.end(), 0);
      for (size_t j = negatives; j < nonzeros; ++j) {
        ++positive_counts[static_cast<size_t>(entries[j].label)];
      }
      for (size_t c = 0; c < counts.size(); ++c) {
        left_counts[c] = counts[c] - positive_counts[c];
      }
      left_n += static_cast<int64_t>(zeros);
      recount_squares();
      if (negatives < nonzeros) consider(0.0, entries[negatives].value);
    }
    for (size_t j = negatives; j + 1 < nonzeros; ++j) {
      add_left(entries[j].label);
      consider(entries[j].value, entries[j + 1].value);
    }
  }
  if (best_feature < 0) return node_id;

  // Partition the node's rows by the chosen split, then each feature's
  // segment the same way, stably, so both halves stay value-sorted.
  for (size_t i = begin; i < end; ++i) {
    const size_t id = presort.sample_ids[i];
    presort.goes_left[id] =
        features.At(id, static_cast<size_t>(best_feature)) <= best_threshold;
  }
  auto middle = std::partition(
      presort.sample_ids.begin() + static_cast<ptrdiff_t>(begin),
      presort.sample_ids.begin() + static_cast<ptrdiff_t>(end),
      [&](size_t id) { return presort.goes_left[id] != 0; });
  size_t split = static_cast<size_t>(middle - presort.sample_ids.begin());
  ADA_CHECK_GT(split, begin);
  ADA_CHECK_LT(split, end);

  std::vector<size_t> segment_split(num_features_);
  for (size_t f = 0; f < num_features_; ++f) {
    size_t out = segment_begin[f];
    presort.spill.clear();
    for (size_t i = segment_begin[f]; i < segment_end[f]; ++i) {
      const Entry& entry = presort.entries[i];
      if (presort.goes_left[entry.row] != 0) {
        presort.entries[out++] = entry;
      } else {
        presort.spill.push_back(entry);
      }
    }
    std::copy(presort.spill.begin(), presort.spill.end(),
              presort.entries.begin() + static_cast<ptrdiff_t>(out));
    segment_split[f] = out;
  }

  nodes_[static_cast<size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
  int32_t left = BuildNode(features, labels, presort, begin, split,
                           segment_begin, segment_split, depth + 1);
  int32_t right = BuildNode(features, labels, presort, split, end,
                            segment_split, segment_end, depth + 1);
  nodes_[static_cast<size_t>(node_id)].left = left;
  nodes_[static_cast<size_t>(node_id)].right = right;
  return node_id;
}

int32_t DecisionTreeClassifier::Predict(
    std::span<const double> features) const {
  ADA_CHECK(!nodes_.empty());
  ADA_CHECK_EQ(features.size(), num_features_);
  size_t current = 0;
  while (!nodes_[current].is_leaf()) {
    const Node& node = nodes_[current];
    current = static_cast<size_t>(
        features[static_cast<size_t>(node.feature)] <= node.threshold
            ? node.left
            : node.right);
  }
  return nodes_[current].label;
}

}  // namespace ml
}  // namespace adahealth
