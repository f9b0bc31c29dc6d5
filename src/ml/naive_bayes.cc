#include "ml/naive_bayes.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace adahealth {
namespace ml {

using common::Status;
using transform::Matrix;

namespace {

/// Variance floor added per feature (scaled by the largest feature
/// variance), preventing degenerate likelihoods for constant features.
constexpr double kVarianceSmoothing = 1e-9;

}  // namespace

Status GaussianNaiveBayes::Fit(const Matrix& features,
                               const std::vector<int32_t>& labels,
                               int32_t num_classes) {
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

  num_classes_ = num_classes;
  num_features_ = features.cols();
  const size_t k = static_cast<size_t>(num_classes);
  std::vector<int64_t> counts(k, 0);
  means_.assign(k, std::vector<double>(num_features_, 0.0));
  variances_.assign(k, std::vector<double>(num_features_, 0.0));

  for (size_t i = 0; i < features.rows(); ++i) {
    size_t c = static_cast<size_t>(labels[i]);
    ++counts[c];
    std::span<const double> row = features.Row(i);
    for (size_t f = 0; f < num_features_; ++f) means_[c][f] += row[f];
  }
  for (size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    for (size_t f = 0; f < num_features_; ++f) {
      means_[c][f] /= static_cast<double>(counts[c]);
    }
  }
  for (size_t i = 0; i < features.rows(); ++i) {
    size_t c = static_cast<size_t>(labels[i]);
    std::span<const double> row = features.Row(i);
    for (size_t f = 0; f < num_features_; ++f) {
      double d = row[f] - means_[c][f];
      variances_[c][f] += d * d;
    }
  }
  // Global variance scale for smoothing (sklearn-style: epsilon
  // proportional to the largest feature variance).
  double max_feature_variance = 0.0;
  {
    std::vector<double> global_mean(num_features_, 0.0);
    for (size_t i = 0; i < features.rows(); ++i) {
      std::span<const double> row = features.Row(i);
      for (size_t f = 0; f < num_features_; ++f) global_mean[f] += row[f];
    }
    for (double& m : global_mean) m /= static_cast<double>(features.rows());
    for (size_t f = 0; f < num_features_; ++f) {
      double var = 0.0;
      for (size_t i = 0; i < features.rows(); ++i) {
        double d = features.At(i, f) - global_mean[f];
        var += d * d;
      }
      var /= static_cast<double>(features.rows());
      max_feature_variance = std::max(max_feature_variance, var);
    }
  }
  const double epsilon =
      kVarianceSmoothing * std::max(max_feature_variance, 1.0);

  log_priors_.assign(k, -std::numeric_limits<double>::infinity());
  for (size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    for (size_t f = 0; f < num_features_; ++f) {
      variances_[c][f] =
          variances_[c][f] / static_cast<double>(counts[c]) + epsilon;
    }
    log_priors_[c] = std::log(static_cast<double>(counts[c]) /
                              static_cast<double>(features.rows()));
  }
  return common::OkStatus();
}

int32_t GaussianNaiveBayes::Predict(std::span<const double> features) const {
  ADA_CHECK_GT(num_classes_, 0);
  ADA_CHECK_EQ(features.size(), num_features_);
  double best = -std::numeric_limits<double>::infinity();
  int32_t best_class = 0;
  for (int32_t c = 0; c < num_classes_; ++c) {
    size_t ci = static_cast<size_t>(c);
    if (std::isinf(log_priors_[ci])) continue;  // Unseen class.
    double log_posterior = log_priors_[ci];
    for (size_t f = 0; f < num_features_; ++f) {
      double var = variances_[ci][f];
      double d = features[f] - means_[ci][f];
      log_posterior -= 0.5 * (std::log(2.0 * M_PI * var) + d * d / var);
    }
    if (log_posterior > best) {
      best = log_posterior;
      best_class = c;
    }
  }
  return best_class;
}

}  // namespace ml
}  // namespace adahealth
