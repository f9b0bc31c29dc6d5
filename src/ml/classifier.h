// Abstract classifier interface shared by the decision tree and naive
// Bayes models; lets the cluster-robustness assessor and the end-goal
// engine swap models (ablation A3 in DESIGN.md).
#ifndef ADAHEALTH_ML_CLASSIFIER_H_
#define ADAHEALTH_ML_CLASSIFIER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "transform/matrix.h"

namespace adahealth {
namespace ml {

/// Supervised multi-class classifier over dense feature vectors.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on rows of `features` with labels in [0, num_classes).
  /// Returns INVALID_ARGUMENT on shape/label errors. May be called
  /// again to retrain from scratch.
  [[nodiscard]] virtual common::Status Fit(
      const transform::Matrix& features, const std::vector<int32_t>& labels,
      int32_t num_classes) = 0;

  /// Predicts the label of one feature vector. Requires a prior
  /// successful Fit with matching dimensionality.
  virtual int32_t Predict(std::span<const double> features) const = 0;
};

/// Factory producing fresh untrained classifiers (one per CV fold).
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

}  // namespace ml
}  // namespace adahealth

#endif  // ADAHEALTH_ML_CLASSIFIER_H_
