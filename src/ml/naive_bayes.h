// Gaussian naive Bayes classifier — the alternative cluster-robustness
// assessor used in ablation A3 and the default model of the end-goal
// interest classifier (small sample sizes favor its strong bias).
#ifndef ADAHEALTH_ML_NAIVE_BAYES_H_
#define ADAHEALTH_ML_NAIVE_BAYES_H_

#include "ml/classifier.h"

namespace adahealth {
namespace ml {

/// Gaussian naive Bayes with class priors estimated from frequencies.
class GaussianNaiveBayes final : public Classifier {
 public:
  [[nodiscard]] common::Status Fit(const transform::Matrix& features,
                     const std::vector<int32_t>& labels,
                     int32_t num_classes) override;

  int32_t Predict(std::span<const double> features) const override;

 private:
  int32_t num_classes_ = 0;
  size_t num_features_ = 0;
  std::vector<double> log_priors_;          // Per class.
  std::vector<std::vector<double>> means_;  // [class][feature].
  std::vector<std::vector<double>> variances_;
};

}  // namespace ml
}  // namespace adahealth

#endif  // ADAHEALTH_ML_NAIVE_BAYES_H_
