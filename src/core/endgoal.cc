#include "core/endgoal.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "ml/decision_tree.h"
#include "transform/matrix.h"

namespace adahealth {
namespace core {

using common::Json;
using common::Status;
using common::StatusOr;

std::vector<ViableGoal> IdentifyViableEndGoals(
    const stats::MetaFeatures& features) {
  std::vector<ViableGoal> goals;
  // Patient grouping: needs a cohort large enough to cluster.
  if (features.num_patients >= 50 && features.num_exam_types >= 4) {
    goals.push_back({EndGoal::kPatientGrouping,
                     "cohort large enough for clustering (" +
                         std::to_string(features.num_patients) +
                         " patients)"});
  }
  // Common exam patterns: needs co-occurring exams per patient.
  if (features.mean_records_per_patient >= 2.0 &&
      features.num_patients >= 30) {
    goals.push_back({EndGoal::kCommonExamPatterns,
                     common::StrFormat(
                         "enough co-occurrence (%.1f records/patient)",
                         features.mean_records_per_patient)});
  }
  // Compliance/outcome: needs repeated observations per patient.
  if (features.mean_records_per_patient >= 5.0) {
    goals.push_back({EndGoal::kComplianceOutcome,
                     "longitudinal histories support compliance analysis"});
  }
  // Interaction discovery: needs both breadth and depth.
  if (features.mean_records_per_patient >= 5.0 &&
      features.num_exam_types >= 20 && features.num_patients >= 100) {
    goals.push_back({EndGoal::kInteractionDiscovery,
                     "breadth and depth admit cross-exam association "
                     "mining"});
  }
  // Resource planning: needs volume and a skewed demand profile.
  if (features.num_records >= 1000 && features.exam_frequency_gini >= 0.3) {
    goals.push_back({EndGoal::kResourcePlanning,
                     common::StrFormat(
                         "concentrated demand (Gini %.2f) over %lld records",
                         features.exam_frequency_gini,
                         static_cast<long long>(features.num_records))});
  }
  return goals;
}

kdb::Document MakeGoalFeedbackDocument(const std::string& dataset_id,
                                       const std::string& user,
                                       const stats::MetaFeatures& features,
                                       EndGoal goal, Interest interest) {
  kdb::Document document;
  document.Set("dataset_id", Json(dataset_id));
  document.Set("user", Json(user));
  document.Set("features", features.ToJson());
  document.Set("goal", Json(std::string(EndGoalName(goal))));
  document.Set("interest", Json(std::string(InterestName(interest))));
  return document;
}

EndGoalEngine::EndGoalEngine(ml::ClassifierFactory factory)
    : factory_(std::move(factory)) {
  if (!factory_) {
    factory_ = [] {
      ml::DecisionTreeOptions options;
      options.max_depth = 8;
      options.min_samples_leaf = 2;
      return std::make_unique<ml::DecisionTreeClassifier>(options);
    };
  }
}

std::vector<double> EndGoalEngine::EncodeExample(
    const stats::MetaFeatures& features, EndGoal goal) {
  std::vector<double> example = features.ToVector();
  for (int32_t g = 0; g < kNumEndGoals; ++g) {
    example.push_back(g == static_cast<int32_t>(goal) ? 1.0 : 0.0);
  }
  return example;
}

Status EndGoalEngine::TrainFromFeedback(const kdb::Collection& feedback) {
  std::vector<std::vector<double>> rows;
  std::vector<int32_t> labels;
  for (const kdb::Document& document : feedback.documents()) {
    const Json* features_json = document.Get("features");
    const Json* goal_json = document.Get("goal");
    const Json* interest_json = document.Get("interest");
    if (features_json == nullptr || goal_json == nullptr ||
        interest_json == nullptr || !goal_json->is_string() ||
        !interest_json->is_string()) {
      continue;  // Skip foreign documents.
    }
    auto features = stats::MetaFeatures::FromJson(*features_json);
    auto goal = EndGoalFromName(goal_json->AsString());
    auto interest = InterestFromName(interest_json->AsString());
    if (!features.ok() || !goal.ok() || !interest.ok()) continue;
    rows.push_back(EncodeExample(features.value(), goal.value()));
    labels.push_back(static_cast<int32_t>(interest.value()));
  }
  if (rows.size() < 2) {
    return common::FailedPreconditionError(
        "need at least two feedback records to train");
  }
  std::set<int32_t> distinct(labels.begin(), labels.end());
  if (distinct.size() < 2) {
    return common::FailedPreconditionError(
        "feedback contains a single interest label; nothing to learn");
  }

  transform::Matrix features(rows.size(), rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::span<double> row = features.Row(i);
    std::copy(rows[i].begin(), rows[i].end(), row.begin());
  }
  model_ = factory_();
  Status fit = model_->Fit(features, labels, kNumInterestLevels);
  if (!fit.ok()) return fit;
  trained_ = true;
  return common::OkStatus();
}

StatusOr<Interest> EndGoalEngine::PredictInterest(
    const stats::MetaFeatures& features, EndGoal goal) const {
  if (!trained_) {
    return common::FailedPreconditionError("interest model not trained");
  }
  std::vector<double> example = EncodeExample(features, goal);
  int32_t label = model_->Predict(example);
  return static_cast<Interest>(label);
}

StatusOr<std::vector<GoalRecommendation>> EndGoalEngine::RecommendGoals(
    const stats::MetaFeatures& features) const {
  std::vector<GoalRecommendation> recommendations;
  for (const ViableGoal& viable : IdentifyViableEndGoals(features)) {
    GoalRecommendation recommendation;
    recommendation.viable = viable;
    if (trained_) {
      auto interest = PredictInterest(features, viable.goal);
      if (!interest.ok()) return interest.status();
      recommendation.predicted_interest = interest.value();
    }
    recommendations.push_back(std::move(recommendation));
  }
  std::stable_sort(recommendations.begin(), recommendations.end(),
                   [](const GoalRecommendation& a,
                      const GoalRecommendation& b) {
                     return static_cast<int32_t>(a.predicted_interest) >
                            static_cast<int32_t>(b.predicted_interest);
                   });
  return recommendations;
}

}  // namespace core
}  // namespace adahealth
