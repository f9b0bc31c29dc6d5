#include "core/endgoal.h"

#include <gtest/gtest.h>
#include "core/feedback_sim.h"
#include "dataset/synthetic_cohort.h"

namespace adahealth {
namespace core {
namespace {

stats::MetaFeatures CohortFeatures() {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  EXPECT_TRUE(cohort.ok());
  return stats::ComputeMetaFeatures(cohort->log);
}

TEST(ViableGoalsTest, RichCohortAdmitsAllGoals) {
  std::vector<ViableGoal> goals = IdentifyViableEndGoals(CohortFeatures());
  EXPECT_EQ(goals.size(), static_cast<size_t>(kNumEndGoals));
  for (const ViableGoal& goal : goals) {
    EXPECT_FALSE(goal.rationale.empty());
  }
}

TEST(ViableGoalsTest, TinyDatasetAdmitsFewGoals) {
  stats::MetaFeatures features;
  features.num_patients = 10;
  features.num_exam_types = 3;
  features.num_records = 15;
  features.mean_records_per_patient = 1.5;
  features.exam_frequency_gini = 0.1;
  std::vector<ViableGoal> goals = IdentifyViableEndGoals(features);
  EXPECT_TRUE(goals.empty());
}

TEST(ViableGoalsTest, RulesGateOnSpecificStatistics) {
  stats::MetaFeatures features = CohortFeatures();
  features.mean_records_per_patient = 1.0;  // Kills co-occurrence goals.
  std::vector<ViableGoal> goals = IdentifyViableEndGoals(features);
  for (const ViableGoal& goal : goals) {
    EXPECT_NE(goal.goal, EndGoal::kCommonExamPatterns);
    EXPECT_NE(goal.goal, EndGoal::kComplianceOutcome);
    EXPECT_NE(goal.goal, EndGoal::kInteractionDiscovery);
  }
}

TEST(FeedbackDocumentTest, SchemaFields) {
  stats::MetaFeatures features = CohortFeatures();
  kdb::Document document = MakeGoalFeedbackDocument(
      "d1", "dr_rossi", features, EndGoal::kPatientGrouping,
      Interest::kHigh);
  EXPECT_EQ(document.Get("dataset_id")->AsString(), "d1");
  EXPECT_EQ(document.Get("user")->AsString(), "dr_rossi");
  EXPECT_EQ(document.Get("goal")->AsString(), "patient_grouping");
  EXPECT_EQ(document.Get("interest")->AsString(), "high");
  EXPECT_NE(document.Get("features.num_patients"), nullptr);
}

TEST(EndGoalEngineTest, UntrainedPredictFails) {
  EndGoalEngine engine;
  EXPECT_FALSE(
      engine.PredictInterest(CohortFeatures(), EndGoal::kPatientGrouping)
          .ok());
}

TEST(EndGoalEngineTest, UntrainedRecommendationsDefaultToMedium) {
  EndGoalEngine engine;
  auto recommendations = engine.RecommendGoals(CohortFeatures());
  ASSERT_TRUE(recommendations.ok());
  for (const GoalRecommendation& recommendation : recommendations.value()) {
    EXPECT_EQ(recommendation.predicted_interest, Interest::kMedium);
  }
}

TEST(EndGoalEngineTest, TrainingRequiresLabelDiversity) {
  kdb::Collection feedback("feedback");
  stats::MetaFeatures features = CohortFeatures();
  EndGoalEngine engine;
  EXPECT_FALSE(engine.TrainFromFeedback(feedback).ok());  // Empty.
  feedback.Insert(MakeGoalFeedbackDocument(
      "d", "u", features, EndGoal::kPatientGrouping, Interest::kHigh));
  feedback.Insert(MakeGoalFeedbackDocument(
      "d", "u", features, EndGoal::kResourcePlanning, Interest::kHigh));
  EXPECT_FALSE(engine.TrainFromFeedback(feedback).ok());  // Single label.
  feedback.Insert(MakeGoalFeedbackDocument(
      "d", "u", features, EndGoal::kResourcePlanning, Interest::kLow));
  EXPECT_TRUE(engine.TrainFromFeedback(feedback).ok());
  EXPECT_TRUE(
      engine.PredictInterest(features, EndGoal::kPatientGrouping).ok());
}

TEST(EndGoalEngineTest, LearnsPersonaPreferences) {
  // Generate feedback from a persona oracle over varied datasets, then
  // check that predictions match the persona's noise-free labels.
  PersonaConfig persona = HospitalAdministratorPersona();
  persona.noise_stddev = 0.05;
  FeedbackSimulator oracle(persona, 17);
  kdb::Collection feedback("feedback");
  common::Rng rng(19);

  std::vector<stats::MetaFeatures> datasets;
  for (int d = 0; d < 40; ++d) {
    dataset::CohortConfig config = dataset::TestScaleConfig();
    config.num_patients = 150 + static_cast<int32_t>(rng.UniformInt(0, 250));
    config.mean_records_per_patient = rng.UniformDouble(3.0, 18.0);
    config.zipf_exponent = rng.UniformDouble(0.3, 1.4);
    config.seed = rng.NextUint64();
    auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
    ASSERT_TRUE(cohort.ok());
    datasets.push_back(stats::ComputeMetaFeatures(cohort->log));
  }
  for (const auto& features : datasets) {
    for (int32_t g = 0; g < kNumEndGoals; ++g) {
      EndGoal goal = static_cast<EndGoal>(g);
      feedback.Insert(MakeGoalFeedbackDocument(
          "d", persona.name, features, goal,
          oracle.LabelGoal(features, goal)));
    }
  }

  EndGoalEngine engine;
  ASSERT_TRUE(engine.TrainFromFeedback(feedback).ok());

  // Evaluate on fresh datasets against noise-free persona utilities.
  PersonaConfig clean = persona;
  clean.noise_stddev = 0.0;
  FeedbackSimulator truth(clean, 23);
  int correct = 0;
  int total = 0;
  for (int d = 0; d < 10; ++d) {
    dataset::CohortConfig config = dataset::TestScaleConfig();
    config.num_patients = 200 + 20 * d;
    config.mean_records_per_patient = 4.0 + d;
    config.seed = 1000 + static_cast<uint64_t>(d);
    auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
    ASSERT_TRUE(cohort.ok());
    stats::MetaFeatures features = stats::ComputeMetaFeatures(cohort->log);
    for (int32_t g = 0; g < kNumEndGoals; ++g) {
      EndGoal goal = static_cast<EndGoal>(g);
      auto predicted = engine.PredictInterest(features, goal);
      ASSERT_TRUE(predicted.ok());
      if (predicted.value() == truth.LabelGoal(features, goal)) ++correct;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.6);
}

TEST(EndGoalEngineTest, RecommendationsSortedByInterest) {
  stats::MetaFeatures features = CohortFeatures();
  kdb::Collection feedback("feedback");
  PersonaConfig persona = HospitalAdministratorPersona();
  persona.noise_stddev = 0.0;
  FeedbackSimulator oracle(persona, 29);
  for (int repeat = 0; repeat < 10; ++repeat) {
    for (int32_t g = 0; g < kNumEndGoals; ++g) {
      EndGoal goal = static_cast<EndGoal>(g);
      feedback.Insert(MakeGoalFeedbackDocument(
          "d", persona.name, features, goal,
          oracle.LabelGoal(features, goal)));
    }
  }
  EndGoalEngine engine;
  ASSERT_TRUE(engine.TrainFromFeedback(feedback).ok());
  auto recommendations = engine.RecommendGoals(features);
  ASSERT_TRUE(recommendations.ok());
  for (size_t i = 1; i < recommendations->size(); ++i) {
    EXPECT_GE(static_cast<int32_t>(
                  (*recommendations)[i - 1].predicted_interest),
              static_cast<int32_t>(
                  (*recommendations)[i].predicted_interest));
  }
}

TEST(EndGoalEngineTest, ForeignDocumentsSkipped) {
  kdb::Collection feedback("feedback");
  kdb::Document junk;
  junk.Set("unrelated", common::Json("data"));
  feedback.Insert(std::move(junk));
  stats::MetaFeatures features = CohortFeatures();
  feedback.Insert(MakeGoalFeedbackDocument(
      "d", "u", features, EndGoal::kPatientGrouping, Interest::kHigh));
  feedback.Insert(MakeGoalFeedbackDocument(
      "d", "u", features, EndGoal::kResourcePlanning, Interest::kLow));
  EndGoalEngine engine;
  ASSERT_TRUE(engine.TrainFromFeedback(feedback).ok());
  EXPECT_TRUE(
      engine.PredictInterest(features, EndGoal::kPatientGrouping).ok());
}

TEST(EncodeExampleTest, OneHotGoalSuffix) {
  stats::MetaFeatures features = CohortFeatures();
  std::vector<double> example =
      EndGoalEngine::EncodeExample(features, EndGoal::kResourcePlanning);
  EXPECT_EQ(example.size(),
            features.ToVector().size() +
                static_cast<size_t>(kNumEndGoals));
  // Exactly one hot goal bit, at position 4.
  double hot_sum = 0.0;
  for (size_t i = example.size() - kNumEndGoals; i < example.size(); ++i) {
    hot_sum += example[i];
  }
  EXPECT_DOUBLE_EQ(hot_sum, 1.0);
  EXPECT_DOUBLE_EQ(example.back(), 1.0);
}

}  // namespace
}  // namespace core
}  // namespace adahealth
