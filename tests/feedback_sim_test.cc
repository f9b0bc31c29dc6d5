#include "core/feedback_sim.h"

#include <set>
#include <utility>

#include <gtest/gtest.h>
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

TEST(FeedbackSimTest, GoalAffinityDrivesLabels) {
  PersonaConfig persona = HospitalAdministratorPersona();
  persona.noise_stddev = 0.0;
  FeedbackSimulator simulator(persona, 2);
  stats::MetaFeatures features = CohortFeatures();
  // The administrator persona has far higher affinity for resource
  // planning than for interaction discovery.
  double planning =
      simulator.GoalUtility(features, EndGoal::kResourcePlanning);
  double interactions =
      simulator.GoalUtility(features, EndGoal::kInteractionDiscovery);
  EXPECT_GT(planning, interactions);
}

TEST(FeedbackSimTest, UtilityRespondsToDatasetShape) {
  PersonaConfig persona = DiabetologistPersona();
  persona.noise_stddev = 0.0;
  FeedbackSimulator simulator(persona, 3);
  stats::MetaFeatures sparse = CohortFeatures();
  stats::MetaFeatures dense = sparse;
  dense.density = 0.95;
  // Sparser data -> clustering more interesting (per the oracle).
  EXPECT_GT(simulator.GoalUtility(sparse, EndGoal::kPatientGrouping),
            simulator.GoalUtility(dense, EndGoal::kPatientGrouping));
}

TEST(FeedbackSimTest, DeterministicForSeed) {
  stats::MetaFeatures features = CohortFeatures();
  FeedbackSimulator a(ClinicalResearcherPersona(), 7);
  FeedbackSimulator b(ClinicalResearcherPersona(), 7);
  for (int32_t g = 0; g < kNumEndGoals; ++g) {
    EXPECT_EQ(a.LabelGoal(features, static_cast<EndGoal>(g)),
              b.LabelGoal(features, static_cast<EndGoal>(g)));
  }
}

TEST(FeedbackSimTest, NoiseProducesLabelVariation) {
  stats::MetaFeatures features = CohortFeatures();
  PersonaConfig persona = DiabetologistPersona();
  persona.noise_stddev = 1.0;
  FeedbackSimulator simulator(persona, 11);
  std::set<Interest> labels;
  for (int i = 0; i < 100; ++i) {
    labels.insert(simulator.LabelGoal(features, EndGoal::kPatientGrouping));
  }
  EXPECT_GT(labels.size(), 1u);
}

TEST(FeedbackSimTest, ThresholdsOrderLabels) {
  PersonaConfig persona;
  persona.noise_stddev = 0.0;
  persona.high_threshold = 0.8;
  persona.medium_threshold = 0.4;
  // A default MetaFeatures has no records per patient, so the
  // compliance utility is the bare goal affinity and the affinity alone
  // walks the thresholds.
  const stats::MetaFeatures features;
  const std::pair<double, Interest> cases[] = {
      {0.2, Interest::kLow}, {0.6, Interest::kMedium}, {0.9, Interest::kHigh}};
  for (const auto& [affinity, expected] : cases) {
    persona.goal_affinity[static_cast<size_t>(EndGoal::kComplianceOutcome)] =
        affinity;
    FeedbackSimulator simulator(persona, 13);
    EXPECT_EQ(simulator.LabelGoal(features, EndGoal::kComplianceOutcome),
              expected);
  }
}

TEST(FeedbackSimTest, BuiltInPersonasAreDistinct) {
  EXPECT_NE(DiabetologistPersona().name,
            HospitalAdministratorPersona().name);
  EXPECT_NE(DiabetologistPersona().goal_affinity,
            HospitalAdministratorPersona().goal_affinity);
}

}  // namespace
}  // namespace core
}  // namespace adahealth
