#include "stats/meta_features.h"

#include <gtest/gtest.h>
#include "dataset/synthetic_cohort.h"

namespace adahealth {
namespace stats {
namespace {

dataset::ExamLog MakeTinyLog() {
  std::vector<dataset::Patient> patients{{0, 50, -1}, {1, 60, -1}};
  dataset::ExamDictionary dictionary;
  auto a = dictionary.Intern("a");
  auto b = dictionary.Intern("b");
  std::vector<dataset::ExamRecord> records{
      {0, a, 1}, {0, a, 2}, {0, b, 3}, {1, a, 4}};
  return dataset::ExamLog(std::move(patients), std::move(dictionary),
                          std::move(records));
}

TEST(MetaFeaturesTest, BasicCounts) {
  MetaFeatures features = ComputeMetaFeatures(MakeTinyLog());
  EXPECT_EQ(features.num_patients, 2);
  EXPECT_EQ(features.num_exam_types, 2);
  EXPECT_EQ(features.num_records, 4);
}

TEST(MetaFeaturesTest, Density) {
  // Non-zero cells: (0,a), (0,b), (1,a) -> 3 of 4.
  MetaFeatures features = ComputeMetaFeatures(MakeTinyLog());
  EXPECT_DOUBLE_EQ(features.density, 0.75);
}

TEST(MetaFeaturesTest, RecordsPerPatientStats) {
  MetaFeatures features = ComputeMetaFeatures(MakeTinyLog());
  EXPECT_DOUBLE_EQ(features.mean_records_per_patient, 2.0);
  EXPECT_DOUBLE_EQ(features.stddev_records_per_patient, 1.0);
}

TEST(MetaFeaturesTest, PatientCoverage) {
  // Exam a reaches 2/2 patients, exam b 1/2 -> mean 0.75.
  MetaFeatures features = ComputeMetaFeatures(MakeTinyLog());
  EXPECT_DOUBLE_EQ(features.mean_patient_coverage, 0.75);
}

TEST(MetaFeaturesTest, JsonRoundTrip) {
  MetaFeatures features = ComputeMetaFeatures(MakeTinyLog());
  auto restored = MetaFeatures::FromJson(features.ToJson());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_patients, features.num_patients);
  EXPECT_EQ(restored->num_records, features.num_records);
  EXPECT_DOUBLE_EQ(restored->density, features.density);
  EXPECT_DOUBLE_EQ(restored->exam_frequency_gini,
                   features.exam_frequency_gini);
  EXPECT_DOUBLE_EQ(restored->top20_coverage, features.top20_coverage);
}

TEST(MetaFeaturesTest, FromJsonRejectsNonObject) {
  EXPECT_FALSE(MetaFeatures::FromJson(common::Json(int64_t{1})).ok());
}

TEST(MetaFeaturesTest, FromJsonToleratesMissingFields) {
  auto restored = MetaFeatures::FromJson(common::Json(common::Json::Object{}));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_patients, 0);
}

TEST(MetaFeaturesTest, VectorMatchesNames) {
  // ToVector lays the named fields out in declaration order.
  MetaFeatures f = ComputeMetaFeatures(MakeTinyLog());
  EXPECT_EQ(f.ToVector(),
            (std::vector<double>{static_cast<double>(f.num_patients),
                                 static_cast<double>(f.num_exam_types),
                                 static_cast<double>(f.num_records),
                                 f.density, f.mean_records_per_patient,
                                 f.stddev_records_per_patient,
                                 f.exam_frequency_entropy,
                                 f.exam_frequency_gini, f.top20_coverage,
                                 f.top40_coverage, f.mean_patient_coverage}));
}

TEST(MetaFeaturesTest, SyntheticCohortIsSparse) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  MetaFeatures features = ComputeMetaFeatures(cohort->log);
  // The paper stresses inherent sparseness; the synthetic cohort must
  // reproduce it.
  EXPECT_LT(features.density, 0.35);
  EXPECT_GT(features.exam_frequency_gini, 0.3);
  EXPECT_GT(features.top20_coverage, features.density);
}

TEST(MetaFeaturesTest, EmptyLogIsAllZero) {
  dataset::ExamDictionary dictionary;
  dictionary.Intern("x");
  dataset::ExamLog log({}, std::move(dictionary), {});
  MetaFeatures features = ComputeMetaFeatures(log);
  EXPECT_EQ(features.num_patients, 0);
  EXPECT_DOUBLE_EQ(features.density, 0.0);
  EXPECT_DOUBLE_EQ(features.mean_records_per_patient, 0.0);
}

}  // namespace
}  // namespace stats
}  // namespace adahealth
