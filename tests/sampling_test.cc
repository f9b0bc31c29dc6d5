#include "transform/sampling.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>
#include "dataset/synthetic_cohort.h"

namespace adahealth {
namespace transform {
namespace {

dataset::ExamLog MakeLog(int32_t num_patients) {
  std::vector<dataset::Patient> patients;
  dataset::ExamDictionary dictionary;
  auto a = dictionary.Intern("a");
  std::vector<dataset::ExamRecord> records;
  for (int32_t i = 0; i < num_patients; ++i) {
    patients.push_back({i, 50, -1});
    // Patient i has i+1 records (activity gradient for stratification).
    for (int32_t r = 0; r <= i; ++r) records.push_back({i, a, r});
  }
  return dataset::ExamLog(std::move(patients), std::move(dictionary),
                          std::move(records));
}

TEST(SamplePatientsTest, SizeAndRange) {
  dataset::ExamLog log = MakeLog(100);
  common::Rng rng(5);
  auto sample = SamplePatients(log, 0.3, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 30u);
  EXPECT_TRUE(std::is_sorted(sample->begin(), sample->end()));
  std::set<dataset::PatientId> distinct(sample->begin(), sample->end());
  EXPECT_EQ(distinct.size(), 30u);
}

TEST(SamplePatientsTest, FullFraction) {
  dataset::ExamLog log = MakeLog(10);
  common::Rng rng(5);
  auto sample = SamplePatients(log, 1.0, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 10u);
}

TEST(SamplePatientsTest, TinyFractionReturnsAtLeastOne) {
  dataset::ExamLog log = MakeLog(10);
  common::Rng rng(5);
  auto sample = SamplePatients(log, 0.01, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 1u);
}

TEST(SamplePatientsTest, RejectsBadFractions) {
  dataset::ExamLog log = MakeLog(10);
  common::Rng rng(5);
  EXPECT_FALSE(SamplePatients(log, 0.0, rng).ok());
  EXPECT_FALSE(SamplePatients(log, 1.1, rng).ok());
}

TEST(BuildHorizontalScheduleTest, SubsetsAreNested) {
  dataset::ExamLog log = MakeLog(50);
  common::Rng rng(9);
  auto schedule = BuildHorizontalSchedule(log, {0.2, 0.5, 1.0}, rng);
  ASSERT_TRUE(schedule.ok());
  ASSERT_EQ(schedule->size(), 3u);
  EXPECT_EQ((*schedule)[0].size(), 10u);
  EXPECT_EQ((*schedule)[1].size(), 25u);
  EXPECT_EQ((*schedule)[2].size(), 50u);
  // Nesting: every patient of step i appears in step i+1.
  for (size_t s = 0; s + 1 < schedule->size(); ++s) {
    std::set<dataset::PatientId> next((*schedule)[s + 1].begin(),
                                      (*schedule)[s + 1].end());
    for (dataset::PatientId id : (*schedule)[s]) {
      EXPECT_TRUE(next.contains(id));
    }
  }
}

TEST(BuildHorizontalScheduleTest, RejectsNonIncreasingFractions) {
  dataset::ExamLog log = MakeLog(10);
  common::Rng rng(9);
  EXPECT_FALSE(BuildHorizontalSchedule(log, {0.5, 0.5}, rng).ok());
  EXPECT_FALSE(BuildHorizontalSchedule(log, {0.5, 0.2}, rng).ok());
  EXPECT_FALSE(BuildHorizontalSchedule(log, {}, rng).ok());
  EXPECT_FALSE(BuildHorizontalSchedule(log, {0.0, 0.5}, rng).ok());
}

TEST(SamplingTest, DeterministicGivenSeed) {
  dataset::ExamLog log = MakeLog(60);
  common::Rng rng_a(13);
  common::Rng rng_b(13);
  auto a = SamplePatients(log, 0.4, rng_a);
  auto b = SamplePatients(log, 0.4, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

}  // namespace
}  // namespace transform
}  // namespace adahealth
