#include "transform/vsm.h"

#include <cmath>

#include <gtest/gtest.h>

namespace adahealth {
namespace transform {
namespace {

dataset::ExamLog MakeLog() {
  std::vector<dataset::Patient> patients{{0, 50, -1}, {1, 60, -1},
                                         {2, 70, -1}};
  dataset::ExamDictionary dictionary;
  auto a = dictionary.Intern("a");
  auto b = dictionary.Intern("b");
  dictionary.Intern("never_used");
  std::vector<dataset::ExamRecord> records{
      {0, a, 1}, {0, a, 2}, {0, b, 3}, {1, a, 4}, {2, b, 5}, {2, b, 6}};
  return dataset::ExamLog(std::move(patients), std::move(dictionary),
                          std::move(records));
}

TEST(VsmTest, CountWeighting) {
  Matrix vsm = BuildVsm(MakeLog(), {VsmWeighting::kCount,
                                    VsmNormalization::kNone});
  EXPECT_EQ(vsm.rows(), 3u);
  EXPECT_EQ(vsm.cols(), 3u);
  EXPECT_DOUBLE_EQ(vsm.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(vsm.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(vsm.At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(vsm.At(2, 1), 2.0);
  EXPECT_DOUBLE_EQ(vsm.At(0, 2), 0.0);
}

TEST(VsmTest, BinaryWeighting) {
  Matrix vsm = BuildVsm(MakeLog(), {VsmWeighting::kBinary,
                                    VsmNormalization::kNone});
  EXPECT_DOUBLE_EQ(vsm.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(vsm.At(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(vsm.At(1, 1), 0.0);
}

TEST(VsmTest, TfIdfDeemphasizesUbiquitousExams) {
  // Exam a reaches 2/3 patients, exam b 2/3 patients; add one patient
  // with only a rare exam to differentiate: reuse the base log where
  // idf(a) = ln(3/2), idf(b) = ln(3/2).
  Matrix vsm = BuildVsm(MakeLog(), {VsmWeighting::kTfIdf,
                                    VsmNormalization::kNone});
  double idf = std::log(3.0 / 2.0);
  EXPECT_NEAR(vsm.At(0, 0), 2.0 * idf, 1e-12);
  EXPECT_NEAR(vsm.At(2, 1), 2.0 * idf, 1e-12);
  // Unused exam column is all zero (idf of 0-coverage exams unused).
  EXPECT_DOUBLE_EQ(vsm.At(0, 2), 0.0);
}

TEST(VsmTest, L2Normalization) {
  Matrix vsm = BuildVsm(MakeLog(), {VsmWeighting::kCount,
                                    VsmNormalization::kL2});
  for (size_t r = 0; r < vsm.rows(); ++r) {
    double norm = Norm(vsm.Row(r));
    EXPECT_NEAR(norm, 1.0, 1e-12);
  }
}

TEST(VsmTest, PatientWithoutRecordsIsZeroRow) {
  std::vector<dataset::Patient> patients{{0, 50, -1}, {1, 60, -1}};
  dataset::ExamDictionary dictionary;
  auto a = dictionary.Intern("a");
  std::vector<dataset::ExamRecord> records{{0, a, 1}};
  dataset::ExamLog log(std::move(patients), std::move(dictionary),
                       std::move(records));
  Matrix vsm = BuildVsm(log, {VsmWeighting::kCount, VsmNormalization::kL2});
  EXPECT_DOUBLE_EQ(vsm.At(1, 0), 0.0);  // Zero row survives normalization.
}

TEST(VsmTest, EnumNames) {
  EXPECT_STREQ(VsmWeightingName(VsmWeighting::kTfIdf), "tfidf");
  EXPECT_STREQ(VsmNormalizationName(VsmNormalization::kL2), "l2");
}

}  // namespace
}  // namespace transform
}  // namespace adahealth
