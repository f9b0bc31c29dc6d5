#include "core/report.h"

#include <gtest/gtest.h>
#include "dataset/synthetic_cohort.h"

namespace adahealth {
namespace core {
namespace {

const SessionResult& RunOnce() {
  static const SessionResult* kResult = [] {
    auto cohort = dataset::SyntheticCohortGenerator(
                      dataset::TestScaleConfig())
                      .Generate();
    EXPECT_TRUE(cohort.ok());
    static kdb::Database db;
    AnalysisSession session(&db);
    SessionOptions options;
    options.dataset_id = "report-cohort";
    options.optimizer.candidate_ks = {3, 4};
    options.optimizer.cv_folds = 4;
    auto result = session.Run(cohort->log, &cohort->taxonomy, options);
    EXPECT_TRUE(result.ok());
    return new SessionResult(std::move(result).value());
  }();
  return *kResult;
}

TEST(ReportTest, ContainsAllSections) {
  std::string md = RenderSessionReport(RunOnce(), "report-cohort");
  EXPECT_NE(md.find("# ADA-HEALTH analysis report: report-cohort"),
            std::string::npos);
  EXPECT_NE(md.find("## Dataset characterization"), std::string::npos);
  EXPECT_NE(md.find("## Selected transformation"), std::string::npos);
  EXPECT_NE(md.find("## Adaptive partial mining"), std::string::npos);
  EXPECT_NE(md.find("## Algorithm optimization"), std::string::npos);
  EXPECT_NE(md.find("## Knowledge items"), std::string::npos);
  EXPECT_NE(md.find("**selected**"), std::string::npos);
}

TEST(ReportTest, MaxItemsTruncatesWithFootnote) {
  const SessionResult& result = RunOnce();
  ReportOptions options;
  options.max_items = 1;
  std::string md = RenderSessionReport(result, "x", options);
  EXPECT_NE(md.find("1. **["), std::string::npos);
  EXPECT_EQ(md.find("2. **["), std::string::npos);
  if (result.knowledge.size() > 1) {
    EXPECT_NE(md.find("further items in the K-DB"), std::string::npos);
  }
}

TEST(ReportTest, ListsTopKnowledgeItemDescriptions) {
  const SessionResult& result = RunOnce();
  std::string md = RenderSessionReport(result, "x");
  ASSERT_FALSE(result.knowledge.empty());
  EXPECT_NE(md.find(result.knowledge.front().description),
            std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace adahealth
