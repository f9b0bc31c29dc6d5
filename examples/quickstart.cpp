// Quickstart: run the whole ADA-HEALTH pipeline on a synthetic
// diabetic cohort in ~30 lines of user code.
//
//   $ ./quickstart
//
// The AnalysisSession drives every architecture block (Figure 1 of the
// paper) and returns a ranked, manageable set of knowledge items.
#include <cstdio>

#include "core/session.h"

int main() {
  using namespace adahealth;

  // 1. A dataset: here the bundled synthetic diabetic cohort at test
  //    scale (swap in dataset::ExamLog::FromCsv on a CSV of
  //    patient_id,exam_type,day rows for real data).
  auto cohort =
      dataset::SyntheticCohortGenerator(dataset::TestScaleConfig())
          .Generate();
  if (!cohort.ok()) {
    std::printf("cohort generation failed: %s\n",
                cohort.status().ToString().c_str());
    return 1;
  }

  // 2. A K-DB to accumulate knowledge across sessions.
  kdb::Database db;

  // 3. Run the automated analysis.
  core::AnalysisSession session(&db);
  core::SessionOptions options;
  options.dataset_id = "quickstart-cohort";
  options.optimizer.candidate_ks = {3, 4, 6, 8};
  auto result = session.Run(cohort->log, &cohort->taxonomy, options);
  if (!result.ok()) {
    std::printf("session failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // 4. Inspect what ADA-HEALTH decided and found.
  std::printf("%s\n\n", result->summary.c_str());
  std::printf("top knowledge items:\n");
  size_t shown = 0;
  for (const core::KnowledgeItem& item : result->knowledge) {
    std::printf("  %zu. [%s, quality %.2f] %s\n", ++shown,
                item.kind.c_str(), item.quality, item.description.c_str());
    if (shown == 5) break;
  }
  return 0;
}
