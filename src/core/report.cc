#include "core/report.h"

#include <algorithm>

#include "common/string_util.h"

namespace adahealth {
namespace core {

using common::StrFormat;

std::string RenderSessionReport(const SessionResult& result,
                                const std::string& dataset_id,
                                const ReportOptions& options) {
  std::string md;
  md += "# ADA-HEALTH analysis report: " + dataset_id + "\n\n";

  const stats::MetaFeatures& f = result.characterization.features;
  md += "## Dataset characterization\n\n";
  md += StrFormat(
      "| patients | exam types | records | density | records/patient |\n"
      "|---|---|---|---|---|\n"
      "| %lld | %lld | %lld | %.4f | %.2f ± %.2f |\n\n",
      static_cast<long long>(f.num_patients),
      static_cast<long long>(f.num_exam_types),
      static_cast<long long>(f.num_records), f.density,
      f.mean_records_per_patient, f.stddev_records_per_patient);
  md += StrFormat(
      "Exam-frequency profile: normalized entropy %.3f, Gini %.3f; the "
      "top 20%% of exam types cover %.1f%% of the records.\n\n",
      f.exam_frequency_entropy, f.exam_frequency_gini,
      100.0 * f.top20_coverage);

  md += "## Selected transformation\n\n";
  const TransformCandidateScore& best =
      result.transform.scores[result.transform.best_index];
  md += StrFormat(
      "`%s` weighting with `%s` normalization (similarity lift %.2fx "
      "over a random grouping).\n\n",
      transform::VsmWeightingName(best.options.weighting),
      transform::VsmNormalizationName(best.options.normalization),
      best.lift);

  md += "## Adaptive partial mining\n\n";
  md += "| exam types | record coverage | quality diff vs full |  |\n";
  md += "|---|---|---|---|\n";
  for (size_t s = 0; s < result.partial.steps.size(); ++s) {
    const PartialMiningStep& step = result.partial.steps[s];
    md += StrFormat("| %.0f%% | %.1f%% | %.2f%% | %s |\n",
                    100.0 * step.fraction, 100.0 * step.record_coverage,
                    100.0 * step.mean_relative_diff,
                    s == result.partial.selected_step ? "**selected**"
                                                      : "");
  }
  md += "\n";

  md += "## Algorithm optimization\n\n";
  md += "| K | SSE | accuracy | avg precision | avg recall |  |\n";
  md += "|---|---|---|---|---|---|\n";
  for (const CandidateEvaluation& candidate :
       result.optimizer.candidates) {
    md += StrFormat("| %d | %.1f | %.2f | %.2f | %.2f | %s |\n",
                    candidate.k, candidate.sse, 100.0 * candidate.accuracy,
                    100.0 * candidate.avg_precision,
                    100.0 * candidate.avg_recall,
                    candidate.k == result.optimizer.best_k()
                        ? "**selected**"
                        : "");
  }
  md += "\n";

  md += "## Knowledge items\n\n";
  size_t shown = std::min(options.max_items, result.knowledge.size());
  for (size_t i = 0; i < shown; ++i) {
    const KnowledgeItem& item = result.knowledge[i];
    md += StrFormat("%zu. **[%s]** %s _(goal: %s, quality %.2f)_\n",
                    i + 1, item.kind.c_str(), item.description.c_str(),
                    EndGoalName(item.goal), item.quality);
  }
  if (shown < result.knowledge.size()) {
    md += StrFormat("\n_(%zu further items in the K-DB)_\n",
                    result.knowledge.size() - shown);
  }
  md += "\n";
  return md;
}

}  // namespace core
}  // namespace adahealth
