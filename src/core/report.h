// Markdown report generation for an analysis session — the textual
// artifact the paper's "interactive presentation and navigation"
// interface would render.
#ifndef ADAHEALTH_CORE_REPORT_H_
#define ADAHEALTH_CORE_REPORT_H_

#include <string>

#include "core/session.h"

namespace adahealth {
namespace core {

struct ReportOptions {
  /// Knowledge items listed in the report.
  size_t max_items = 15;
};

/// Renders a session result as a self-contained Markdown document.
std::string RenderSessionReport(const SessionResult& result,
                                const std::string& dataset_id,
                                const ReportOptions& options = {});

}  // namespace core
}  // namespace adahealth

#endif  // ADAHEALTH_CORE_REPORT_H_
