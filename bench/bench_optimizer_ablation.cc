// Ablation A3: the cluster-robustness assessor. The paper uses a
// decision tree ("In our first implementation, we used decision trees
// as classification model"); this bench compares it against a Gaussian
// naive Bayes assessor in the same Table-I protocol and reports which
// K each variant selects.
//
// It also times the decision-tree sweep layer by layer at paper scale
// (6,380 patients, Table I's Ks and 10 folds): k-means wall time, and
// CV fit and predict time summed over the worker threads. That block is
// written as "per_layer.after" with the git commit it measured (suffixed
// "-dirty" when src/ differs from it). When BENCH_optimizer.json already
// holds an "after" block of a different commit at the same scale, that
// block becomes "per_layer.before": run the bench at the old commit,
// then at the new one, in the same directory, to record a before/after
// pair on one machine.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/optimizer.h"
#include "dataset/synthetic_cohort.h"
#include "transform/feature_select.h"
#include "transform/vsm.h"

namespace {

using namespace adahealth;

bool SmokeMode() {
  const char* env = std::getenv("ADA_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Sweep time per layer, from the registry the sweep just filled.
void AddLayerTimes(common::MetricsRegistry& metrics,
                   common::Json::Object& row) {
  row["kmeans_seconds"] =
      metrics.GetHistogram("optimizer/kmeans_seconds").total_seconds();
  row["cv_fit_cpu_seconds"] =
      metrics.GetHistogram("cv/fold_fit_seconds").total_seconds();
  row["cv_fit_calls"] = metrics.GetHistogram("cv/fold_fit_seconds").count();
  row["cv_predict_cpu_seconds"] =
      metrics.GetHistogram("cv/fold_predict_seconds").total_seconds();
}

transform::Matrix BuildBenchVsm(const dataset::ExamLog& log) {
  std::vector<bool> mask = transform::TopFractionExamsMask(log, 0.40);
  transform::VsmOptions vsm_options{transform::VsmWeighting::kTfIdf,
                                    transform::VsmNormalization::kL2};
  return transform::BuildVsm(log.FilterExamTypes(mask), vsm_options);
}

double ZeroFraction(const transform::Matrix& m) {
  return static_cast<double>(
             std::count(m.data().begin(), m.data().end(), 0.0)) /
         static_cast<double>(m.data().size());
}

// HEAD of the repository the bench runs in, "-dirty" when src/ has
// uncommitted changes; "unknown" outside a git checkout.
std::string GitCommit() {
  auto run = [](const char* command) {
    std::string out;
    std::unique_ptr<FILE, int (*)(FILE*)> pipe(popen(command, "r"), pclose);
    if (pipe == nullptr) return out;
    char buffer[128];
    while (std::fgets(buffer, sizeof(buffer), pipe.get()) != nullptr) {
      out += buffer;
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
      out.pop_back();
    }
    return out;
  };
  std::string commit = run("git rev-parse --short HEAD 2>/dev/null");
  if (commit.empty()) return "unknown";
  if (!run("git status --porcelain -- src 2>/dev/null").empty()) {
    commit += "-dirty";
  }
  return commit;
}

// The paper-scale decision-tree sweep, timed per layer.
common::StatusOr<common::Json> PaperScaleLayers() {
  dataset::CohortConfig config = dataset::PaperScaleConfig();
  if (SmokeMode()) config.num_patients = 400;
  auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
  if (!cohort.ok()) return cohort.status();
  transform::Matrix vsm = BuildBenchVsm(cohort->log);
  core::OptimizerOptions options;  // Table I: Ks 6..20, 10 folds.
  options.seed = 20160516;
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  common::WallTimer sweep_timer;
  auto result = core::OptimizeClustering(vsm, options);
  const double sweep_seconds = sweep_timer.ElapsedSeconds();
  if (!result.ok()) return result.status();

  common::Json::Object block;
  block["commit"] = GitCommit();
  block["hardware_threads"] =
      static_cast<int64_t>(common::ThreadPool::Shared().num_threads());
  block["patients"] = static_cast<int64_t>(config.num_patients);
  block["rows"] = static_cast<int64_t>(vsm.rows());
  block["cols"] = static_cast<int64_t>(vsm.cols());
  block["zero_fraction"] = ZeroFraction(vsm);
  block["selected_k"] = static_cast<int64_t>(result->best_k());
  block["composite"] = result->best().composite;
  block["sweep_seconds"] = sweep_seconds;
  AddLayerTimes(metrics, block);
  std::printf("paper-scale decision-tree sweep (%lld x %lld, %s): %.2f s\n",
              static_cast<long long>(vsm.rows()),
              static_cast<long long>(vsm.cols()),
              block["commit"].AsString().c_str(), sweep_seconds);
  return common::Json(std::move(block));
}

// The before/after pair: this run's block is "after"; the previous
// file's "after" becomes "before" when it measured another commit at
// the same scale, else the previous "before" is kept.
common::Json PerLayerPair(const std::string& bench_path, common::Json after) {
  std::ifstream in(bench_path);
  std::stringstream text;
  text << in.rdbuf();
  auto previous = common::Json::Parse(text.str());
  const common::Json* old_pair =
      previous.ok() ? previous->Find("per_layer") : nullptr;
  const common::Json* old_after =
      old_pair != nullptr ? old_pair->Find("after") : nullptr;
  const common::Json* old_before =
      old_pair != nullptr ? old_pair->Find("before") : nullptr;
  auto same_field = [&after](const common::Json* block, const char* field) {
    return block != nullptr && block->Find(field) != nullptr &&
           *block->Find(field) == *after.Find(field);
  };

  common::Json::Object pair;
  if (same_field(old_after, "patients") && !same_field(old_after, "commit")) {
    pair["before"] = *old_after;
  } else if (same_field(old_before, "patients")) {
    pair["before"] = *old_before;
  }
  pair["after"] = std::move(after);
  return common::Json(std::move(pair));
}

int RunModel(const transform::Matrix& vsm, core::RobustnessModel model,
             const char* name, common::Json::Array& bench_rows) {
  core::OptimizerOptions options;
  options.candidate_ks =
      SmokeMode() ? std::vector<int32_t>{6, 8} : std::vector<int32_t>{6, 7, 8, 9, 10, 12};
  options.cv_folds = SmokeMode() ? 5 : 10;
  options.model = model;
  options.seed = 20160516;
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  common::WallTimer sweep_timer;
  auto result = core::OptimizeClustering(vsm, options);
  const double sweep_seconds = sweep_timer.ElapsedSeconds();
  if (!result.ok()) {
    std::printf("optimizer failed: %s\n",
                result.status().ToString().c_str());
    return 1;
  }
  {
    common::Json::Object row;
    row["assessor"] = name;
    row["sweep_seconds"] = sweep_seconds;
    row["selected_k"] = static_cast<int64_t>(result->best_k());
    row["composite"] = result->best().composite;
    row["candidates"] =
        static_cast<int64_t>(result->candidates.size());
    row["skipped"] = static_cast<int64_t>(result->num_skipped());
    row["warm_starts"] =
        metrics.GetCounter("optimizer/warm_starts").value();
    row["kmeans_restarts"] = metrics.GetCounter("optimizer/restarts").value();
    row["kmeans_skipped_distance_checks"] =
        metrics.GetCounter("kmeans/skipped_distance_checks").value();
    AddLayerTimes(metrics, row);
    bench_rows.push_back(common::Json(std::move(row)));
  }
  std::printf("assessor: %s (%.1f s)\n", name, sweep_seconds);
  std::printf("%-4s %-10s %-14s %-10s %-10s\n", "K", "Accuracy",
              "AVG Precision", "AVG Recall", "composite");
  for (const auto& candidate : result->candidates) {
    if (candidate.skipped()) {
      std::printf("%-4d skipped: %s\n", candidate.k,
                  candidate.status.message().c_str());
      continue;
    }
    std::printf("%-4d %-10.2f %-14.2f %-10.2f %-10.3f%s\n", candidate.k,
                100.0 * candidate.accuracy,
                100.0 * candidate.avg_precision,
                100.0 * candidate.avg_recall, candidate.composite,
                candidate.k == result->best_k() ? "  <== selected" : "");
  }
  std::printf("\n");
  return 0;
}

int Run() {
  common::WallTimer timer;
  std::printf("=== Ablation A3: robustness assessor (decision tree vs "
              "naive Bayes) ===\n");
  dataset::CohortConfig config = dataset::PaperScaleConfig();
  config.num_patients = SmokeMode() ? 400 : 2000;  // Keeps 10-fold CV brisk.
  auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
  if (!cohort.ok()) return 1;
  transform::Matrix vsm = BuildBenchVsm(cohort->log);

  common::Json::Array bench_rows;
  if (RunModel(vsm, core::RobustnessModel::kDecisionTree,
               "decision tree (paper's choice)", bench_rows) != 0) {
    return 1;
  }
  if (RunModel(vsm, core::RobustnessModel::kNaiveBayes,
               "Gaussian naive Bayes", bench_rows) != 0) {
    return 1;
  }
  if (RunModel(vsm, core::RobustnessModel::kNearestNeighbors,
               "k-nearest neighbours (k=5)", bench_rows) != 0) {
    return 1;
  }
  const std::string metrics_path = "bench_optimizer_ablation_metrics.json";
  if (common::MetricsRegistry::Default().WriteJsonFile(metrics_path).ok()) {
    std::printf("[optimizer_ablation] metrics written to %s\n",
                metrics_path.c_str());
  }
  auto layers = PaperScaleLayers();
  if (!layers.ok()) {
    std::printf("paper-scale sweep failed: %s\n",
                layers.status().ToString().c_str());
    return 1;
  }

  common::Json::Object doc;
  doc["bench"] = "optimizer_sweep";
  {
    common::Json::Object machine;
    machine["hardware_threads"] = static_cast<int64_t>(
        common::ThreadPool::Shared().num_threads());
    doc["machine"] = common::Json(std::move(machine));
  }
  {
    common::Json::Object cfg;
    cfg["rows"] = static_cast<int64_t>(vsm.rows());
    cfg["cols"] = static_cast<int64_t>(vsm.cols());
    cfg["smoke"] = SmokeMode();
    doc["config"] = common::Json(std::move(cfg));
  }
  doc["results"] = common::Json(std::move(bench_rows));
  const std::string bench_path = "BENCH_optimizer.json";
  doc["per_layer"] = PerLayerPair(bench_path, std::move(layers).value());
  std::ofstream out(bench_path);
  out << common::Json(std::move(doc)).Pretty() << "\n";
  if (!out) {
    std::printf("failed to write %s\n", bench_path.c_str());
    return 1;
  }
  std::printf("[optimizer_ablation] results written to %s\n",
              bench_path.c_str());
  std::printf("[optimizer_ablation] total time: %.1f s\n\n",
              timer.ElapsedSeconds());
  return 0;
}

}  // namespace

int main() { return Run(); }
