// ada_perf — the in-process half of the perfbench benchmark.
//
// perfbench/run.py drives the service over sockets; everything that
// must call into the library directly lives here, so every layer is
// measured from outside through its public functions and the counters
// the library already exports (no instrumentation inside src/).
//
// Subcommands (all write one JSON document to --out):
//
//   paper   --seed N --seconds S [--patients N]
//       The paper_batch workload: generates the paper-scale cohort
//       (PaperScaleConfig, optionally with N patients; kSetupReps times,
//       timed), then runs AnalysisSession::Run with optimizer seed N back
//       to back, each on a fresh K-DB, until S seconds have passed (at
//       least two sessions). Gate: every session renders the same report. Also
//       times ParseRequest / BuildJobRequest / DatasetFingerprint on
//       the submit line a client would send for the same cohort.
//
//   gen     --patients N --seed N --format csv|records [--shape test|paper]
//       A synthetic cohort (TestScaleConfig shape: 48 exam types,
//       4 profiles; or PaperScaleConfig shape: 159 exam types,
//       8 profiles, 365 days) as records CSV (inline-CSV submits) or as
//       [patient, exam_type, day] rows in arrival (day) order (the
//       ingest streams).
//
//   verify-jobs   --in FILE
//       For every {"line", "fingerprint", "reports"} entry, re-runs the
//       submit line directly (ParseRequest -> BuildJobRequest ->
//       DatasetFingerprint -> AnalysisSession::Run -> render) and
//       checks each report the service returned is byte-identical. An
//       entry with "rejection": {"status_code", "status_message"} is a
//       job the service answered with an error: the direct run must
//       fail with the same code and message.
//
//   verify-stream --in FILE --store-dir DIR
//       Replays the cohort_stream ingest batches into a CohortStore and
//       every analysis the service ran, in order, and applies the
//       two-gate rule: the service's delta report must equal the
//       replayed delta report, which must equal a cold run on the same
//       accumulated records (gate 1) or select a configuration whose
//       composite is at least the cold one's (gate 2).
//
// Every subcommand also reports, per session it ran, the stage
// seconds (SessionResult::stages) and the metrics-registry deltas that
// perfbench turns into per-layer numbers.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/report.h"
#include "core/session.h"
#include "dataset/synthetic_cohort.h"
#include "kdb/database.h"
#include "service/cohort_store.h"
#include "service/fingerprint.h"
#include "service/protocol.h"

namespace {

using adahealth::common::Json;
using adahealth::common::MetricsRegistry;
using adahealth::common::WallTimer;
namespace core = adahealth::core;
namespace dataset = adahealth::dataset;
namespace service = adahealth::service;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "ada_perf: %s\n", message.c_str());
  std::exit(2);
}

/// Flag lookup over "--name value" pairs.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) Die("bad flag " + std::string(argv[i]));
      values_[argv[i] + 2] = argv[i + 1];
    }
  }
  std::string Str(const std::string& name, const std::string& fallback = "") const {
    auto it = values_.find(name);
    if (it != values_.end()) return it->second;
    if (fallback.empty()) Die("missing --" + name);
    return fallback;
  }
  int64_t Int(const std::string& name, int64_t fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
  }
  double Double(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// The registry counters perfbench attributes to layers, read as one
/// snapshot so a run's delta is `after - before`.
struct RegistrySample {
  double cv_fit_s = 0.0;
  int64_t cv_fit_calls = 0;
  double cv_predict_s = 0.0;
  double kmeans_s = 0.0;
  int64_t kmeans_runs = 0;
  int64_t kmeans_iterations = 0;
  int64_t skipped_distance_checks = 0;

  static RegistrySample Take() {
    MetricsRegistry& registry = MetricsRegistry::Default();
    RegistrySample sample;
    auto fit = registry.GetHistogram("cv/fold_fit_seconds").snapshot();
    sample.cv_fit_s = fit.total_seconds;
    sample.cv_fit_calls = fit.count;
    sample.cv_predict_s = registry.GetHistogram("cv/fold_predict_seconds").total_seconds();
    sample.kmeans_s = registry.GetHistogram("optimizer/kmeans_seconds").total_seconds();
    sample.kmeans_runs = registry.GetCounter("kmeans/runs").value();
    sample.kmeans_iterations = registry.GetCounter("kmeans/iterations").value();
    sample.skipped_distance_checks = registry.GetCounter("kmeans/skipped_distance_checks").value();
    return sample;
  }

  Json DeltaSince(const RegistrySample& before) const {
    Json::Object out;
    out["cv_fit_s"] = cv_fit_s - before.cv_fit_s;
    out["cv_fit_calls"] = cv_fit_calls - before.cv_fit_calls;
    out["cv_predict_s"] = cv_predict_s - before.cv_predict_s;
    out["kmeans_s"] = kmeans_s - before.kmeans_s;
    out["kmeans_runs"] = kmeans_runs - before.kmeans_runs;
    out["kmeans_iterations"] = kmeans_iterations - before.kmeans_iterations;
    out["skipped_distance_checks"] = skipped_distance_checks - before.skipped_distance_checks;
    return Json(std::move(out));
  }
};

/// Stage name -> seconds, from the session's own outcome records.
Json StageSeconds(const core::SessionResult& result) {
  Json::Object out;
  for (const core::StageOutcome& stage : result.stages) out[stage.stage] = stage.seconds;
  return Json(std::move(out));
}

/// One finished (or failed) session run.
struct SessionRun {
  bool ok = false;
  std::string error;
  std::string status_code;     // Set when the session failed.
  std::string status_message;
  double start_s = 0.0;  // Offset from the subcommand's clock origin.
  double wall_s = 0.0;
  Json stages = Json(Json::Object{});
  std::string report;
  double composite = 0.0;
  int32_t best_k = 0;
};

/// Runs one session on a fresh K-DB. `on_success`, when set, sees the
/// full result (the cohort store's analysis hook needs it).
SessionRun RunSession(
    const dataset::ExamLog& log, const dataset::Taxonomy* taxonomy,
    const core::SessionOptions& options, const WallTimer& origin,
    const std::function<void(const core::SessionResult&)>& on_success = nullptr) {
  SessionRun run;
  run.start_s = origin.ElapsedSeconds();
  adahealth::kdb::Database db;
  WallTimer timer;
  auto result = core::AnalysisSession(&db).Run(log, taxonomy, options);
  run.wall_s = timer.ElapsedSeconds();
  if (!result.ok()) {
    run.error = result.status().ToString();
    run.status_code = adahealth::common::StatusCodeName(result.status().code());
    run.status_message = result.status().message();
    return run;
  }
  run.ok = true;
  run.stages = StageSeconds(result.value());
  run.report = core::RenderSessionReport(result.value(), options.dataset_id);
  run.composite = result.value().optimizer.best().composite;
  run.best_k = result.value().optimizer.best_k();
  if (on_success) on_success(result.value());
  return run;
}

Json ToJson(const std::vector<double>& values) {
  return Json(Json::Array(values.begin(), values.end()));
}

Json SessionJson(const SessionRun& run) {
  Json::Object out;
  out["ok"] = run.ok;
  out["start_s"] = run.start_s;
  out["wall_s"] = run.wall_s;
  out["stages"] = run.stages;
  if (!run.error.empty()) out["error"] = run.error;
  return Json(std::move(out));
}

void WriteOut(const Flags& flags, Json::Object out) {
  out["peak_rss_mb"] = PeakRssMb();
  auto written = adahealth::common::WriteStringToFile(flags.Str("out"), Json(std::move(out)).Dump());
  if (!written.ok()) Die(written.ToString());
}

Json ReadIn(const Flags& flags) {
  auto text = adahealth::common::ReadFileToString(flags.Str("in"));
  if (!text.ok()) Die(text.status().ToString());
  auto parsed = Json::Parse(text.value());
  if (!parsed.ok()) Die(parsed.status().ToString());
  return std::move(parsed).value();
}

/// Runs `task(i)` for i in [0, n) on as many threads as the process
/// may use.
template <typename Task>
void ParallelFor(size_t n, Task task) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const size_t threads =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? static_cast<size_t>(CPU_COUNT(&cpus)) : 1;
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < std::max<size_t>(1, std::min(threads, n)); ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) task(i);
    });
  }
  for (std::thread& worker : workers) worker.join();
}

// ---------------------------------------------------------------------

/// Timed cohort generations per paper run. A paper-shaped generation
/// takes milliseconds, so setup_s is the median of many.
constexpr int kSetupReps = 21;

int Paper(const Flags& flags) {
  dataset::CohortConfig config = dataset::PaperScaleConfig();
  config.num_patients = static_cast<int32_t>(flags.Int("patients", config.num_patients));
  const double seconds = flags.Double("seconds", 10.0);

  // Set-up: the cohort generation a user pays before the first
  // session, repeated so the median is steady.
  std::vector<double> setup_s;
  std::optional<dataset::Cohort> cohort;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    WallTimer timer;
    auto generated = dataset::SyntheticCohortGenerator(config).Generate();
    if (!generated.ok()) Die(generated.status().ToString());
    setup_s.push_back(timer.ElapsedSeconds());
    cohort = std::move(generated).value();
  }

  core::SessionOptions options;  // Table I defaults.
  options.dataset_id = "paper";
  options.optimizer.seed = static_cast<uint64_t>(flags.Int("seed", 1));

  WallTimer origin;
  const double cpu_before = CpuSeconds();
  Json::Array sessions;
  std::string first_report;
  int64_t mismatches = 0;
  int64_t failures = 0;
  while (sessions.size() < 2 || origin.ElapsedSeconds() < seconds) {
    const RegistrySample before = RegistrySample::Take();
    SessionRun run = RunSession(cohort->log, &cohort->taxonomy, options, origin);
    Json entry = SessionJson(run);
    entry.MutableObject()["registry"] = RegistrySample::Take().DeltaSince(before);
    if (!run.ok) {
      ++failures;
    } else if (first_report.empty()) {
      first_report = run.report;
    } else if (run.report != first_report) {
      ++mismatches;
      entry.MutableObject()["error"] = "report differs from the first session's";
    }
    sessions.push_back(std::move(entry));
  }
  const double window_s = origin.ElapsedSeconds();
  const double cpu_s = CpuSeconds() - cpu_before;

  Json::Object out;
  out["setup_s"] = ToJson(setup_s);
  out["sessions"] = Json(std::move(sessions));
  out["window_s"] = window_s;
  out["cpu_s"] = cpu_s;
  out["failures"] = failures;
  out["mismatches"] = mismatches;
  out["records"] = static_cast<int64_t>(cohort->log.num_records());

  {
    // The service-admission cost of this workload's own job: the
    // submit line a client would send for the same cohort.
    Json::Object synthetic;
    synthetic["patients"] = config.num_patients;
    synthetic["exam_types"] = config.num_exam_types;
    synthetic["profiles"] = config.num_profiles;
    synthetic["mean_records"] = config.mean_records_per_patient;
    synthetic["days"] = config.num_days;
    synthetic["seed"] = static_cast<int64_t>(config.seed);
    Json::Object body;
    body["verb"] = "submit";
    body["synthetic"] = Json(std::move(synthetic));
    const std::string line = Json(std::move(body)).Dump();
    WallTimer parse_timer;
    auto request = service::ParseRequest(line);
    const double parse_s = parse_timer.ElapsedSeconds();
    if (!request.ok()) Die(request.status().ToString());
    WallTimer build_timer;
    auto job = service::BuildJobRequest(request.value().body);
    const double build_s = build_timer.ElapsedSeconds();
    if (!job.ok()) Die(job.status().ToString());
    WallTimer fingerprint_timer;
    (void)service::DatasetFingerprint(job.value().log, job.value().options);
    Json::Object admission;
    admission["parse_s"] = parse_s;
    admission["build_job_s"] = build_s;
    admission["fingerprint_s"] = fingerprint_timer.ElapsedSeconds();
    out["admission"] = Json(Json::Array{Json(std::move(admission))});
  }
  WriteOut(flags, std::move(out));
  return 0;
}

// ---------------------------------------------------------------------

int Gen(const Flags& flags) {
  dataset::CohortConfig config = flags.Str("shape", "test") == "paper"
                                      ? dataset::PaperScaleConfig()
                                      : dataset::TestScaleConfig();
  config.num_patients = static_cast<int32_t>(flags.Int("patients", config.num_patients));
  config.seed = static_cast<uint64_t>(flags.Int("seed", 1));
  WallTimer timer;
  auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
  if (!cohort.ok()) Die(cohort.status().ToString());
  Json::Object out;
  out["generate_s"] = timer.ElapsedSeconds();
  const dataset::ExamLog& log = cohort.value().log;
  if (flags.Str("format") == "csv") {
    out["csv"] = log.ToCsv();
  } else {
    std::vector<dataset::ExamRecord> records = log.records();
    std::stable_sort(records.begin(), records.end(),
                     [](const dataset::ExamRecord& a, const dataset::ExamRecord& b) {
                       return a.day < b.day;
                     });
    Json::Array rows;
    rows.reserve(records.size());
    for (const dataset::ExamRecord& record : records) {
      rows.push_back(Json(Json::Array{Json(static_cast<int64_t>(record.patient)),
                                      Json(log.dictionary().Name(record.exam_type)),
                                      Json(static_cast<int64_t>(record.day))}));
    }
    out["records"] = Json(std::move(rows));
  }
  WriteOut(flags, std::move(out));
  return 0;
}

// ---------------------------------------------------------------------

int VerifyJobs(const Flags& flags) {
  const Json input = ReadIn(flags);
  const Json::Array& jobs = input.Find("jobs")->AsArray();
  std::vector<Json> results(jobs.size());
  WallTimer origin;
  const RegistrySample before = RegistrySample::Take();
  ParallelFor(jobs.size(), [&](size_t i) {
    const Json& job = jobs[i];
    Json::Object out;
    auto fail = [&](const std::string& message) {
      out["ok"] = false;
      out["error"] = message;
      results[i] = Json(std::move(out));
    };
    WallTimer parse_timer;
    auto request = service::ParseRequest(job.Find("line")->AsString());
    out["parse_s"] = parse_timer.ElapsedSeconds();
    if (!request.ok()) return fail(request.status().ToString());
    WallTimer build_timer;
    auto built = service::BuildJobRequest(request.value().body);
    out["build_job_s"] = build_timer.ElapsedSeconds();
    if (!built.ok()) return fail(built.status().ToString());
    const service::JobRequest& req = built.value();
    WallTimer fingerprint_timer;
    const std::string fingerprint = service::DatasetFingerprint(req.log, req.options);
    out["fingerprint_s"] = fingerprint_timer.ElapsedSeconds();
    if (fingerprint != job.Find("fingerprint")->AsString()) {
      return fail("fingerprint " + fingerprint + " differs from the service's " +
                  job.Find("fingerprint")->AsString());
    }
    SessionRun run = RunSession(req.log, req.taxonomy ? &*req.taxonomy : nullptr, req.options, origin);
    out["session"] = SessionJson(run);
    if (const Json* rejection = job.Find("rejection")) {
      if (run.ok) return fail("the service rejected a job a direct run completes");
      const std::string code = rejection->Find("status_code")->AsString();
      const std::string message = rejection->Find("status_message")->AsString();
      if (code != run.status_code || message != run.status_message) {
        return fail("service rejection " + code + ": " + message +
                    " differs from the direct run's " + run.error);
      }
      out["ok"] = true;
      results[i] = Json(std::move(out));
      return;
    }
    if (!run.ok) return fail(run.error);
    for (const Json& report : job.Find("reports")->AsArray()) {
      if (report.AsString() != run.report) {
        return fail("service report differs from a direct AnalysisSession::Run");
      }
    }
    out["ok"] = true;
    results[i] = Json(std::move(out));
  });
  Json::Object out;
  out["jobs"] = Json(Json::Array(results.begin(), results.end()));
  out["registry"] = RegistrySample::Take().DeltaSince(before);
  WriteOut(flags, std::move(out));
  return 0;
}

// ---------------------------------------------------------------------

int VerifyStream(const Flags& flags) {
  const Json input = ReadIn(flags);
  const std::string cohort = input.Find("cohort")->AsString();
  const Json::Array& batches = input.Find("batches")->AsArray();
  const Json::Array& analyses = input.Find("analyses")->AsArray();

  service::CohortStoreOptions store_options;
  store_options.directory = flags.Str("store-dir");
  service::CohortStore store(store_options);
  WallTimer origin;
  std::vector<double> ingest_s;
  std::vector<double> parse_s;
  size_t ingested = 0;
  auto ingest_through = [&](int64_t generation) {
    while (ingested < batches.size() && static_cast<int64_t>(ingested) < generation) {
      const std::string& line = batches[ingested].AsString();
      WallTimer parse_timer;
      auto request = service::ParseRequest(line);
      if (!request.ok()) Die(request.status().ToString());
      auto rows = service::ParseIngestRecords(request.value().body);
      parse_s.push_back(parse_timer.ElapsedSeconds());
      if (!rows.ok()) Die(rows.status().ToString());
      WallTimer timer;
      auto result = store.Ingest(cohort, rows.value());
      ingest_s.push_back(timer.ElapsedSeconds());
      if (!result.ok()) Die(result.status().ToString());
      ++ingested;
    }
  };

  // The replayed chain is sequential (each analysis leaves the warm
  // state the next one starts from); the cold runs it is gated against
  // are independent and run afterwards in parallel.
  struct Replayed {
    Json::Object out;
    service::JobRequest cold;
    SessionRun delta;
  };
  std::vector<Replayed> replayed(analyses.size());
  for (size_t i = 0; i < analyses.size(); ++i) {
    const Json& analysis = analyses[i];
    const int64_t generation = analysis.Find("generation")->AsInt();
    ingest_through(generation);
    Replayed& r = replayed[i];
    WallTimer build_timer;
    auto job = store.BuildCohortJob(cohort);
    if (!job.ok()) Die(job.status().ToString());
    if (auto applied = service::ApplyJobOptionsFromBody(*analysis.Find("body"), job.value());
        !applied.ok()) {
      Die(applied.ToString());
    }
    r.out["build_job_s"] = build_timer.ElapsedSeconds();
    service::JobRequest& req = job.value();
    if (req.cohort_generation != generation) Die("replay lost track of the cohort generation");
    WallTimer fingerprint_timer;
    (void)service::DatasetFingerprint(req.log, req.options);
    r.out["fingerprint_s"] = fingerprint_timer.ElapsedSeconds();
    r.out["warm"] = !req.options.warm.centroids.empty();
    r.out["generation"] = generation;
    const int64_t analyzed_records = static_cast<int64_t>(req.log.num_records());
    // The server's success hook: this analysis becomes the next
    // generation's warm state.
    const RegistrySample session_before = RegistrySample::Take();
    r.delta = RunSession(req.log, nullptr, req.options, origin,
                         [&](const core::SessionResult& result) {
                           store.OnAnalysisCommitted(cohort, generation, analyzed_records, result);
                         });
    r.out["session"] = SessionJson(r.delta);
    r.out["registry"] = RegistrySample::Take().DeltaSince(session_before);
    r.cold = std::move(req);
    r.cold.options.warm = core::WarmStartOptions{};
  }
  ParallelFor(replayed.size(), [&](size_t i) {
    Replayed& r = replayed[i];
    const SessionRun cold = RunSession(r.cold.log, nullptr, r.cold.options, origin);
    r.out["cold_session"] = SessionJson(cold);
    const std::string& served = analyses[i].Find("report")->AsString();
    std::string error;
    if (!r.delta.ok || !cold.ok) {
      error = "session failed: " + r.delta.error + cold.error;
    } else if (served != r.delta.report) {
      error = "service delta report differs from the replayed delta run";
    } else if (r.delta.report != cold.report && r.delta.best_k != cold.best_k &&
               r.delta.composite < cold.composite - 1e-9) {
      error = "delta run selects K=" + std::to_string(r.delta.best_k) + " (composite " +
              std::to_string(r.delta.composite) + "), the cold run K=" +
              std::to_string(cold.best_k) + " (composite " + std::to_string(cold.composite) +
              "): neither identical, nor the same K, nor at least as good";
    }
    r.out["gate"] = r.delta.ok && r.delta.report == cold.report ? 1 : 2;
    r.out["same_k"] = r.delta.best_k == cold.best_k;
    r.out["ok"] = error.empty();
    if (!error.empty()) r.out["error"] = error;
  });

  Json::Array results;
  for (Replayed& r : replayed) results.push_back(Json(std::move(r.out)));
  Json::Object out;
  out["analyses"] = Json(std::move(results));
  out["ingest_s"] = ToJson(ingest_s);
  out["parse_s"] = ToJson(parse_s);
  WriteOut(flags, std::move(out));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: ada_perf paper|gen|verify-jobs|verify-stream --flag value ...");
  const Flags flags(argc, argv);
  const std::string command = argv[1];
  if (command == "paper") return Paper(flags);
  if (command == "gen") return Gen(flags);
  if (command == "verify-jobs") return VerifyJobs(flags);
  if (command == "verify-stream") return VerifyStream(flags);
  Die("unknown subcommand " + command);
}
