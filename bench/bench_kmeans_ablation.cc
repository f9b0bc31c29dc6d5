// Ablation A1: clustering engines on the paper-scale cohort VSM.
//
// Compares the naive Lloyd engine against the accelerated
// (Hamerly-pruned, fused-kernel, pooled) engine across a K sweep,
// verifying on every run that the two produce bit-identical
// assignments and SSE — a divergence is a hard failure (non-zero
// exit), which is what the CI bench-smoke job keys on. A second table
// ablates the accelerated engine's representation (sparse CSR vs
// dense), since the cohort VSM is the sparse regime the CSR path
// targets. Also keeps the original A1 reference points (kd-tree
// filtering K-means, init strategies) for context.
//
// Writes BENCH_kmeans.json into the current working directory; run it
// from the repo root to land the file there. Set ADA_BENCH_SMOKE=1 for
// the reduced CI configuration.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/filtering_kmeans.h"
#include "cluster/kmeans.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "dataset/synthetic_cohort.h"
#include "transform/sparse_matrix.h"
#include "transform/vsm.h"

namespace {

using namespace adahealth;

bool SmokeMode() {
  const char* env = std::getenv("ADA_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

transform::Matrix CohortVsm(bool smoke) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    smoke ? dataset::TestScaleConfig()
                          : dataset::PaperScaleConfig())
                    .Generate();
  return transform::BuildVsm(cohort->log);
}

common::Json MachineInfo() {
  common::Json::Object machine;
  machine["hardware_threads"] = static_cast<int64_t>(
      common::ThreadPool::Shared().num_threads());
  machine["pointer_bits"] = static_cast<int64_t>(sizeof(void*) * 8);
#ifdef __VERSION__
  machine["compiler"] = std::string("gcc/clang ") + __VERSION__;
#endif
#ifdef NDEBUG
  machine["build"] = "release";
#else
  machine["build"] = "debug";
#endif
  return common::Json(std::move(machine));
}

struct EngineRun {
  double millis = 0.0;
  cluster::Clustering clustering;
};

EngineRun Finish(common::StatusOr<cluster::Clustering> clustering,
                 double millis, int32_t k) {
  if (!clustering.ok()) {
    std::printf("k-means failed (k=%d): %s\n", k,
                clustering.status().ToString().c_str());
    std::exit(1);
  }
  EngineRun run;
  run.millis = millis;
  run.clustering = std::move(clustering).value();
  return run;
}

EngineRun TimeEngine(const transform::Matrix& vsm, int32_t k, uint64_t seed,
                     cluster::KMeansEngine engine) {
  cluster::KMeansOptions options;
  options.k = k;
  options.seed = seed;
  options.engine = engine;
  common::WallTimer timer;
  auto clustering = cluster::RunKMeans(vsm, options);
  return Finish(std::move(clustering), timer.ElapsedSeconds() * 1e3, k);
}

/// One accelerated run with the representation pinned (sparse runs on
/// the pre-built CSR form, so conversion cost is not in the timing).
EngineRun TimeVariant(const transform::Matrix& vsm,
                      const transform::CsrMatrix& csr, int32_t k,
                      uint64_t seed, bool sparse) {
  cluster::KMeansOptions options;
  options.k = k;
  options.seed = seed;
  options.engine = cluster::KMeansEngine::kAccelerated;
  common::WallTimer timer;
  common::StatusOr<cluster::Clustering> clustering =
      common::InternalError("not run");
  if (sparse) {
    options.representation = cluster::KMeansRepresentation::kSparse;
    clustering = cluster::RunKMeans(csr, options);
  } else {
    options.representation = cluster::KMeansRepresentation::kDense;
    clustering = cluster::RunKMeans(vsm, options);
  }
  return Finish(std::move(clustering), timer.ElapsedSeconds() * 1e3, k);
}

bool Identical(const cluster::Clustering& a, const cluster::Clustering& b) {
  return a.assignments == b.assignments && a.sse == b.sse &&
         a.iterations == b.iterations;
}

int Run() {
  const bool smoke = SmokeMode();
  const transform::Matrix vsm = CohortVsm(smoke);
  const transform::CsrMatrix csr = transform::CsrMatrix::FromDense(vsm);
  const double density = csr.Density();
  const std::vector<int32_t> ks =
      smoke ? std::vector<int32_t>{4, 8}
            : std::vector<int32_t>{2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<uint64_t> seeds =
      smoke ? std::vector<uint64_t>{20160516}
            : std::vector<uint64_t>{20160516, 7, 42};

  std::printf(
      "=== Ablation A1: k-means engines (%zu x %zu VSM, %.2f%% nnz%s) "
      "===\n",
      vsm.rows(), vsm.cols(), density * 100.0,
      smoke ? ", smoke config" : "");
  std::printf("%-4s %-12s %-11s %-11s %-8s %-6s %-14s %s\n", "K", "seed",
              "naive(ms)", "accel(ms)", "speedup", "iters", "skipped",
              "identical");

  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  common::Json::Array results;
  common::Json::Array ablation;
  bool all_identical = true;
  double log_speedup_sum = 0.0;
  double min_speedup = 0.0;
  size_t runs = 0;
  double log_ablation_sum = 0.0;
  size_t ablation_runs = 0;
  for (int32_t k : ks) {
    for (uint64_t seed : seeds) {
      EngineRun naive =
          TimeEngine(vsm, k, seed, cluster::KMeansEngine::kNaive);
      metrics.Reset();
      EngineRun accel =
          TimeEngine(vsm, k, seed, cluster::KMeansEngine::kAccelerated);
      const int64_t skipped =
          metrics.GetCounter("kmeans/skipped_distance_checks").value();
      const int64_t recomputes =
          metrics.GetCounter("kmeans/bound_recomputes").value();
      const int64_t chunks =
          metrics.GetCounter("kmeans/parallel_chunks").value();
      const bool went_sparse =
          metrics.GetCounter("kmeans/sparse_runs").value() > 0;

      const bool identical = Identical(naive.clustering, accel.clustering);
      all_identical = all_identical && identical;
      const double speedup =
          accel.millis > 0.0 ? naive.millis / accel.millis : 0.0;
      if (speedup > 0.0) {
        log_speedup_sum += std::log(speedup);
        min_speedup = runs == 0 ? speedup : std::min(min_speedup, speedup);
        ++runs;
      }
      std::printf("%-4d %-12llu %-11.1f %-11.1f %-8.2f %-6d %-14lld %s\n",
                  k, static_cast<unsigned long long>(seed), naive.millis,
                  accel.millis, speedup, accel.clustering.iterations,
                  static_cast<long long>(skipped),
                  identical ? "yes" : "NO  <-- DIVERGENCE");

      common::Json::Object row;
      row["k"] = static_cast<int64_t>(k);
      row["seed"] = static_cast<int64_t>(seed);
      row["naive_ms"] = naive.millis;
      row["accel_ms"] = accel.millis;
      row["speedup"] = speedup;
      row["sse"] = accel.clustering.sse;
      row["iterations"] =
          static_cast<int64_t>(accel.clustering.iterations);
      row["identical"] = identical;
      row["representation"] = went_sparse ? "sparse" : "dense";
      row["skipped_distance_checks"] = skipped;
      row["bound_recomputes"] = recomputes;
      row["parallel_chunks"] = chunks;
      results.push_back(common::Json(std::move(row)));

      // Representation ablation of the accelerated engine (first seed
      // only): dense is the engine as it existed before the sparse
      // work; sparse is today's default on this VSM.
      if (seed != seeds[0]) continue;
      double dense_ms = 0.0;
      for (const bool sparse : {false, true}) {
        const char* variant = sparse ? "sparse" : "dense";
        EngineRun run = TimeVariant(vsm, csr, k, seed, sparse);
        const bool variant_identical =
            Identical(naive.clustering, run.clustering);
        all_identical = all_identical && variant_identical;
        if (!sparse) dense_ms = run.millis;
        if (sparse && run.millis > 0.0 && dense_ms > 0.0) {
          log_ablation_sum += std::log(dense_ms / run.millis);
          ++ablation_runs;
        }
        std::printf("     %-16s %-11.1f %-8.2f %s\n", variant,
                    run.millis,
                    run.millis > 0.0 ? naive.millis / run.millis : 0.0,
                    variant_identical ? "yes" : "NO  <-- DIVERGENCE");
        common::Json::Object arow;
        arow["k"] = static_cast<int64_t>(k);
        arow["seed"] = static_cast<int64_t>(seed);
        arow["representation"] = variant;
        arow["millis"] = run.millis;
        arow["speedup_vs_naive"] =
            run.millis > 0.0 ? naive.millis / run.millis : 0.0;
        arow["identical"] = variant_identical;
        ablation.push_back(common::Json(std::move(arow)));
      }
    }
  }
  const double geomean_speedup =
      runs > 0 ? std::exp(log_speedup_sum / static_cast<double>(runs)) : 0.0;
  const double ablation_geomean =
      ablation_runs > 0
          ? std::exp(log_ablation_sum / static_cast<double>(ablation_runs))
          : 0.0;
  std::printf("geomean speedup: %.2fx (min %.2fx); sparse vs dense "
              "accel: %.2fx\n",
              geomean_speedup, min_speedup, ablation_geomean);

  // Reference points: the kd-tree filtering engine at the paper's
  // K = 8 (full mode only; it is not part of the identity contract).
  common::Json::Array reference;
  if (!smoke) {
    {
      cluster::KMeansOptions options;
      options.k = 8;
      options.seed = 20160516;
      common::WallTimer timer;
      auto clustering = cluster::RunFilteringKMeans(vsm, options);
      if (clustering.ok()) {
        common::Json::Object row;
        row["algorithm"] = "filtering_kmeans";
        row["millis"] = timer.ElapsedSeconds() * 1e3;
        row["sse"] = clustering->sse;
        reference.push_back(common::Json(std::move(row)));
      }
    }
    // Initialization ablation: k-means++ vs random seeding at the
    // paper's K = 8 (iterations to convergence at equal-quality SSE).
    for (int init = 0; init < 2; ++init) {
      cluster::KMeansOptions options;
      options.k = 8;
      options.seed = 20160516;
      options.init = init == 0 ? cluster::KMeansInit::kRandom
                               : cluster::KMeansInit::kKMeansPlusPlus;
      common::WallTimer timer;
      auto clustering = cluster::RunKMeans(vsm, options);
      if (clustering.ok()) {
        common::Json::Object row;
        row["algorithm"] =
            init == 0 ? "init_random" : "init_kmeans++";
        row["millis"] = timer.ElapsedSeconds() * 1e3;
        row["sse"] = clustering->sse;
        row["iterations"] =
            static_cast<int64_t>(clustering->iterations);
        reference.push_back(common::Json(std::move(row)));
      }
    }
  }

  common::Json::Object doc;
  doc["bench"] = "kmeans_engines";
  {
    common::Json::Object config;
    config["rows"] = static_cast<int64_t>(vsm.rows());
    config["cols"] = static_cast<int64_t>(vsm.cols());
    config["nnz_density"] = density;
    config["smoke"] = smoke;
    common::Json::Array k_array;
    for (int32_t k : ks) k_array.push_back(static_cast<int64_t>(k));
    config["ks"] = common::Json(std::move(k_array));
    doc["config"] = common::Json(std::move(config));
  }
  doc["machine"] = MachineInfo();
  doc["results"] = common::Json(std::move(results));
  doc["ablation"] = common::Json(std::move(ablation));
  doc["reference"] = common::Json(std::move(reference));
  {
    common::Json::Object summary;
    summary["geomean_speedup"] = geomean_speedup;
    summary["min_speedup"] = min_speedup;
    summary["ablation_geomean_sparse_vs_dense"] = ablation_geomean;
    summary["nnz_density"] = density;
    summary["all_identical"] = all_identical;
    doc["summary"] = common::Json(std::move(summary));
  }

  const std::string path = "BENCH_kmeans.json";
  std::ofstream out(path);
  out << common::Json(std::move(doc)).Pretty() << "\n";
  if (!out) {
    std::printf("failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("[kmeans_ablation] results written to %s\n", path.c_str());

  if (!all_identical) {
    std::printf("[kmeans_ablation] FAIL: accelerated engine diverged from "
                "naive Lloyd\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
