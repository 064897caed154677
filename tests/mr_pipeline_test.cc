// End-to-end tests of the MapReduce pipelines: equivalence with the
// serial reference implementation and the structural properties the
// paper claims (job counts, Light's smaller footprint).

#include "src/mr/p3c_mr.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/core/p3c.h"
#include "src/data/generator.h"
#include "src/eval/e4sc.h"

namespace p3c::mr {
namespace {

data::SyntheticData MakeData(uint64_t seed, size_t n = 8000) {
  data::GeneratorConfig config;
  config.num_points = n;
  config.num_dims = 50;
  config.num_clusters = 3;
  config.noise_fraction = 0.10;
  config.seed = seed;
  return data::GenerateSynthetic(config).value();
}

TEST(P3CMRTest, MatchesSerialCores) {
  const auto data = MakeData(71);
  // Per-level proving on both sides for exact core equality.
  core::P3CParams params;
  params.multilevel_candidates = false;
  core::P3CPipeline serial{params};
  auto serial_result = serial.Cluster(data.dataset);
  ASSERT_TRUE(serial_result.ok());

  P3CMROptions options;
  options.params = params;
  P3CMR mr{options};
  auto mr_result = mr.Cluster(data.dataset);
  ASSERT_TRUE(mr_result.ok());

  ASSERT_EQ(mr_result->cores.size(), serial_result->cores.size());
  for (size_t i = 0; i < mr_result->cores.size(); ++i) {
    EXPECT_EQ(mr_result->cores[i].signature,
              serial_result->cores[i].signature);
    EXPECT_EQ(mr_result->cores[i].support, serial_result->cores[i].support);
  }
  EXPECT_EQ(mr_result->arel, serial_result->arel);
}

TEST(P3CMRTest, QualityComparableToSerial) {
  const auto data = MakeData(72);
  const auto gt = eval::FromGroundTruth(data.clusters);

  core::P3CPipeline serial{core::P3CParams{}};
  auto serial_result = serial.Cluster(data.dataset);
  ASSERT_TRUE(serial_result.ok());
  const double serial_e4sc = eval::E4SC(gt, serial_result->ToEvalClustering());

  P3CMR mr{P3CMROptions{}};
  auto mr_result = mr.Cluster(data.dataset);
  ASSERT_TRUE(mr_result.ok());
  const double mr_e4sc = eval::E4SC(gt, mr_result->ToEvalClustering());

  EXPECT_GT(mr_e4sc, 0.8);
  EXPECT_NEAR(mr_e4sc, serial_e4sc, 0.1);
}

TEST(P3CMRTest, LightMatchesSerialLightExactly) {
  const auto data = MakeData(73);
  core::P3CParams params = core::LightParams();
  params.multilevel_candidates = false;
  core::P3CPipeline serial{params};
  auto serial_result = serial.Cluster(data.dataset);
  ASSERT_TRUE(serial_result.ok());

  P3CMROptions options;
  options.params = params;
  P3CMR mr{options};
  auto mr_result = mr.Cluster(data.dataset);
  ASSERT_TRUE(mr_result.ok());

  // Light is fully deterministic: identical clusters on both paths.
  ASSERT_EQ(mr_result->clusters.size(), serial_result->clusters.size());
  for (size_t c = 0; c < mr_result->clusters.size(); ++c) {
    EXPECT_EQ(mr_result->clusters[c].points,
              serial_result->clusters[c].points);
    EXPECT_EQ(mr_result->clusters[c].attrs, serial_result->clusters[c].attrs);
    ASSERT_EQ(mr_result->clusters[c].intervals.size(),
              serial_result->clusters[c].intervals.size());
    for (size_t a = 0; a < mr_result->clusters[c].intervals.size(); ++a) {
      EXPECT_DOUBLE_EQ(mr_result->clusters[c].intervals[a].lower,
                       serial_result->clusters[c].intervals[a].lower);
      EXPECT_DOUBLE_EQ(mr_result->clusters[c].intervals[a].upper,
                       serial_result->clusters[c].intervals[a].upper);
    }
  }
}

TEST(P3CMRTest, LightRunsFewerJobs) {
  const auto data = MakeData(74, 5000);
  P3CMROptions full_options;
  P3CMR full{full_options};
  ASSERT_TRUE(full.Cluster(data.dataset).ok());
  const size_t full_jobs = full.metrics().num_jobs();

  P3CMROptions light_options;
  light_options.params.light = true;
  P3CMR light{light_options};
  ASSERT_TRUE(light.Cluster(data.dataset).ok());
  const size_t light_jobs = light.metrics().num_jobs();

  // §7.5.2: P3C+-MR's runtime comes from its larger number of MR jobs
  // (EM iterations in particular).
  EXPECT_LT(light_jobs, full_jobs);
  EXPECT_GE(full_jobs - light_jobs, 6u);  // >= EM init + steps + OD block
}

TEST(P3CMRTest, MetricsTrackEveryJob) {
  const auto data = MakeData(75, 4000);
  P3CMROptions options;
  options.params.light = true;
  P3CMR mr{options};
  ASSERT_TRUE(mr.Cluster(data.dataset).ok());
  const auto& jobs = mr.metrics().jobs();
  ASSERT_FALSE(jobs.empty());
  EXPECT_EQ(jobs.front().job_name, "histogram");
  for (const auto& job : jobs) {
    EXPECT_EQ(job.input_records, data.dataset.num_points());
    EXPECT_GT(job.num_splits, 0u);
  }
  EXPECT_GT(mr.metrics().TotalShuffleBytes(), 0u);
  // A second run resets the registry instead of accumulating.
  const size_t jobs_first = jobs.size();
  ASSERT_TRUE(mr.Cluster(data.dataset).ok());
  EXPECT_EQ(mr.metrics().num_jobs(), jobs_first);
}

TEST(P3CMRTest, RejectsBadInput) {
  P3CMR mr{P3CMROptions{}};
  EXPECT_FALSE(mr.Cluster(data::Dataset()).ok());
  auto denormalized = data::Dataset::FromRowMajor({0.5, 3.0}, 1).value();
  EXPECT_FALSE(mr.Cluster(denormalized).ok());
}

TEST(P3CMRTest, DeterministicAcrossRuns) {
  const auto data = MakeData(76, 4000);
  P3CMROptions options;
  options.params.light = true;
  P3CMR a{options};
  P3CMR b{options};
  auto ra = a.Cluster(data.dataset);
  auto rb = b.Cluster(data.dataset);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->clusters.size(), rb->clusters.size());
  for (size_t c = 0; c < ra->clusters.size(); ++c) {
    EXPECT_EQ(ra->clusters[c].points, rb->clusters[c].points);
    EXPECT_EQ(ra->clusters[c].attrs, rb->clusters[c].attrs);
  }
}

/// Everything the output contract covers, as text: Arel, and per cluster
/// its attributes, intervals and points.
std::string CanonicalClusters(const core::ClusteringResult& r) {
  std::string out = "arel:";
  for (size_t a : r.arel) out += " " + std::to_string(a);
  for (const auto& cluster : r.clusters) {
    out += "\ncluster attrs:";
    for (size_t a : cluster.attrs) out += " " + std::to_string(a);
    out += " intervals:";
    for (const auto& iv : cluster.intervals) out += " " + iv.ToString();
    out += " points:";
    for (data::PointId p : cluster.points) out += " " + std::to_string(p);
  }
  return out;
}

TEST(P3CMRTest, FullMvbDeterministicAcrossThreadsAndReducers) {
  // The full pipeline (EM + MVB outlier detection, not Light): clusters,
  // counter JSON and the job count must not depend on the thread count,
  // the reducer count or the backend.
  const auto data = MakeData(76, 4000);
  struct Run {
    std::string label;
    std::string clusters;
    std::string counters_json;
    size_t num_jobs = 0;
  };
  auto run = [&data](std::string label, RunnerOptions runner) {
    P3CMROptions options;
    options.params.outlier = core::OutlierMode::kMVB;
    options.runner = runner;
    P3CMR mr{options};
    auto result = mr.Cluster(data.dataset);
    EXPECT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    Run out{std::move(label), "", "", mr.metrics().num_jobs()};
    if (result.ok()) {
      out.clusters = CanonicalClusters(*result);
      out.counters_json = mr.counters().ToJson();
    }
    return out;
  };
  std::vector<Run> runs;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t reducers : {size_t{1}, size_t{3}}) {
      RunnerOptions runner;
      runner.num_threads = threads;
      runner.num_reducers = reducers;
      runs.push_back(run("threads=" + std::to_string(threads) +
                             " reducers=" + std::to_string(reducers),
                         runner));
    }
  }
  RunnerOptions process;
  process.backend = Backend::kProcess;
  process.num_threads = 2;
  process.num_workers = 2;
  process.num_reducers = 3;
  runs.push_back(run("process backend", process));

  ASSERT_FALSE(runs[0].clusters.empty());
  EXPECT_NE(runs[0].clusters.find("cluster"), std::string::npos);
  for (const Run& r : runs) {
    EXPECT_EQ(r.clusters, runs[0].clusters) << r.label;
    EXPECT_EQ(r.counters_json, runs[0].counters_json) << r.label;
    EXPECT_EQ(r.num_jobs, runs[0].num_jobs) << r.label;
  }
}

// ---- The [0, 1] check inside the histogram scan -----------------------------

/// A normalized 2000 x 50 dataset with one value replaced by `value`.
data::Dataset WithOneValue(double value) {
  data::Dataset dataset = MakeData(77, 2000).dataset;
  dataset.Set(1234, 17, value);
  return dataset;
}

/// Values the histogram scan must reject: each fails x >= 0 && x <= 1.
std::vector<double> OutOfRangeValues() {
  return {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(), -1e-300,
          1.0 + 0x1.0p-52};
}

/// Boundary values inside [0, 1] by the same test.
std::vector<double> BoundaryValues() { return {-0.0, 1.0}; }

TEST(NormalizationCheckTest, MrHistogramJobRejectsOnEveryBackend) {
  RunnerOptions in_process;
  in_process.num_threads = 4;
  in_process.records_per_split = 300;
  RunnerOptions process = in_process;
  process.backend = Backend::kProcess;
  process.num_workers = 2;
  for (const RunnerOptions& runner : {in_process, process}) {
    const std::string backend =
        runner.backend == Backend::kProcess ? "process" : "in-process";
    for (double value : OutOfRangeValues()) {
      const std::filesystem::path dir =
          std::filesystem::temp_directory_path() /
          ("p3c_norm_check_" + std::to_string(::getpid()));
      std::filesystem::remove_all(dir);
      P3CMROptions options;
      options.params.light = true;
      options.runner = runner;
      options.retry.max_job_attempts = 3;
      options.checkpoint_dir = dir.string();
      P3CMR mr{options};
      const auto result = mr.Cluster(WithOneValue(value));
      ASSERT_FALSE(result.ok()) << backend << " value " << value;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << backend << " value " << value << ": "
          << result.status().ToString();
      EXPECT_NE(result.status().message().find("normalized to [0, 1]"),
                std::string::npos)
          << result.status().ToString();
      // Not retried: one histogram job, and no phase committed.
      ASSERT_EQ(mr.metrics().num_jobs(), 1u) << backend << " value " << value;
      EXPECT_EQ(mr.metrics().jobs().front().job_name, "histogram");
      // The checkpoint manager made the directory before the job ran;
      // the rejection leaves it empty.
      ASSERT_TRUE(std::filesystem::is_directory(dir))
          << backend << " value " << value;
      EXPECT_TRUE(std::filesystem::is_empty(dir))
          << backend << " value " << value;
      if (runner.backend == Backend::kProcess) {
        // The scan ran in forked workers, not in the driver.
        EXPECT_GT(mr.driver_metrics().Get("worker.spawn_total"), 0u);
      }
      std::filesystem::remove_all(dir);
    }
    for (double value : BoundaryValues()) {
      P3CMROptions options;
      options.params.light = true;
      options.runner = runner;
      P3CMR mr{options};
      const auto result = mr.Cluster(WithOneValue(value));
      EXPECT_TRUE(result.ok()) << backend << " value " << value << ": "
                               << result.status().ToString();
    }
  }
}

TEST(NormalizationCheckTest, SerialPipelineRejectsInItsHistogramScan) {
  for (double value : OutOfRangeValues()) {
    core::P3CPipeline pipeline{core::P3CParams{}, 4};
    const auto result = pipeline.Cluster(WithOneValue(value));
    ASSERT_FALSE(result.ok()) << "value " << value;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "value " << value;
  }
  for (double value : BoundaryValues()) {
    core::P3CPipeline pipeline{core::P3CParams{}, 4};
    const auto result = pipeline.Cluster(WithOneValue(value));
    EXPECT_TRUE(result.ok()) << "value " << value << ": "
                             << result.status().ToString();
  }
}

}  // namespace
}  // namespace p3c::mr
