// End-to-end tests of the MapReduce pipelines: equivalence with the
// serial reference implementation and the structural properties the
// paper claims (job counts, Light's smaller footprint).

#include "src/mr/p3c_mr.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

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
      out.counters_json = mr.counters().Snapshot().ToJson();
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

}  // namespace
}  // namespace p3c::mr
