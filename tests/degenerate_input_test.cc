// Degenerate data end to end: a constant column, fewer rows than
// histogram bins, many more attributes than rows (the colon-cancer
// shape, 62 x 2000), and non-finite coordinates. Each case runs through
// core::P3CPipeline (full and Light) and mr::P3CMR (Light and MVB, in
// process). Every run returns a Status or a well-formed result and
// never crashes; NaN and ±inf are InvalidArgument from the histogram
// scan of both pipelines; on finite data P3C+-MR-Light equals
// P3CPipeline{LightParams()} exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/core/p3c.h"
#include "src/data/generator.h"
#include "src/mr/p3c_mr.h"

namespace p3c {
namespace {

/// n x d values drawn uniformly from [0, 1).
data::Dataset Uniform(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  data::Dataset dataset(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      dataset.Set(static_cast<data::PointId>(i), j, rng.Uniform());
    }
  }
  return dataset;
}

/// Generated clusters whose attribute `column` holds one value.
data::Dataset WithConstantColumn(size_t column) {
  data::GeneratorConfig config;
  config.num_points = 1500;
  config.num_dims = 12;
  config.num_clusters = 3;
  config.seed = 17;
  data::Dataset dataset = data::GenerateSynthetic(config).value().dataset;
  for (size_t i = 0; i < dataset.num_points(); ++i) {
    dataset.Set(static_cast<data::PointId>(i), column, 0.5);
  }
  return dataset;
}

/// Clusters, attributes and intervals, each double printed exactly.
std::string Canonical(const core::ClusteringResult& result) {
  std::string out;
  for (const core::ProjectedCluster& cluster : result.clusters) {
    out += "cluster points:";
    for (data::PointId p : cluster.points) out += " " + std::to_string(p);
    out += " attrs:";
    for (size_t a : cluster.attrs) out += " " + std::to_string(a);
    out += " intervals:";
    for (const core::Interval& iv : cluster.intervals) {
      out += StringPrintf(" %zu[%.17g,%.17g]", iv.attr, iv.lower, iv.upper);
    }
    out += "\n";
  }
  return out;
}

/// A well-formed result over an n x d dataset: sorted in-range points
/// and attributes, one ordered interval per attribute.
void ExpectWellFormed(const core::ClusteringResult& result, size_t n,
                      size_t d) {
  for (const core::ProjectedCluster& cluster : result.clusters) {
    EXPECT_TRUE(std::is_sorted(cluster.points.begin(), cluster.points.end()));
    for (data::PointId p : cluster.points) EXPECT_LT(p, n);
    EXPECT_TRUE(std::is_sorted(cluster.attrs.begin(), cluster.attrs.end()));
    for (size_t a : cluster.attrs) EXPECT_LT(a, d);
    ASSERT_EQ(cluster.intervals.size(), cluster.attrs.size());
    for (size_t i = 0; i < cluster.intervals.size(); ++i) {
      const core::Interval& iv = cluster.intervals[i];
      EXPECT_EQ(iv.attr, cluster.attrs[i]);
      EXPECT_LE(iv.lower, iv.upper);
    }
  }
  for (size_t a : result.arel) EXPECT_LT(a, d);
}

mr::P3CMROptions MrOptions(core::P3CParams params) {
  mr::P3CMROptions options;
  options.params = params;
  options.runner.num_threads = 2;
  return options;
}

struct Outcomes {
  Result<core::ClusteringResult> full = Status::Internal("not run");
  Result<core::ClusteringResult> light = Status::Internal("not run");
  Result<core::ClusteringResult> mr_light = Status::Internal("not run");
  Result<core::ClusteringResult> mr_mvb = Status::Internal("not run");
};

/// The four pipelines on `dataset`.
Outcomes RunAll(const data::Dataset& dataset) {
  Outcomes out;
  out.full = core::P3CPipeline(core::P3CParams{}, 2).Cluster(dataset);
  out.light = core::P3CPipeline(core::LightParams(), 2).Cluster(dataset);
  out.mr_light = mr::P3CMR(MrOptions(core::LightParams())).Cluster(dataset);
  core::P3CParams mvb;
  mvb.outlier = core::OutlierMode::kMVB;
  out.mr_mvb = mr::P3CMR(MrOptions(mvb)).Cluster(dataset);
  return out;
}

/// Finite input: each run is a Status or a well-formed result, and
/// MR-Light is the serial Light pipeline's result.
void ExpectFiniteCase(const data::Dataset& dataset) {
  const size_t n = dataset.num_points();
  const size_t d = dataset.num_dims();
  const Outcomes out = RunAll(dataset);
  for (const auto* run : {&out.full, &out.light, &out.mr_light, &out.mr_mvb}) {
    if (run->ok()) ExpectWellFormed(**run, n, d);
  }
  ASSERT_EQ(out.mr_light.ok(), out.light.ok())
      << "serial Light: " << out.light.status().ToString()
      << "; MR-Light: " << out.mr_light.status().ToString();
  if (out.light.ok()) {
    EXPECT_EQ(Canonical(*out.mr_light), Canonical(*out.light));
    EXPECT_EQ(out.mr_light->arel, out.light->arel);
  } else {
    EXPECT_EQ(out.mr_light.status().code(), out.light.status().code());
  }
}

TEST(DegenerateInputTest, ConstantColumn) {
  ExpectFiniteCase(WithConstantColumn(4));
}

TEST(DegenerateInputTest, EveryColumnConstant) {
  data::Dataset dataset(400, 6);
  for (size_t i = 0; i < dataset.num_points(); ++i) {
    for (size_t j = 0; j < dataset.num_dims(); ++j) {
      dataset.Set(static_cast<data::PointId>(i), j, 0.25);
    }
  }
  ExpectFiniteCase(dataset);
}

TEST(DegenerateInputTest, FewerRowsThanBins) {
  ExpectFiniteCase(Uniform(5, 4, 3));
}

TEST(DegenerateInputTest, SingleRow) { ExpectFiniteCase(Uniform(1, 3, 4)); }

TEST(DegenerateInputTest, FarMoreAttributesThanRows) {
  ExpectFiniteCase(Uniform(62, 2000, 5));
}

/// Every pipeline rejects `value` at one coordinate of a valid dataset
/// as InvalidArgument; the MR pipelines name the histogram phase.
void ExpectNonFiniteRejected(double value) {
  data::Dataset dataset = Uniform(300, 5, 6);
  dataset.Set(137, 2, value);
  const Outcomes out = RunAll(dataset);
  for (const auto* run : {&out.full, &out.light, &out.mr_light, &out.mr_mvb}) {
    ASSERT_FALSE(run->ok());
    EXPECT_EQ(run->status().code(), StatusCode::kInvalidArgument)
        << run->status().ToString();
  }
  for (const auto* run : {&out.mr_light, &out.mr_mvb}) {
    EXPECT_NE(run->status().message().find("phase 'histogram'"),
              std::string::npos)
        << run->status().ToString();
  }
}

TEST(DegenerateInputTest, NaNCoordinateIsInvalidArgument) {
  ExpectNonFiniteRejected(std::numeric_limits<double>::quiet_NaN());
}

TEST(DegenerateInputTest, PositiveInfinityIsInvalidArgument) {
  ExpectNonFiniteRejected(std::numeric_limits<double>::infinity());
}

TEST(DegenerateInputTest, NegativeInfinityIsInvalidArgument) {
  ExpectNonFiniteRejected(-std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace p3c
