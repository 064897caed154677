// Tests of the FAST-MCD robust estimator and its OutlierMode::kMCD
// integration (the exact-MVE-class option of §7.4.1).

#include "src/core/robust.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/random.h"
#include "src/core/outlier.h"
#include "src/mr/p3c_mr.h"

namespace p3c::core {
namespace {

std::vector<linalg::Vector> BlobWithJunk(size_t n_blob, size_t n_junk,
                                         Rng& rng) {
  std::vector<linalg::Vector> members;
  for (size_t i = 0; i < n_blob; ++i) {
    members.push_back({rng.Gaussian(0.5, 0.02), rng.Gaussian(0.5, 0.02)});
  }
  for (size_t i = 0; i < n_junk; ++i) {
    members.push_back({rng.Uniform(), rng.Uniform()});
  }
  return members;
}

TEST(McdTest, EmptyInput) {
  const McdResult result = ComputeMcd({});
  EXPECT_TRUE(result.mean.empty());
  EXPECT_TRUE(result.h_subset.empty());
}

TEST(McdTest, TinyInputFallsBackToClassical) {
  // 3 points in 2D: fewer than dim + 2.
  const std::vector<linalg::Vector> members = {{0.0, 0.0}, {1.0, 0.0},
                                               {0.5, 1.0}};
  const McdResult result = ComputeMcd(members);
  EXPECT_EQ(result.h_subset.size(), 3u);
  EXPECT_NEAR(result.mean[0], 0.5, 1e-12);
  EXPECT_NEAR(result.mean[1], 1.0 / 3.0, 1e-12);
}

TEST(McdTest, IgnoresGrossContamination) {
  Rng rng(5);
  // 70% tight blob at (0.5, 0.5), 30% junk: MCD must estimate the blob.
  const auto members = BlobWithJunk(700, 300, rng);
  const McdResult result = ComputeMcd(members);
  EXPECT_NEAR(result.mean[0], 0.5, 0.01);
  EXPECT_NEAR(result.mean[1], 0.5, 0.01);
  // Covariance reflects the blob, not the junk: sigma ~ 0.02.
  EXPECT_LT(result.cov(0, 0), 0.005);
  EXPECT_LT(result.cov(1, 1), 0.005);
  // h-subset size ~ half the data, valid indices.
  EXPECT_GE(result.h_subset.size(), members.size() / 2);
  for (uint32_t idx : result.h_subset) EXPECT_LT(idx, members.size());
}

TEST(McdTest, BeatsClassicalUnderContamination) {
  Rng rng(6);
  const auto members = BlobWithJunk(600, 400, rng);
  const McdResult mcd = ComputeMcd(members);
  // Classical covariance of all members is inflated by the junk.
  linalg::Vector mean(2, 0.0);
  for (const auto& m : members) {
    mean[0] += m[0];
    mean[1] += m[1];
  }
  mean[0] /= static_cast<double>(members.size());
  mean[1] /= static_cast<double>(members.size());
  linalg::Matrix cov(2, 2);
  for (const auto& m : members) {
    cov.AddLowerOuterProduct(linalg::VecSub(m, mean), 1.0);
  }
  cov = cov.Scale(1.0 / static_cast<double>(members.size()));
  cov.MirrorLower();
  EXPECT_LT(mcd.cov(0, 0), cov(0, 0) / 4.0);
}

TEST(McdTest, DeterministicInSeed) {
  Rng rng(7);
  const auto members = BlobWithJunk(300, 100, rng);
  McdOptions options;
  options.seed = 11;
  const McdResult a = ComputeMcd(members, options);
  const McdResult b = ComputeMcd(members, options);
  EXPECT_EQ(a.h_subset, b.h_subset);
  EXPECT_EQ(a.mean, b.mean);
}

TEST(McdTest, MoreTrialsNeverWorse) {
  Rng rng(8);
  const auto members = BlobWithJunk(400, 200, rng);
  McdOptions few;
  few.num_trials = 1;
  McdOptions many;
  many.num_trials = 16;
  const double det_few = ComputeMcd(members, few).log_det;
  const double det_many = ComputeMcd(members, many).log_det;
  EXPECT_LE(det_many, det_few + 1e-9);
}

TEST(McdOutlierModeTest, WorksInSerialPipelineStep) {
  // Same masking scenario as the MVB test: inflated EM covariance, junk
  // absorbed; MCD must reject the far junk.
  Rng rng(9);
  const size_t n_blob = 600;
  const size_t n_junk = 50;
  data::Dataset d(n_blob + n_junk, 2);
  data::PointId next = 0;
  for (size_t i = 0; i < n_blob; ++i, ++next) {
    d.Set(next, 0, rng.TruncatedGaussian(0.5, 0.03, 0.0, 1.0));
    d.Set(next, 1, rng.TruncatedGaussian(0.5, 0.03, 0.0, 1.0));
  }
  for (size_t i = 0; i < n_junk; ++i, ++next) {
    d.Set(next, 0, rng.Uniform());
    d.Set(next, 1, rng.Uniform());
  }
  GmmModel model;
  model.arel = {0, 1};
  model.components = {GaussianComponent{
      {0.5, 0.5}, linalg::Matrix::Identity(2).Scale(0.05), 1.0}};

  P3CParams params;
  params.outlier = OutlierMode::kMCD;
  const auto result = DetectOutliers(d, model, params, nullptr);
  ASSERT_TRUE(result.ok());
  size_t blob_kept = 0;
  for (size_t i = 0; i < n_blob; ++i) {
    blob_kept += result->assignment[i] == 0;
  }
  EXPECT_GT(blob_kept, n_blob * 8 / 10);
  size_t junk_flagged = 0;
  for (size_t i = n_blob; i < n_blob + n_junk; ++i) {
    const double dx = d.Get(static_cast<data::PointId>(i), 0) - 0.5;
    const double dy = d.Get(static_cast<data::PointId>(i), 1) - 0.5;
    if (std::sqrt(dx * dx + dy * dy) > 0.3) {
      junk_flagged += result->assignment[i] == -1;
    }
  }
  EXPECT_GT(junk_flagged, 0u);
}

TEST(McdOutlierModeTest, RejectedByMapReduceDriver) {
  mr::P3CMROptions options;
  options.params.outlier = OutlierMode::kMCD;
  mr::P3CMR algo{options};
  data::Dataset d(10, 2);
  const auto result = algo.Cluster(d);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
}

}  // namespace
}  // namespace p3c::core
