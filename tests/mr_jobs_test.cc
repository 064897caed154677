// Tests of the individual MapReduce jobs against their serial-pipeline
// counterparts: each job must compute exactly the same statistic.

#include "src/mr/jobs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/attribute_inspection.h"
#include "src/core/interval_tightening.h"
#include "src/core/support_counter.h"
#include "src/data/generator.h"
#include "src/mapreduce/fault.h"
#include "src/mapreduce/metrics.h"
#include "src/stats/chi_squared.h"

#if defined(__SANITIZE_THREAD__)
#define P3C_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define P3C_TSAN 1
#endif
#endif

namespace p3c::mr {
namespace {

data::SyntheticData MakeData(uint64_t seed, size_t n = 3000) {
  data::GeneratorConfig config;
  config.num_points = n;
  config.num_dims = 12;
  config.num_clusters = 2;
  config.noise_fraction = 0.10;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 4;
  config.force_overlap = false;
  config.seed = seed;
  return data::GenerateSynthetic(config).value();
}

LocalRunner MakeRunner() {
  RunnerOptions options;
  options.num_threads = 4;
  options.records_per_split = 500;
  return LocalRunner(options);
}

TEST(HistogramJobTest, MatchesDirectHistograms) {
  const auto data = MakeData(61);
  LocalRunner runner = MakeRunner();
  const auto job = RunHistogramJob(runner, data.dataset,
                                   stats::BinningRule::kFreedmanDiaconis)
                       .value();
  ASSERT_EQ(job.size(), 12u);
  // Direct computation.
  const size_t bins = stats::FreedmanDiaconisBins(data.dataset.num_points());
  for (size_t attr = 0; attr < 12; ++attr) {
    stats::Histogram direct(bins);
    for (size_t i = 0; i < data.dataset.num_points(); ++i) {
      direct.Add(data.dataset.Get(static_cast<data::PointId>(i), attr));
    }
    EXPECT_EQ(job[attr].counts(), direct.counts()) << "attr " << attr;
  }
}

TEST(SupportJobTest, MatchesSerialCounter) {
  const auto data = MakeData(62);
  LocalRunner runner = MakeRunner();
  std::vector<core::Signature> sigs;
  Rng rng(5);
  for (int s = 0; s < 25; ++s) {
    const size_t attr = rng.UniformInt(12);
    const double lo = rng.Uniform(0.0, 0.7);
    sigs.push_back(core::Signature::Single({attr, lo, lo + 0.25}));
  }
  const auto job = RunSupportJob(runner, data.dataset, sigs).value();
  const auto serial = core::CountSupports(data.dataset, sigs, nullptr);
  EXPECT_EQ(job, serial);
  EXPECT_TRUE(RunSupportJob(runner, data.dataset, {}).value().empty());
}

class UniformWeightMembership : public MembershipFn {
 public:
  void Contributions(RecordRange rows, const double* xs,
                     RangeMemberships& out) const override {
    (void)xs;
    out.Reset();
    out.log_likelihood.resize(rows.size());
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const auto r = static_cast<uint32_t>(i - rows.begin);
      // Even points to component 0 with weight 1, odd to 1 with weight 0.5.
      if (i % 2 == 0) {
        out.entries.push_back({r, 0, 1.0});
      } else {
        out.entries.push_back({r, 1, 0.5});
      }
      out.log_likelihood[r] = 1.0;  // one per point: easy to verify the sum
    }
  }
};

TEST(MomentJobTest, SumsMatchDirectComputation) {
  const auto data = MakeData(63, 1000);
  LocalRunner runner = MakeRunner();
  core::GmmModel model;
  model.arel = {0, 3};
  model.components.assign(
      2, core::GaussianComponent{linalg::Vector(2, 0.5),
                                 linalg::Matrix::Identity(2), 0.5});
  UniformWeightMembership membership;
  const MomentSums sums =
      RunMomentJob(runner, data.dataset, model, membership, "test-moments")
          .value();
  // Direct sums.
  double w0 = 0.0;
  double w1 = 0.0;
  linalg::Vector l0(2, 0.0);
  linalg::Vector l1(2, 0.0);
  for (size_t i = 0; i < 1000; ++i) {
    const auto x = model.Project(data.dataset.Row(static_cast<data::PointId>(i)));
    if (i % 2 == 0) {
      w0 += 1.0;
      for (int j = 0; j < 2; ++j) l0[j] += x[j];
    } else {
      w1 += 0.5;
      for (int j = 0; j < 2; ++j) l1[j] += 0.5 * x[j];
    }
  }
  EXPECT_NEAR(sums.w[0], w0, 1e-9);
  EXPECT_NEAR(sums.w[1], w1, 1e-9);
  for (int j = 0; j < 2; ++j) {
    EXPECT_NEAR(sums.lsum[0][j], l0[j], 1e-9);
    EXPECT_NEAR(sums.lsum[1][j], l1[j], 1e-9);
  }
  EXPECT_NEAR(sums.log_likelihood, 1000.0, 1e-9);
}

TEST(CovarianceJobTest, MatchesDirectOuterProducts) {
  constexpr size_t kN = 600;
  constexpr size_t kPerSplit = 250;  // splits end mid map range
  const auto data = MakeData(64, kN);
  core::GmmModel model;
  model.arel = {1, 2, 4, 7, 9};  // dim 5: a 4-wide chunk and tails
  const size_t dim = model.arel.size();
  model.components.assign(
      2, core::GaussianComponent{linalg::Vector(dim, 0.5),
                                 linalg::Matrix::Identity(dim), 0.5});
  UniformWeightMembership membership;
  const std::vector<linalg::Vector> means = {{0.4, 0.6, 0.5, 0.3, 0.7},
                                             {0.5, 0.5, 0.2, 0.8, 0.5}};
  // Reference: each split sums its rows' (w * x_i) * x_j in row order
  // from zero (no FMA, rows with w * x_i == 0 skipped), and the reducer
  // adds the split sums in split order.
  std::vector<linalg::Matrix> reference(2, linalg::Matrix(dim, dim));
  for (size_t begin = 0; begin < kN; begin += kPerSplit) {
    std::vector<linalg::Matrix> split(2, linalg::Matrix(dim, dim));
    for (size_t i = begin; i < std::min(kN, begin + kPerSplit); ++i) {
      const size_t c = i % 2;
      const double w = c == 0 ? 1.0 : 0.5;
      const linalg::Vector x = linalg::VecSub(
          model.Project(data.dataset.Row(static_cast<data::PointId>(i))),
          means[c]);
      for (size_t a = 0; a < dim; ++a) {
        const double wa = w * x[a];
        if (wa == 0.0) continue;
        for (size_t b = 0; b <= a; ++b) split[c](a, b) += wa * x[b];
      }
    }
    for (size_t c = 0; c < 2; ++c) {
      for (size_t a = 0; a < dim; ++a) {
        for (size_t b = 0; b <= a; ++b) reference[c](a, b) += split[c](a, b);
      }
    }
  }

  std::vector<Backend> engines = {Backend::kInProcess};
#ifndef P3C_TSAN
  // TSan does not support forking a multithreaded process.
  engines.push_back(Backend::kProcess);
#endif
  for (Backend engine : engines) {
    for (bool retry : {false, true}) {
      const std::string where = std::string("engine=") + BackendName(engine) +
                                " retry=" + std::to_string(retry);
      RunnerOptions options;
      options.backend = engine;
      options.num_threads = 4;
      options.num_workers = 2;
      options.records_per_split = kPerSplit;
      ScriptedFaultInjector injector;
      if (retry) {
        injector.FailOnce("test-covs", /*task_index=*/1, /*attempt=*/0);
        options.fault_injector = &injector;
      }
      LocalRunner runner(options);
      const auto covs = RunCovarianceJob(runner, data.dataset, model,
                                         membership, means, "test-covs");
      ASSERT_TRUE(covs.ok()) << where << ": " << covs.status().ToString();
      if (retry) {
        EXPECT_EQ(injector.injected_faults(), 1u) << where;
      }
      ASSERT_EQ(covs->size(), 2u) << where;
      for (size_t c = 0; c < 2; ++c) {
        const linalg::Matrix& cov = (*covs)[c];
        for (size_t a = 0; a < dim; ++a) {
          for (size_t b = 0; b <= a; ++b) {
            EXPECT_EQ(std::bit_cast<uint64_t>(cov(a, b)),
                      std::bit_cast<uint64_t>(reference[c](a, b)))
                << where << " c=" << c << " (" << a << ", " << b << ")";
            EXPECT_EQ(std::bit_cast<uint64_t>(cov(b, a)),
                      std::bit_cast<uint64_t>(cov(a, b)))
                << where << " c=" << c << " (" << b << ", " << a << ")";
          }
        }
      }
    }
  }
}

TEST(ClusterHistogramJobTest, MatchesMemberHistograms) {
  const auto data = MakeData(65, 2000);
  LocalRunner runner = MakeRunner();
  // Membership: ground-truth labels (noise -> -1).
  std::vector<int32_t> membership(data.labels.begin(), data.labels.end());
  std::vector<uint64_t> counts(2, 0);
  for (int32_t c : membership) {
    if (c >= 0) ++counts[static_cast<size_t>(c)];
  }
  std::vector<size_t> bins = {stats::FreedmanDiaconisBins(counts[0]),
                              stats::FreedmanDiaconisBins(counts[1])};
  const auto job =
      RunClusterHistogramJob(runner, data.dataset, membership, 2, bins)
          .value();
  ASSERT_EQ(job.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    std::vector<data::PointId> members;
    for (size_t i = 0; i < membership.size(); ++i) {
      if (membership[i] == static_cast<int32_t>(c)) {
        members.push_back(static_cast<data::PointId>(i));
      }
    }
    const auto direct = core::BuildMemberHistograms(
        data.dataset, members, stats::BinningRule::kFreedmanDiaconis);
    for (size_t attr = 0; attr < data.dataset.num_dims(); ++attr) {
      EXPECT_EQ(job[c][attr].counts(), direct[attr].counts());
    }
  }
}

TEST(TighteningJobTest, MatchesSerialTightening) {
  const auto data = MakeData(66, 1500);
  LocalRunner runner = MakeRunner();
  std::vector<int32_t> membership(data.labels.begin(), data.labels.end());
  const std::vector<std::vector<size_t>> attrs = {
      data.clusters[0].relevant_attrs, data.clusters[1].relevant_attrs};
  const auto job =
      RunTighteningJob(runner, data.dataset, membership, attrs).value();
  ASSERT_EQ(job.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    std::vector<data::PointId> members;
    for (size_t i = 0; i < membership.size(); ++i) {
      if (membership[i] == static_cast<int32_t>(c)) {
        members.push_back(static_cast<data::PointId>(i));
      }
    }
    const auto direct =
        core::TightenIntervals(data.dataset, members, attrs[c]);
    ASSERT_EQ(job[c].size(), direct.size());
    for (size_t a = 0; a < direct.size(); ++a) {
      EXPECT_EQ(job[c][a].attr, direct[a].attr);
      EXPECT_DOUBLE_EQ(job[c][a].lower, direct[a].lower);
      EXPECT_DOUBLE_EQ(job[c][a].upper, direct[a].upper);
    }
  }
}

TEST(SupportSetJobTest, MatchesSerialSupportSets) {
  const auto data = MakeData(67, 1200);
  std::vector<core::Signature> sigs;
  for (const auto& cluster : data.clusters) {
    std::vector<core::Interval> intervals;
    for (size_t j = 0; j < cluster.relevant_attrs.size(); ++j) {
      intervals.push_back({cluster.relevant_attrs[j],
                           cluster.intervals[j].first,
                           cluster.intervals[j].second});
    }
    sigs.push_back(core::Signature::Make(std::move(intervals)).value());
  }
  const auto serial = core::ComputeSupportSets(data.dataset, sigs, nullptr);
  const auto unique = core::UniqueAssignments(data.dataset, sigs, nullptr);

  std::vector<Backend> engines = {Backend::kInProcess};
#ifndef P3C_TSAN
  // TSan does not support forking a multithreaded process.
  engines.push_back(Backend::kProcess);
#endif
  std::string reference_counters;
  for (Backend engine : engines) {
    for (bool retry : {false, true}) {
      const std::string where = std::string("engine=") + BackendName(engine) +
                                " retry=" + std::to_string(retry);
      MetricsRegistry metrics;
      RunnerOptions options;
      options.backend = engine;
      options.num_threads = 4;
      options.num_workers = 2;
      options.records_per_split = 500;  // splits end mid map range
      options.metrics = &metrics;
      ScriptedFaultInjector injector;
      if (retry) {
        injector.FailOnce("support-sets", /*task_index=*/1, /*attempt=*/0);
        options.fault_injector = &injector;
      }
      LocalRunner runner(options);
      const auto job = RunSupportSetJob(runner, data.dataset, sigs);
      ASSERT_TRUE(job.ok()) << where << ": " << job.status().ToString();
      if (retry) {
        EXPECT_EQ(injector.injected_faults(), 1u) << where;
      }
      EXPECT_EQ(job->support_sets, serial) << where;
      EXPECT_EQ(job->unique_assignment, unique) << where;
      const std::string json = metrics.MergedCounters().ToJson();
      if (reference_counters.empty()) reference_counters = json;
      EXPECT_EQ(json, reference_counters) << where;
    }
  }
  LocalRunner runner = MakeRunner();
  const auto none = RunSupportSetJob(runner, data.dataset, {}).value();
  EXPECT_TRUE(none.support_sets.empty());
  EXPECT_EQ(none.unique_assignment,
            std::vector<int32_t>(data.dataset.num_points(), -1));
}

TEST(MvbBallJobTest, BallNearClusterCenter) {
  const auto data = MakeData(68, 4000);
  LocalRunner runner = MakeRunner();
  // Model: one component per hidden cluster, centered on the rectangle.
  core::GmmModel model;
  model.arel = core::RelevantAttributeUnion({});
  // Build arel as union of ground-truth attrs.
  std::vector<size_t> arel;
  for (const auto& cluster : data.clusters) {
    arel.insert(arel.end(), cluster.relevant_attrs.begin(),
                cluster.relevant_attrs.end());
  }
  std::sort(arel.begin(), arel.end());
  arel.erase(std::unique(arel.begin(), arel.end()), arel.end());
  model.arel = arel;
  for (const auto& cluster : data.clusters) {
    core::GaussianComponent comp;
    comp.mean.assign(arel.size(), 0.5);
    for (size_t j = 0; j < cluster.relevant_attrs.size(); ++j) {
      const auto it = std::find(arel.begin(), arel.end(),
                                cluster.relevant_attrs[j]);
      comp.mean[static_cast<size_t>(it - arel.begin())] =
          0.5 * (cluster.intervals[j].first + cluster.intervals[j].second);
    }
    comp.cov = linalg::Matrix::Identity(arel.size()).Scale(0.02);
    comp.weight = 0.5;
    model.components.push_back(std::move(comp));
  }
  auto evaluator = core::GmmEvaluator::Make(model, 1e-6);
  ASSERT_TRUE(evaluator.ok());
  const auto balls =
      RunMvbBallJob(runner, data.dataset, model, *evaluator).value();
  ASSERT_EQ(balls.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    ASSERT_FALSE(balls[c].center.empty());
    EXPECT_GT(balls[c].radius, 0.0);
    // Center close to the component mean on the cluster's own attrs.
    for (size_t j = 0; j < data.clusters[c].relevant_attrs.size(); ++j) {
      const auto it = std::find(arel.begin(), arel.end(),
                                data.clusters[c].relevant_attrs[j]);
      const size_t idx = static_cast<size_t>(it - arel.begin());
      EXPECT_NEAR(balls[c].center[idx], model.components[c].mean[idx], 0.1);
    }
  }

  // On one split the reducer's medians are over a single value, so the
  // emitted ball must be exactly ComputeMvbStatistics' centre and radius
  // of the points the evaluator hard-assigns to each cluster.
  RunnerOptions one_split;
  one_split.num_threads = 2;
  one_split.records_per_split = data.dataset.num_points();
  LocalRunner single(one_split);
  const auto split_balls =
      RunMvbBallJob(single, data.dataset, model, *evaluator).value();
  std::vector<std::vector<linalg::Vector>> members(2);
  for (size_t i = 0; i < data.dataset.num_points(); ++i) {
    const auto x =
        model.Project(data.dataset.Row(static_cast<data::PointId>(i)));
    members[evaluator->HardAssign(x)].push_back(x);
  }
  ASSERT_EQ(split_balls.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    ASSERT_FALSE(members[c].empty());
    const core::MvbStatistics stats = core::ComputeMvbStatistics(members[c]);
    EXPECT_EQ(split_balls[c].center, stats.center) << "cluster " << c;
    EXPECT_EQ(split_balls[c].radius, stats.radius) << "cluster " << c;
  }
}

TEST(OdJobTest, FlagsFarPoints) {
  const auto data = MakeData(69, 2500);
  LocalRunner runner = MakeRunner();
  core::GmmModel model;
  model.arel = {0, 1};
  model.components.assign(
      1, core::GaussianComponent{linalg::Vector(2, 0.5),
                                 linalg::Matrix::Identity(2).Scale(0.01),
                                 1.0});
  auto evaluator = core::GmmEvaluator::Make(model, 1e-6);
  ASSERT_TRUE(evaluator.ok());
  std::vector<linalg::Vector> centers = {model.components[0].mean};
  linalg::Matrix cov = model.components[0].cov;
  auto factor = linalg::Cholesky::Factorize(cov);
  ASSERT_TRUE(factor.ok());
  std::vector<linalg::Cholesky> factors;
  factors.push_back(std::move(factor).value());
  const double critical =
      stats::ChiSquaredQuantile(0.999, 2.0);
  const auto assignment = RunOdJob(runner, data.dataset, model, *evaluator,
                                   centers, factors, critical)
                              .value();
  ASSERT_EQ(assignment.size(), data.dataset.num_points());
  // Verify against a direct evaluation per point.
  for (size_t i = 0; i < assignment.size(); ++i) {
    const auto x = model.Project(data.dataset.Row(static_cast<data::PointId>(i)));
    const double d2 = factors[0].MahalanobisSquared(x, centers[0]);
    EXPECT_EQ(assignment[i], d2 > critical ? -1 : 0) << i;
  }
}

/// Expects an Internal status whose message names `job`.
// ---- Membership record: one membership evaluation per job pair -------

/// Wraps a membership: counts its calls and, once each, throws or stalls
/// after filling a chosen range, modelling a map attempt that dies after
/// the record has published the ranges before it.
class ProbeMembership : public MembershipFn {
 public:
  static constexpr size_t kNever = static_cast<size_t>(-1);

  explicit ProbeMembership(const MembershipFn& inner) : inner_(inner) {}

  void Contributions(RecordRange rows, const double* xs,
                     RangeMemberships& out) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    inner_.Contributions(rows, xs, out);
    if (rows.begin == throw_at_ &&
        !thrown_.exchange(true, std::memory_order_relaxed)) {
      throw std::runtime_error("probe: failed after filling a range");
    }
    if (rows.begin == stall_at_ &&
        !stalled_.exchange(true, std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
  }

  size_t calls() const { return calls_.load(std::memory_order_relaxed); }
  void ThrowOnceAt(size_t row) { throw_at_ = row; }
  void StallOnceAt(size_t row) { stall_at_ = row; }

 private:
  const MembershipFn& inner_;
  size_t throw_at_ = kNever;
  size_t stall_at_ = kNever;
  mutable std::atomic<size_t> calls_{0};
  mutable std::atomic<bool> thrown_{false};
  mutable std::atomic<bool> stalled_{false};
};

/// The map ranges of a job over n records split `per_split` at a time.
std::vector<std::pair<size_t, size_t>> MapRanges(size_t n, size_t per_split) {
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t split = 0; split < n; split += per_split) {
    const size_t end = std::min(n, split + per_split);
    for (size_t row = split; row < end; row += kMapRangeRecords) {
      ranges.emplace_back(row, std::min(end, row + kMapRangeRecords));
    }
  }
  return ranges;
}

/// A moment job and then a covariance job around its centres (lsum / w,
/// or the model mean for a component without mass), as the driver runs
/// them, plus the two jobs' job log.
struct PairRun {
  MomentSums moments;
  std::vector<linalg::Matrix> covs;
  MetricsRegistry log;
};

PairRun RunPair(RunnerOptions moment_options, RunnerOptions cov_options,
                const data::Dataset& dataset, const core::GmmModel& model,
                const MembershipFn& membership) {
  PairRun run;
  moment_options.metrics = &run.log;
  cov_options.metrics = &run.log;
  LocalRunner moment_runner(moment_options);
  auto moments =
      RunMomentJob(moment_runner, dataset, model, membership, "pair-means");
  EXPECT_TRUE(moments.ok()) << moments.status().ToString();
  if (!moments.ok()) return run;
  run.moments = std::move(moments).value();
  std::vector<linalg::Vector> centres;
  for (size_t c = 0; c < model.num_components(); ++c) {
    centres.push_back(model.components[c].mean);
    if (run.moments.w[c] < 1e-9) continue;
    for (size_t j = 0; j < model.dim(); ++j) {
      centres[c][j] = run.moments.lsum[c][j] / run.moments.w[c];
    }
  }
  LocalRunner cov_runner(cov_options);
  auto covs = RunCovarianceJob(cov_runner, dataset, model, membership,
                               centres, "pair-covs");
  EXPECT_TRUE(covs.ok()) << covs.status().ToString();
  if (covs.ok()) run.covs = std::move(covs).value();
  return run;
}

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << where << " [" << i << "]";
  }
}

/// Bit-for-bit equality of two pairs' moment sums, covariance sums and
/// counter JSON.
void ExpectSamePair(const PairRun& got, const PairRun& want,
                    const std::string& where) {
  ExpectSameBits(got.moments.w, want.moments.w, where + " w");
  ExpectSameBits(got.moments.w2, want.moments.w2, where + " w2");
  ASSERT_EQ(got.moments.lsum.size(), want.moments.lsum.size()) << where;
  for (size_t c = 0; c < want.moments.lsum.size(); ++c) {
    ExpectSameBits(got.moments.lsum[c], want.moments.lsum[c],
                   where + " lsum " + std::to_string(c));
  }
  ExpectSameBits({got.moments.log_likelihood}, {want.moments.log_likelihood},
                 where + " log-likelihood");
  ASSERT_EQ(got.covs.size(), want.covs.size()) << where;
  for (size_t c = 0; c < want.covs.size(); ++c) {
    for (size_t i = 0; i < want.covs[c].rows(); ++i) {
      for (size_t j = 0; j <= i; ++j) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got.covs[c](i, j)),
                  std::bit_cast<uint64_t>(want.covs[c](i, j)))
            << where << " cov " << c << " (" << i << ", " << j << ")";
      }
    }
  }
  EXPECT_EQ(got.log.MergedCounters().ToJson(),
            want.log.MergedCounters().ToJson())
      << where;
}

/// The four memberships the pipeline pairs run under, over ground-truth
/// cores and a model centred on the hidden clusters.
class RecordFixture {
 public:
  explicit RecordFixture(size_t n) : data_(MakeData(72, n)) {
    std::vector<size_t> arel;
    for (const auto& cluster : data_.clusters) {
      std::vector<core::Interval> intervals;
      for (size_t j = 0; j < cluster.relevant_attrs.size(); ++j) {
        intervals.push_back({cluster.relevant_attrs[j],
                             cluster.intervals[j].first,
                             cluster.intervals[j].second});
        arel.push_back(cluster.relevant_attrs[j]);
      }
      signatures_.push_back(core::Signature::Make(intervals).value());
    }
    std::sort(arel.begin(), arel.end());
    arel.erase(std::unique(arel.begin(), arel.end()), arel.end());
    model_.arel = arel;
    for (const auto& cluster : data_.clusters) {
      core::GaussianComponent comp;
      comp.mean.assign(arel.size(), 0.5);
      for (size_t j = 0; j < cluster.relevant_attrs.size(); ++j) {
        const auto it = std::find(arel.begin(), arel.end(),
                                  cluster.relevant_attrs[j]);
        comp.mean[static_cast<size_t>(it - arel.begin())] =
            0.5 * (cluster.intervals[j].first + cluster.intervals[j].second);
      }
      comp.cov = linalg::Matrix::Identity(arel.size()).Scale(0.02);
      comp.weight = 0.5;
      model_.components.push_back(std::move(comp));
    }
    evaluator_.emplace(core::GmmEvaluator::Make(model_, 1e-6).value());
    LocalRunner runner = MakeRunner();
    balls_ = RunMvbBallJob(runner, data_.dataset, model_, *evaluator_).value();
    cores_.emplace(data_.dataset, signatures_);
    orphans_.emplace(*cores_, *evaluator_);
    soft_.emplace(*evaluator_);
    ball_.emplace(*evaluator_, balls_);
  }

  const data::Dataset& dataset() const { return data_.dataset; }
  const core::GmmModel& model() const { return model_; }
  const MembershipFn& soft() const { return *soft_; }

  std::vector<std::pair<std::string, const MembershipFn*>> memberships()
      const {
    return {{"core", &*cores_},
            {"orphan-assigning", &*orphans_},
            {"soft", &*soft_},
            {"ball", &*ball_}};
  }

 private:
  data::SyntheticData data_;
  std::vector<core::Signature> signatures_;
  core::GmmModel model_;
  std::optional<core::GmmEvaluator> evaluator_;
  std::vector<MvbBall> balls_;
  std::optional<CoreMembership> cores_;
  std::optional<OrphanAssigningMembership> orphans_;
  std::optional<SoftMembership> soft_;
  std::optional<BallMembership> ball_;
};

RunnerOptions PairOptions(Backend engine, size_t per_split) {
  RunnerOptions options;
  options.backend = engine;
  options.num_threads = 4;
  options.num_workers = 2;
  options.records_per_split = per_split;
  return options;
}

std::vector<Backend> Engines() {
  std::vector<Backend> engines = {Backend::kInProcess};
#ifndef P3C_TSAN
  // TSan does not support forking a multithreaded process.
  engines.push_back(Backend::kProcess);
#endif
  return engines;
}

TEST(MembershipRecordTest, PairMatchesThePairWithoutTheRecord) {
  constexpr size_t kN = 3000;
  constexpr size_t kPerSplit = 500;
  const RecordFixture fixture(kN);
  const size_t num_ranges = MapRanges(kN, kPerSplit).size();
  for (Backend engine : Engines()) {
    const RunnerOptions options = PairOptions(engine, kPerSplit);
    for (const auto& [name, membership] : fixture.memberships()) {
      const std::string where =
          std::string("engine=") + BackendName(engine) + " " + name;
      const PairRun plain = RunPair(options, options, fixture.dataset(),
                                    fixture.model(), *membership);
      ProbeMembership probe(*membership);
      MembershipRecord record(probe, kN);
      const PairRun recorded = RunPair(options, options, fixture.dataset(),
                                       fixture.model(), record);
      ExpectSamePair(recorded, plain, where);
      // In process, one evaluation per range for both jobs. Forked
      // workers evaluate in their own memory, so the driver's record
      // stays empty and the covariance job's workers recompute.
      EXPECT_EQ(probe.calls(),
                engine == Backend::kInProcess ? num_ranges : 0u)
          << where;
    }
  }
}

TEST(MembershipRecordTest, FailedAndKilledMomentAttemptsChangeNoBit) {
  constexpr size_t kN = 3000;
  constexpr size_t kPerSplit = 500;
  const RecordFixture fixture(kN);
  const size_t num_ranges = MapRanges(kN, kPerSplit).size();
  const RunnerOptions clean = PairOptions(Backend::kInProcess, kPerSplit);
  const PairRun plain = RunPair(clean, clean, fixture.dataset(),
                                fixture.model(), fixture.soft());

  {
    // Split 2's attempt fails after filling its fourth range, so the
    // record holds the three before it; the retry reads those and
    // evaluates the failed range again.
    ProbeMembership probe(fixture.soft());
    probe.ThrowOnceAt(2 * kPerSplit + 3 * kMapRangeRecords);
    MembershipRecord record(probe, kN);
    const PairRun run =
        RunPair(clean, clean, fixture.dataset(), fixture.model(), record);
    ExpectSamePair(run, plain, "failed mid-attempt");
    ASSERT_EQ(run.log.num_jobs(), 2u);
    EXPECT_EQ(run.log.jobs()[0].task_failures, 1u);
    EXPECT_EQ(run.log.jobs()[0].retried_tasks, 1u);
    EXPECT_EQ(probe.calls(), num_ranges + 1);
  }
  {
    // An attempt that fails before its first range publishes nothing.
    ScriptedFaultInjector injector;
    injector.FailOnce("pair-means", /*task_index=*/1, /*attempt=*/0);
    RunnerOptions options = clean;
    options.fault_injector = &injector;
    ProbeMembership probe(fixture.soft());
    MembershipRecord record(probe, kN);
    const PairRun run =
        RunPair(options, clean, fixture.dataset(), fixture.model(), record);
    ExpectSamePair(run, plain, "failed at start");
    EXPECT_EQ(injector.injected_faults(), 1u);
    EXPECT_EQ(probe.calls(), num_ranges);
  }
  {
    // A straggler: split 4's attempt stalls after filling its second
    // range, the deadline kills it at the next range, and the retry
    // reads the two ranges the killed attempt published.
    ProbeMembership probe(fixture.soft());
    probe.StallOnceAt(4 * kPerSplit + kMapRangeRecords);
    RunnerOptions options = clean;
    options.task_deadline_seconds = 0.25;
    MembershipRecord record(probe, kN);
    const PairRun run =
        RunPair(options, clean, fixture.dataset(), fixture.model(), record);
    ExpectSamePair(run, plain, "deadline-killed");
    ASSERT_EQ(run.log.num_jobs(), 2u);
    EXPECT_EQ(run.log.jobs()[0].deadline_exceeded, 1u);
    EXPECT_EQ(probe.calls(), num_ranges);
  }
#ifndef P3C_TSAN
  {
    // Process backend: a SIGKILLed worker, a failed attempt and a
    // deadline-killed straggler in the moment job. The copies die with
    // the workers, and the sums keep their bits.
    ScriptedFaultInjector injector;
    injector.KillWorkerOnce("pair-means", /*task_index=*/0, /*attempt=*/0);
    injector.FailOnce("pair-means", /*task_index=*/2, /*attempt=*/0);
    injector.DelayOnce("pair-means", /*task_index=*/4, /*attempt=*/0,
                       /*delay_seconds=*/30.0);
    RunnerOptions options = PairOptions(Backend::kProcess, kPerSplit);
    options.fault_injector = &injector;
    options.task_deadline_seconds = 0.25;
    MembershipRecord record(fixture.soft(), kN);
    const PairRun run =
        RunPair(options, PairOptions(Backend::kProcess, kPerSplit),
                fixture.dataset(), fixture.model(), record);
    ExpectSamePair(run, plain, "process backend");
    EXPECT_EQ(injector.injected_faults(), 3u);
    ASSERT_EQ(run.log.num_jobs(), 2u);
    EXPECT_EQ(run.log.jobs()[0].deadline_exceeded, 1u);
  }
#endif
}

TEST(MembershipRecordTest, CovarianceJobOnOtherRangesRecomputesThem) {
  constexpr size_t kN = 3000;
  constexpr size_t kMomentSplit = 500;
  constexpr size_t kCovSplit = 333;  // most ranges start elsewhere
  const RecordFixture fixture(kN);
  const auto moment_ranges = MapRanges(kN, kMomentSplit);
  size_t misses = 0;
  for (const auto& range : MapRanges(kN, kCovSplit)) {
    if (std::find(moment_ranges.begin(), moment_ranges.end(), range) ==
        moment_ranges.end()) {
      ++misses;
    }
  }
  ASSERT_GT(misses, 0u);
  for (Backend engine : Engines()) {
    const std::string where = std::string("engine=") + BackendName(engine);
    const RunnerOptions moment_options = PairOptions(engine, kMomentSplit);
    const RunnerOptions cov_options = PairOptions(engine, kCovSplit);
    const PairRun plain = RunPair(moment_options, cov_options,
                                  fixture.dataset(), fixture.model(),
                                  fixture.soft());
    ProbeMembership probe(fixture.soft());
    MembershipRecord record(probe, kN);
    const PairRun recorded = RunPair(moment_options, cov_options,
                                     fixture.dataset(), fixture.model(),
                                     record);
    ExpectSamePair(recorded, plain, where);
    if (engine == Backend::kInProcess) {
      // Every range that matches a moment range exactly is read back;
      // every other one is evaluated again.
      EXPECT_EQ(probe.calls(), moment_ranges.size() + misses) << where;
    }
  }
}

TEST(MembershipRecordTest, HardMembershipsKeepNoLogLikelihoods) {
  constexpr size_t kN = 3000;
  constexpr size_t kPerSplit = 500;
  const RecordFixture fixture(kN);
  const RunnerOptions options = PairOptions(Backend::kInProcess, kPerSplit);
  for (const auto& [name, membership] : fixture.memberships()) {
    const bool soft = name == "soft";
    const PairRun plain = RunPair(options, options, fixture.dataset(),
                                  fixture.model(), *membership);
    MembershipRecord record(*membership, kN);
    const PairRun recorded = RunPair(options, options, fixture.dataset(),
                                     fixture.model(), record);
    ExpectSamePair(recorded, plain, name);
    // A hard membership's log-likelihood is an empty sum: +0.0.
    if (!soft) {
      EXPECT_EQ(std::bit_cast<uint64_t>(plain.moments.log_likelihood), 0u)
          << name;
    }
    // The copies the record answers from hold a log-likelihood per row
    // for the soft E step only.
    std::vector<double> xs;
    RangeMemberships out;
    for (const auto& [begin, end] : MapRanges(kN, kPerSplit)) {
      fixture.model().ProjectRows(fixture.dataset(), begin, end, xs);
      record.Contributions(RecordRange{begin, end}, xs.data(), out);
      EXPECT_EQ(out.log_likelihood.size(), soft ? end - begin : 0u)
          << name << " rows " << begin;
    }
  }
}

void ExpectInternalNaming(const Status& status, const std::string& job) {
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  EXPECT_NE(status.message().find(job), std::string::npos)
      << status.ToString();
}

TEST(JobUnpackTest, OutOfRangeRecordRejectsTheHistogramJob) {
  // Key -1 carries the count of values outside [0, 1]; it rejects the
  // dataset with InvalidArgument (not retried), whatever its position.
  std::vector<KeyedCounts> hists = {{-1, {3}}, {0, {1, 2, 3}}, {1, {4, 5, 6}}};
  const Status status = UnpackHistograms(hists, 2, 3).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("3 value(s)"), std::string::npos)
      << status.ToString();
  std::rotate(hists.begin(), hists.begin() + 1, hists.end());
  EXPECT_EQ(UnpackHistograms(hists, 2, 3).status().code(),
            StatusCode::kInvalidArgument);
  // A malformed -1 record is an engine fault like any unknown key.
  hists.back().second = {3, 4};
  ExpectInternalNaming(UnpackHistograms(hists, 2, 3).status(), "histogram");
}

TEST(JobUnpackTest, ShortPayloadsAndUnknownKeysReturnInternal) {
  // k = 2 components in dim = 3; every unpack step first accepts a
  // well-formed record set, then rejects a short payload and a key
  // outside its range instead of reading past either.
  constexpr size_t kK = 2;
  constexpr size_t kDim = 3;
  const std::vector<double> ll = {-4.0};

  // Moment job: [wC, wC2, lC...] per component plus the log-likelihood.
  std::vector<KeyedDoubles> moments = {
      {0, std::vector<double>(kDim + 2, 1.0)},
      {1, std::vector<double>(kDim + 2, 2.0)},
      {-1, ll}};
  const auto sums = UnpackMomentSums(moments, kK, kDim, "em-step-means");
  ASSERT_TRUE(sums.ok()) << sums.status().ToString();
  EXPECT_EQ(sums->w[1], 2.0);
  EXPECT_EQ(sums->lsum[0][kDim - 1], 1.0);
  EXPECT_EQ(sums->log_likelihood, -4.0);
  moments[1].second = {2.0, 2.0};  // wC and wC2 only
  ExpectInternalNaming(
      UnpackMomentSums(moments, kK, kDim, "em-step-means").status(),
      "em-step-means");
  moments[1] = {7, std::vector<double>(kDim + 2, 2.0)};
  ExpectInternalNaming(
      UnpackMomentSums(moments, kK, kDim, "em-step-means").status(),
      "em-step-means");
  moments[1] = {-1, std::vector<double>{}};
  ExpectInternalNaming(
      UnpackMomentSums(moments, kK, kDim, "em-step-means").status(),
      "em-step-means");

  // Covariance job: the packed lower triangle per component.
  constexpr size_t kPacked = kDim * (kDim + 1) / 2;
  std::vector<KeyedDoubles> covs = {{0, std::vector<double>(kPacked, 1.0)},
                                    {1, std::vector<double>(kPacked, 3.0)}};
  const auto matrices = UnpackCovarianceSums(covs, kK, kDim, "em-step-covs");
  ASSERT_TRUE(matrices.ok()) << matrices.status().ToString();
  EXPECT_EQ((*matrices)[1](kDim - 1, kDim - 1), 3.0);
  covs[1].second.resize(kDim + 1);  // rows 0 and 1 and nothing more
  ExpectInternalNaming(
      UnpackCovarianceSums(covs, kK, kDim, "em-step-covs").status(),
      "em-step-covs");
  covs[1] = {-3, std::vector<double>(kPacked, 3.0)};
  ExpectInternalNaming(
      UnpackCovarianceSums(covs, kK, kDim, "em-step-covs").status(),
      "em-step-covs");

  // MVB ball job: the center then the radius.
  std::vector<KeyedDoubles> balls = {{1, {0.1, 0.2, 0.3, 0.5}}};
  const auto unpacked = UnpackMvbBalls(balls, kK, kDim);
  ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  EXPECT_TRUE((*unpacked)[0].center.empty());
  EXPECT_EQ((*unpacked)[1].center, (linalg::Vector{0.1, 0.2, 0.3}));
  EXPECT_EQ((*unpacked)[1].radius, 0.5);
  balls[0].second = {};
  ExpectInternalNaming(UnpackMvbBalls(balls, kK, kDim).status(), "mvb-ball");
  balls[0] = {kK, {0.1, 0.2, 0.3, 0.5}};
  ExpectInternalNaming(UnpackMvbBalls(balls, kK, kDim).status(), "mvb-ball");

  // Tightening job: per cluster the lower then the upper bounds.
  const std::vector<std::vector<size_t>> attrs = {{4, 7}, {2}};
  std::vector<KeyedDoubles> bounds = {{0, {0.1, 0.2, 0.3, 0.4}},
                                      {1, {0.5, 0.6}}};
  const auto intervals = UnpackTightening(bounds, attrs);
  ASSERT_TRUE(intervals.ok()) << intervals.status().ToString();
  EXPECT_EQ((*intervals)[0][1].attr, 7u);
  EXPECT_EQ((*intervals)[0][1].upper, 0.4);
  bounds[0].second = {0.1, 0.2};  // one attribute's bounds for two
  ExpectInternalNaming(UnpackTightening(bounds, attrs).status(),
                       "interval-tightening");
  bounds[0] = {5, {0.1, 0.2, 0.3, 0.4}};
  ExpectInternalNaming(UnpackTightening(bounds, attrs).status(),
                       "interval-tightening");

  // Histogram job: one count per bin for each attribute. An empty
  // payload is what CountSumReducer emits when partial histograms
  // disagree in length.
  std::vector<KeyedCounts> hists = {{0, {1, 2, 3}}, {1, {4, 5, 6}}};
  const auto histograms =
      UnpackHistograms(hists, /*num_dims=*/2, /*bins=*/3);
  ASSERT_TRUE(histograms.ok()) << histograms.status().ToString();
  EXPECT_EQ((*histograms)[1].counts(), (std::vector<uint64_t>{4, 5, 6}));
  hists[1].second = {4, 5};
  ExpectInternalNaming(UnpackHistograms(hists, 2, 3).status(), "histogram");
  hists[1].second = {};
  ExpectInternalNaming(UnpackHistograms(hists, 2, 3).status(), "histogram");
  hists[1] = {2, {4, 5, 6}};
  ExpectInternalNaming(UnpackHistograms(hists, 2, 3).status(), "histogram");

  // Support job: key 0 carries one count per signature.
  std::vector<KeyedCounts> supports = {{0, {7, 8}}};
  const auto counted = UnpackSupports(supports, /*num_signatures=*/2);
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  EXPECT_EQ(*counted, (std::vector<uint64_t>{7, 8}));
  supports[0].second = {7};
  ExpectInternalNaming(UnpackSupports(supports, 2).status(), "support-count");
  supports[0] = {1, {7, 8}};
  ExpectInternalNaming(UnpackSupports(supports, 2).status(), "support-count");

  // Cluster-histogram job: key c * num_dims + attr, with cluster c's
  // bin count.
  const std::vector<size_t> bins_per_cluster = {2, 3};
  std::vector<KeyedCounts> members = {{1, {1, 1}}, {2, {1, 2, 3}}};
  const auto per_cluster =
      UnpackClusterHistograms(members, /*num_dims=*/2, bins_per_cluster);
  ASSERT_TRUE(per_cluster.ok()) << per_cluster.status().ToString();
  EXPECT_EQ((*per_cluster)[0][1].counts(), (std::vector<uint64_t>{1, 1}));
  EXPECT_EQ((*per_cluster)[1][0].counts(), (std::vector<uint64_t>{1, 2, 3}));
  members[1].second = {1, 2};  // cluster 0's bin count on cluster 1
  ExpectInternalNaming(
      UnpackClusterHistograms(members, 2, bins_per_cluster).status(),
      "cluster-histograms");
  members[1] = {4, {1, 2, 3}};
  ExpectInternalNaming(
      UnpackClusterHistograms(members, 2, bins_per_cluster).status(),
      "cluster-histograms");
}

TEST(JobUnpackTest, CovarianceSumsArePackedLowerTriangles) {
  // dim = 3: six values per component, row by row; the unpacked matrix
  // is the mirrored lower triangle.
  constexpr size_t kDim = 3;
  const std::vector<KeyedDoubles> packed = {
      {0, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}}};
  const auto matrices = UnpackCovarianceSums(packed, 1, kDim, "em-step-covs");
  ASSERT_TRUE(matrices.ok()) << matrices.status().ToString();
  const linalg::Matrix& m = (*matrices)[0];
  const double lower[kDim][kDim] = {
      {1.0, 2.0, 4.0}, {2.0, 3.0, 5.0}, {4.0, 5.0, 6.0}};
  for (size_t i = 0; i < kDim; ++i) {
    for (size_t j = 0; j < kDim; ++j) {
      EXPECT_EQ(m(i, j), lower[i][j]) << "(" << i << ", " << j << ")";
    }
  }
  // Any other length, the full d x d matrix included, is a record the
  // job cannot have produced.
  for (size_t length : {size_t{0}, size_t{1}, size_t{5}, size_t{7},
                        kDim * kDim}) {
    const std::vector<KeyedDoubles> bad = {
        {0, std::vector<double>(length, 1.0)}};
    ExpectInternalNaming(
        UnpackCovarianceSums(bad, 1, kDim, "mvb-covs").status(), "mvb-covs");
  }
  // dim = 0 packs to nothing: an empty payload is well formed.
  std::vector<KeyedDoubles> empty = {{0, std::vector<double>{}}};
  EXPECT_TRUE(UnpackCovarianceSums(empty, 1, 0, "em-init-1b").ok());
  empty[0].second.push_back(0.0);
  ExpectInternalNaming(
      UnpackCovarianceSums(empty, 1, 0, "em-init-1b").status(), "em-init-1b");
}

TEST(JobUnpackTest, HostileSupportSetRecordsReturnInternal) {
  // n = 100 rows, k = 2 cores; records are (first row, one word per core).
  constexpr size_t kN = 100;
  constexpr size_t kK = 2;
  std::vector<RangeWords> records = {{0, {0b101, 0b100}},
                                     {64, {0, uint64_t{1} << 35}}};
  const auto sets = UnpackSupportSets(records, kN, kK);
  ASSERT_TRUE(sets.ok()) << sets.status().ToString();
  EXPECT_EQ(sets->support_sets,
            (std::vector<std::vector<data::PointId>>{{0, 2}, {2, 99}}));
  EXPECT_EQ(sets->unique_assignment[0], 0);
  EXPECT_EQ(sets->unique_assignment[1], -1);
  EXPECT_EQ(sets->unique_assignment[2], -2);
  EXPECT_EQ(sets->unique_assignment[99], 1);

  // A key at or past n.
  auto hostile = records;
  hostile[1].first = kN;
  ExpectInternalNaming(UnpackSupportSets(hostile, kN, kK).status(),
                       "support-sets");
  // Keys out of order.
  hostile = {records[1], records[0]};
  ExpectInternalNaming(UnpackSupportSets(hostile, kN, kK).status(),
                       "support-sets");
  // The same key twice.
  hostile = {records[0], records[0]};
  ExpectInternalNaming(UnpackSupportSets(hostile, kN, kK).status(),
                       "support-sets");
  // A range that starts on a member row of the one before it.
  hostile = records;
  hostile[1].first = 2;
  ExpectInternalNaming(UnpackSupportSets(hostile, kN, kK).status(),
                       "support-sets");
  // A payload other than k words.
  hostile = records;
  hostile[0].second.pop_back();
  ExpectInternalNaming(UnpackSupportSets(hostile, kN, kK).status(),
                       "support-sets");
  hostile[0].second = {0b101, 0b100, 0};
  ExpectInternalNaming(UnpackSupportSets(hostile, kN, kK).status(),
                       "support-sets");
  // A bit for row 64 + 36 = n.
  hostile = records;
  hostile[1].second[0] = uint64_t{1} << 36;
  ExpectInternalNaming(UnpackSupportSets(hostile, kN, kK).status(),
                       "support-sets");
}

/// The interval-index records of a 100-row input cut into splits of 70
/// rows: ranges [0, 64), [64, 70) and [70, 100), two intervals, and the
/// supports of three signatures under kIndexingSupportsKey.
struct IndexRecords {
  static constexpr size_t kN = 100;
  static constexpr size_t kSignatures = 3;
  std::vector<KeyedCounts> records = {
      {kIndexingSupportsKey, {5, 7, 9}},
      {0, {0b101, ~uint64_t{0}}},
      {64, {0b111111, 0}},
      {70, {uint64_t{1} << 29, 0}}};

  static core::IntervalIndex EmptyIndex() {
    return core::IntervalIndex(
        core::IntervalTable({{0, 0.1, 0.2}, {1, 0.3, 0.4}}), kN,
        /*split_rows=*/70);
  }
  Status Unpack(std::vector<KeyedCounts> out) const {
    core::IntervalIndex index = EmptyIndex();
    return UnpackIndexingSupports(std::move(out), kSignatures, index)
        .status();
  }
};

TEST(JobUnpackTest, IntervalIndexRecordsFillTheIndex) {
  const IndexRecords fixture;
  core::IntervalIndex index = IndexRecords::EmptyIndex();
  ASSERT_EQ(index.num_ranges(), 3u);
  EXPECT_EQ(index.RangeRows(1), 6u);
  EXPECT_EQ(index.RangeStartingAt(70), 2u);
  EXPECT_EQ(index.RangeStartingAt(32), index.num_ranges());
  const auto supports = UnpackIndexingSupports(
      fixture.records, IndexRecords::kSignatures, index);
  ASSERT_TRUE(supports.ok()) << supports.status().ToString();
  EXPECT_EQ(*supports, (std::vector<uint64_t>{5, 7, 9}));
  EXPECT_EQ(std::vector<uint64_t>(index.words(0), index.words(0) + 3),
            (std::vector<uint64_t>{0b101, 0b111111, uint64_t{1} << 29}));
  EXPECT_EQ(std::vector<uint64_t>(index.words(1), index.words(1) + 3),
            (std::vector<uint64_t>{~uint64_t{0}, 0, 0}));
}

TEST(JobUnpackTest, IntervalIndexSupportsRecordsOfTheSplitsAreSummed) {
  // The indexing job is map-only: each split emits its own supports
  // record, and their sum is the job's supports.
  const IndexRecords fixture;
  auto records = fixture.records;
  records[0].second = {1, 0, 4};
  records.insert(records.begin() + 1, {kIndexingSupportsKey, {3, 7, 0}});
  records.insert(records.begin() + 2, {kIndexingSupportsKey, {1, 0, 5}});
  core::IntervalIndex index = IndexRecords::EmptyIndex();
  const auto supports =
      UnpackIndexingSupports(records, IndexRecords::kSignatures, index);
  ASSERT_TRUE(supports.ok()) << supports.status().ToString();
  EXPECT_EQ(*supports, (std::vector<uint64_t>{5, 7, 9}));

  // Any one supports record of the wrong length is refused.
  for (size_t bad : {size_t{0}, size_t{1}, size_t{2}}) {
    auto hostile = records;
    hostile[bad].second.push_back(0);
    ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
    hostile = records;
    hostile[bad].second.pop_back();
    ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
  }
}

TEST(JobUnpackTest, IntervalIndexKeyThatStartsNoRangeReturnsInternal) {
  const IndexRecords fixture;
  auto hostile = fixture.records;
  hostile[1].first = 5;
  ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
  hostile = fixture.records;
  hostile[3].first = 66;  // inside the second range
  ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
}

TEST(JobUnpackTest, IntervalIndexKeyAtOrPastNReturnsInternal) {
  const IndexRecords fixture;
  for (int64_t key : {int64_t{100}, int64_t{128}, int64_t{140}}) {
    auto hostile = fixture.records;
    hostile.push_back({key, {0, 0}});
    ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
  }
}

TEST(JobUnpackTest, IntervalIndexDuplicateOrOverlappingRangeReturnsInternal) {
  const IndexRecords fixture;
  auto hostile = fixture.records;
  hostile.insert(hostile.begin() + 2, hostile[1]);  // range 0 twice
  ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
  hostile = fixture.records;
  std::swap(hostile[2], hostile[3]);  // out of order
  ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
}

TEST(JobUnpackTest, IntervalIndexMissingRangeReturnsInternal) {
  const IndexRecords fixture;
  for (size_t dropped : {size_t{1}, size_t{2}, size_t{3}}) {
    auto hostile = fixture.records;
    hostile.erase(hostile.begin() + static_cast<std::ptrdiff_t>(dropped));
    ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
  }
}

TEST(JobUnpackTest, IntervalIndexPayloadOtherThanOneWordPerIntervalReturnsInternal) {
  const IndexRecords fixture;
  auto hostile = fixture.records;
  hostile[2].second.pop_back();
  ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
  hostile = fixture.records;
  hostile[2].second.push_back(0);
  ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
  // The supports record must hold one count per signature.
  hostile = fixture.records;
  hostile[0].second.pop_back();
  ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
  hostile = fixture.records;
  hostile[0].first = kIndexingSupportsKey - 1;
  ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
}

TEST(JobUnpackTest, IntervalIndexBitPastItsRangeReturnsInternal) {
  const IndexRecords fixture;
  // Row 70 + 30 = n.
  auto hostile = fixture.records;
  hostile[3].second[1] = uint64_t{1} << 30;
  ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
  // Row 64 + 6 belongs to the next range.
  hostile = fixture.records;
  hostile[2].second[0] = uint64_t{1} << 6;
  ExpectInternalNaming(fixture.Unpack(hostile), "support-count");
}

}  // namespace
}  // namespace p3c::mr
