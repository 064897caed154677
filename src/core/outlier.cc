#include "src/core/outlier.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/robust.h"
#include "src/linalg/cholesky.h"
#include "src/stats/chi_squared.h"
#include "src/stats/descriptive.h"

namespace p3c::core {

namespace {

size_t NumTasks(size_t n, ThreadPool* pool) {
  if (pool == nullptr || n == 0) return 1;
  return std::min(n, pool->num_threads() * 4);
}

template <typename Fn>
void ForEachRange(size_t n, ThreadPool* pool, const Fn& fn) {
  const size_t num_tasks = NumTasks(n, pool);
  if (pool == nullptr || num_tasks == 1) {
    fn(0, 0, n);
    return;
  }
  pool->ParallelFor(num_tasks, [&](size_t task) {
    fn(task, n * task / num_tasks, n * (task + 1) / num_tasks);
  });
}

}  // namespace

MvbBall ComputeMvbBall(const double* points, size_t num, size_t dim,
                       std::vector<double>* distances) {
  MvbBall ball;
  if (num == 0) return ball;

  // Dimension-wise median center.
  ball.center.resize(dim);
  std::vector<double> column(num);
  for (size_t j = 0; j < dim; ++j) {
    for (size_t i = 0; i < num; ++i) column[i] = points[i * dim + j];
    ball.center[j] = stats::Median(column);
  }

  // Radius: median Euclidean distance to the center.
  std::vector<double> local;
  std::vector<double>& dist = distances != nullptr ? *distances : local;
  dist.resize(num);
  for (size_t i = 0; i < num; ++i) {
    const double* p = points + i * dim;
    double acc = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double diff = p[j] - ball.center[j];
      acc += diff * diff;
    }
    dist[i] = std::sqrt(acc);
  }
  ball.radius = stats::Median(dist);
  return ball;
}

MvbStatistics ComputeMvbStatistics(const std::vector<linalg::Vector>& members) {
  MvbStatistics stats;
  stats.num_members = members.size();
  if (members.empty()) return stats;
  const size_t dim = members.front().size();

  std::vector<double> flat;
  flat.reserve(members.size() * dim);
  for (const linalg::Vector& m : members) {
    flat.insert(flat.end(), m.begin(), m.end());
  }
  std::vector<double> distances;
  MvbBall ball = ComputeMvbBall(flat.data(), members.size(), dim, &distances);
  stats.center = std::move(ball.center);
  stats.radius = ball.radius;

  // Mean/covariance of the in-ball points (about half of the cluster).
  linalg::Vector sum(dim, 0.0);
  linalg::Matrix outer(dim, dim);
  uint64_t in_ball = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    if (distances[i] <= stats.radius) {
      ++in_ball;
      for (size_t j = 0; j < dim; ++j) sum[j] += members[i][j];
      outer.AddLowerOuterProduct(members[i], 1.0);
    }
  }
  stats.num_in_ball = in_ball;
  if (in_ball == 0) {
    stats.mean = stats.center;
    stats.cov = linalg::Matrix::Identity(dim).Scale(1e-2);
    return stats;
  }
  const double w = static_cast<double>(in_ball);
  stats.mean.resize(dim);
  for (size_t j = 0; j < dim; ++j) stats.mean[j] = sum[j] / w;
  // Unbiased covariance (w/(w^2 - w) = 1/(w-1) for unit weights), the
  // §5.4 estimator; degenerate single-point balls keep a small identity.
  if (in_ball < 2) {
    stats.cov = linalg::Matrix::Identity(dim).Scale(1e-2);
    return stats;
  }
  stats.cov = outer;
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      stats.cov(i, j) -= w * stats.mean[i] * stats.mean[j];
    }
  }
  stats.cov = stats.cov.Scale(1.0 / (w - 1.0));
  stats.cov.MirrorLower();
  return stats;
}

void ApplyMvbConsistencyCorrection(linalg::Matrix& cov, size_t dim) {
  if (dim == 0) return;
  const double df = static_cast<double>(dim);
  const double median_q = stats::ChiSquaredQuantile(0.5, df);
  const double mass = stats::ChiSquaredCdf(median_q, df + 2.0);
  if (mass <= 0.0) return;
  cov = cov.Scale(0.5 / mass);
}

Result<OutlierDetectionResult> DetectOutliers(const data::Dataset& dataset,
                                              const GmmModel& model,
                                              const P3CParams& params,
                                              ThreadPool* pool) {
  const size_t n = dataset.num_points();
  const size_t k = model.num_components();
  const size_t dim = model.dim();
  OutlierDetectionResult result;
  result.assignment.assign(n, -1);
  if (k == 0) return result;

  Result<GmmEvaluator> evaluator =
      GmmEvaluator::Make(model, params.covariance_ridge);
  if (!evaluator.ok()) return evaluator.status();

  const double critical =
      stats::ChiSquaredQuantile(1.0 - params.outlier_alpha,
                                static_cast<double>(dim));

  // Hard-assign every point to its argmax-posterior component first; both
  // modes need it (the membership candidate of the OD job). Naive mode
  // tests the same block against the EM statistics right away.
  std::vector<int32_t> hard(n, 0);
  const bool naive = params.outlier == OutlierMode::kNaive;
  ForEachRange(n, pool, [&](size_t, size_t begin, size_t end) {
    std::vector<double> xs;
    std::vector<double> logw(GmmEvaluator::kMaxBlockRows * k);
    uint32_t labels[GmmEvaluator::kMaxBlockRows]{};
    double d2[GmmEvaluator::kMaxBlockRows]{};
    for (size_t b = begin; b < end; b += GmmEvaluator::kMaxBlockRows) {
      const size_t rows = std::min(GmmEvaluator::kMaxBlockRows, end - b);
      model.ProjectRows(dataset, b, b + rows, xs);
      evaluator->LogWeightedDensities(xs.data(), rows, logw.data());
      for (size_t r = 0; r < rows; ++r) {
        labels[r] = static_cast<uint32_t>(evaluator->ArgMax(&logw[r * k]));
        hard[b + r] = static_cast<int32_t>(labels[r]);
      }
      if (!naive) continue;
      MahalanobisToAssigned(evaluator->factors(), evaluator->means(),
                            xs.data(), rows, labels, d2);
      for (size_t r = 0; r < rows; ++r) {
        result.assignment[b + r] = d2[r] > critical ? -1 : hard[b + r];
      }
    }
  });
  if (naive) return result;

  // ---- Robust modes (MVB / MCD) ------------------------------------------
  // Gather members per cluster (projected coordinates).
  std::vector<std::vector<linalg::Vector>> members(k);
  for (size_t i = 0; i < n; ++i) {
    members[static_cast<size_t>(hard[i])].push_back(
        model.Project(dataset.Row(static_cast<data::PointId>(i))));
  }
  // Robust center/covariance per cluster.
  std::vector<linalg::Vector> centers(k);
  std::vector<linalg::Matrix> covs(k);
  if (params.outlier == OutlierMode::kMVB) {
    result.mvb.resize(k);
    for (size_t c = 0; c < k; ++c) {
      result.mvb[c] = ComputeMvbStatistics(members[c]);
      if (result.mvb[c].mean.empty()) {
        // Empty cluster: no member can be tested against it anyway; use a
        // unit placeholder.
        result.mvb[c].mean.assign(dim, 0.5);
        result.mvb[c].cov = linalg::Matrix::Identity(dim);
      }
      centers[c] = result.mvb[c].mean;
      covs[c] = result.mvb[c].cov;
    }
  } else {  // kMCD
    for (size_t c = 0; c < k; ++c) {
      if (members[c].empty()) {
        centers[c].assign(dim, 0.5);
        covs[c] = linalg::Matrix::Identity(dim);
        continue;
      }
      McdOptions mcd_options;
      mcd_options.ridge = params.covariance_ridge;
      mcd_options.seed = 17 + c;
      const McdResult mcd = ComputeMcd(members[c], mcd_options);
      centers[c] = mcd.mean;
      covs[c] = mcd.cov;
    }
  }

  std::vector<linalg::Cholesky> factors;
  factors.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    linalg::Matrix cov = covs[c];
    // Both robust estimators cover ~half the mass; the same consistency
    // factor rescales them to the full-population covariance.
    ApplyMvbConsistencyCorrection(cov, dim);
    Result<linalg::Cholesky> chol = linalg::Cholesky::Factorize(cov);
    double eps = params.covariance_ridge;
    while (!chol.ok() && eps < 1.0) {
      cov.AddToDiagonal(eps);
      chol = linalg::Cholesky::Factorize(cov);
      eps *= 10.0;
    }
    if (!chol.ok()) {
      return Status::Internal("robust covariance not factorizable");
    }
    factors.push_back(std::move(chol).value());
  }

  ForEachRange(n, pool, [&](size_t, size_t begin, size_t end) {
    std::vector<double> xs;
    uint32_t labels[GmmEvaluator::kMaxBlockRows]{};
    double d2[GmmEvaluator::kMaxBlockRows]{};
    for (size_t b = begin; b < end; b += GmmEvaluator::kMaxBlockRows) {
      const size_t rows = std::min(GmmEvaluator::kMaxBlockRows, end - b);
      model.ProjectRows(dataset, b, b + rows, xs);
      for (size_t r = 0; r < rows; ++r) {
        labels[r] = static_cast<uint32_t>(hard[b + r]);
      }
      MahalanobisToAssigned(factors, centers, xs.data(), rows, labels, d2);
      for (size_t r = 0; r < rows; ++r) {
        result.assignment[b + r] = d2[r] > critical ? -1 : hard[b + r];
      }
    }
  });
  return result;
}

}  // namespace p3c::core
