#include "src/core/robust.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/common/random.h"
#include "src/linalg/cholesky.h"

namespace p3c::core {

namespace {

/// Classical mean/covariance of the selected points.
void MeanCov(const std::vector<linalg::Vector>& members,
             const std::vector<uint32_t>& subset, linalg::Vector* mean,
             linalg::Matrix* cov) {
  const size_t dim = members.front().size();
  mean->assign(dim, 0.0);
  for (uint32_t idx : subset) {
    for (size_t j = 0; j < dim; ++j) (*mean)[j] += members[idx][j];
  }
  const double w = static_cast<double>(subset.size());
  for (size_t j = 0; j < dim; ++j) (*mean)[j] /= w;
  *cov = linalg::Matrix(dim, dim);
  for (uint32_t idx : subset) {
    cov->AddLowerOuterProduct(linalg::VecSub(members[idx], *mean), 1.0);
  }
  *cov = cov->Scale(1.0 / w);
  cov->MirrorLower();
}

/// Cholesky with escalating ridge; always succeeds for reasonable input.
linalg::Cholesky FactorizeRidged(linalg::Matrix cov, double ridge) {
  Result<linalg::Cholesky> chol = linalg::Cholesky::Factorize(cov);
  double eps = ridge;
  while (!chol.ok() && eps < 1e3) {
    cov.AddToDiagonal(eps);
    chol = linalg::Cholesky::Factorize(cov);
    eps *= 10.0;
  }
  if (!chol.ok()) {
    // Pathological input (NaNs); fall back to the identity.
    chol = linalg::Cholesky::Factorize(
        linalg::Matrix::Identity(cov.rows()));
  }
  return std::move(chol).value();
}

/// One concentration step: the h points nearest to (mean, cov) in
/// Mahalanobis distance.
std::vector<uint32_t> CStep(const std::vector<linalg::Vector>& members,
                            const linalg::Vector& mean,
                            const linalg::Matrix& cov, size_t h,
                            double ridge) {
  const linalg::Cholesky chol = FactorizeRidged(cov, ridge);
  std::vector<std::pair<double, uint32_t>> distances;
  distances.reserve(members.size());
  for (uint32_t i = 0; i < members.size(); ++i) {
    distances.emplace_back(chol.MahalanobisSquared(members[i], mean), i);
  }
  std::nth_element(distances.begin(), distances.begin() + static_cast<long>(h),
                   distances.end());
  std::vector<uint32_t> subset(h);
  for (size_t i = 0; i < h; ++i) subset[i] = distances[i].second;
  std::sort(subset.begin(), subset.end());
  return subset;
}

}  // namespace

McdResult ComputeMcd(const std::vector<linalg::Vector>& members,
                     const McdOptions& options) {
  McdResult best;
  if (members.empty()) return best;
  const size_t n = members.size();
  const size_t dim = members.front().size();
  const size_t h = (n + dim + 1) / 2 > n ? n : (n + dim + 1) / 2;

  if (n < dim + 2 || h >= n) {
    // Too few points for a meaningful MCD: classical estimate of all.
    best.h_subset.resize(n);
    std::iota(best.h_subset.begin(), best.h_subset.end(), 0u);
    MeanCov(members, best.h_subset, &best.mean, &best.cov);
    best.log_det = FactorizeRidged(best.cov, options.ridge).LogDet();
    return best;
  }

  Rng rng(options.seed);
  double best_log_det = std::numeric_limits<double>::infinity();
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);

  for (size_t trial = 0; trial < options.num_trials; ++trial) {
    // Elemental start: dim + 1 random points.
    rng.Shuffle(all);
    std::vector<uint32_t> subset(all.begin(),
                                 all.begin() + static_cast<long>(dim + 1));
    linalg::Vector mean;
    linalg::Matrix cov;
    MeanCov(members, subset, &mean, &cov);

    // Concentration steps; the determinant never increases.
    double log_det = std::numeric_limits<double>::infinity();
    for (size_t step = 0; step < options.num_c_steps; ++step) {
      subset = CStep(members, mean, cov, h, options.ridge);
      MeanCov(members, subset, &mean, &cov);
      const double next_log_det =
          FactorizeRidged(cov, options.ridge).LogDet();
      if (next_log_det >= log_det - 1e-12) {
        log_det = next_log_det;
        break;
      }
      log_det = next_log_det;
    }
    if (log_det < best_log_det) {
      best_log_det = log_det;
      best.mean = std::move(mean);
      best.cov = std::move(cov);
      best.log_det = log_det;
      best.h_subset = std::move(subset);
    }
  }
  return best;
}

}  // namespace p3c::core
