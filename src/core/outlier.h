#ifndef P3C_CORE_OUTLIER_H_
#define P3C_CORE_OUTLIER_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/common/threadpool.h"
#include "src/core/gmm.h"
#include "src/core/params.h"
#include "src/data/dataset.h"

namespace p3c::core {

/// Per-cluster robust statistics of the MVB estimator (§4.2.2): the
/// minimum-volume-ball approximation of the MVE — the ball around the
/// dimension-wise median containing (about) half the cluster's points,
/// plus the mean/covariance of the points inside it.
struct MvbStatistics {
  linalg::Vector center;  ///< dimension-wise median (Arel coordinates)
  double radius = 0.0;    ///< median distance to the center
  linalg::Vector mean;    ///< mean of in-ball points
  linalg::Matrix cov;     ///< covariance of in-ball points
  uint64_t num_members = 0;
  uint64_t num_in_ball = 0;
};

/// The ball of the MVB estimator: the dimension-wise median centre and
/// the median Euclidean distance to it.
struct MvbBall {
  linalg::Vector center;
  double radius = 0.0;
};

/// Outcome of the outlier detection step: the paper's "membership
/// attribute" written back per point — the cluster id, or -1 for
/// outliers (§5.5).
struct OutlierDetectionResult {
  std::vector<int32_t> assignment;
  /// Populated in MVB mode only (diagnostics / tests).
  std::vector<MvbStatistics> mvb;
};

/// Runs the OD step over the whole dataset given the post-EM mixture:
/// every point is hard-assigned to its argmax-posterior component; its
/// Mahalanobis distance to that component (naive mode: EM mean/cov; MVB
/// mode: in-ball mean/cov) is compared to the critical value of the
/// chi-squared distribution with |Arel| degrees of freedom at
/// `params.outlier_alpha`, and points beyond it become outliers.
Result<OutlierDetectionResult> DetectOutliers(const data::Dataset& dataset,
                                              const GmmModel& model,
                                              const P3CParams& params,
                                              ThreadPool* pool);

/// The MVB ball of `num` points with `dim` Arel coordinates each, stored
/// row-major in `points` (point i at points[i * dim]). `distances`, when
/// non-null, receives every point's Euclidean distance to the centre.
/// The MR ball job emits this per split; ComputeMvbStatistics adds the
/// in-ball moments. An empty set yields an empty centre and radius 0.
MvbBall ComputeMvbBall(const double* points, size_t num, size_t dim,
                       std::vector<double>* distances = nullptr);

/// Computes the exact (serial-pipeline) MVB statistics of one cluster
/// from its member coordinates in Arel space; exposed for tests and the
/// MapReduce job, which replaces the exact medians with per-split
/// medians-of-medians. The covariance is the raw in-ball estimate; apply
/// ApplyMvbConsistencyCorrection before chi-squared thresholding.
MvbStatistics ComputeMvbStatistics(const std::vector<linalg::Vector>& members);

/// Rescales an in-ball covariance estimate to be consistent with the
/// full-population covariance under normality. Points inside the
/// half-mass ball systematically under-disperse; without this factor the
/// chi-squared cutoff of the OD step would reject most genuine members.
/// Uses the MCD consistency constant for h/n = 0.5:
///   c = 0.5 / F_{chi2,dim+2}( chi2-quantile(0.5, dim) ).
void ApplyMvbConsistencyCorrection(linalg::Matrix& cov, size_t dim);

}  // namespace p3c::core

#endif  // P3C_CORE_OUTLIER_H_
