#ifndef P3C_MR_JOBS_H_
#define P3C_MR_JOBS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"

#include "src/core/gmm.h"
#include "src/core/interval.h"
#include "src/core/outlier.h"
#include "src/core/signature.h"
#include "src/data/dataset.h"
#include "src/linalg/matrix.h"
#include "src/mapreduce/runner.h"
#include "src/stats/histogram.h"

namespace p3c::mr {

// Every job reads records [0, n) of its dataset: the runner hands each
// mapper contiguous row ranges, and the dataset itself travels through
// the job-config pointer as a shared immutable reference.

/// §5.1 histogram job: per-split partial histograms (in-mapper combining
/// of Eq. 8), merged per attribute by the reducers. Returns one histogram
/// per attribute with NumBins(rule, n) bins.
///
/// All job wrappers below surface the engine's failure Status (a task
/// that exhausted its attempts) instead of a value; see LocalRunner.
Result<std::vector<stats::Histogram>> RunHistogramJob(
    LocalRunner& runner, const data::Dataset& dataset,
    stats::BinningRule rule);

/// §5.3 support-counting job: the RSSC bit masks are built by the driver
/// ("calculated by the main program beforehand") and shipped to mappers;
/// each mapper aggregates split-local support counts, reducers sum.
/// Result is parallel to `signatures`.
Result<std::vector<uint64_t>> RunSupportJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<core::Signature>& signatures);

/// First/second moment sums the EM jobs of §5.4 exchange: wC, wC2 and lC.
struct MomentSums {
  std::vector<double> w;               ///< wC: per-component weight sums
  std::vector<double> w2;              ///< wC2: sums of squared weights
  std::vector<linalg::Vector> lsum;    ///< lC: per-component sums of w * x
  double log_likelihood = 0.0;         ///< sum over points (soft jobs only)
};

/// Membership oracle deciding, per point, which components it contributes
/// to and with what weight; lets one job implementation serve EM-init
/// (hard, by core containment), EM steps (soft responsibilities), and the
/// MVB in-ball statistics (hard, ball-filtered).
class MembershipFn {
 public:
  virtual ~MembershipFn() = default;
  /// Appends (component, weight) contributions of `x` (Arel coordinates,
  /// with `point` available for containment tests on the full row) and
  /// returns the point's log-likelihood contribution: log p(x) for the
  /// soft E step, which takes it from the densities it already computed
  /// for the weights; 0 for the hard memberships.
  virtual double Contributions(
      data::PointId point, const linalg::Vector& x,
      std::vector<std::pair<uint32_t, double>>& out) const = 0;
};

/// First EM job of a step (and of the init rounds): accumulates w_C and
/// l_C per component under the given membership.
Result<MomentSums> RunMomentJob(LocalRunner& runner,
                                const data::Dataset& dataset,
                                const core::GmmModel& model,
                                const MembershipFn& membership,
                                const char* job_name);

/// Second EM job of a step: accumulates the covariance numerators
/// sum w (x - mu)(x - mu)^T per component around the provided means.
Result<std::vector<linalg::Matrix>> RunCovarianceJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const core::GmmModel& model, const MembershipFn& membership,
    const std::vector<linalg::Vector>& means, const char* job_name);

/// §5.5 MVB ball job: each mapper caches its split (Map), computes the
/// per-split dimension-wise median and median radius per cluster in
/// Cleanup, and the reducer takes the dimension-wise median of the means
/// and the median of the radii.
struct MvbBall {
  linalg::Vector center;
  double radius = 0.0;
};
Result<std::vector<MvbBall>> RunMvbBallJob(LocalRunner& runner,
                                           const data::Dataset& dataset,
                                           const core::GmmModel& model,
                                           const core::GmmEvaluator& evaluator);

/// §5.5 OD job (map-only): emits the membership attribute per point —
/// the argmax-posterior cluster, or -1 when the Mahalanobis distance to
/// the supplied per-cluster statistics exceeds `critical`. `centers` /
/// `factors` are the naive (EM) or MVB statistics.
Result<std::vector<int32_t>> RunOdJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const core::GmmModel& model, const core::GmmEvaluator& evaluator,
    const std::vector<linalg::Vector>& centers,
    const std::vector<linalg::Cholesky>& factors, double critical);

/// The (key, payload) records the double- and count-valued jobs'
/// reducers return.
using KeyedDoubles = std::pair<int64_t, std::vector<double>>;
using KeyedCounts = std::pair<int64_t, std::vector<uint64_t>>;

/// Unpack steps of the jobs with a reduce phase: each turns the
/// reducers' records into the job's result. A key outside the job's key
/// range or a payload of the wrong length (a record the job cannot have
/// produced) yields Status::Internal naming the job and the lengths
/// instead of an out-of-bounds read. `k` and `dim` are the model's
/// component count and Arel dimension; cluster c's histograms have
/// `bins_per_cluster[c]` bins.
Result<MomentSums> UnpackMomentSums(const std::vector<KeyedDoubles>& out,
                                    size_t k, size_t dim,
                                    const char* job_name);
Result<std::vector<linalg::Matrix>> UnpackCovarianceSums(
    const std::vector<KeyedDoubles>& out, size_t k, size_t dim,
    const char* job_name);
Result<std::vector<MvbBall>> UnpackMvbBalls(
    const std::vector<KeyedDoubles>& out, size_t k, size_t dim);
Result<std::vector<std::vector<core::Interval>>> UnpackTightening(
    const std::vector<KeyedDoubles>& out,
    const std::vector<std::vector<size_t>>& attrs);
Result<std::vector<stats::Histogram>> UnpackHistograms(
    std::vector<KeyedCounts> out, size_t num_dims, size_t bins);
Result<std::vector<uint64_t>> UnpackSupports(std::vector<KeyedCounts> out,
                                             size_t num_signatures);
Result<std::vector<std::vector<stats::Histogram>>> UnpackClusterHistograms(
    std::vector<KeyedCounts> out, size_t num_dims,
    const std::vector<size_t>& bins_per_cluster);

/// §5.6 per-cluster histogram job. `membership[i]` is the cluster of
/// point i or negative for none; returns histograms[cluster][attr] with
/// bins from `bins_per_cluster[cluster]`.
Result<std::vector<std::vector<stats::Histogram>>> RunClusterHistogramJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<int32_t>& membership, size_t num_clusters,
    const std::vector<size_t>& bins_per_cluster);

/// §5.7 interval-tightening job: split-local min/max per (cluster,
/// relevant attribute), min/max-aggregated by the reducer. Returns
/// intervals[cluster] parallel to attrs[cluster]; clusters without
/// members yield empty vectors.
Result<std::vector<std::vector<core::Interval>>> RunTighteningJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<int32_t>& membership,
    const std::vector<std::vector<size_t>>& attrs);

/// §6 support-set job (map-only, Light pipeline): emits, per point, the
/// cluster cores whose support set contains it. Returns per-core sorted
/// point lists plus the per-point unique assignment (m'): -1 none, -2
/// several.
struct SupportSetJobResult {
  std::vector<std::vector<data::PointId>> support_sets;
  std::vector<int32_t> unique_assignment;
};
Result<SupportSetJobResult> RunSupportSetJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<core::Signature>& signatures);

}  // namespace p3c::mr

#endif  // P3C_MR_JOBS_H_
