#ifndef P3C_CORE_GMM_H_
#define P3C_CORE_GMM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/threadpool.h"
#include "src/core/core_detection.h"
#include "src/core/params.h"
#include "src/data/dataset.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/matrix.h"

namespace p3c::core {

/// One Gaussian of the mixture, expressed in the coordinates of the
/// relevant subspace Arel (Eq. 3).
struct GaussianComponent {
  linalg::Vector mean;   ///< |Arel| entries
  linalg::Matrix cov;    ///< |Arel| x |Arel|
  double weight = 0.0;   ///< mixing proportion, sums to 1 over components
};

/// A Gaussian mixture over the projection of the data onto Arel.
struct GmmModel {
  std::vector<size_t> arel;  ///< sorted attribute subset
  std::vector<GaussianComponent> components;

  size_t dim() const { return arel.size(); }
  size_t num_components() const { return components.size(); }

  /// Projects a full d-dimensional row onto the Arel coordinates.
  linalg::Vector Project(std::span<const double> row) const;

  /// Same, into a caller-owned buffer (resized to dim()): the per-point
  /// loops reuse one buffer instead of allocating a Vector per row.
  void Project(std::span<const double> row, linalg::Vector& out) const;

  /// Projects rows [begin, end) of `dataset` into a column block, the
  /// layout GmmEvaluator's block methods read: xs (resized to
  /// dim() * rows) holds Arel coordinate i of row begin + r at
  /// xs[i * rows + r], rows = end - begin.
  void ProjectRows(const data::Dataset& dataset, size_t begin, size_t end,
                   std::vector<double>& xs) const;

  /// Same for an arbitrary list of points (row r is points[r]).
  void ProjectRows(const data::Dataset& dataset,
                   std::span<const data::PointId> points,
                   std::vector<double>& xs) const;
};

/// Computes the union of relevant attributes over all cluster cores
/// (Arel, Eq. 3), sorted.
std::vector<size_t> RelevantAttributeUnion(const std::vector<ClusterCore>& cores);

/// Copies row r of a column block of `rows` rows and `dim` coordinates
/// (xs[i * rows + r]) into `x`, resized to dim.
void BlockRow(const double* xs, size_t rows, size_t dim, size_t r,
              linalg::Vector& x);

/// Gathers rows picks[0..m) of a column block of `rows` rows and `dim`
/// coordinates into a column block of m rows (`out`, resized to dim * m).
void GatherBlockRows(const double* xs, size_t rows, size_t dim,
                     const uint32_t* picks, size_t m,
                     std::vector<double>& out);

/// Immutable evaluation view of a GmmModel with per-component Cholesky
/// factors. Construction regularizes non-PD covariances by escalating
/// ridge (adds ridge, 10*ridge, ... to the diagonal until factorization
/// succeeds); fails only if even a heavy ridge cannot fix the matrix.
///
/// Densities are evaluated a column block of projected rows at a time
/// (GmmModel::ProjectRows), one kernels::Ops::mahalanobis_rows call per
/// component; the per-point methods are one-row blocks of the same path.
class GmmEvaluator {
 public:
  /// Most rows one block call takes: the MR engine's map range.
  static constexpr size_t kMaxBlockRows = 64;

  static Result<GmmEvaluator> Make(const GmmModel& model, double ridge);

  size_t num_components() const { return factors_.size(); }
  size_t dim() const { return means_.empty() ? 0 : means_.front().size(); }

  /// The per-component Cholesky factors and means the densities use.
  const std::vector<linalg::Cholesky>& factors() const { return factors_; }
  const std::vector<linalg::Vector>& means() const { return means_; }

  /// The k log-weighted densities of every row of a column block of
  /// `rows` <= kMaxBlockRows rows: logw[r * k + c] = log w_c +
  /// log N(x_r | mu_c, Sigma_c).
  void LogWeightedDensities(const double* xs, size_t rows,
                            double* logw) const;

  /// Squared Mahalanobis distances of a block's rows to component c.
  void MahalanobisRows(size_t c, const double* xs, size_t rows,
                       double* out) const;

  /// For each row of a block, the component at the smallest Mahalanobis
  /// distance, ties to the lowest index (EM init's attachment of points
  /// outside every support set, §5.4).
  void NearestComponents(const double* xs, size_t rows,
                         uint32_t* out) const;

  /// Turns one row's k log-weighted densities into posterior
  /// responsibilities in place and returns the argmax component (the
  /// first maximum). When `log_likelihood` is non-null it receives
  /// log p(x), taken from the same k values before the softmax.
  size_t Responsibilities(double* logw, double* log_likelihood) const;

  /// argmax_c of one row's k log-weighted densities, ties to the lowest
  /// index: the hard assignment.
  size_t ArgMax(const double* logw) const;

  // One-row calls of the block path; x in Arel coordinates.

  /// log w_k + log N(x | mu_k, Sigma_k).
  double LogWeightedDensity(size_t k, const linalg::Vector& x) const;

  /// Posterior responsibilities r_k(x); returns the argmax component.
  size_t Responsibilities(const linalg::Vector& x, std::vector<double>& r,
                          double* log_likelihood = nullptr) const;

  /// Hard assignment: argmax_k posterior (ties to the lowest index).
  size_t HardAssign(const linalg::Vector& x) const;

  /// Squared Mahalanobis distance of x to component k.
  double MahalanobisSquared(size_t k, const linalg::Vector& x) const;

  /// log p(x) under the mixture (log-sum-exp over components).
  double LogLikelihood(const linalg::Vector& x) const;

 private:
  GmmEvaluator(std::vector<linalg::Cholesky> factors,
               std::vector<linalg::Vector> means,
               std::vector<double> log_norms)
      : factors_(std::move(factors)),
        means_(std::move(means)),
        log_norms_(std::move(log_norms)) {}

  std::vector<linalg::Cholesky> factors_;
  std::vector<linalg::Vector> means_;
  /// log w_k - 0.5 logdet - (dim/2) log(2 pi)
  std::vector<double> log_norms_;
};

/// Squared Mahalanobis distance of every row of a column block
/// (`rows` <= GmmEvaluator::kMaxBlockRows) to its own cluster:
/// out[r] = (x_r - centers[c])^T Sigma_c^-1 (x_r - centers[c]) with
/// c = labels[r] and Sigma_c = L L^T for L = factors[c]. The rows are
/// gathered per cluster, so every cluster present costs one kernel call.
void MahalanobisToAssigned(const std::vector<linalg::Cholesky>& factors,
                           const std::vector<linalg::Vector>& centers,
                           const double* xs, size_t rows,
                           const uint32_t* labels, double* out);

/// Outcome of an EM run.
struct EmResult {
  GmmModel model;
  size_t iterations = 0;
  double log_likelihood = 0.0;
};

/// Builds the initial mixture from cluster cores per §5.4's two rounds:
/// first, mean/covariance of every core from its support set only; then
/// every point outside all support sets is attached to the core with the
/// smallest Mahalanobis distance, and the statistics are recomputed
/// including those points. Mixing weights are proportional to the final
/// member counts.
Result<GmmModel> InitializeFromCores(const data::Dataset& dataset,
                                     const std::vector<ClusterCore>& cores,
                                     const P3CParams& params,
                                     ThreadPool* pool);

/// Serial (multi-threaded, single-process) EM in the Arel subspace:
/// iterates soft E/M steps until the relative log-likelihood improvement
/// drops below params.em_tolerance or max_em_iterations is hit.
///
/// The sufficient statistics match §5.4's job decomposition (lC, wC, and
/// the covariance accumulation); the MapReduce pipeline computes the same
/// statistics with two jobs per step.
Result<EmResult> RunEm(const data::Dataset& dataset, GmmModel initial,
                       const P3CParams& params, ThreadPool* pool);

}  // namespace p3c::core

#endif  // P3C_CORE_GMM_H_
