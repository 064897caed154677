#ifndef P3C_MR_JOBS_H_
#define P3C_MR_JOBS_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/resource.h"
#include "src/common/status.h"

#include "src/core/gmm.h"
#include "src/core/interval.h"
#include "src/core/outlier.h"
#include "src/core/rssc.h"
#include "src/core/signature.h"
#include "src/data/dataset.h"
#include "src/data/io.h"
#include "src/linalg/matrix.h"
#include "src/mapreduce/runner.h"
#include "src/stats/histogram.h"

namespace p3c::mr {

// Every job reads records [0, n) of its input: the runner hands each
// mapper contiguous row ranges, and the input itself travels through
// the job-config pointer as a shared immutable reference. The Light
// jobs (histogram, support count, support sets, cluster histograms,
// tightening) take a data::RowInput: an in-memory Dataset, read in
// place, or a container file, which each map task reads one map range
// (at most kMapRangeRecords rows) at a time. A failed read fails the
// attempt with the reader's Status. The EM, MVB and OD jobs read a
// Dataset.

/// §5.1 histogram job: per-split partial histograms (in-mapper combining
/// of Eq. 8), merged per attribute by the reducers. Returns one histogram
/// per attribute with NumBins(rule, n) bins, or InvalidArgument when any
/// value lies outside [0, 1] (the mappers count them while binning).
///
/// All job wrappers below surface the engine's failure Status (a task
/// that exhausted its attempts) instead of a value; see LocalRunner.
Result<std::vector<stats::Histogram>> RunHistogramJob(
    LocalRunner& runner, const data::RowInput& input,
    stats::BinningRule rule);

/// §5.3 support-counting job: the RSSC bit masks are built by the driver
/// ("calculated by the main program beforehand") and shipped to mappers;
/// each mapper aggregates split-local support counts, reducers sum.
/// The batch is `rows` of interval ids over `table`; the result is
/// parallel to the rows. Rows that core::CheckIntervalRows rejects yield
/// its InvalidArgument and run no job. When `index` is over a table
/// equal to `table` (the same ids), the mappers AND its words and read
/// no rows; otherwise they scan the rows. The index must have been
/// filled under `runner`'s split layout (RunIndexingSupportJob).
Result<std::vector<uint64_t>> RunSupportJob(
    LocalRunner& runner, const data::RowInput& input,
    const core::IntervalTable& table, const core::IntervalRows& rows,
    const core::IntervalIndex* index = nullptr);

/// RunSupportJob on Signatures: the result is parallel to `signatures`.
/// They go as rows over the index's table when it holds all of their
/// intervals (WithSignatureRows), so they read the index.
Result<std::vector<uint64_t>> RunSupportJob(
    LocalRunner& runner, const data::RowInput& input,
    const std::vector<core::Signature>& signatures,
    const core::IntervalIndex* index = nullptr);

/// Calls `fn(table, rows)` with `signatures` as rows, one per signature:
/// over `index`'s table when `index` is set and its table holds every
/// interval of them, else over core::IntervalTable(signatures). Passed
/// on to a support job with `index`, the first reads the index and the
/// second scans the rows.
template <typename Fn>
auto WithSignatureRows(const std::vector<core::Signature>& signatures,
                       const core::IntervalIndex* index, const Fn& fn) {
  if (index != nullptr) {
    if (auto rows = index->table().Rows(signatures)) {
      return fn(index->table(), *rows);
    }
  }
  const core::IntervalTable table(signatures);
  return fn(table, *table.Rows(signatures));
}

/// A support-count job's supports and the interval index it filled.
struct IndexedSupports {
  std::vector<uint64_t> supports;
  core::IntervalIndex index;
};

/// The support-count job that also fills a run's interval index over
/// `table`: its mappers gather the words of every table entry for each
/// map range, count the `rows` from them, and return each range's words
/// as one record keyed by the range's first row, and each split's
/// supports as one record under key kIndexingSupportsKey. The job is
/// map-only: the driver sums the supports records. The records are job
/// output, so the index is the same on every backend and under retried
/// attempts. `rows` must not be empty, and malformed rows are rejected
/// as by RunSupportJob.
Result<IndexedSupports> RunIndexingSupportJob(
    LocalRunner& runner, const data::RowInput& input,
    const core::IntervalTable& table, const core::IntervalRows& rows);

/// The key of the supports records of RunIndexingSupportJob; its range
/// records are keyed by row, from 0.
inline constexpr int64_t kIndexingSupportsKey = -1;

/// First/second moment sums the EM jobs of §5.4 exchange: wC, wC2 and lC.
struct MomentSums {
  std::vector<double> w;               ///< wC: per-component weight sums
  std::vector<double> w2;              ///< wC2: sums of squared weights
  std::vector<linalg::Vector> lsum;    ///< lC: per-component sums of w * x
  double log_likelihood = 0.0;         ///< sum over points (soft jobs only)
};

/// One map range's memberships (at most kMapRangeRecords rows): the
/// (row, component, weight) contributions in ascending row order, rows
/// counted from the range's first, and the soft E step's per-row
/// log-likelihood contributions.
struct RangeMemberships {
  struct Entry {
    uint32_t row;
    uint32_t component;
    double weight;
  };
  std::vector<Entry> entries;
  /// One per row from SoftMembership; empty from the hard memberships,
  /// whose log-likelihood is 0.
  std::vector<double> log_likelihood;

  /// Empties the entries and the log-likelihoods.
  void Reset() {
    entries.clear();
    log_likelihood.clear();
  }
};

/// Membership oracle deciding, for a range of points, which components
/// each contributes to and with what weight; lets one job implementation
/// serve EM-init (hard, by core containment), EM steps (soft
/// responsibilities), and the MVB in-ball statistics (hard,
/// ball-filtered).
///
/// Contract: `out` is a pure function of the membership's own state, the
/// rows and `xs`. The same range gives the same bits on every call, from
/// any thread, in any order, in any attempt, so a MembershipRecord may
/// hand out a range's entries computed by another call.
class MembershipFn {
 public:
  virtual ~MembershipFn() = default;
  /// Fills `out` for rows [rows.begin, rows.end), given their Arel
  /// projection as a column block (GmmModel::ProjectRows). The soft E
  /// step also fills each row's log-likelihood log p(x) from the
  /// densities it already computed for the weights; the hard memberships
  /// leave the log-likelihoods empty.
  virtual void Contributions(RecordRange rows, const double* xs,
                             RangeMemberships& out) const = 0;
};

/// Hard membership by cluster-core containment: a point contributes
/// weight 1 to every core whose support set contains it (EM init round 1,
/// §5.4). A map range is one Rssc::Members group.
class CoreMembership : public MembershipFn {
 public:
  CoreMembership(const data::Dataset& dataset,
                 const std::vector<core::Signature>& signatures)
      : dataset_(dataset), rssc_(signatures), k_(signatures.size()) {}

  void Contributions(RecordRange rows, const double* xs,
                     RangeMemberships& out) const override;

 private:
  const data::Dataset& dataset_;
  core::Rssc rssc_;
  size_t k_;
};

/// EM init round 2 (§5.4): support-set members as before, and points
/// outside every support set attach to the Mahalanobis-nearest core.
/// A range's orphans are gathered into one block, so the nearest core
/// costs one kernel call per component for all of them.
class OrphanAssigningMembership : public MembershipFn {
 public:
  OrphanAssigningMembership(const CoreMembership& cores,
                            const core::GmmEvaluator& evaluator)
      : cores_(cores), evaluator_(evaluator) {}

  void Contributions(RecordRange rows, const double* xs,
                     RangeMemberships& out) const override;

 private:
  const CoreMembership& cores_;
  const core::GmmEvaluator& evaluator_;
};

/// Soft EM membership: posterior responsibilities (E step). The k
/// densities are evaluated once per point, a block at a time; the
/// log-likelihood comes from the same values.
class SoftMembership : public MembershipFn {
 public:
  explicit SoftMembership(const core::GmmEvaluator& evaluator)
      : evaluator_(evaluator) {}

  void Contributions(RecordRange rows, const double* xs,
                     RangeMemberships& out) const override;

 private:
  const core::GmmEvaluator& evaluator_;
};

/// MVB in-ball membership (§5.5): the point's argmax-posterior cluster,
/// kept only when the point lies inside that cluster's ball.
class BallMembership : public MembershipFn {
 public:
  BallMembership(const core::GmmEvaluator& evaluator,
                 const std::vector<core::MvbBall>& balls)
      : evaluator_(evaluator), balls_(balls) {}

  void Contributions(RecordRange rows, const double* xs,
                     RangeMemberships& out) const override;

 private:
  const core::GmmEvaluator& evaluator_;
  const std::vector<core::MvbBall>& balls_;
};

/// One moment/covariance job pair's memberships, so the pair evaluates
/// each map range once: a decorator that answers a range it has seen
/// from its copy and every other range from the wrapped membership.
///
/// After the wrapped membership fills a range, the record publishes a
/// copy keyed by that exact [begin, end): one compare-and-swap onto the
/// list of the range's 64-row block, and the first writer wins. A later
/// call for the same range copies it out, and a range that matches no
/// copy exactly (another split layout) calls the wrapped membership. By
/// MembershipFn's contract both give the same bits, so a retried,
/// deadline-killed or duplicated attempt cannot change a sum, and a
/// forked worker, whose copies die with it, only recomputes. Each copy is
/// one allocation, its entries and log-likelihoods behind its header, so
/// the record dies in one free per range. The copies are charged to
/// MemScope::kGmmMatrices until the record dies.
class MembershipRecord : public MembershipFn {
 public:
  /// Records ranges of the first `num_points` rows; later rows pass
  /// through.
  MembershipRecord(const MembershipFn& inner, size_t num_points);
  ~MembershipRecord() override;
  MembershipRecord(const MembershipRecord&) = delete;
  MembershipRecord& operator=(const MembershipRecord&) = delete;

  void Contributions(RecordRange rows, const double* xs,
                     RangeMemberships& out) const override;

 private:
  /// One published range. num_entries entries, then num_log_likelihood
  /// doubles, follow the header in the same allocation.
  struct Copy {
    RecordRange rows;
    Copy* next;
    size_t num_entries;
    size_t num_log_likelihood;

    /// A copy of `memberships` for `rows`, in one allocation.
    static Copy* Make(RecordRange rows, const RangeMemberships& memberships,
                      Copy* next);
    static void Free(Copy* copy);
    /// Bytes of the copy's payload behind the header.
    size_t payload_bytes() const;
    const RangeMemberships::Entry* entries() const;
    const double* log_likelihood() const;
  };
  static const Copy* Find(const Copy* head, RecordRange rows);

  const MembershipFn& inner_;
  /// One list per 64-row block, holding the copies of the ranges that
  /// begin in it; published copies are never changed or unlinked.
  mutable std::vector<std::atomic<Copy*>> blocks_;
  mutable resource::ArenaCharge mem_{resource::MemScope::kGmmMatrices};
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
/// Mappers sum the lower triangle only and emit it packed, d(d+1)/2
/// values per component; the returned matrices are mirrored, so exactly
/// symmetric.
Result<std::vector<linalg::Matrix>> RunCovarianceJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const core::GmmModel& model, const MembershipFn& membership,
    const std::vector<linalg::Vector>& means, const char* job_name);

/// §5.5 MVB ball job: each mapper caches its split (Map), computes the
/// per-split dimension-wise median and median radius per cluster in
/// Cleanup (core::ComputeMvbBall), and the reducer takes the
/// dimension-wise median of the centres and the median of the radii.
using MvbBall = core::MvbBall;
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
/// Unpack step of RunIndexingSupportJob: returns the sum of the supports
/// records and stores every range record's words in `index`. A supports
/// record of other than `num_signatures` values, a range key at or past
/// the index's rows, a key that is no map range's first row, a range
/// that repeats or overlaps the one before it, a missing range, a
/// payload other than index.num_intervals() words, or a bit for a row
/// past its range (past n for the last) yields Status::Internal naming
/// the job.
Result<std::vector<uint64_t>> UnpackIndexingSupports(
    std::vector<KeyedCounts> out, size_t num_signatures,
    core::IntervalIndex& index);
Result<std::vector<std::vector<stats::Histogram>>> UnpackClusterHistograms(
    std::vector<KeyedCounts> out, size_t num_dims,
    const std::vector<size_t>& bins_per_cluster);

/// §5.6 per-cluster histogram job. `membership[i]` is the cluster of
/// point i or negative for none; returns histograms[cluster][attr] with
/// bins from `bins_per_cluster[cluster]`.
Result<std::vector<std::vector<stats::Histogram>>> RunClusterHistogramJob(
    LocalRunner& runner, const data::RowInput& input,
    const std::vector<int32_t>& membership, size_t num_clusters,
    const std::vector<size_t>& bins_per_cluster);

/// §5.7 interval-tightening job: split-local min/max per (cluster,
/// relevant attribute), min/max-aggregated by the reducer. Returns
/// intervals[cluster] parallel to attrs[cluster]; clusters without
/// members yield empty vectors.
Result<std::vector<std::vector<core::Interval>>> RunTighteningJob(
    LocalRunner& runner, const data::RowInput& input,
    const std::vector<int32_t>& membership,
    const std::vector<std::vector<size_t>>& attrs);

/// §6 support-set job (map-only, Light pipeline): emits one record per
/// map range that holds a member of any cluster core, keyed by the
/// range's first row, whose value has one word per core (bit r set iff
/// row key + r lies in the core's support set; core::Rssc::Members).
/// Returns per-core sorted point lists plus the per-point unique
/// assignment (m'): -1 none, -2 several. As for RunSupportJob on
/// Signatures, an `index` whose table holds every core interval replaces
/// the row reads.
struct SupportSetJobResult {
  std::vector<std::vector<data::PointId>> support_sets;
  std::vector<int32_t> unique_assignment;
};
Result<SupportSetJobResult> RunSupportSetJob(
    LocalRunner& runner, const data::RowInput& input,
    const std::vector<core::Signature>& signatures,
    const core::IntervalIndex* index = nullptr);

/// The support-set job's (first row, per-core words) records, in key
/// order.
using RangeWords = std::pair<data::PointId, std::vector<uint64_t>>;

/// Unpack step of the support-set job. A key at or past `num_points`, a
/// key at or below the last member row of the record before it, a
/// payload other than `num_signatures` words, or a bit naming a row at
/// or past `num_points` yields Status::Internal naming the job.
Result<SupportSetJobResult> UnpackSupportSets(
    const std::vector<RangeWords>& out, size_t num_points,
    size_t num_signatures);

}  // namespace p3c::mr

#endif  // P3C_MR_JOBS_H_
