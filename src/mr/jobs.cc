#include "src/mr/jobs.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <new>

#include "src/common/resource.h"
#include "src/common/string_util.h"
#include "src/core/rssc.h"
#include "src/stats/descriptive.h"

namespace p3c::mr {

namespace {

/// True when every value has the front value's length. The double-valued
/// reducers below emit an empty payload for a key whose values disagree,
/// which the job's unpack step then rejects with a Status.
template <typename T>
bool SameLengths(std::span<const std::vector<T>> values) {
  for (const auto& v : values) {
    if (v.size() != values.front().size()) return false;
  }
  return true;
}

/// Generic sum reducer for (int64, vector<double>) stats records.
class VectorSumReducer
    : public Reducer<int64_t, std::vector<double>, KeyedDoubles> {
 public:
  void Reduce(const int64_t& key,
              std::span<const std::vector<double>> values,
              std::vector<KeyedDoubles>& out) override {
    std::vector<double> acc;
    if (!values.empty() && SameLengths(values)) {
      acc.assign(values.front().size(), 0.0);
      for (const auto& v : values) {
        for (size_t i = 0; i < v.size(); ++i) acc[i] += v[i];
      }
    }
    out.emplace_back(key, std::move(acc));
  }
};

/// Generic sum reducer for (int64, vector<uint64>) count records. Like
/// VectorSumReducer, values of different lengths yield an empty payload,
/// which the job's unpack step rejects.
class CountSumReducer
    : public Reducer<int64_t, std::vector<uint64_t>, KeyedCounts> {
 public:
  void Reduce(const int64_t& key,
              std::span<const std::vector<uint64_t>> values,
              std::vector<KeyedCounts>& out) override {
    std::vector<uint64_t> acc;
    if (!values.empty() && SameLengths(values)) {
      acc.assign(values.front().size(), 0);
      for (const auto& v : values) {
        for (size_t i = 0; i < v.size(); ++i) acc[i] += v[i];
      }
    }
    out.emplace_back(key, std::move(acc));
  }
};

/// Per-job reducer count: the paper's jobs have small, known key
/// cardinalities (an attribute index, a cluster index), so partitions
/// beyond that are guaranteed-empty reduce tasks. Cap the runner's
/// default at the job's key count.
size_t ReducersForKeys(const LocalRunner& runner, size_t num_keys) {
  return std::max<size_t>(
      1, std::min(num_keys, runner.DefaultNumReducers()));
}

/// Checks one reducer record of `job_name` before its payload is read:
/// the key must lie in [0, num_keys) and the payload hold `expected`
/// values.
Status CheckRecord(const char* job_name, int64_t key, size_t num_keys,
                   size_t payload_size, size_t expected) {
  if (key < 0 || static_cast<uint64_t>(key) >= num_keys) {
    return Status::Internal(StringPrintf(
        "%s: result key %lld outside [0, %zu)", job_name,
        static_cast<long long>(key), num_keys));
  }
  if (payload_size != expected) {
    return Status::Internal(StringPrintf(
        "%s: result for key %lld holds %zu values, expected %zu", job_name,
        static_cast<long long>(key), payload_size, expected));
  }
  return Status::OK();
}

/// A map task's reader of its job's rows. An in-memory input is read in
/// place; a file is read one map range at a time into a buffer charged
/// to MemScope::kDataset, so a task holds at most one range of it, and a
/// task that reads no rows holds none. A failed read throws StatusError,
/// which fails the attempt with the reader's Status.
class RangeRows {
 public:
  explicit RangeRows(const data::RowInput& input)
      : file_(input.file()),
        values_(file_ == nullptr ? input.dataset()->values().data() : nullptr),
        dims_(input.num_dims()) {}

  size_t dims() const { return dims_; }

  /// The rows of `range`, row-major.
  const double* Read(RecordRange range) {
    if (file_ == nullptr) return values_ + range.begin * dims_;
    if (buffer_.empty()) {
      buffer_.resize(kMapRangeRecords * dims_);
      mem_.Set(static_cast<int64_t>(buffer_.size() * sizeof(double)));
    }
    Status st = file_->ReadRows(range.begin, range.size(), buffer_.data());
    if (!st.ok()) throw StatusError(std::move(st));
    return buffer_.data();
  }

 private:
  const data::BinaryDatasetReader* file_;
  const double* values_;
  size_t dims_;
  std::vector<double> buffer_;
  resource::ScopedBytes mem_{resource::MemScope::kDataset};
};

/// The range of `index` that `rows` is, for a mapper that reads the index
/// instead of the rows. A range the index does not hold (another split
/// layout) fails the attempt with Status::Internal.
size_t IndexRange(const core::IntervalIndex& index, RecordRange rows) {
  const size_t i = index.RangeStartingAt(rows.begin);
  if (i == index.num_ranges() || index.RangeRows(i) != rows.size()) {
    throw StatusError(Status::Internal(StringPrintf(
        "map range [%zu, %zu) is no range of the interval index", rows.begin,
        rows.end)));
  }
  return i;
}

/// `index` when its table equals `table`, so that a batch over `table`
/// may read it; else null.
const core::IntervalIndex* IndexOver(const core::IntervalTable& table,
                                     const core::IntervalIndex* index) {
  return index != nullptr && index->table() == table ? index : nullptr;
}

// ---------------------------------------------------------------------------
// Histogram job (§5.1)
// ---------------------------------------------------------------------------

struct HistogramJobConfig {
  const data::RowInput* input;
  size_t bins;
};

/// The histogram job's record for values outside [0, 1]: a one-element
/// count, emitted only by splits that saw such a value, so a normalized
/// dataset's records and counters are those of a plain histogram job.
constexpr int64_t kOutOfRangeKey = -1;

class HistogramMapper : public Mapper<int64_t, std::vector<uint64_t>> {
 public:
  explicit HistogramMapper(const HistogramJobConfig* config)
      : config_(config),
        rows_(*config->input),
        local_(config->input->num_dims(), stats::Histogram(config->bins)) {
    mem_.Set(static_cast<int64_t>(local_.size() * config->bins *
                                  sizeof(uint64_t)));
  }

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<uint64_t>>& out) override {
    (void)out;
    out_of_range_ += stats::AddRows(local_, rows_.Read(rows), rows.size());
    points_ += rows.size();
  }

  void Cleanup(Emitter<int64_t, std::vector<uint64_t>>& out) override {
    for (size_t j = 0; j < local_.size(); ++j) {
      out.Emit(static_cast<int64_t>(j), local_[j].counts());
    }
    if (out_of_range_ > 0) {
      out.Emit(kOutOfRangeKey, std::vector<uint64_t>{out_of_range_});
    }
    // Flushed once per task so the per-record path stays counter-free;
    // integer-valued counters keep the exported JSON byte-identical
    // across thread counts (doubles sum exactly below 2^53).
    out.counters().Increment("histogram/points", points_);
    out.counters().SetGauge("histogram/bins",
                            static_cast<double>(config_->bins));
  }

 private:
  const HistogramJobConfig* config_;
  RangeRows rows_;
  std::vector<stats::Histogram> local_;
  uint64_t points_ = 0;
  uint64_t out_of_range_ = 0;
  resource::ScopedBytes mem_{resource::MemScope::kHistogramBins};
};

// ---------------------------------------------------------------------------
// Support job (§5.3)
// ---------------------------------------------------------------------------

struct SupportJobConfig {
  const data::RowInput* input;
  const core::Rssc* rssc;  // "distributed cache" payload
  /// Read instead of the rows when set.
  const core::IntervalIndex* index;
  /// Whether the job fills an index of the Rssc's intervals (its whole
  /// table): one record per map range.
  bool fill_index;
};

class SupportMapper : public Mapper<int64_t, std::vector<uint64_t>> {
 public:
  explicit SupportMapper(const SupportJobConfig* config)
      : config_(config),
        rows_(*config->input),
        supports_(config->rssc->num_signatures(), 0),
        counter_(config->index != nullptr
                     ? core::Rssc::Counter(*config->rssc, *config->index,
                                           supports_)
                     : core::Rssc::Counter(*config->rssc, supports_)) {}

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<uint64_t>>& out) override {
    points_ += rows.size();
    if (config_->index != nullptr) {
      counter_.AddRange(IndexRange(*config_->index, rows));
      return;
    }
    counter_.Add(rows_.Read(rows), rows.size(), rows_.dims());
    if (config_->fill_index) {
      std::vector<uint64_t> words(config_->rssc->num_intervals());
      counter_.LastGroupWords(words);
      out.Emit(static_cast<int64_t>(rows.begin), std::move(words));
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<uint64_t>>& out) override {
    // In-mapper combining: one record per split instead of one per point.
    counter_.Finish();
    out.counters().Increment("support/points", points_);
    out.counters().SetGauge("support/candidates",
                            static_cast<double>(supports_.size()));
    out.Emit(config_->fill_index ? kIndexingSupportsKey : 0,
             std::move(supports_));
  }

 private:
  const SupportJobConfig* config_;
  RangeRows rows_;
  std::vector<uint64_t> supports_;  // before counter_, which adds into it
  core::Rssc::Counter counter_;
  uint64_t points_ = 0;
};

// ---------------------------------------------------------------------------
// Moment / covariance jobs (§5.4)
// ---------------------------------------------------------------------------

struct MomentJobConfig {
  const data::Dataset* dataset;
  const core::GmmModel* model;
  const MembershipFn* membership;
};

constexpr int64_t kLogLikelihoodKey = -1;

class MomentMapper : public Mapper<int64_t, std::vector<double>> {
 public:
  explicit MomentMapper(const MomentJobConfig* config)
      : config_(config),
        k_(config->model->num_components()),
        dim_(config->model->dim()),
        w_(k_, 0.0),
        w2_(k_, 0.0),
        lsum_(k_, linalg::Vector(dim_, 0.0)) {
    mem_.Set(static_cast<int64_t>((2 * k_ + k_ * dim_) * sizeof(double)));
  }

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<double>>& out) override {
    (void)out;
    const size_t n = rows.size();
    config_->model->ProjectRows(*config_->dataset, rows.begin, rows.end, xs_);
    config_->membership->Contributions(rows, xs_.data(), memberships_);
    // Every sum runs in row order, as a row-at-a-time loop would add it.
    for (double ll : memberships_.log_likelihood) log_likelihood_ += ll;
    for (const auto& [r, c, weight] : memberships_.entries) {
      w_[c] += weight;
      w2_[c] += weight * weight;
      double* lsum = lsum_[c].data();
      for (size_t j = 0; j < dim_; ++j) lsum[j] += weight * xs_[j * n + r];
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<double>>& out) override {
    // Payload layout: [wC, wC2, lC...] (§5.4's first EM job statistics).
    for (size_t c = 0; c < k_; ++c) {
      std::vector<double> stats;
      stats.reserve(dim_ + 2);
      stats.push_back(w_[c]);
      stats.push_back(w2_[c]);
      stats.insert(stats.end(), lsum_[c].begin(), lsum_[c].end());
      out.Emit(static_cast<int64_t>(c), std::move(stats));
    }
    out.Emit(kLogLikelihoodKey, std::vector<double>{log_likelihood_});
  }

 private:
  const MomentJobConfig* config_;
  size_t k_;
  size_t dim_;
  std::vector<double> w_;
  std::vector<double> w2_;
  std::vector<linalg::Vector> lsum_;
  double log_likelihood_ = 0.0;
  std::vector<double> xs_;  // the range in Arel coordinates, column block
  RangeMemberships memberships_;
  resource::ScopedBytes mem_{resource::MemScope::kGmmMatrices};
};

struct CovarianceJobConfig {
  const data::Dataset* dataset;
  const core::GmmModel* model;
  const MembershipFn* membership;
  const std::vector<linalg::Vector>* means;
};

class CovarianceMapper : public Mapper<int64_t, std::vector<double>> {
 public:
  explicit CovarianceMapper(const CovarianceJobConfig* config)
      : config_(config),
        k_(config->model->num_components()),
        dim_(config->model->dim()),
        acc_(k_, linalg::Matrix(dim_, dim_)),
        centered_(dim_) {
    mem_.Set(static_cast<int64_t>(k_ * dim_ * dim_ * sizeof(double)));
  }

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<double>>& out) override {
    (void)out;
    const size_t n = rows.size();
    config_->model->ProjectRows(*config_->dataset, rows.begin, rows.end, xs_);
    config_->membership->Contributions(rows, xs_.data(), memberships_);
    for (const auto& [r, c, weight] : memberships_.entries) {
      const linalg::Vector& mean = (*config_->means)[c];
      for (size_t j = 0; j < dim_; ++j) {
        centered_[j] = xs_[j * n + r] - mean[j];
      }
      acc_[c].AddLowerOuterProduct(centered_, weight);
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<double>>& out) override {
    // Payload: the lower triangle row by row, d(d+1)/2 values; the
    // unpack step mirrors it.
    for (size_t c = 0; c < k_; ++c) {
      std::vector<double> packed;
      packed.reserve(dim_ * (dim_ + 1) / 2);
      for (size_t i = 0; i < dim_; ++i) {
        for (size_t j = 0; j <= i; ++j) packed.push_back(acc_[c](i, j));
      }
      out.Emit(static_cast<int64_t>(c), std::move(packed));
    }
  }

 private:
  const CovarianceJobConfig* config_;
  size_t k_;
  size_t dim_;
  std::vector<linalg::Matrix> acc_;
  std::vector<double> xs_;   // the range in Arel coordinates, column block
  linalg::Vector centered_;  // a row of xs_ minus the contribution's mean
  RangeMemberships memberships_;
  resource::ScopedBytes mem_{resource::MemScope::kGmmMatrices};
};

// ---------------------------------------------------------------------------
// MVB ball job (§5.5)
// ---------------------------------------------------------------------------

struct MvbBallJobConfig {
  const data::Dataset* dataset;
  const core::GmmModel* model;
  const core::GmmEvaluator* evaluator;
};

class MvbBallMapper : public Mapper<int64_t, std::vector<double>> {
 public:
  explicit MvbBallMapper(const MvbBallJobConfig* config)
      : config_(config),
        k_(config->model->num_components()),
        dim_(config->model->dim()),
        logw_(core::GmmEvaluator::kMaxBlockRows * k_),
        members_(k_),
        counts_(k_, 0) {}

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<double>>& out) override {
    // "mapper j caches the set of all data points Xsplit of the current
    // split" -- here the projected coordinates, one row-major buffer per
    // cluster; the per-split balls are computed in Cleanup.
    (void)out;
    const size_t n = rows.size();
    config_->model->ProjectRows(*config_->dataset, rows.begin, rows.end, xs_);
    config_->evaluator->LogWeightedDensities(xs_.data(), n, logw_.data());
    for (size_t r = 0; r < n; ++r) {
      const size_t c = config_->evaluator->ArgMax(&logw_[r * k_]);
      for (size_t j = 0; j < dim_; ++j) members_[c].push_back(xs_[j * n + r]);
      ++counts_[c];
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<double>>& out) override {
    for (size_t c = 0; c < k_; ++c) {
      if (counts_[c] == 0) continue;
      core::MvbBall ball =
          core::ComputeMvbBall(members_[c].data(), counts_[c], dim_);
      std::vector<double> payload = std::move(ball.center);
      payload.push_back(ball.radius);
      out.Emit(static_cast<int64_t>(c), std::move(payload));
    }
  }

 private:
  const MvbBallJobConfig* config_;
  size_t k_;
  size_t dim_;
  std::vector<double> xs_;    // the range in Arel coordinates, column block
  std::vector<double> logw_;  // its log-weighted densities, row-major
  std::vector<std::vector<double>> members_;  // per cluster, row-major
  std::vector<size_t> counts_;                // rows in members_[c]
};

class MvbBallReducer
    : public Reducer<int64_t, std::vector<double>, KeyedDoubles> {
 public:
  void Reduce(const int64_t& key,
              std::span<const std::vector<double>> values,
              std::vector<KeyedDoubles>& out) override {
    if (values.empty()) return;
    if (values.front().empty() || !SameLengths(values)) {
      out.emplace_back(key, std::vector<double>{});
      return;
    }
    const size_t dim = values.front().size() - 1;
    // Dimension-wise median of the split means; median of the radii.
    std::vector<double> result(dim + 1, 0.0);
    std::vector<double> column(values.size());
    for (size_t j = 0; j <= dim; ++j) {
      for (size_t i = 0; i < values.size(); ++i) column[i] = values[i][j];
      result[j] = stats::Median(column);
    }
    out.emplace_back(key, std::move(result));
  }
};

// ---------------------------------------------------------------------------
// OD job (§5.5, map-only)
// ---------------------------------------------------------------------------

struct OdJobConfig {
  const data::Dataset* dataset;
  const core::GmmModel* model;
  const core::GmmEvaluator* evaluator;
  const std::vector<linalg::Vector>* centers;
  const std::vector<linalg::Cholesky>* factors;
  double critical;
};

class OdMapper : public Mapper<data::PointId, int32_t> {
 public:
  explicit OdMapper(const OdJobConfig* config)
      : config_(config),
        k_(config->model->num_components()),
        logw_(core::GmmEvaluator::kMaxBlockRows * k_) {}

  void Map(RecordRange rows, Emitter<data::PointId, int32_t>& out) override {
    const size_t n = rows.size();
    config_->model->ProjectRows(*config_->dataset, rows.begin, rows.end, xs_);
    config_->evaluator->LogWeightedDensities(xs_.data(), n, logw_.data());
    uint32_t labels[core::GmmEvaluator::kMaxBlockRows]{};
    double d2[core::GmmEvaluator::kMaxBlockRows]{};
    for (size_t r = 0; r < n; ++r) {
      labels[r] = static_cast<uint32_t>(
          config_->evaluator->ArgMax(&logw_[r * k_]));
    }
    core::MahalanobisToAssigned(*config_->factors, *config_->centers,
                                xs_.data(), n, labels, d2);
    for (size_t r = 0; r < n; ++r) {
      const bool outlier = d2[r] > config_->critical;
      if (outlier) {
        ++outliers_;
      } else {
        ++members_;
      }
      out.Emit(static_cast<data::PointId>(rows.begin + r),
               outlier ? -1 : static_cast<int32_t>(labels[r]));
    }
  }

  void Cleanup(Emitter<data::PointId, int32_t>& out) override {
    out.counters().Increment("od/outliers", outliers_);
    out.counters().Increment("od/members", members_);
  }

 private:
  const OdJobConfig* config_;
  size_t k_;
  std::vector<double> xs_;    // the range in Arel coordinates, column block
  std::vector<double> logw_;  // its log-weighted densities, row-major
  uint64_t outliers_ = 0;
  uint64_t members_ = 0;
};

// ---------------------------------------------------------------------------
// Per-cluster histogram job (§5.6)
// ---------------------------------------------------------------------------

struct ClusterHistogramJobConfig {
  const data::RowInput* input;
  const std::vector<int32_t>* membership;
  const std::vector<size_t>* bins_per_cluster;
};

class ClusterHistogramMapper
    : public Mapper<int64_t, std::vector<uint64_t>> {
 public:
  explicit ClusterHistogramMapper(const ClusterHistogramJobConfig* config)
      : config_(config),
        rows_(*config->input),
        local_(config->bins_per_cluster->size()) {}

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<uint64_t>>& out) override {
    (void)out;
    const size_t d = rows_.dims();
    const double* block = rows_.Read(rows);
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const int32_t c = (*config_->membership)[i];
      if (c < 0) continue;
      auto& cluster_local = local_[static_cast<size_t>(c)];
      if (cluster_local.empty()) {
        const size_t bins =
            (*config_->bins_per_cluster)[static_cast<size_t>(c)];
        cluster_local.assign(d, stats::Histogram(bins));
        // Lazy materialization is once per (cluster, task), so the
        // charge update stays off the per-record path.
        mem_bytes_ += static_cast<int64_t>(d * bins * sizeof(uint64_t));
        mem_.Set(mem_bytes_);
      }
      // Range checking is the histogram job's; the count is dropped.
      (void)stats::AddRows(cluster_local, block + (i - rows.begin) * d, 1);
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<uint64_t>>& out) override {
    const auto d = static_cast<int64_t>(rows_.dims());
    for (size_t c = 0; c < local_.size(); ++c) {
      for (size_t j = 0; j < local_[c].size(); ++j) {
        out.Emit(static_cast<int64_t>(c) * d + static_cast<int64_t>(j),
                 local_[c][j].counts());
      }
    }
  }

 private:
  const ClusterHistogramJobConfig* config_;
  RangeRows rows_;
  std::vector<std::vector<stats::Histogram>> local_;
  int64_t mem_bytes_ = 0;
  resource::ScopedBytes mem_{resource::MemScope::kHistogramBins};
};

// ---------------------------------------------------------------------------
// Tightening job (§5.7)
// ---------------------------------------------------------------------------

struct TighteningJobConfig {
  const data::RowInput* input;
  const std::vector<int32_t>* membership;
  const std::vector<std::vector<size_t>>* attrs;
};

class TighteningMapper : public Mapper<int64_t, std::vector<double>> {
 public:
  explicit TighteningMapper(const TighteningJobConfig* config)
      : config_(config),
        rows_(*config->input),
        lo_(config->attrs->size()),
        hi_(config->attrs->size()) {}

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<double>>& out) override {
    (void)out;
    const double* block = rows_.Read(rows);
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const int32_t c = (*config_->membership)[i];
      if (c < 0) continue;
      const auto& attrs = (*config_->attrs)[static_cast<size_t>(c)];
      auto& lo = lo_[static_cast<size_t>(c)];
      auto& hi = hi_[static_cast<size_t>(c)];
      if (lo.empty()) {
        lo.assign(attrs.size(), std::numeric_limits<double>::infinity());
        hi.assign(attrs.size(), -std::numeric_limits<double>::infinity());
      }
      const double* row = block + (i - rows.begin) * rows_.dims();
      for (size_t a = 0; a < attrs.size(); ++a) {
        lo[a] = std::min(lo[a], row[attrs[a]]);
        hi[a] = std::max(hi[a], row[attrs[a]]);
      }
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<double>>& out) override {
    for (size_t c = 0; c < lo_.size(); ++c) {
      if (lo_[c].empty()) continue;
      std::vector<double> payload;
      payload.reserve(lo_[c].size() * 2);
      payload.insert(payload.end(), lo_[c].begin(), lo_[c].end());
      payload.insert(payload.end(), hi_[c].begin(), hi_[c].end());
      out.Emit(static_cast<int64_t>(c), std::move(payload));
    }
  }

 private:
  const TighteningJobConfig* config_;
  RangeRows rows_;
  std::vector<std::vector<double>> lo_;
  std::vector<std::vector<double>> hi_;
};

class TighteningReducer
    : public Reducer<int64_t, std::vector<double>, KeyedDoubles> {
 public:
  void Reduce(const int64_t& key,
              std::span<const std::vector<double>> values,
              std::vector<KeyedDoubles>& out) override {
    if (values.empty()) return;
    if (values.front().size() % 2 != 0 || !SameLengths(values)) {
      out.emplace_back(key, std::vector<double>{});
      return;
    }
    const size_t half = values.front().size() / 2;
    std::vector<double> acc = values.front();
    for (size_t i = 1; i < values.size(); ++i) {
      for (size_t a = 0; a < half; ++a) {
        acc[a] = std::min(acc[a], values[i][a]);
        acc[half + a] = std::max(acc[half + a], values[i][half + a]);
      }
    }
    out.emplace_back(key, std::move(acc));
  }
};

// ---------------------------------------------------------------------------
// Support-set job (§6, map-only)
// ---------------------------------------------------------------------------

struct SupportSetJobConfig {
  const data::RowInput* input;
  const core::Rssc* rssc;
  /// Read instead of the rows when set.
  const core::IntervalIndex* index;
};

/// One record per map range with any member: the key is the range's
/// first row, the value one word per core (bit r: row key + r).
static_assert(kMapRangeRecords <= 64, "a map range must fit one word");
class SupportSetMapper : public Mapper<data::PointId, std::vector<uint64_t>> {
 public:
  explicit SupportSetMapper(const SupportSetJobConfig* config)
      : config_(config),
        rows_(*config->input),
        words_(config->rssc->num_signatures()) {}

  void Map(RecordRange rows,
           Emitter<data::PointId, std::vector<uint64_t>>& out) override {
    if (config_->index != nullptr) {
      config_->rssc->Members(*config_->index,
                             IndexRange(*config_->index, rows), words_);
    } else {
      config_->rssc->Members(rows_.Read(rows), rows.size(), rows_.dims(),
                             scratch_, words_);
    }
    uint64_t members = 0;
    for (uint64_t word : words_) members |= word;
    if (members != 0) out.Emit(static_cast<data::PointId>(rows.begin), words_);
  }

 private:
  const SupportSetJobConfig* config_;
  RangeRows rows_;
  core::Rssc::Scratch scratch_;
  std::vector<uint64_t> words_;
};

}  // namespace

Result<std::vector<stats::Histogram>> RunHistogramJob(
    LocalRunner& runner, const data::RowInput& input,
    stats::BinningRule rule) {
  const size_t bins = static_cast<size_t>(
      stats::NumBins(rule, std::max<uint64_t>(1, input.num_points())));
  HistogramJobConfig config{&input, bins};
  const size_t num_reducers = ReducersForKeys(runner, input.num_dims());
  auto run = runner.Run<int64_t, std::vector<uint64_t>, KeyedCounts>(
      "histogram", input.num_points(),
      [&config] { return std::make_unique<HistogramMapper>(&config); },
      [] { return std::make_unique<CountSumReducer>(); }, num_reducers);
  if (!run.ok()) return run.status();
  return UnpackHistograms(std::move(*run), input.num_dims(), bins);
}

Result<std::vector<stats::Histogram>> UnpackHistograms(
    std::vector<KeyedCounts> out, size_t num_dims, size_t bins) {
  std::vector<stats::Histogram> histograms(num_dims, stats::Histogram(bins));
  for (auto& [attr, counts] : out) {
    if (attr == kOutOfRangeKey && counts.size() == 1) {
      return Status::InvalidArgument(StringPrintf(
          "dataset must be normalized to [0, 1]: %llu value(s) lie "
          "outside it; call NormalizeMinMax first",
          static_cast<unsigned long long>(counts.front())));
    }
    P3C_RETURN_NOT_OK(
        CheckRecord("histogram", attr, num_dims, counts.size(), bins));
    histograms[static_cast<size_t>(attr)].counts() = std::move(counts);
  }
  return histograms;
}

Result<std::vector<uint64_t>> RunSupportJob(
    LocalRunner& runner, const data::RowInput& input,
    const core::IntervalTable& table, const core::IntervalRows& rows,
    const core::IntervalIndex* index) {
  P3C_RETURN_NOT_OK(core::CheckIntervalRows(table, rows));
  if (rows.size() == 0) return std::vector<uint64_t>{};
  index = IndexOver(table, index);
  // "Calculated by the main program" and shipped to every mapper.
  const core::Rssc rssc(table, rows, /*whole_table=*/index != nullptr);
  SupportJobConfig config{&input, &rssc, index, /*fill_index=*/false};
  auto run = runner.Run<int64_t, std::vector<uint64_t>, KeyedCounts>(
      "support-count", input.num_points(),
      [&config] { return std::make_unique<SupportMapper>(&config); },
      [] { return std::make_unique<CountSumReducer>(); },
      /*num_reducers=*/1);  // the job emits a single key
  if (!run.ok()) return run.status();
  return UnpackSupports(std::move(*run), rows.size());
}

Result<std::vector<uint64_t>> RunSupportJob(
    LocalRunner& runner, const data::RowInput& input,
    const std::vector<core::Signature>& signatures,
    const core::IntervalIndex* index) {
  return WithSignatureRows(
      signatures, index,
      [&](const core::IntervalTable& table, const core::IntervalRows& rows) {
        return RunSupportJob(runner, input, table, rows, index);
      });
}

Result<IndexedSupports> RunIndexingSupportJob(
    LocalRunner& runner, const data::RowInput& input,
    const core::IntervalTable& table, const core::IntervalRows& rows) {
  P3C_RETURN_NOT_OK(core::CheckIntervalRows(table, rows));
  core::IntervalIndex index(table, input.num_points(),
                            runner.SplitSize(input.num_points()));
  const core::Rssc rssc(table, rows, /*whole_table=*/true);
  SupportJobConfig config{&input, &rssc, nullptr, /*fill_index=*/true};
  // Map-only: the index words come back in the map results alone, and
  // the driver sums the per-split supports.
  auto run = runner.RunMapOnly<int64_t, std::vector<uint64_t>>(
      "support-count", input.num_points(),
      [&config] { return std::make_unique<SupportMapper>(&config); });
  if (!run.ok()) return run.status();
  auto supports = UnpackIndexingSupports(std::move(*run), rows.size(), index);
  if (!supports.ok()) return supports.status();
  return IndexedSupports{std::move(supports).value(), std::move(index)};
}

Result<std::vector<uint64_t>> UnpackIndexingSupports(
    std::vector<KeyedCounts> out, size_t num_signatures,
    core::IntervalIndex& index) {
  std::vector<uint64_t> supports(num_signatures, 0);
  const size_t n = index.num_points();
  // Records arrive in key order: the splits' supports, then ranges 0,
  // 1, ...
  size_t next = 0;
  for (auto& [key, words] : out) {
    if (key == kIndexingSupportsKey) {
      if (words.size() != num_signatures) {
        return Status::Internal(StringPrintf(
            "support-count: supports record holds %zu values, expected %zu",
            words.size(), num_signatures));
      }
      for (size_t i = 0; i < num_signatures; ++i) supports[i] += words[i];
      continue;
    }
    if (key < 0) {
      return Status::Internal(StringPrintf(
          "support-count: result key %lld is neither the supports' nor a row",
          static_cast<long long>(key)));
    }
    const auto first = static_cast<size_t>(key);
    const size_t i = index.RangeStartingAt(first);
    if (first >= n || i == index.num_ranges()) {
      return Status::Internal(StringPrintf(
          "support-count: index record key %zu is no map range's first row "
          "of the %zu rows",
          first, n));
    }
    if (i < next) {
      return Status::Internal(StringPrintf(
          "support-count: index record key %zu repeats or overlaps the range "
          "before it",
          first));
    }
    if (i > next) {
      return Status::Internal(StringPrintf(
          "support-count: index misses the range at row %zu",
          index.RangeBegin(next)));
    }
    if (words.size() != index.num_intervals()) {
      return Status::Internal(StringPrintf(
          "support-count: index record for key %zu holds %zu words, "
          "expected %zu",
          first, words.size(), index.num_intervals()));
    }
    const size_t rows = index.RangeRows(i);
    for (uint64_t word : words) {
      if (rows < 64 && (word >> rows) != 0) {
        return Status::Internal(StringPrintf(
            "support-count: index record for key %zu names a row at or past "
            "%zu, its range's end",
            first, first + rows));
      }
    }
    index.SetRange(i, words);
    ++next;
  }
  if (next != index.num_ranges()) {
    return Status::Internal(StringPrintf(
        "support-count: index misses the range at row %zu",
        index.RangeBegin(next)));
  }
  return supports;
}

Result<std::vector<uint64_t>> UnpackSupports(std::vector<KeyedCounts> out,
                                             size_t num_signatures) {
  // Key 0 is the only key; an input with no points has no record.
  std::vector<uint64_t> supports(num_signatures, 0);
  for (auto& [key, counts] : out) {
    P3C_RETURN_NOT_OK(CheckRecord("support-count", key, /*num_keys=*/1,
                                  counts.size(), num_signatures));
    supports = std::move(counts);
  }
  return supports;
}

void CoreMembership::Contributions(RecordRange rows, const double* xs,
                                   RangeMemberships& out) const {
  (void)xs;
  thread_local core::Rssc::Scratch scratch;
  thread_local std::vector<uint64_t> words;
  out.Reset();
  words.resize(k_);
  const size_t d = dataset_.num_dims();
  rssc_.Members(dataset_.values().data() + rows.begin * d, rows.size(), d,
                scratch, words);
  uint64_t members = 0;
  for (uint64_t word : words) members |= word;
  for (; members != 0; members &= members - 1) {
    const auto r = static_cast<uint32_t>(std::countr_zero(members));
    for (size_t c = 0; c < k_; ++c) {
      if ((words[c] >> r) & 1) {
        out.entries.push_back({r, static_cast<uint32_t>(c), 1.0});
      }
    }
  }
}

void OrphanAssigningMembership::Contributions(RecordRange rows,
                                              const double* xs,
                                              RangeMemberships& out) const {
  thread_local RangeMemberships members;
  thread_local std::vector<double> block;
  cores_.Contributions(rows, xs, members);
  const size_t n = rows.size();
  uint32_t orphans[core::GmmEvaluator::kMaxBlockRows]{};
  size_t m = 0;
  size_t e = 0;
  for (size_t r = 0; r < n; ++r) {
    const size_t first = e;
    while (e < members.entries.size() && members.entries[e].row == r) ++e;
    if (e == first) orphans[m++] = static_cast<uint32_t>(r);
  }
  uint32_t nearest[core::GmmEvaluator::kMaxBlockRows]{};
  core::GatherBlockRows(xs, n, evaluator_.dim(), orphans, m, block);
  evaluator_.NearestComponents(block.data(), m, nearest);
  // Merge back in row order, so every per-component sum keeps the
  // association of a row-at-a-time loop.
  out.Reset();
  e = 0;
  size_t o = 0;
  for (size_t r = 0; r < n; ++r) {
    if (o < m && orphans[o] == r) {
      out.entries.push_back({static_cast<uint32_t>(r), nearest[o++], 1.0});
      continue;
    }
    while (e < members.entries.size() && members.entries[e].row == r) {
      out.entries.push_back(members.entries[e++]);
    }
  }
}

void SoftMembership::Contributions(RecordRange rows, const double* xs,
                                   RangeMemberships& out) const {
  thread_local std::vector<double> logw;
  const size_t n = rows.size();
  const size_t k = evaluator_.num_components();
  logw.resize(n * k);
  evaluator_.LogWeightedDensities(xs, n, logw.data());
  out.Reset();
  out.log_likelihood.resize(n);
  for (size_t r = 0; r < n; ++r) {
    double* resp = &logw[r * k];
    evaluator_.Responsibilities(resp, &out.log_likelihood[r]);
    for (size_t c = 0; c < k; ++c) {
      if (resp[c] > 1e-12) {
        out.entries.push_back(
            {static_cast<uint32_t>(r), static_cast<uint32_t>(c), resp[c]});
      }
    }
  }
}

void BallMembership::Contributions(RecordRange rows, const double* xs,
                                   RangeMemberships& out) const {
  thread_local std::vector<double> logw;
  thread_local linalg::Vector x;
  const size_t n = rows.size();
  const size_t k = evaluator_.num_components();
  logw.resize(n * k);
  evaluator_.LogWeightedDensities(xs, n, logw.data());
  out.Reset();
  for (size_t r = 0; r < n; ++r) {
    const size_t c = evaluator_.ArgMax(&logw[r * k]);
    const MvbBall& ball = balls_[c];
    if (ball.center.empty()) continue;
    core::BlockRow(xs, n, evaluator_.dim(), r, x);
    if (std::sqrt(linalg::SquaredDistance(x, ball.center)) <= ball.radius) {
      out.entries.push_back(
          {static_cast<uint32_t>(r), static_cast<uint32_t>(c), 1.0});
    }
  }
}

MembershipRecord::MembershipRecord(const MembershipFn& inner,
                                   size_t num_points)
    : inner_(inner), blocks_(num_points / kMapRangeRecords + 1) {}

MembershipRecord::Copy* MembershipRecord::Copy::Make(
    RecordRange rows, const RangeMemberships& memberships, Copy* next) {
  static_assert(sizeof(Copy) % alignof(RangeMemberships::Entry) == 0 &&
                    sizeof(RangeMemberships::Entry) % alignof(double) == 0,
                "a copy's arrays follow its header aligned");
  const size_t entries = memberships.entries.size();
  const size_t lls = memberships.log_likelihood.size();
  void* block = ::operator new(sizeof(Copy) +
                               entries * sizeof(RangeMemberships::Entry) +
                               lls * sizeof(double));
  Copy* copy = new (block) Copy{rows, next, entries, lls};
  if (entries > 0) {
    std::memcpy(const_cast<RangeMemberships::Entry*>(copy->entries()),
                memberships.entries.data(),
                entries * sizeof(RangeMemberships::Entry));
  }
  if (lls > 0) {
    std::memcpy(const_cast<double*>(copy->log_likelihood()),
                memberships.log_likelihood.data(), lls * sizeof(double));
  }
  return copy;
}

void MembershipRecord::Copy::Free(Copy* copy) {
  copy->~Copy();
  ::operator delete(copy);
}

size_t MembershipRecord::Copy::payload_bytes() const {
  return num_entries * sizeof(RangeMemberships::Entry) +
         num_log_likelihood * sizeof(double);
}

const RangeMemberships::Entry* MembershipRecord::Copy::entries() const {
  return reinterpret_cast<const RangeMemberships::Entry*>(this + 1);
}

const double* MembershipRecord::Copy::log_likelihood() const {
  return reinterpret_cast<const double*>(entries() + num_entries);
}

MembershipRecord::~MembershipRecord() {
  for (auto& block : blocks_) {
    Copy* copy = block.load(std::memory_order_relaxed);
    while (copy != nullptr) Copy::Free(std::exchange(copy, copy->next));
  }
}

const MembershipRecord::Copy* MembershipRecord::Find(const Copy* head,
                                                     RecordRange rows) {
  for (; head != nullptr; head = head->next) {
    if (head->rows.begin == rows.begin && head->rows.end == rows.end) {
      return head;
    }
  }
  return nullptr;
}

void MembershipRecord::Contributions(RecordRange rows, const double* xs,
                                     RangeMemberships& out) const {
  const size_t b = rows.begin / kMapRangeRecords;
  if (b >= blocks_.size()) {
    inner_.Contributions(rows, xs, out);
    return;
  }
  std::atomic<Copy*>& block = blocks_[b];
  Copy* head = block.load(std::memory_order_acquire);
  if (const Copy* copy = Find(head, rows)) {
    out.entries.assign(copy->entries(), copy->entries() + copy->num_entries);
    out.log_likelihood.assign(
        copy->log_likelihood(),
        copy->log_likelihood() + copy->num_log_likelihood);
    return;
  }
  inner_.Contributions(rows, xs, out);
  Copy* fresh = Copy::Make(rows, out, head);
  while (!block.compare_exchange_weak(fresh->next, fresh,
                                      std::memory_order_release,
                                      std::memory_order_acquire)) {
    if (Find(fresh->next, rows) != nullptr) {  // another was first
      Copy::Free(fresh);
      return;
    }
  }
  mem_.Add(static_cast<int64_t>(fresh->payload_bytes()));
}

Result<MomentSums> RunMomentJob(LocalRunner& runner,
                                const data::Dataset& dataset,
                                const core::GmmModel& model,
                                const MembershipFn& membership,
                                const char* job_name) {
  MomentJobConfig config{&dataset, &model, &membership};
  // k component keys plus the log-likelihood key.
  const size_t num_reducers =
      ReducersForKeys(runner, model.num_components() + 1);
  auto run = runner.Run<int64_t, std::vector<double>, KeyedDoubles>(
      job_name, dataset.num_points(),
      [&config] { return std::make_unique<MomentMapper>(&config); },
      [] { return std::make_unique<VectorSumReducer>(); }, num_reducers);
  if (!run.ok()) return run.status();
  return UnpackMomentSums(*run, model.num_components(), model.dim(),
                          job_name);
}

Result<MomentSums> UnpackMomentSums(const std::vector<KeyedDoubles>& out,
                                    size_t k, size_t dim,
                                    const char* job_name) {
  MomentSums sums;
  sums.w.assign(k, 0.0);
  sums.w2.assign(k, 0.0);
  sums.lsum.assign(k, linalg::Vector(dim, 0.0));
  for (const auto& [key, stats] : out) {
    if (key == kLogLikelihoodKey) {
      if (stats.size() != 1) {
        return Status::Internal(StringPrintf(
            "%s: log-likelihood result holds %zu values, expected 1",
            job_name, stats.size()));
      }
      sums.log_likelihood = stats[0];
      continue;
    }
    P3C_RETURN_NOT_OK(CheckRecord(job_name, key, k, stats.size(), dim + 2));
    const auto c = static_cast<size_t>(key);
    sums.w[c] = stats[0];
    sums.w2[c] = stats[1];
    for (size_t j = 0; j < dim; ++j) sums.lsum[c][j] = stats[2 + j];
  }
  return sums;
}

Result<std::vector<linalg::Matrix>> RunCovarianceJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const core::GmmModel& model, const MembershipFn& membership,
    const std::vector<linalg::Vector>& means, const char* job_name) {
  CovarianceJobConfig config{&dataset, &model, &membership, &means};
  const size_t num_reducers = ReducersForKeys(runner, model.num_components());
  auto run = runner.Run<int64_t, std::vector<double>, KeyedDoubles>(
      job_name, dataset.num_points(),
      [&config] { return std::make_unique<CovarianceMapper>(&config); },
      [] { return std::make_unique<VectorSumReducer>(); }, num_reducers);
  if (!run.ok()) return run.status();
  return UnpackCovarianceSums(*run, model.num_components(), model.dim(),
                              job_name);
}

Result<std::vector<linalg::Matrix>> UnpackCovarianceSums(
    const std::vector<KeyedDoubles>& out, size_t k, size_t dim,
    const char* job_name) {
  std::vector<linalg::Matrix> sums(k, linalg::Matrix(dim, dim));
  for (const auto& [key, packed] : out) {
    P3C_RETURN_NOT_OK(
        CheckRecord(job_name, key, k, packed.size(), dim * (dim + 1) / 2));
    linalg::Matrix& m = sums[static_cast<size_t>(key)];
    size_t next = 0;
    for (size_t i = 0; i < dim; ++i) {
      for (size_t j = 0; j <= i; ++j) m(i, j) = packed[next++];
    }
    m.MirrorLower();
  }
  return sums;
}

Result<std::vector<MvbBall>> RunMvbBallJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const core::GmmModel& model, const core::GmmEvaluator& evaluator) {
  MvbBallJobConfig config{&dataset, &model, &evaluator};
  const size_t num_reducers = ReducersForKeys(runner, model.num_components());
  auto run = runner.Run<int64_t, std::vector<double>, KeyedDoubles>(
      "mvb-ball", dataset.num_points(),
      [&config] { return std::make_unique<MvbBallMapper>(&config); },
      [] { return std::make_unique<MvbBallReducer>(); }, num_reducers);
  if (!run.ok()) return run.status();
  return UnpackMvbBalls(*run, model.num_components(), model.dim());
}

Result<std::vector<MvbBall>> UnpackMvbBalls(
    const std::vector<KeyedDoubles>& out, size_t k, size_t dim) {
  std::vector<MvbBall> balls(k);
  for (const auto& [key, payload] : out) {
    P3C_RETURN_NOT_OK(
        CheckRecord("mvb-ball", key, k, payload.size(), dim + 1));
    MvbBall& ball = balls[static_cast<size_t>(key)];
    ball.center.assign(payload.begin(), payload.end() - 1);
    ball.radius = payload.back();
  }
  return balls;
}

Result<std::vector<int32_t>> RunOdJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const core::GmmModel& model, const core::GmmEvaluator& evaluator,
    const std::vector<linalg::Vector>& centers,
    const std::vector<linalg::Cholesky>& factors, double critical) {
  OdJobConfig config{&dataset, &model,   &evaluator,
                     &centers, &factors, critical};
  auto run = runner.RunMapOnly<data::PointId, int32_t>(
      "outlier-detection", dataset.num_points(),
      [&config] { return std::make_unique<OdMapper>(&config); });
  if (!run.ok()) return run.status();
  std::vector<int32_t> assignment(dataset.num_points(), -1);
  for (const auto& [point, cluster] : *run) assignment[point] = cluster;
  return assignment;
}

Result<std::vector<std::vector<stats::Histogram>>> RunClusterHistogramJob(
    LocalRunner& runner, const data::RowInput& input,
    const std::vector<int32_t>& membership, size_t num_clusters,
    const std::vector<size_t>& bins_per_cluster) {
  ClusterHistogramJobConfig config{&input, &membership, &bins_per_cluster};
  const size_t num_reducers =
      ReducersForKeys(runner, num_clusters * input.num_dims());
  auto run = runner.Run<int64_t, std::vector<uint64_t>, KeyedCounts>(
      "cluster-histograms", input.num_points(),
      [&config] { return std::make_unique<ClusterHistogramMapper>(&config); },
      [] { return std::make_unique<CountSumReducer>(); }, num_reducers);
  if (!run.ok()) return run.status();
  return UnpackClusterHistograms(std::move(*run), input.num_dims(),
                                 bins_per_cluster);
}

Result<std::vector<std::vector<stats::Histogram>>> UnpackClusterHistograms(
    std::vector<KeyedCounts> out, size_t num_dims,
    const std::vector<size_t>& bins_per_cluster) {
  const size_t k = bins_per_cluster.size();
  std::vector<std::vector<stats::Histogram>> histograms(k);
  for (size_t c = 0; c < k; ++c) {
    histograms[c].assign(num_dims, stats::Histogram(bins_per_cluster[c]));
  }
  const size_t num_keys = k * num_dims;
  for (auto& [key, counts] : out) {
    // CheckRecord rejects an out-of-range key before the bin count it
    // picks is compared.
    const bool in_range = key >= 0 && static_cast<uint64_t>(key) < num_keys;
    const size_t c = in_range ? static_cast<size_t>(key) / num_dims : 0;
    P3C_RETURN_NOT_OK(CheckRecord("cluster-histograms", key, num_keys,
                                  counts.size(),
                                  in_range ? bins_per_cluster[c] : 0));
    histograms[c][static_cast<size_t>(key) % num_dims].counts() =
        std::move(counts);
  }
  return histograms;
}

Result<std::vector<std::vector<core::Interval>>> RunTighteningJob(
    LocalRunner& runner, const data::RowInput& input,
    const std::vector<int32_t>& membership,
    const std::vector<std::vector<size_t>>& attrs) {
  TighteningJobConfig config{&input, &membership, &attrs};
  const size_t num_reducers = ReducersForKeys(runner, attrs.size());
  auto run = runner.Run<int64_t, std::vector<double>, KeyedDoubles>(
      "interval-tightening", input.num_points(),
      [&config] { return std::make_unique<TighteningMapper>(&config); },
      [] { return std::make_unique<TighteningReducer>(); }, num_reducers);
  if (!run.ok()) return run.status();
  return UnpackTightening(*run, attrs);
}

Result<std::vector<std::vector<core::Interval>>> UnpackTightening(
    const std::vector<KeyedDoubles>& out,
    const std::vector<std::vector<size_t>>& attrs) {
  std::vector<std::vector<core::Interval>> intervals(attrs.size());
  for (const auto& [key, payload] : out) {
    const bool known_key =
        key >= 0 && static_cast<uint64_t>(key) < attrs.size();
    const size_t expected =
        known_key ? 2 * attrs[static_cast<size_t>(key)].size() : 0;
    P3C_RETURN_NOT_OK(CheckRecord("interval-tightening", key, attrs.size(),
                                  payload.size(), expected));
    const auto c = static_cast<size_t>(key);
    const size_t half = attrs[c].size();
    intervals[c].resize(half);
    for (size_t a = 0; a < half; ++a) {
      intervals[c][a] = core::Interval{attrs[c][a], payload[a],
                                       payload[half + a]};
    }
  }
  return intervals;
}

Result<SupportSetJobResult> RunSupportSetJob(
    LocalRunner& runner, const data::RowInput& input,
    const std::vector<core::Signature>& signatures,
    const core::IntervalIndex* index) {
  if (signatures.empty()) {
    return UnpackSupportSets({}, input.num_points(), 0);
  }
  return WithSignatureRows(
      signatures, index,
      [&](const core::IntervalTable& table,
          const core::IntervalRows& rows) -> Result<SupportSetJobResult> {
        const core::IntervalIndex* read = IndexOver(table, index);
        const core::Rssc rssc(table, rows, /*whole_table=*/read != nullptr);
        SupportSetJobConfig config{&input, &rssc, read};
        auto run = runner.RunMapOnly<data::PointId, std::vector<uint64_t>>(
            "support-sets", input.num_points(), [&config] {
              return std::make_unique<SupportSetMapper>(&config);
            });
        if (!run.ok()) return run.status();
        return UnpackSupportSets(*run, input.num_points(), signatures.size());
      });
}

Result<SupportSetJobResult> UnpackSupportSets(
    const std::vector<RangeWords>& out, size_t num_points,
    size_t num_signatures) {
  // Pass 1 validates every record and counts each support set, so that
  // pass 2 fills sets sized once instead of growing them row by row.
  std::vector<size_t> sizes(num_signatures, 0);
  // Rows below next_row belong to an earlier record.
  size_t next_row = 0;
  for (const auto& [key, words] : out) {
    const size_t first = key;
    if (first >= num_points) {
      return Status::Internal(StringPrintf(
          "support-sets: result key %zu outside [0, %zu)", first, num_points));
    }
    if (first < next_row) {
      return Status::Internal(StringPrintf(
          "support-sets: result key %zu overlaps the record before it, "
          "which ends past row %zu",
          first, next_row - 1));
    }
    if (words.size() != num_signatures) {
      return Status::Internal(StringPrintf(
          "support-sets: result for key %zu holds %zu words, expected %zu",
          first, words.size(), num_signatures));
    }
    uint64_t members = 0;
    for (size_t j = 0; j < num_signatures; ++j) {
      members |= words[j];
      sizes[j] += static_cast<size_t>(std::popcount(words[j]));
    }
    const size_t rows = std::min<size_t>(64, num_points - first);
    if (rows < 64 && (members >> rows) != 0) {
      return Status::Internal(StringPrintf(
          "support-sets: result for key %zu names a row at or past %zu",
          first, num_points));
    }
    next_row = first + 1 + (members == 0 ? 0 : 63 - std::countl_zero(members));
  }
  SupportSetJobResult result;
  result.support_sets.resize(num_signatures);
  for (size_t j = 0; j < num_signatures; ++j) {
    result.support_sets[j].reserve(sizes[j]);
  }
  result.unique_assignment.assign(num_points, -1);
  for (const auto& [key, words] : out) {
    const size_t first = key;
    for (size_t j = 0; j < num_signatures; ++j) {
      for (uint64_t word = words[j]; word != 0; word &= word - 1) {
        result.support_sets[j].push_back(
            static_cast<data::PointId>(first + std::countr_zero(word)));
      }
    }
    core::Rssc::UniqueMembers(words, std::min<size_t>(64, num_points - first),
                              &result.unique_assignment[first]);
  }
  return result;
}

}  // namespace p3c::mr
