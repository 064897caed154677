#include "src/mr/jobs.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

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

// ---------------------------------------------------------------------------
// Histogram job (§5.1)
// ---------------------------------------------------------------------------

struct HistogramJobConfig {
  const data::Dataset* dataset;
  size_t bins;
};

class HistogramMapper : public Mapper<int64_t, std::vector<uint64_t>> {
 public:
  explicit HistogramMapper(const HistogramJobConfig* config)
      : config_(config),
        local_(config->dataset->num_dims(),
               stats::Histogram(config->bins)) {
    mem_.Set(static_cast<int64_t>(local_.size() * config->bins *
                                  sizeof(uint64_t)));
  }

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<uint64_t>>& out) override {
    (void)out;
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const auto row = config_->dataset->Row(static_cast<data::PointId>(i));
      for (size_t j = 0; j < local_.size(); ++j) local_[j].Add(row[j]);
    }
    points_ += rows.size();
  }

  void Cleanup(Emitter<int64_t, std::vector<uint64_t>>& out) override {
    for (size_t j = 0; j < local_.size(); ++j) {
      out.Emit(static_cast<int64_t>(j), local_[j].counts());
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
  std::vector<stats::Histogram> local_;
  uint64_t points_ = 0;
  resource::ScopedBytes mem_{resource::MemScope::kHistogramBins};
};

// ---------------------------------------------------------------------------
// Support job (§5.3)
// ---------------------------------------------------------------------------

struct SupportJobConfig {
  const data::Dataset* dataset;
  const core::Rssc* rssc;  // "distributed cache" payload
};

class SupportMapper : public Mapper<int64_t, std::vector<uint64_t>> {
 public:
  explicit SupportMapper(const SupportJobConfig* config)
      : config_(config),
        // One counter per live signature; Rssc::Accumulate never touches
        // the padding lanes of its last bitmap word.
        supports_(config->rssc->num_signatures(), 0) {}

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<uint64_t>>& out) override {
    (void)out;
    for (size_t i = rows.begin; i < rows.end; ++i) {
      config_->rssc->Accumulate(
          config_->dataset->Row(static_cast<data::PointId>(i)), scratch_,
          supports_);
    }
    points_ += rows.size();
  }

  void Cleanup(Emitter<int64_t, std::vector<uint64_t>>& out) override {
    // In-mapper combining: one record per split instead of one per point.
    out.counters().Increment("support/points", points_);
    out.counters().SetGauge("support/candidates",
                            static_cast<double>(supports_.size()));
    out.Emit(0, std::move(supports_));
  }

 private:
  const SupportJobConfig* config_;
  std::vector<uint64_t> scratch_;
  std::vector<uint64_t> supports_;
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
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const auto point = static_cast<data::PointId>(i);
      config_->model->Project(config_->dataset->Row(point), x_);
      contributions_.clear();
      log_likelihood_ +=
          config_->membership->Contributions(point, x_, contributions_);
      for (const auto& [c, weight] : contributions_) {
        w_[c] += weight;
        w2_[c] += weight * weight;
        for (size_t j = 0; j < dim_; ++j) lsum_[c][j] += weight * x_[j];
      }
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
  linalg::Vector x_;  // the current row in Arel coordinates
  std::vector<std::pair<uint32_t, double>> contributions_;
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
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const auto point = static_cast<data::PointId>(i);
      config_->model->Project(config_->dataset->Row(point), x_);
      contributions_.clear();
      config_->membership->Contributions(point, x_, contributions_);
      for (const auto& [c, weight] : contributions_) {
        const linalg::Vector& mean = (*config_->means)[c];
        for (size_t j = 0; j < dim_; ++j) centered_[j] = x_[j] - mean[j];
        acc_[c].AddOuterProduct(centered_, weight);
      }
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<double>>& out) override {
    for (size_t c = 0; c < k_; ++c) {
      out.Emit(static_cast<int64_t>(c), acc_[c].data());
    }
  }

 private:
  const CovarianceJobConfig* config_;
  size_t k_;
  size_t dim_;
  std::vector<linalg::Matrix> acc_;
  linalg::Vector x_;         // the current row in Arel coordinates
  linalg::Vector centered_;  // x_ minus the contribution's mean
  std::vector<std::pair<uint32_t, double>> contributions_;
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
        members_(config->model->num_components()) {}

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<double>>& out) override {
    // "mapper j caches the set of all data points Xsplit of the current
    // split" -- here the projected coordinates, grouped by cluster; the
    // per-split statistics are computed in Cleanup.
    (void)out;
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const linalg::Vector x = config_->model->Project(
          config_->dataset->Row(static_cast<data::PointId>(i)));
      const size_t c = config_->evaluator->HardAssign(x);
      members_[c].push_back(x);
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<double>>& out) override {
    for (size_t c = 0; c < members_.size(); ++c) {
      if (members_[c].empty()) continue;
      const core::MvbStatistics stats =
          core::ComputeMvbStatistics(members_[c]);
      std::vector<double> payload = stats.center;
      payload.push_back(stats.radius);
      out.Emit(static_cast<int64_t>(c), std::move(payload));
    }
  }

 private:
  const MvbBallJobConfig* config_;
  std::vector<std::vector<linalg::Vector>> members_;
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
  explicit OdMapper(const OdJobConfig* config) : config_(config) {}

  void Map(RecordRange rows, Emitter<data::PointId, int32_t>& out) override {
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const auto point = static_cast<data::PointId>(i);
      config_->model->Project(config_->dataset->Row(point), x_);
      const size_t c = config_->evaluator->HardAssign(x_);
      const double d2 = (*config_->factors)[c].MahalanobisSquared(
          x_, (*config_->centers)[c]);
      const bool outlier = d2 > config_->critical;
      if (outlier) {
        ++outliers_;
      } else {
        ++members_;
        // Integer observations: the histogram's double sum stays exact,
        // so the exported bucket counts AND sum are thread-count
        // invariant.
        out.counters().Observe("od/cluster", static_cast<double>(c));
      }
      out.Emit(point, outlier ? -1 : static_cast<int32_t>(c));
    }
  }

  void Cleanup(Emitter<data::PointId, int32_t>& out) override {
    out.counters().Increment("od/outliers", outliers_);
    out.counters().Increment("od/members", members_);
  }

 private:
  const OdJobConfig* config_;
  linalg::Vector x_;  // the current row in Arel coordinates
  uint64_t outliers_ = 0;
  uint64_t members_ = 0;
};

// ---------------------------------------------------------------------------
// Per-cluster histogram job (§5.6)
// ---------------------------------------------------------------------------

struct ClusterHistogramJobConfig {
  const data::Dataset* dataset;
  const std::vector<int32_t>* membership;
  const std::vector<size_t>* bins_per_cluster;
};

class ClusterHistogramMapper
    : public Mapper<int64_t, std::vector<uint64_t>> {
 public:
  explicit ClusterHistogramMapper(const ClusterHistogramJobConfig* config)
      : config_(config),
        local_(config->bins_per_cluster->size()) {}

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<uint64_t>>& out) override {
    (void)out;
    const size_t d = config_->dataset->num_dims();
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
      const auto row = config_->dataset->Row(static_cast<data::PointId>(i));
      for (size_t j = 0; j < d; ++j) cluster_local[j].Add(row[j]);
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<uint64_t>>& out) override {
    const int64_t d = static_cast<int64_t>(config_->dataset->num_dims());
    for (size_t c = 0; c < local_.size(); ++c) {
      for (size_t j = 0; j < local_[c].size(); ++j) {
        out.Emit(static_cast<int64_t>(c) * d + static_cast<int64_t>(j),
                 local_[c][j].counts());
      }
    }
  }

 private:
  const ClusterHistogramJobConfig* config_;
  std::vector<std::vector<stats::Histogram>> local_;
  int64_t mem_bytes_ = 0;
  resource::ScopedBytes mem_{resource::MemScope::kHistogramBins};
};

// ---------------------------------------------------------------------------
// Tightening job (§5.7)
// ---------------------------------------------------------------------------

struct TighteningJobConfig {
  const data::Dataset* dataset;
  const std::vector<int32_t>* membership;
  const std::vector<std::vector<size_t>>* attrs;
};

class TighteningMapper : public Mapper<int64_t, std::vector<double>> {
 public:
  explicit TighteningMapper(const TighteningJobConfig* config)
      : config_(config),
        lo_(config->attrs->size()),
        hi_(config->attrs->size()) {}

  void Map(RecordRange rows,
           Emitter<int64_t, std::vector<double>>& out) override {
    (void)out;
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
      const auto row = config_->dataset->Row(static_cast<data::PointId>(i));
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
  const data::Dataset* dataset;
  const core::Rssc* rssc;
  size_t num_signatures;
};

class SupportSetMapper
    : public Mapper<data::PointId, std::vector<uint32_t>> {
 public:
  explicit SupportSetMapper(const SupportSetJobConfig* config)
      : config_(config) {}

  void Map(RecordRange rows,
           Emitter<data::PointId, std::vector<uint32_t>>& out) override {
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const auto point = static_cast<data::PointId>(i);
      config_->rssc->Match(config_->dataset->Row(point), bits_);
      ids_.clear();
      core::Rssc::BitsToIds(bits_, config_->num_signatures, ids_);
      if (!ids_.empty()) out.Emit(point, ids_);
    }
  }

 private:
  const SupportSetJobConfig* config_;
  std::vector<uint64_t> bits_;
  std::vector<uint32_t> ids_;
};

}  // namespace

Result<std::vector<stats::Histogram>> RunHistogramJob(
    LocalRunner& runner, const data::Dataset& dataset,
    stats::BinningRule rule) {
  const size_t bins = static_cast<size_t>(
      stats::NumBins(rule, std::max<uint64_t>(1, dataset.num_points())));
  HistogramJobConfig config{&dataset, bins};
  const size_t num_reducers = ReducersForKeys(runner, dataset.num_dims());
  auto run = runner.Run<int64_t, std::vector<uint64_t>, KeyedCounts>(
      "histogram", dataset.num_points(),
      [&config] { return std::make_unique<HistogramMapper>(&config); },
      [] { return std::make_unique<CountSumReducer>(); }, num_reducers);
  if (!run.ok()) return run.status();
  return UnpackHistograms(std::move(*run), dataset.num_dims(), bins);
}

Result<std::vector<stats::Histogram>> UnpackHistograms(
    std::vector<KeyedCounts> out, size_t num_dims, size_t bins) {
  std::vector<stats::Histogram> histograms(num_dims, stats::Histogram(bins));
  for (auto& [attr, counts] : out) {
    P3C_RETURN_NOT_OK(
        CheckRecord("histogram", attr, num_dims, counts.size(), bins));
    histograms[static_cast<size_t>(attr)].counts() = std::move(counts);
  }
  return histograms;
}

Result<std::vector<uint64_t>> RunSupportJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<core::Signature>& signatures) {
  if (signatures.empty()) return std::vector<uint64_t>{};
  const core::Rssc rssc(signatures);  // "calculated by the main program"
  SupportJobConfig config{&dataset, &rssc};
  auto run = runner.Run<int64_t, std::vector<uint64_t>, KeyedCounts>(
      "support-count", dataset.num_points(),
      [&config] { return std::make_unique<SupportMapper>(&config); },
      [] { return std::make_unique<CountSumReducer>(); },
      /*num_reducers=*/1);  // the job emits a single key
  if (!run.ok()) return run.status();
  return UnpackSupports(std::move(*run), signatures.size());
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
  for (const auto& [key, flat] : out) {
    P3C_RETURN_NOT_OK(CheckRecord(job_name, key, k, flat.size(), dim * dim));
    linalg::Matrix& m = sums[static_cast<size_t>(key)];
    for (size_t i = 0; i < dim; ++i) {
      for (size_t j = 0; j < dim; ++j) m(i, j) = flat[i * dim + j];
    }
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
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<int32_t>& membership, size_t num_clusters,
    const std::vector<size_t>& bins_per_cluster) {
  ClusterHistogramJobConfig config{&dataset, &membership, &bins_per_cluster};
  const size_t num_reducers =
      ReducersForKeys(runner, num_clusters * dataset.num_dims());
  auto run = runner.Run<int64_t, std::vector<uint64_t>, KeyedCounts>(
      "cluster-histograms", dataset.num_points(),
      [&config] { return std::make_unique<ClusterHistogramMapper>(&config); },
      [] { return std::make_unique<CountSumReducer>(); }, num_reducers);
  if (!run.ok()) return run.status();
  return UnpackClusterHistograms(std::move(*run), dataset.num_dims(),
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
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<int32_t>& membership,
    const std::vector<std::vector<size_t>>& attrs) {
  TighteningJobConfig config{&dataset, &membership, &attrs};
  const size_t num_reducers = ReducersForKeys(runner, attrs.size());
  auto run = runner.Run<int64_t, std::vector<double>, KeyedDoubles>(
      "interval-tightening", dataset.num_points(),
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
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<core::Signature>& signatures) {
  SupportSetJobResult result;
  result.support_sets.resize(signatures.size());
  result.unique_assignment.assign(dataset.num_points(), -1);
  if (signatures.empty()) return result;
  const core::Rssc rssc(signatures);
  SupportSetJobConfig config{&dataset, &rssc, signatures.size()};
  auto run = runner.RunMapOnly<data::PointId, std::vector<uint32_t>>(
      "support-sets", dataset.num_points(),
      [&config] { return std::make_unique<SupportSetMapper>(&config); });
  if (!run.ok()) return run.status();
  for (auto& [point, ids] : *run) {
    for (uint32_t id : ids) result.support_sets[id].push_back(point);
    result.unique_assignment[point] =
        ids.size() == 1 ? static_cast<int32_t>(ids[0]) : -2;
  }
  return result;
}

}  // namespace p3c::mr
