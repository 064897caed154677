#include "src/core/gmm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/kernels/kernels.h"
#include "src/core/rssc.h"

namespace p3c::core {

namespace {

constexpr double kLog2Pi = 1.8378770664093454836;

/// Per-component accumulators for weighted first/second moments: the
/// lC, wC and wC2 statistics of §5.4 plus the outer-product sum.
struct MomentAccumulator {
  double w = 0.0;    // wC   = sum of weights
  double w2 = 0.0;   // wC2  = sum of squared weights
  linalg::Vector sum;           // lC: sum of r * x
  linalg::Matrix outer;         // sum of r * x x^T

  explicit MomentAccumulator(size_t dim) : sum(dim, 0.0), outer(dim, dim) {}

  void Add(const linalg::Vector& x, double r) {
    w += r;
    w2 += r * r;
    kernels::Active().axpy(sum.data(), x.data(), r, sum.size());
    outer.AddOuterProduct(x, r);
  }

  void Merge(const MomentAccumulator& other) {
    w += other.w;
    w2 += other.w2;
    for (size_t i = 0; i < sum.size(); ++i) sum[i] += other.sum[i];
    outer = outer.Add(other.outer);
  }

  /// Mean and the paper's unbiased weighted covariance
  ///   Sigma_C = wC / (wC^2 - wC2) * sum_i w_i (x - mu)(x - mu)^T
  /// (§5.4); degenerates to the sample covariance for unit weights. When
  /// w (or the unbiasing denominator) vanishes the component keeps
  /// `fallback_mean`/`fallback_cov`.
  void Finalize(const linalg::Vector& fallback_mean,
                const linalg::Matrix& fallback_cov, linalg::Vector* mean,
                linalg::Matrix* cov) const {
    const size_t dim = sum.size();
    const double denom = w * w - w2;
    if (w < 1e-9 || denom <= 1e-12) {
      *mean = fallback_mean;
      *cov = fallback_cov;
      return;
    }
    mean->assign(dim, 0.0);
    for (size_t i = 0; i < dim; ++i) (*mean)[i] = sum[i] / w;
    // sum w (x - mu)(x - mu)^T = outer - w * mu mu^T.
    *cov = outer;
    for (size_t i = 0; i < dim; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        (*cov)(i, j) -= w * (*mean)[i] * (*mean)[j];
      }
    }
    *cov = cov->Scale(w / denom);
  }
};

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

/// log sum_i exp(logw[i]) over k log-weighted densities: std::max for
/// the max, an in-order exp sum, then max + log(sum). The one definition
/// behind both LogLikelihood and Responsibilities' log-likelihood, so the
/// two cannot drift apart.
double LogSumExp(const double* logw, size_t k) {
  double max_log = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < k; ++i) max_log = std::max(max_log, logw[i]);
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) sum += std::exp(logw[i] - max_log);
  return max_log + std::log(sum);
}

linalg::Matrix SmallIdentity(size_t dim) {
  linalg::Matrix m = linalg::Matrix::Identity(dim);
  return m.Scale(1e-2);
}

}  // namespace

linalg::Vector GmmModel::Project(std::span<const double> row) const {
  linalg::Vector out;
  Project(row, out);
  return out;
}

void GmmModel::Project(std::span<const double> row,
                       linalg::Vector& out) const {
  out.resize(arel.size());
  for (size_t i = 0; i < arel.size(); ++i) out[i] = row[arel[i]];
}

std::vector<size_t> RelevantAttributeUnion(
    const std::vector<ClusterCore>& cores) {
  std::vector<size_t> out;
  for (const ClusterCore& core : cores) {
    const std::vector<size_t> attrs = core.signature.attrs();
    out.insert(out.end(), attrs.begin(), attrs.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<GmmEvaluator> GmmEvaluator::Make(const GmmModel& model, double ridge) {
  std::vector<Factor> factors;
  factors.reserve(model.components.size());
  const double dim = static_cast<double>(model.dim());
  for (const GaussianComponent& comp : model.components) {
    linalg::Matrix cov = comp.cov;
    Result<linalg::Cholesky> chol = linalg::Cholesky::Factorize(cov);
    double eps = ridge;
    while (!chol.ok() && eps < 1.0) {
      cov.AddToDiagonal(eps);
      chol = linalg::Cholesky::Factorize(cov);
      eps *= 10.0;
    }
    if (!chol.ok()) {
      return Status::Internal("component covariance not factorizable even "
                              "after ridge regularization");
    }
    const double weight = comp.weight > 0.0 ? comp.weight : 1e-300;
    const double log_det = chol.value().LogDet();
    factors.push_back(Factor{
        std::move(chol).value(), comp.mean,
        std::log(weight) - 0.5 * log_det - 0.5 * dim * kLog2Pi});
  }
  return GmmEvaluator(std::move(factors));
}

double GmmEvaluator::LogWeightedDensity(size_t k,
                                        const linalg::Vector& x) const {
  const Factor& f = factors_[k];
  return f.log_norm - 0.5 * f.chol.MahalanobisSquared(x, f.mean);
}

size_t GmmEvaluator::Responsibilities(const linalg::Vector& x,
                                      std::vector<double>& r,
                                      double* log_likelihood) const {
  const size_t k = factors_.size();
  r.resize(k);
  for (size_t i = 0; i < k; ++i) r[i] = LogWeightedDensity(i, x);
  if (log_likelihood != nullptr) *log_likelihood = LogSumExp(r.data(), k);
  // In-place log-sum-exp softmax; every backend is bit-exact with the
  // scalar reference (kernel-smoke), so results don't depend on which
  // backend dispatch picked.
  return kernels::Active().softmax_normalize(r.data(), k);
}

size_t GmmEvaluator::HardAssign(const linalg::Vector& x) const {
  double best = -std::numeric_limits<double>::infinity();
  size_t argmax = 0;
  for (size_t i = 0; i < factors_.size(); ++i) {
    const double l = LogWeightedDensity(i, x);
    if (l > best) {
      best = l;
      argmax = i;
    }
  }
  return argmax;
}

double GmmEvaluator::MahalanobisSquared(size_t k,
                                        const linalg::Vector& x) const {
  return factors_[k].chol.MahalanobisSquared(x, factors_[k].mean);
}

double GmmEvaluator::LogLikelihood(const linalg::Vector& x) const {
  thread_local std::vector<double> logw;
  logw.resize(factors_.size());
  for (size_t i = 0; i < logw.size(); ++i) logw[i] = LogWeightedDensity(i, x);
  return LogSumExp(logw.data(), logw.size());
}

Result<GmmModel> InitializeFromCores(const data::Dataset& dataset,
                                     const std::vector<ClusterCore>& cores,
                                     const P3CParams& params,
                                     ThreadPool* pool) {
  if (cores.empty()) {
    return Status::InvalidArgument("cannot initialize a mixture from zero "
                                   "cluster cores");
  }
  GmmModel model;
  model.arel = RelevantAttributeUnion(cores);
  const size_t dim = model.arel.size();
  const size_t k = cores.size();
  const size_t n = dataset.num_points();

  std::vector<Signature> signatures;
  signatures.reserve(k);
  for (const ClusterCore& core : cores) signatures.push_back(core.signature);
  const Rssc index(signatures);

  // ---- Round 1: moments from the support sets only ----------------------
  const size_t num_tasks = NumTasks(n, pool);
  std::vector<std::vector<MomentAccumulator>> locals(
      num_tasks, std::vector<MomentAccumulator>(k, MomentAccumulator(dim)));
  std::vector<std::vector<data::PointId>> local_orphans(num_tasks);
  ForEachRange(n, pool, [&](size_t task, size_t begin, size_t end) {
    std::vector<uint64_t> bits;
    std::vector<uint32_t> ids;
    linalg::Vector x;
    auto& accs = locals[task];
    for (size_t i = begin; i < end; ++i) {
      const auto row = dataset.Row(static_cast<data::PointId>(i));
      index.Match(row, bits);
      ids.clear();
      Rssc::BitsToIds(bits, k, ids);
      if (ids.empty()) {
        local_orphans[task].push_back(static_cast<data::PointId>(i));
        continue;
      }
      model.Project(row, x);
      for (uint32_t id : ids) accs[id].Add(x, 1.0);
    }
  });
  std::vector<MomentAccumulator> stats(k, MomentAccumulator(dim));
  for (const auto& local : locals) {
    for (size_t c = 0; c < k; ++c) stats[c].Merge(local[c]);
  }

  const linalg::Matrix fallback_cov = SmallIdentity(dim);
  model.components.resize(k);
  for (size_t c = 0; c < k; ++c) {
    linalg::Vector fallback_mean(dim, 0.5);
    stats[c].Finalize(fallback_mean, fallback_cov, &model.components[c].mean,
                      &model.components[c].cov);
    model.components[c].weight = 1.0 / static_cast<double>(k);
  }

  // ---- Round 2: attach outlier points to the Mahalanobis-nearest core ---
  Result<GmmEvaluator> evaluator = GmmEvaluator::Make(model,
                                                      params.covariance_ridge);
  if (!evaluator.ok()) return evaluator.status();
  std::vector<std::vector<MomentAccumulator>> orphan_locals(
      num_tasks, std::vector<MomentAccumulator>(k, MomentAccumulator(dim)));
  auto assign_orphans = [&](size_t task) {
    auto& accs = orphan_locals[task];
    linalg::Vector x;
    for (data::PointId p : local_orphans[task]) {
      model.Project(dataset.Row(p), x);
      size_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        const double dist = evaluator->MahalanobisSquared(c, x);
        if (dist < best_dist) {
          best_dist = dist;
          best = c;
        }
      }
      accs[best].Add(x, 1.0);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_tasks, assign_orphans);
  } else {
    for (size_t task = 0; task < num_tasks; ++task) assign_orphans(task);
  }
  for (const auto& local : orphan_locals) {
    for (size_t c = 0; c < k; ++c) stats[c].Merge(local[c]);
  }

  double total_w = 0.0;
  for (size_t c = 0; c < k; ++c) total_w += stats[c].w;
  for (size_t c = 0; c < k; ++c) {
    linalg::Vector fallback_mean = model.components[c].mean;
    linalg::Matrix fallback = model.components[c].cov;
    stats[c].Finalize(fallback_mean, fallback, &model.components[c].mean,
                      &model.components[c].cov);
    model.components[c].weight =
        total_w > 0.0 ? stats[c].w / total_w : 1.0 / static_cast<double>(k);
  }
  return model;
}

Result<EmResult> RunEm(const data::Dataset& dataset, GmmModel initial,
                       const P3CParams& params, ThreadPool* pool) {
  EmResult result;
  result.model = std::move(initial);
  const size_t n = dataset.num_points();
  const size_t k = result.model.num_components();
  const size_t dim = result.model.dim();
  if (n == 0 || k == 0) {
    return Status::InvalidArgument("EM requires data and components");
  }

  double prev_ll = -std::numeric_limits<double>::infinity();
  for (size_t iter = 0; iter < params.max_em_iterations; ++iter) {
    Result<GmmEvaluator> evaluator =
        GmmEvaluator::Make(result.model, params.covariance_ridge);
    if (!evaluator.ok()) return evaluator.status();

    const size_t num_tasks = NumTasks(n, pool);
    std::vector<std::vector<MomentAccumulator>> locals(
        num_tasks, std::vector<MomentAccumulator>(k, MomentAccumulator(dim)));
    std::vector<double> local_ll(num_tasks, 0.0);
    ForEachRange(n, pool, [&](size_t task, size_t begin, size_t end) {
      std::vector<double> r;
      linalg::Vector x;
      auto& accs = locals[task];
      for (size_t i = begin; i < end; ++i) {
        result.model.Project(dataset.Row(static_cast<data::PointId>(i)), x);
        double ll = 0.0;
        evaluator->Responsibilities(x, r, &ll);
        local_ll[task] += ll;
        for (size_t c = 0; c < k; ++c) {
          if (r[c] > 1e-12) accs[c].Add(x, r[c]);
        }
      }
    });
    std::vector<MomentAccumulator> stats(k, MomentAccumulator(dim));
    double ll = 0.0;
    for (size_t t = 0; t < num_tasks; ++t) {
      ll += local_ll[t];
      for (size_t c = 0; c < k; ++c) stats[c].Merge(locals[t][c]);
    }

    // M step.
    double total_w = 0.0;
    for (size_t c = 0; c < k; ++c) total_w += stats[c].w;
    for (size_t c = 0; c < k; ++c) {
      GaussianComponent& comp = result.model.components[c];
      linalg::Vector fallback_mean = comp.mean;
      linalg::Matrix fallback_cov = comp.cov;
      stats[c].Finalize(fallback_mean, fallback_cov, &comp.mean, &comp.cov);
      comp.weight = total_w > 0.0 ? stats[c].w / total_w
                                  : 1.0 / static_cast<double>(k);
    }

    result.iterations = iter + 1;
    result.log_likelihood = ll;
    const double denom = std::fabs(prev_ll) + 1e-12;
    if (iter > 0 && std::fabs(ll - prev_ll) / denom < params.em_tolerance) {
      break;
    }
    prev_ll = ll;
  }
  return result;
}

}  // namespace p3c::core
