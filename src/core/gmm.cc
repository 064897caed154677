#include "src/core/gmm.h"

#include <algorithm>
#include <cassert>
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
  linalg::Matrix outer;         // sum of r * x x^T, lower triangle

  explicit MomentAccumulator(size_t dim) : sum(dim, 0.0), outer(dim, dim) {}

  void Add(const linalg::Vector& x, double r) {
    w += r;
    w2 += r * r;
    kernels::Active().axpy(sum.data(), x.data(), r, sum.size());
    outer.AddLowerOuterProduct(x, r);
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
    // sum w (x - mu)(x - mu)^T = outer - w * mu mu^T, on the lower
    // triangle; mirrored once the last elementwise step is done.
    *cov = outer;
    for (size_t i = 0; i < dim; ++i) {
      for (size_t j = 0; j <= i; ++j) {
        (*cov)(i, j) -= w * (*mean)[i] * (*mean)[j];
      }
    }
    *cov = cov->Scale(w / denom);
    cov->MirrorLower();
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

/// Squared Mahalanobis distances of a column block's rows to (mu, L L^T):
/// one mahalanobis_rows call on the active backend.
void MahalanobisBlock(const linalg::Cholesky& chol, const linalg::Vector& mu,
                      const double* xs, size_t rows, double* out) {
  kernels::Active().mahalanobis_rows(chol.lower().data().data(), mu.data(),
                                     xs, chol.dim(), rows, out);
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

void GmmModel::ProjectRows(const data::Dataset& dataset, size_t begin,
                           size_t end, std::vector<double>& xs) const {
  const size_t rows = end - begin;
  xs.resize(arel.size() * rows);
  for (size_t r = 0; r < rows; ++r) {
    const auto row = dataset.Row(static_cast<data::PointId>(begin + r));
    for (size_t i = 0; i < arel.size(); ++i) xs[i * rows + r] = row[arel[i]];
  }
}

void GmmModel::ProjectRows(const data::Dataset& dataset,
                           std::span<const data::PointId> points,
                           std::vector<double>& xs) const {
  const size_t rows = points.size();
  xs.resize(arel.size() * rows);
  for (size_t r = 0; r < rows; ++r) {
    const auto row = dataset.Row(points[r]);
    for (size_t i = 0; i < arel.size(); ++i) xs[i * rows + r] = row[arel[i]];
  }
}

void BlockRow(const double* xs, size_t rows, size_t dim, size_t r,
              linalg::Vector& x) {
  x.resize(dim);
  for (size_t i = 0; i < dim; ++i) x[i] = xs[i * rows + r];
}

void GatherBlockRows(const double* xs, size_t rows, size_t dim,
                     const uint32_t* picks, size_t m,
                     std::vector<double>& out) {
  out.resize(dim * m);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < m; ++j) out[i * m + j] = xs[i * rows + picks[j]];
  }
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
  std::vector<linalg::Cholesky> factors;
  std::vector<linalg::Vector> means;
  std::vector<double> log_norms;
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
    factors.push_back(std::move(chol).value());
    means.push_back(comp.mean);
    log_norms.push_back(std::log(weight) - 0.5 * log_det -
                        0.5 * dim * kLog2Pi);
  }
  return GmmEvaluator(std::move(factors), std::move(means),
                      std::move(log_norms));
}

void GmmEvaluator::MahalanobisRows(size_t c, const double* xs, size_t rows,
                                   double* out) const {
  MahalanobisBlock(factors_[c], means_[c], xs, rows, out);
}

void GmmEvaluator::LogWeightedDensities(const double* xs, size_t rows,
                                        double* logw) const {
  assert(rows <= kMaxBlockRows);
  const size_t k = factors_.size();
  double d2[kMaxBlockRows]{};
  for (size_t c = 0; c < k; ++c) {
    MahalanobisRows(c, xs, rows, d2);
    for (size_t r = 0; r < rows; ++r) {
      logw[r * k + c] = log_norms_[c] - 0.5 * d2[r];
    }
  }
}

void GmmEvaluator::NearestComponents(const double* xs, size_t rows,
                                     uint32_t* out) const {
  assert(rows <= kMaxBlockRows);
  double best[kMaxBlockRows]{};
  double d2[kMaxBlockRows]{};
  std::fill(best, best + rows, std::numeric_limits<double>::infinity());
  std::fill(out, out + rows, 0u);
  for (size_t c = 0; c < factors_.size(); ++c) {
    MahalanobisRows(c, xs, rows, d2);
    for (size_t r = 0; r < rows; ++r) {
      if (d2[r] < best[r]) {
        best[r] = d2[r];
        out[r] = static_cast<uint32_t>(c);
      }
    }
  }
}

size_t GmmEvaluator::Responsibilities(double* logw,
                                      double* log_likelihood) const {
  // One exp per entry gives both the softmax and log p(x); the kernel
  // is scalar under every backend.
  return kernels::SoftmaxLogSumExp(logw, factors_.size(), log_likelihood);
}

size_t GmmEvaluator::ArgMax(const double* logw) const {
  double best = -std::numeric_limits<double>::infinity();
  size_t argmax = 0;
  for (size_t c = 0; c < factors_.size(); ++c) {
    if (logw[c] > best) {
      best = logw[c];
      argmax = c;
    }
  }
  return argmax;
}

double GmmEvaluator::LogWeightedDensity(size_t k,
                                        const linalg::Vector& x) const {
  double d2 = 0.0;
  MahalanobisRows(k, x.data(), 1, &d2);
  return log_norms_[k] - 0.5 * d2;
}

size_t GmmEvaluator::Responsibilities(const linalg::Vector& x,
                                      std::vector<double>& r,
                                      double* log_likelihood) const {
  r.resize(factors_.size());
  LogWeightedDensities(x.data(), 1, r.data());
  return Responsibilities(r.data(), log_likelihood);
}

size_t GmmEvaluator::HardAssign(const linalg::Vector& x) const {
  std::vector<double> logw(factors_.size());
  LogWeightedDensities(x.data(), 1, logw.data());
  return ArgMax(logw.data());
}

double GmmEvaluator::MahalanobisSquared(size_t k,
                                        const linalg::Vector& x) const {
  double d2 = 0.0;
  MahalanobisRows(k, x.data(), 1, &d2);
  return d2;
}

double GmmEvaluator::LogLikelihood(const linalg::Vector& x) const {
  std::vector<double> logw(factors_.size());
  LogWeightedDensities(x.data(), 1, logw.data());
  double log_likelihood = 0.0;
  kernels::SoftmaxLogSumExp(logw.data(), logw.size(), &log_likelihood);
  return log_likelihood;
}

void MahalanobisToAssigned(const std::vector<linalg::Cholesky>& factors,
                           const std::vector<linalg::Vector>& centers,
                           const double* xs, size_t rows,
                           const uint32_t* labels, double* out) {
  assert(rows <= GmmEvaluator::kMaxBlockRows);
  const size_t dim = centers.empty() ? 0 : centers.front().size();
  thread_local std::vector<double> gathered;
  uint32_t picks[GmmEvaluator::kMaxBlockRows]{};
  double d2[GmmEvaluator::kMaxBlockRows]{};
  for (size_t c = 0; c < factors.size(); ++c) {
    size_t m = 0;
    for (size_t r = 0; r < rows; ++r) {
      if (labels[r] == c) picks[m++] = static_cast<uint32_t>(r);
    }
    if (m == 0) continue;
    GatherBlockRows(xs, rows, dim, picks, m, gathered);
    MahalanobisBlock(factors[c], centers[c], gathered.data(), m, d2);
    for (size_t j = 0; j < m; ++j) out[picks[j]] = d2[j];
  }
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
    Rssc::Scratch scratch;
    std::vector<uint64_t> words(k);
    linalg::Vector x;
    auto& accs = locals[task];
    for (size_t group = begin; group < end; group += 64) {
      const size_t group_end = std::min(end, group + 64);
      index.Members(dataset.values().data() + group * dataset.num_dims(),
                    group_end - group, dataset.num_dims(), scratch, words);
      uint64_t members = 0;
      for (uint64_t word : words) members |= word;
      for (size_t r = 0; r < group_end - group; ++r) {
        const auto i = static_cast<data::PointId>(group + r);
        if (((members >> r) & 1) == 0) {
          local_orphans[task].push_back(i);
          continue;
        }
        model.Project(dataset.Row(i), x);
        for (size_t c = 0; c < k; ++c) {
          if ((words[c] >> r) & 1) accs[c].Add(x, 1.0);
        }
      }
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
    const std::vector<data::PointId>& orphans = local_orphans[task];
    std::vector<double> xs;
    linalg::Vector x;
    uint32_t nearest[GmmEvaluator::kMaxBlockRows]{};
    for (size_t b = 0; b < orphans.size(); b += GmmEvaluator::kMaxBlockRows) {
      const size_t rows =
          std::min(GmmEvaluator::kMaxBlockRows, orphans.size() - b);
      model.ProjectRows(dataset, std::span(orphans).subspan(b, rows), xs);
      evaluator->NearestComponents(xs.data(), rows, nearest);
      for (size_t r = 0; r < rows; ++r) {
        BlockRow(xs.data(), rows, dim, r, x);
        accs[nearest[r]].Add(x, 1.0);
      }
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
      std::vector<double> xs;
      std::vector<double> logw(GmmEvaluator::kMaxBlockRows * k);
      linalg::Vector x;
      auto& accs = locals[task];
      for (size_t b = begin; b < end; b += GmmEvaluator::kMaxBlockRows) {
        const size_t rows = std::min(GmmEvaluator::kMaxBlockRows, end - b);
        result.model.ProjectRows(dataset, b, b + rows, xs);
        evaluator->LogWeightedDensities(xs.data(), rows, logw.data());
        for (size_t row = 0; row < rows; ++row) {
          double* r = logw.data() + row * k;
          double ll = 0.0;
          evaluator->Responsibilities(r, &ll);
          local_ll[task] += ll;
          BlockRow(xs.data(), rows, dim, row, x);
          for (size_t c = 0; c < k; ++c) {
            if (r[c] > 1e-12) accs[c].Add(x, r[c]);
          }
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
