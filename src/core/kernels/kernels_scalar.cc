#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/kernels/kernels.h"

// Scalar reference backend: the semantic ground truth every vectorized
// backend must match bit-for-bit (kernel-smoke). Written for clarity
// first, but the compiler's baseline autovectorization is left on — the
// speedups reported by bench_kernels are against *this*, not against a
// deliberately hobbled loop.

namespace p3c::core::kernels {
namespace {

void BitmapAndReduce(uint64_t* bits, const uint64_t* const* masks,
                     size_t num_masks, size_t num_words) {
  for (size_t m = 0; m < num_masks; ++m) {
    const uint64_t* mask = masks[m];
    for (size_t w = 0; w < num_words; ++w) bits[w] &= mask[w];
  }
}

void SupportAccumulate(const uint64_t* bits, size_t num_words,
                       uint64_t* counters) {
  // Sparse per-set-bit walk: fast when few signatures match a point.
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t word = bits[w];
    uint64_t* base = counters + w * 64;
    while (word != 0) {
      base[static_cast<size_t>(std::countr_zero(word))] += 1;
      word &= word - 1;
    }
  }
}

uint64_t AndPopcount(const uint64_t* const* masks, size_t num_masks,
                     size_t num_words) {
  uint64_t total = 0;
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t word = masks[0][w];
    for (size_t m = 1; m < num_masks; ++m) word &= masks[m][w];
    total += static_cast<uint64_t>(std::popcount(word));
  }
  return total;
}

// Eq. 8 binning, defined for every double (see Ops::histogram_bin).
// stats::BinIndex implements the same formula; the kernel-smoke suite
// pins the two together.
size_t BinIndex(double x, size_t num_bins) {
  if (!(x > 0.0)) return 0;
  const double scaled = std::ceil(static_cast<double>(num_bins) * x);
  if (scaled >= static_cast<double>(num_bins)) return num_bins - 1;
  return static_cast<size_t>(scaled) - 1;
}

void HistogramBin(const double* xs, size_t n, size_t stride, size_t num_bins,
                  uint64_t* counts) {
  for (size_t i = 0; i < n; ++i) ++counts[BinIndex(xs[i * stride], num_bins)];
}

uint64_t HistogramBinRows(const double* rows, size_t n, size_t d,
                          size_t num_bins, uint64_t* const* counts) {
  uint64_t out_of_range = 0;
  for (size_t r = 0; r < n; ++r) {
    const double* row = rows + r * d;
    for (size_t j = 0; j < d; ++j) {
      const double x = row[j];
      ++counts[j][BinIndex(x, num_bins)];
      if (!(x >= 0.0 && x <= 1.0)) ++out_of_range;
    }
  }
  return out_of_range;
}

size_t SoftmaxNormalize(double* logw, size_t k) {
  return SoftmaxLogSumExp(logw, k, nullptr);
}

void Axpy(double* acc, const double* x, double a, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += a * x[i];
}

void OuterAccumulate(double* out, const double* x, double w, size_t d) {
  for (size_t i = 0; i < d; ++i) {
    const double wi = w * x[i];
    if (wi == 0.0) continue;
    double* row = out + i * d;
    for (size_t j = 0; j <= i; ++j) row[j] += wi * x[j];
  }
}

void MahalanobisRows(const double* l, const double* mu, const double* xs,
                     size_t d, size_t rows, double* out) {
  // One row at a time: the forward substitution of
  // linalg::Cholesky::MahalanobisSquared, reading the row from its column.
  thread_local std::vector<double> y;
  y.resize(d);
  for (size_t r = 0; r < rows; ++r) {
    double acc_sq = 0.0;
    for (size_t i = 0; i < d; ++i) {
      const double* li = l + i * d;
      double acc = xs[i * rows + r] - mu[i];
      for (size_t k = 0; k < i; ++k) acc -= li[k] * y[k];
      y[i] = acc / li[i];
      acc_sq += y[i] * y[i];
    }
    out[r] = acc_sq;
  }
}

constexpr Ops kScalarOps = {
    "scalar",          BitmapAndReduce,  SupportAccumulate,
    AndPopcount,       HistogramBin,     HistogramBinRows,
    SoftmaxNormalize,  Axpy,             OuterAccumulate,
    MahalanobisRows,
};

}  // namespace

const Ops& ScalarOps() { return kScalarOps; }

size_t SoftmaxLogSumExp(double* logw, size_t k, double* log_sum_exp) {
  double max_log = -std::numeric_limits<double>::infinity();
  size_t argmax = 0;
  for (size_t i = 0; i < k; ++i) {
    if (logw[i] > max_log) {
      max_log = logw[i];
      argmax = i;
    }
  }
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    logw[i] = std::exp(logw[i] - max_log);
    sum += logw[i];
  }
  if (log_sum_exp != nullptr) *log_sum_exp = max_log + std::log(sum);
  for (size_t i = 0; i < k; ++i) logw[i] /= sum;
  return argmax;
}

}  // namespace p3c::core::kernels
