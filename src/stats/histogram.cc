#include "src/stats/histogram.h"

#include <cassert>
#include <cmath>

#include "src/core/kernels/kernels.h"

namespace p3c::stats {

uint64_t SturgesBins(uint64_t n) {
  if (n <= 1) return 1;
  return static_cast<uint64_t>(
      std::ceil(1.0 + std::log2(static_cast<double>(n))));
}

uint64_t FreedmanDiaconisBins(uint64_t n) {
  if (n <= 1) return 1;
  // bin size = 2 * IQR * n^{-1/3} with IQR = 1/2 (paper's simplification)
  // => m = ceil(n^{1/3}).
  return static_cast<uint64_t>(
      std::ceil(std::cbrt(static_cast<double>(n)) - 1e-9));
}

uint64_t NumBins(BinningRule rule, uint64_t n) {
  switch (rule) {
    case BinningRule::kSturges:
      return SturgesBins(n);
    case BinningRule::kFreedmanDiaconis:
      return FreedmanDiaconisBins(n);
  }
  return SturgesBins(n);
}

size_t BinIndex(double x, size_t num_bins) {
  assert(num_bins > 0);
  // 1-based: max(1, ceil(m * x)); convert to 0-based and clamp. The
  // branches run before any double->integer cast so the formula is
  // defined for every input: NaN and !(x > 0) land in bin 0, x >= 1 and
  // +inf in the last bin (the old cast of an out-of-range/NaN double was
  // UB). This is the kernel layer's Ops::histogram_bin(_rows) contract —
  // the kernel-smoke suite pins them together.
  if (!(x > 0.0)) return 0;
  const double scaled = std::ceil(static_cast<double>(num_bins) * x);
  if (scaled >= static_cast<double>(num_bins)) return num_bins - 1;
  return static_cast<size_t>(scaled) - 1;
}

void Histogram::Add(double x) {
  assert(!counts_.empty());
  ++counts_[BinIndex(x, counts_.size())];
}

uint64_t AddRows(std::span<Histogram> histograms, const double* rows,
                 size_t n) {
  if (histograms.empty() || n == 0) return 0;
  const size_t bins = histograms.front().num_bins();
  // The kernel's int32 bin lanes; NumBins never exceeds this.
  assert(bins > 0 && bins <= static_cast<size_t>(INT32_MAX));
  thread_local std::vector<uint64_t*> counts;
  counts.resize(histograms.size());
  for (size_t j = 0; j < histograms.size(); ++j) {
    assert(histograms[j].num_bins() == bins);
    counts[j] = histograms[j].counts().data();
  }
  return core::kernels::Active().histogram_bin_rows(
      rows, n, histograms.size(), bins, counts.data());
}

void Histogram::Merge(const Histogram& other) {
  assert(counts_.size() == other.counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

uint64_t Histogram::total() const {
  uint64_t acc = 0;
  for (uint64_t c : counts_) acc += c;
  return acc;
}

double Histogram::BinLower(size_t bin) const {
  return static_cast<double>(bin) / static_cast<double>(counts_.size());
}

double Histogram::BinUpper(size_t bin) const {
  return static_cast<double>(bin + 1) / static_cast<double>(counts_.size());
}

}  // namespace p3c::stats
