#ifndef P3C_STATS_HISTOGRAM_H_
#define P3C_STATS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace p3c::stats {

/// Which rule determines the number of equi-width bins per attribute.
enum class BinningRule {
  /// Sturges' rule: ceil(1 + log2 n). Used by the original P3C; shown in
  /// §4.1.1 to oversmooth for large n.
  kSturges,
  /// Freedman-Diaconis with the paper's uniform-attribute simplification
  /// IQR = 1/2: bin width = n^{-1/3}, i.e. ceil(n^{1/3}) bins.
  kFreedmanDiaconis,
};

/// Number of bins per the selected rule for a sample of size n (>= 1).
uint64_t NumBins(BinningRule rule, uint64_t n);

/// Sturges' rule: ceil(1 + log2 n).
uint64_t SturgesBins(uint64_t n);

/// Freedman-Diaconis (IQR = 1/2 simplification): ceil(n^{1/3}).
uint64_t FreedmanDiaconisBins(uint64_t n);

/// 0-based bin index for a value in the normalized [0,1] data space. The
/// paper's Eq. 8 is the 1-based max(1, ceil(m*x)); this returns that
/// minus one, clamped into [0, m-1] so x = 1.0 (and any rounding spill)
/// lands in the last bin.
size_t BinIndex(double x, size_t num_bins);

/// Equi-width histogram over the normalized [0,1] range of one attribute.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(size_t num_bins) : counts_(num_bins, 0) {}

  /// Counts `x` in its bin per BinIndex.
  void Add(double x);

  /// Adds another histogram's bin counts; sizes must match. This is the
  /// reducer-side combination of per-split partial histograms (§5.1).
  void Merge(const Histogram& other);

  [[nodiscard]] size_t num_bins() const { return counts_.size(); }
  [[nodiscard]] uint64_t count(size_t bin) const { return counts_[bin]; }
  [[nodiscard]] uint64_t total() const;
  [[nodiscard]] const std::vector<uint64_t>& counts() const { return counts_; }
  std::vector<uint64_t>& counts() { return counts_; }

  /// Lower edge of bin i (= i / m).
  [[nodiscard]] double BinLower(size_t bin) const;
  /// Upper edge of bin i (= (i+1) / m).
  [[nodiscard]] double BinUpper(size_t bin) const;

 private:
  std::vector<uint64_t> counts_;
};

/// Bins n contiguous row-major rows of histograms.size() values each,
/// value j of every row into histograms[j] — the batch entry point of
/// every data scan, one call of the active kernel backend's
/// histogram_bin_rows (§14). Every histogram must have the same number
/// of bins, at most INT32_MAX (as every NumBins count is). Bit-exact
/// with n * histograms.size() calls to Add(). Returns how many of the
/// values lie outside [0, 1] by Dataset::IsNormalized's test (NaN and
/// +-inf count, -0.0 and 1.0 do not), so the scan doubles as the
/// normalization check.
uint64_t AddRows(std::span<Histogram> histograms, const double* rows,
                 size_t n);

}  // namespace p3c::stats

#endif  // P3C_STATS_HISTOGRAM_H_
