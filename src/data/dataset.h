#ifndef P3C_DATA_DATASET_H_
#define P3C_DATA_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/resource.h"
#include "src/common/status.h"

namespace p3c::data {

/// Index of a point (row) in a Dataset. 32 bits bound the in-memory scale
/// this engine targets (~4e9 rows) while halving index storage in the
/// support sets.
using PointId = uint32_t;

/// Sizes an empty `values` to `count` zeros, on transparent huge pages
/// where the kernel offers them: on Linux, a buffer of at least 2 MiB
/// gets madvise(MADV_HUGEPAGE) on its 2 MiB-aligned interior before the
/// zero fill first touches it. A forked worker then copies a few hundred
/// page-table entries for the dataset instead of one per 4 KiB page.
/// Errors are ignored; elsewhere this is a plain resize. The capacity is
/// exactly `count`, as with the vector's sizing constructor.
void ResizeOnHugePages(std::vector<double>& values, size_t count);

/// Dense row-major collection of d-dimensional points.
///
/// The whole library operates on the normalized [0, 1] data space the
/// paper assumes (§3.1); `NormalizeMinMax` maps raw data into it.
class Dataset {
 public:
  Dataset() : num_dims_(0) {}

  /// Creates an n x d dataset initialized to zero.
  Dataset(size_t num_points, size_t num_dims) : num_dims_(num_dims) {
    ResizeOnHugePages(values_, num_points * num_dims);
    RechargeMem();
  }

  /// Wraps existing row-major values; `values.size()` must be a multiple
  /// of `num_dims`.
  static Result<Dataset> FromRowMajor(std::vector<double> values,
                                      size_t num_dims);

  [[nodiscard]] size_t num_points() const {
    return num_dims_ == 0 ? 0 : values_.size() / num_dims_;
  }
  [[nodiscard]] size_t num_dims() const { return num_dims_; }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  [[nodiscard]] double Get(PointId point, size_t dim) const {
    return values_[static_cast<size_t>(point) * num_dims_ + dim];
  }
  void Set(PointId point, size_t dim, double value) {
    values_[static_cast<size_t>(point) * num_dims_ + dim] = value;
  }

  /// Read-only view of one row.
  [[nodiscard]] std::span<const double> Row(PointId point) const {
    return {values_.data() + static_cast<size_t>(point) * num_dims_,
            num_dims_};
  }

  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  /// Appends one point; `row.size()` must equal num_dims() (or set the
  /// dimensionality on the first append to an empty dataset).
  Status AppendRow(std::span<const double> row);

  /// Rescales every attribute independently onto [0, 1] via min-max. An
  /// attribute with zero spread maps to the constant 0.5. Returns the
  /// per-attribute (min, max) pairs used, enabling the caller to map
  /// intervals back to the raw space.
  std::vector<std::pair<double, double>> NormalizeMinMax();

  /// True when every value already lies in [0, 1].
  [[nodiscard]] bool IsNormalized() const;

  /// New dataset containing the selected rows (in the given order).
  [[nodiscard]] Dataset Select(std::span<const PointId> points) const;

 private:
  /// Re-syncs the tracked charge with the buffer's capacity. Called
  /// wherever values_ may have (re)allocated; a no-op (single relaxed
  /// load, then an equal-bytes early out) when nothing changed.
  void RechargeMem() {
    mem_.Set(static_cast<int64_t>(values_.capacity() * sizeof(double)));
  }

  size_t num_dims_;
  std::vector<double> values_;
  /// The dataset is usually the process's dominant allocation, so the
  /// mem.dataset scope is what anchors tracked bytes to sampled VmHWM.
  resource::ScopedBytes mem_{resource::MemScope::kDataset};
};

}  // namespace p3c::data

#endif  // P3C_DATA_DATASET_H_
