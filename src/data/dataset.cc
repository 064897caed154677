#include "src/data/dataset.h"

#ifdef __linux__
#include <sys/mman.h>
#endif

#include <algorithm>
#include <cstdint>
#include <limits>

namespace p3c::data {

void ResizeOnHugePages(std::vector<double>& values, size_t count) {
  values.reserve(count);
#ifdef __linux__
  constexpr uintptr_t kHugePage = uintptr_t{2} << 20;
  const auto start = reinterpret_cast<uintptr_t>(values.data());
  const uintptr_t begin = (start + kHugePage - 1) & ~(kHugePage - 1);
  const uintptr_t end = (start + count * sizeof(double)) & ~(kHugePage - 1);
  if (end > begin) {
    (void)::madvise(reinterpret_cast<void*>(begin), end - begin,
                    MADV_HUGEPAGE);
  }
#endif
  values.resize(count);
}

Result<Dataset> Dataset::FromRowMajor(std::vector<double> values,
                                      size_t num_dims) {
  if (num_dims == 0) {
    return Status::InvalidArgument("num_dims must be positive");
  }
  if (values.size() % num_dims != 0) {
    return Status::InvalidArgument(
        "row-major buffer size is not a multiple of num_dims");
  }
  Dataset d;
  d.num_dims_ = num_dims;
  d.values_ = std::move(values);
  d.RechargeMem();
  return d;
}

Status Dataset::AppendRow(std::span<const double> row) {
  if (values_.empty() && num_dims_ == 0) {
    if (row.empty()) {
      return Status::InvalidArgument("cannot infer dimensionality from "
                                     "an empty first row");
    }
    num_dims_ = row.size();
  }
  if (row.size() != num_dims_) {
    return Status::InvalidArgument("row dimensionality mismatch");
  }
  values_.insert(values_.end(), row.begin(), row.end());
  RechargeMem();
  return Status::OK();
}

std::vector<std::pair<double, double>> Dataset::NormalizeMinMax() {
  const size_t n = num_points();
  const size_t d = num_dims_;
  std::vector<std::pair<double, double>> ranges(
      d, {std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()});
  for (size_t i = 0; i < n; ++i) {
    const double* row = values_.data() + i * d;
    for (size_t j = 0; j < d; ++j) {
      ranges[j].first = std::min(ranges[j].first, row[j]);
      ranges[j].second = std::max(ranges[j].second, row[j]);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    double* row = values_.data() + i * d;
    for (size_t j = 0; j < d; ++j) {
      const double spread = ranges[j].second - ranges[j].first;
      row[j] = spread > 0.0 ? (row[j] - ranges[j].first) / spread : 0.5;
    }
  }
  return ranges;
}

bool Dataset::IsNormalized() const {
  for (double v : values_) {
    if (!(v >= 0.0 && v <= 1.0)) return false;
  }
  return true;
}

Dataset Dataset::Select(std::span<const PointId> points) const {
  Dataset out(points.size(), num_dims_);
  for (size_t i = 0; i < points.size(); ++i) {
    const auto row = Row(points[i]);
    std::copy(row.begin(), row.end(),
              out.values_.begin() + i * num_dims_);
  }
  return out;
}

}  // namespace p3c::data
