#include "src/core/signature.h"

#include <algorithm>

#include "src/common/string_util.h"

namespace p3c::core {

Result<Signature> Signature::Make(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  for (size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].attr == intervals[i - 1].attr) {
      return Status::InvalidArgument(
          "signature has two intervals on attribute " +
          std::to_string(intervals[i].attr));
    }
  }
  Signature s;
  s.intervals_ = std::move(intervals);
  return s;
}

Signature Signature::Single(const Interval& interval) {
  Signature s;
  s.intervals_.push_back(interval);
  return s;
}

std::vector<size_t> Signature::attrs() const {
  std::vector<size_t> out;
  out.reserve(intervals_.size());
  for (const Interval& i : intervals_) out.push_back(i.attr);
  return out;
}

bool Signature::HasAttr(size_t attr) const {
  return Find(attr).has_value();
}

std::optional<Interval> Signature::Find(size_t attr) const {
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), attr,
      [](const Interval& i, size_t a) { return i.attr < a; });
  if (it != intervals_.end() && it->attr == attr) return *it;
  return std::nullopt;
}

bool Signature::Contains(std::span<const double> point) const {
  for (const Interval& i : intervals_) {
    if (i.attr >= point.size() || !i.Contains(point[i.attr])) return false;
  }
  return true;
}

double Signature::VolumeFraction() const {
  double v = 1.0;
  for (const Interval& i : intervals_) v *= i.width();
  return v;
}

Result<Signature> Signature::With(const Interval& interval) const {
  if (HasAttr(interval.attr)) {
    return Status::InvalidArgument("attribute already present: " +
                                   std::to_string(interval.attr));
  }
  std::vector<Interval> merged = intervals_;
  merged.push_back(interval);
  return Make(std::move(merged));
}

std::string Signature::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) out += ", ";
    out += intervals_[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace p3c::core
