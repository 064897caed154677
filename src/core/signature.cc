#include "src/core/signature.h"

#include <algorithm>
#include <array>
#include <compare>

#include "src/common/string_util.h"

namespace p3c::core {

namespace {

/// IntervalTable's order: (attr, lower, upper) under std::strong_order,
/// whose equality is equal bits.
std::strong_ordering Compare(const Interval& a, const Interval& b) {
  if (const auto c = a.attr <=> b.attr; c != 0) return c;
  if (const auto c = std::strong_order(a.lower, b.lower); c != 0) return c;
  return std::strong_order(a.upper, b.upper);
}

bool Less(const Interval& a, const Interval& b) { return Compare(a, b) < 0; }

bool Same(const Interval& a, const Interval& b) { return Compare(a, b) == 0; }

/// The last interval looked up on each attribute residue mod 64, with
/// its id. A batch of signatures repeats a few intervals many times, so
/// most lookups end here instead of in a sort or a binary search.
class RecentIntervals {
 public:
  /// The id recorded for an interval equal to `interval`, or kMissing.
  IntervalId Find(const Interval& interval) const {
    const Entry& entry = entries_[interval.attr % entries_.size()];
    return entry.interval != nullptr && Same(*entry.interval, interval)
               ? entry.id
               : IntervalTable::kMissing;
  }
  /// Records `interval`, which must outlive this, with `id`.
  void Set(const Interval& interval, IntervalId id) {
    entries_[interval.attr % entries_.size()] = {&interval, id};
  }

 private:
  struct Entry {
    const Interval* interval = nullptr;
    IntervalId id = 0;
  };
  std::array<Entry, 64> entries_{};
};

}  // namespace

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

IntervalTable::IntervalTable(std::vector<Interval> intervals)
    : intervals_(std::move(intervals)) {
  std::sort(intervals_.begin(), intervals_.end(), Less);
  intervals_.erase(std::unique(intervals_.begin(), intervals_.end(), Same),
                   intervals_.end());
  attrs_.reserve(intervals_.size());
  for (const Interval& interval : intervals_) attrs_.push_back(interval.attr);
}

IntervalTable::IntervalTable(const std::vector<Signature>& signatures)
    : IntervalTable([&signatures] {
        // RecentIntervals drops most repeats, the sort the rest.
        RecentIntervals recent;
        std::vector<Interval> intervals;
        for (const Signature& sig : signatures) {
          for (const Interval& interval : sig.intervals()) {
            if (recent.Find(interval) != kMissing) continue;
            recent.Set(interval, 0);
            intervals.push_back(interval);
          }
        }
        return intervals;
      }()) {}

IntervalId IntervalTable::Find(const Interval& interval) const {
  const auto it =
      std::lower_bound(intervals_.begin(), intervals_.end(), interval, Less);
  if (it == intervals_.end() || !Same(*it, interval)) return kMissing;
  return static_cast<IntervalId>(it - intervals_.begin());
}

std::optional<IntervalRows> IntervalTable::Rows(
    const std::vector<Signature>& signatures) const {
  RecentIntervals recent;
  IntervalRows rows;
  rows.begin.reserve(signatures.size() + 1);
  for (const Signature& sig : signatures) {
    for (const Interval& interval : sig.intervals()) {
      IntervalId id = recent.Find(interval);
      if (id == kMissing) {
        id = Find(interval);
        if (id == kMissing) return std::nullopt;
        recent.Set(interval, id);
      }
      rows.ids.push_back(id);
    }
    rows.begin.push_back(static_cast<uint32_t>(rows.ids.size()));
  }
  return rows;
}

Signature IntervalTable::ToSignature(std::span<const IntervalId> row) const {
  std::vector<Interval> intervals;
  intervals.reserve(row.size());
  for (const IntervalId id : row) intervals.push_back(intervals_[id]);
  return Signature::Make(std::move(intervals)).value();
}

bool operator==(const IntervalTable& a, const IntervalTable& b) {
  return std::ranges::equal(a.intervals_, b.intervals_, Same);
}

}  // namespace p3c::core
