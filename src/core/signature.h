#ifndef P3C_CORE_SIGNATURE_H_
#define P3C_CORE_SIGNATURE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/interval.h"

namespace p3c::core {

/// A p-signature (Definition 2): a set of intervals on pairwise-distinct
/// attributes. Intervals are stored sorted by attribute, making equality
/// and ordering cheap and canonical.
class Signature {
 public:
  Signature() = default;

  /// Builds a signature from intervals; sorts them and rejects duplicate
  /// attributes.
  static Result<Signature> Make(std::vector<Interval> intervals);

  /// Convenience for a 1-signature.
  static Signature Single(const Interval& interval);

  [[nodiscard]] size_t size() const { return intervals_.size(); }
  [[nodiscard]] bool empty() const { return intervals_.empty(); }
  [[nodiscard]] const std::vector<Interval>& intervals() const {
    return intervals_;
  }

  /// Attributes of the signature, sorted (Attr(S) in the paper).
  [[nodiscard]] std::vector<size_t> attrs() const;

  /// True iff the signature has an interval on `attr`.
  [[nodiscard]] bool HasAttr(size_t attr) const;

  /// Interval on `attr`, if present.
  [[nodiscard]] std::optional<Interval> Find(size_t attr) const;

  /// Point containment: x in every interval of the signature; coordinates
  /// outside Attr(S) are unconstrained. `point` is a full d-dimensional
  /// row.
  [[nodiscard]] bool Contains(std::span<const double> point) const;

  /// Product of interval widths: Supp_exp(S) / n under the uniform
  /// assumption (Eq. 7).
  [[nodiscard]] double VolumeFraction() const;

  /// New signature with `interval` added. Fails if the attribute is
  /// already present.
  [[nodiscard]] Result<Signature> With(const Interval& interval) const;

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.intervals_ == b.intervals_;
  }
  friend auto operator<=>(const Signature& a, const Signature& b) {
    return a.intervals_ <=> b.intervals_;
  }

  /// "{a1:[0,0.1], a3:[0.5,0.7]}" debug rendering.
  [[nodiscard]] std::string ToString() const;

 private:
  std::vector<Interval> intervals_;  // sorted by attr, unique attrs
};

/// An interned interval: its index in an interval table.
using IntervalId = uint32_t;

/// A batch of signatures as rows of interval IDs over an interval table
/// (CSR): row r is ids[begin[r], begin[r + 1]). A well-formed row is
/// strictly ascending, with its intervals on distinct attributes
/// (CheckIntervalRows, rssc.h).
struct IntervalRows {
  std::vector<uint32_t> begin = {0};
  std::vector<IntervalId> ids;

  [[nodiscard]] size_t size() const {
    return begin.empty() ? 0 : begin.size() - 1;
  }
  [[nodiscard]] std::span<const IntervalId> row(size_t r) const {
    return {ids.data() + begin[r], begin[r + 1] - begin[r]};
  }
  void Append(std::span<const IntervalId> row) {
    ids.insert(ids.end(), row.begin(), row.end());
    begin.push_back(static_cast<uint32_t>(ids.size()));
  }
};

}  // namespace p3c::core

#endif  // P3C_CORE_SIGNATURE_H_
