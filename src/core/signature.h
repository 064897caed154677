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

/// The distinct intervals of a run, sorted, each with its id: the one id
/// space that the A-priori lattice, the Rssc, the IntervalIndex and the
/// support jobs share. Entries are ordered by (attr, lower, upper) under
/// std::strong_order, a total order also for NaN bounds, and are distinct
/// bit for bit: -0.0 and +0.0 bounds, or two NaN payloads, make distinct
/// entries. Ids follow the entries' order, so a signature's intervals
/// sorted by id are sorted by attribute as in Signature.
class IntervalTable {
 public:
  static constexpr IntervalId kMissing = UINT32_MAX;

  IntervalTable() = default;
  /// Sorts and de-duplicates `intervals`.
  explicit IntervalTable(std::vector<Interval> intervals);
  /// The table of every interval of `signatures`.
  explicit IntervalTable(const std::vector<Signature>& signatures);

  [[nodiscard]] size_t size() const { return intervals_.size(); }
  [[nodiscard]] const Interval& interval(IntervalId id) const {
    return intervals_[id];
  }
  [[nodiscard]] std::span<const Interval> intervals() const {
    return intervals_;
  }
  /// Attribute of every id, indexed by id; ascending.
  [[nodiscard]] std::span<const size_t> attrs() const { return attrs_; }
  /// Id of `interval`, or kMissing when the table does not hold it.
  [[nodiscard]] IntervalId Find(const Interval& interval) const;
  /// `signatures` as well-formed rows, one per signature in order, or
  /// nullopt when the table misses one of their intervals.
  [[nodiscard]] std::optional<IntervalRows> Rows(
      const std::vector<Signature>& signatures) const;
  /// The signature of a sorted id row.
  [[nodiscard]] Signature ToSignature(std::span<const IntervalId> row) const;

  /// The same entries bit for bit, so the same ids.
  friend bool operator==(const IntervalTable& a, const IntervalTable& b);

 private:
  std::vector<Interval> intervals_;
  std::vector<size_t> attrs_;
};

}  // namespace p3c::core

#endif  // P3C_CORE_SIGNATURE_H_
