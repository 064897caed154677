#ifndef P3C_CORE_RSSC_H_
#define P3C_CORE_RSSC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/resource.h"
#include "src/core/signature.h"

namespace p3c::core {

/// OK iff `rows` is well-formed over `table`: `begin` starts at 0, never
/// decreases and ends at ids.size(); every id lies below table.size();
/// every row is strictly ascending and has at most one interval per
/// attribute. Otherwise InvalidArgument naming the first fault found.
Status CheckIntervalRows(const IntervalTable& table, const IntervalRows& rows);

/// A run's interval row words, computed once (§5.3's distributed cache):
/// for each entry of the run's IntervalTable, one word per map range, bit
/// r set iff row RangeBegin(i) + r satisfies x >= lower && x <= upper,
/// Rssc's predicate. Interval t of the index is table id t. The ranges
/// follow the MR engine's map layout: splits of `split_rows` rows from
/// row 0, each cut into ranges of at most 64 rows from its first row, so
/// a map task's ranges are consecutive words. Words are interval-major:
/// words(t)[i] is interval t on range i.
///
/// Holds num_intervals() * num_ranges() words, about T * n / 8 bytes,
/// charged to MemScope::kRsscIndex.
class IntervalIndex {
 public:
  /// An index over `table` (kept as a copy) with every word clear.
  IntervalIndex(const IntervalTable& table, size_t num_points,
                size_t split_rows);

  /// The table whose ids the index's intervals are; a batch reads the
  /// index only when its rows are over an equal table.
  const IntervalTable& table() const { return table_; }
  size_t num_intervals() const { return table_.size(); }
  size_t num_points() const { return num_points_; }
  size_t num_ranges() const { return num_ranges_; }

  /// First row and row count of range i < num_ranges().
  size_t RangeBegin(size_t i) const;
  size_t RangeRows(size_t i) const;
  /// The range whose first row is `row`, or num_ranges() when no range
  /// starts there.
  size_t RangeStartingAt(size_t row) const;

  /// Interval t's words, num_ranges() of them.
  const uint64_t* words(size_t t) const {
    return words_.data() + t * num_ranges_;
  }
  /// Stores range i's words, one per interval.
  void SetRange(size_t i, std::span<const uint64_t> words);

 private:
  IntervalTable table_;
  size_t num_points_;
  size_t split_rows_;
  size_t ranges_per_split_;
  size_t num_ranges_;
  std::vector<uint64_t> words_;
  resource::ScopedBytes charge_{resource::MemScope::kRsscIndex};
};

/// Rapid Signature Support Counter (§5.3): answers "which of these
/// signatures contain each of these rows" and "how many rows does each
/// signature contain", up to 64 consecutive rows at a time.
///
/// Construction takes the batch as rows of ids over an IntervalTable; a
/// signature is its list of interval ids. The Rssc keeps the table
/// entries it needs, in table order: every entry when it serves an
/// IntervalIndex over the table (so its interval t is table id t and the
/// index's interval t), else only the entries the rows use. A group of
/// at most 64 rows is gathered column-wise on the indexed attributes,
/// and each kept interval gets one row word: bit r set iff row r's
/// coordinate x satisfies x >= lower && x <= upper, Interval::Contains's
/// predicate. A coordinate past the row's end reads as NaN, which no
/// interval contains. A signature's row word is the AND of its interval
/// words, so bit r is set iff Signature::Contains(row r), for every
/// input including NaN, +-inf and short rows.
///
/// Two queries read the words:
///  - Members: one word per signature for one group (memberships).
///  - Counter: keeps up to 64 words per interval, then AND-popcounts
///    each signature's words into its support.
/// Both can also read an IntervalIndex's words instead of gathering rows,
/// through the same AND loops, when the Rssc holds the whole table of
/// the index.
///
/// The index is immutable after construction and safe to share across
/// mapper threads — exactly the distributed-cache usage of the paper.
class Rssc {
 public:
  /// The Rssc of `rows` over `table`, which CheckIntervalRows must
  /// accept; signature j is row j. With `whole_table` it keeps every
  /// table entry, as reading or filling an IntervalIndex over `table`
  /// needs; otherwise the entries the rows use.
  Rssc(const IntervalTable& table, const IntervalRows& rows,
       bool whole_table = false);
  /// The Rssc of `signatures` as rows over IntervalTable(signatures).
  explicit Rssc(const std::vector<Signature>& signatures);

  size_t num_signatures() const { return num_signatures_; }
  /// Table entries kept.
  size_t num_intervals() const { return intervals_.size(); }
  /// Kept entry t.
  Interval interval(size_t t) const {
    return {attrs_[intervals_[t].slot], intervals_[t].lower,
            intervals_[t].upper};
  }

  /// Attributes the index constrains (sorted). Points are only examined
  /// on these.
  const std::vector<size_t>& indexed_attrs() const { return attrs_; }

  /// Caller-owned buffers of Members, reusable across calls and indexes.
  struct Scratch {
    std::vector<double> columns;
    std::vector<uint64_t> interval_words;
  };

  /// Fills `words` (num_signatures() of them) for the `count` rows at
  /// `rows`, at most 64, row-major with `dims` values each: bit r of
  /// words[j] is set iff row r lies in SuppSet(signature j). Bits at and
  /// above `count` are clear.
  void Members(const double* rows, size_t count, size_t dims,
               Scratch& scratch, std::span<uint64_t> words) const;

  /// Members for range i of `index`, read from its words. The Rssc must
  /// hold the whole table of the index (`whole_table`).
  void Members(const IntervalIndex& index, size_t range,
               std::span<uint64_t> words) const;

  /// The Light model's m' (§6) for the first `rows` rows of a Members
  /// group: out[r] is the j whose words[j] alone holds bit r, -1 when no
  /// word holds it, -2 when several do. Bits at and above `rows` must be
  /// clear.
  static void UniqueMembers(std::span<const uint64_t> words, size_t rows,
                            int32_t* out);

  /// Adds Supp(signature j) over the rows it is given to supports[j].
  /// Rows are taken up to 64 at a time: each group appends one word per
  /// kept interval. Every 64 words, and at Finish, each signature's
  /// interval words are ANDed and popcounted into its count. Counts are
  /// integers, so the result does not depend on how the rows were
  /// grouped. Counts of rows added since the last flush reach `supports`
  /// only at Finish.
  class Counter {
   public:
    /// `supports` holds num_signatures() counters and must outlive the
    /// counter.
    Counter(const Rssc& rssc, std::span<uint64_t> supports);
    /// A counter that reads `index`'s words instead of rows (AddRange);
    /// the Rssc must hold the whole table of the index, as for Members.
    Counter(const Rssc& rssc, const IntervalIndex& index,
            std::span<uint64_t> supports);

    /// Counts the `count` rows at `rows`, row-major with `dims` values
    /// each.
    void Add(const double* rows, size_t count, size_t dims);

    /// Copies the words the last Add built for its last group of rows,
    /// for the first out.size() intervals.
    void LastGroupWords(std::span<uint64_t> out) const;

    /// Counts range i of the index. Consecutive ranges are flushed
    /// together, so a map task's ranges cost one pass per signature.
    void AddRange(size_t i);

    /// Counts the rows added since the last flush.
    void Finish();

   private:
    /// Words per interval kept before a signature pass (4096 rows).
    static constexpr size_t kChunkWords = 64;

    Counter(const Rssc& rssc, const IntervalIndex* index,
            std::span<uint64_t> supports);
    void Flush();

    const Rssc& rssc_;
    const IntervalIndex* index_ = nullptr;
    std::span<uint64_t> supports_;
    /// Interval-major row words: words_[t * kChunkWords + w].
    std::vector<uint64_t> words_;
    /// The current group's coordinates, 64 per indexed attribute.
    std::vector<double> columns_;
    /// One signature's interval word pointers, for and_popcount.
    std::vector<const uint64_t*> masks_;
    /// Words per interval not yet flushed; with an index, they start at
    /// range first_range_.
    size_t filled_words_ = 0;
    size_t first_range_ = 0;
    /// Where the last group Add gathered went in words_.
    size_t last_word_ = 0;
    uint64_t pending_rows_ = 0;
    resource::ScopedBytes charge_{resource::MemScope::kSupportPartials};
  };

 private:
  /// One kept interval, on column `slot` (an index into attrs_).
  struct SlotInterval {
    uint32_t slot;
    double lower;
    double upper;
  };

  /// Writes one word per kept interval for the `count` rows at
  /// `rows`, at most 64, to out[t * stride]: bit r set iff row r lies in
  /// interval t. `columns` holds 64 doubles per indexed attribute.
  void IntervalWords(const double* rows, size_t count, size_t dims,
                     double* columns, uint64_t* out, size_t stride) const;

  /// words[j] = `all_rows` AND signature j's interval words, interval t's
  /// word read at base[t * stride].
  void AndWords(const uint64_t* base, size_t stride, uint64_t all_rows,
                std::span<uint64_t> words) const;

  size_t num_signatures_ = 0;
  std::vector<size_t> attrs_;
  std::vector<SlotInterval> intervals_;
  /// Signature j's interval ids are
  /// sig_intervals_[sig_begin_[j] .. sig_begin_[j + 1]).
  std::vector<uint32_t> sig_begin_;
  std::vector<uint32_t> sig_intervals_;
  /// Tracked bytes of the index (interval table and attributes), set
  /// once at the end of construction; copies of the index charge
  /// independently, and the charge dies with the index.
  resource::ScopedBytes index_charge_{resource::MemScope::kRsscIndex};
};

}  // namespace p3c::core

#endif  // P3C_CORE_RSSC_H_
