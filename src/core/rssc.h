#ifndef P3C_CORE_RSSC_H_
#define P3C_CORE_RSSC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/resource.h"
#include "src/core/signature.h"
#include "src/data/dataset.h"

namespace p3c::core {

/// Rapid Signature Support Counter (§5.3): a bitmap index answering "which
/// of these signatures contain point x" and "how many points does each
/// signature contain".
///
/// Construction derives, per attribute occurring in any signature, a
/// binning from the distinct interval bounds. Closed interval semantics
/// are preserved exactly by using nextafter(upper) as the bin separator.
/// Every distinct interval of the batch becomes one entry of an interval
/// table: the range of bins it covers on its attribute. A signature is
/// its list of interval ids.
///
/// Two queries read the table:
///  - Match: every bin carries a bit vector with bit j set iff signature
///    j either has no interval on the attribute or its interval covers
///    the bin (Figure 3 of the paper); matching a point ANDs the bin
///    vectors of all indexed attributes. Built only for Use::kMatch.
///  - Counter: counts supports a chunk of rows at a time, one row bitmap
///    per distinct interval and one AND-popcount per signature.
///
/// The index is immutable after construction and safe to share across
/// mapper threads — exactly the distributed-cache usage of the paper.
class Rssc {
 public:
  /// kMatch builds the per-bin signature masks Match reads, memory
  /// O(#attrs * #bins * #signatures / 64); kCount builds only the
  /// interval table, which is all Counter reads.
  enum class Use { kMatch, kCount };

  explicit Rssc(const std::vector<Signature>& signatures,
                Use use = Use::kMatch);

  size_t num_signatures() const { return num_signatures_; }
  size_t num_words() const { return num_words_; }
  /// Distinct intervals of the batch (entries of the interval table).
  size_t num_intervals() const { return intervals_.size(); }

  /// Attributes the index constrains (sorted). Points are only examined
  /// on these.
  const std::vector<size_t>& indexed_attrs() const { return attrs_; }

  /// Computes the containment bit vector for `point` (a full
  /// d-dimensional row) into `bits_out` (resized to num_words()). Bit j
  /// set <=> point in SuppSet(signature j). Padding bits above
  /// num_signatures() are clear. Requires Use::kMatch.
  void Match(std::span<const double> point,
             std::vector<uint64_t>& bits_out) const;

  /// Appends the ids of all set bits in `bits` to `ids_out`.
  static void BitsToIds(std::span<const uint64_t> bits, size_t num_signatures,
                        std::vector<uint32_t>& ids_out);

  /// Adds Supp(signature j) over the rows it is given to supports[j].
  /// Rows are taken up to 64 at a time: each group appends one word per
  /// distinct interval (bit r set iff row r lies in the interval). Every
  /// 64 words, and at Finish, each signature's interval words are ANDed
  /// and popcounted into its count. Counts are integers, so the result
  /// does not depend on how the rows were grouped. Counts of rows added
  /// since the last flush reach `supports` only at Finish.
  class Counter {
   public:
    /// `supports` holds num_signatures() counters and must outlive the
    /// counter.
    Counter(const Rssc& rssc, std::span<uint64_t> supports);

    /// Counts rows [begin, end) of `dataset`.
    void Add(const data::Dataset& dataset, size_t begin, size_t end);

    /// Counts the rows added since the last flush.
    void Finish();

   private:
    /// Words per interval kept before a signature pass (4096 rows).
    static constexpr size_t kChunkWords = 64;

    /// Appends one word per interval for rows [begin, end), at most 64.
    void AppendWord(const data::Dataset& dataset, size_t begin, size_t end);
    void Flush();

    const Rssc& rssc_;
    std::span<uint64_t> supports_;
    /// Interval-major row words: words_[t * kChunkWords + w].
    std::vector<uint64_t> words_;
    /// The current group's coordinates, 64 per attribute slot.
    std::vector<double> columns_;
    /// Per slot, num_bins + 1 row words of the current group: word k has
    /// bit r set iff row r's bin is >= k (word 0 all rows, the last
    /// none). ge_offset_[slot] is where the slot's words start.
    std::vector<uint64_t> ge_;
    std::vector<size_t> ge_offset_;
    /// One signature's interval word pointers, for and_popcount.
    std::vector<const uint64_t*> masks_;
    size_t filled_words_ = 0;
    uint64_t pending_rows_ = 0;
    resource::ScopedBytes charge_{resource::MemScope::kSupportPartials};
  };

 private:
  struct AttrIndex {
    size_t attr;
    /// Sorted bin separators; bin i covers [separators[i-1],
    /// separators[i]) with sentinel bounds -inf / +inf at the ends
    /// implied (bin 0 is (-inf, separators[0]), etc.).
    std::vector<double> separators;
    /// Bit masks per bin, each num_words_ long, concatenated. Empty
    /// under Use::kCount.
    std::vector<uint64_t> masks;
  };

  /// One distinct interval: x lies in it iff
  /// first_bin <= FindBin(separators of slot, x) < end_bin.
  struct BinRange {
    uint32_t slot;
    uint32_t first_bin;
    uint32_t end_bin;
  };

  void BuildMasks();

  size_t num_signatures_ = 0;
  size_t num_words_ = 0;
  std::vector<size_t> attrs_;
  std::vector<AttrIndex> index_;
  std::vector<BinRange> intervals_;
  /// Signature j's interval ids are
  /// sig_intervals_[sig_begin_[j] .. sig_begin_[j + 1]).
  std::vector<uint32_t> sig_begin_;
  std::vector<uint32_t> sig_intervals_;
  /// Tracked bytes of the index (interval table, separators and masks),
  /// set once at the end of construction; copies of the index charge
  /// independently, and the charge dies with the index.
  resource::ScopedBytes index_charge_{resource::MemScope::kRsscIndex};
};

}  // namespace p3c::core

#endif  // P3C_CORE_RSSC_H_
