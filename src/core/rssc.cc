#include "src/core/rssc.h"

#include <algorithm>
#include <cassert>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "src/core/kernels/kernels.h"

namespace p3c::core {

namespace {

/// A distinct interval before binning: its attribute slot and the bit
/// patterns of its bounds.
struct IntervalKey {
  size_t slot;
  uint64_t lower;
  uint64_t upper;
  bool operator==(const IntervalKey&) const = default;
};

/// A distinct interval, on its attribute slot.
struct SlotInterval {
  size_t slot;
  double lower;
  double upper;
};

struct IntervalKeyHash {
  size_t operator()(const IntervalKey& key) const {
    uint64_t h = key.slot * 0x9E3779B97F4A7C15ull;
    h = (h ^ key.lower) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ key.upper) * 0x94D049BB133111EBull;
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

/// Bin of x: the number of separators <= x (std::upper_bound). Most
/// attributes carry only a handful of interval bounds, where a
/// branch-predictable linear scan beats the binary search's data-
/// dependent branches; above the cutoff, binary search wins. Both paths
/// compare through the same `x < separator` predicate in the same
/// left-to-right order, so the chosen bin is identical (including for
/// NaN coordinates, which no separator exceeds).
constexpr size_t kLinearScanSeparators = 8;

size_t FindBin(const std::vector<double>& separators, double x) {
  const size_t m = separators.size();
  if (m < kLinearScanSeparators) {
    size_t b = 0;
    while (b < m && !(x < separators[b])) ++b;
    return b;
  }
  return static_cast<size_t>(
      std::upper_bound(separators.begin(), separators.end(), x) -
      separators.begin());
}

/// Attributes batched per bitmap_and_reduce call: enough to amortize the
/// dispatch and the loads/stores of `bits` across attributes, small
/// enough for a stack array.
constexpr size_t kMaskBatch = 16;

/// Bit r set iff !(xs[r] < sep), for r < rows <= 64. The comparisons
/// fill a byte per row; one multiply then gathers 8 flag bytes into 8
/// bits (0x0102040810204080 moves byte i to bit 56 + i, and no two
/// partial products share a bit), which is cheaper than a shift and an
/// OR per row.
uint64_t RowsNotBelow(const double* xs, size_t rows, double sep) {
  alignas(8) uint8_t flags[64] = {};
  for (size_t r = 0; r < rows; ++r) flags[r] = !(xs[r] < sep);
  uint64_t word = 0;
  for (size_t b = 0; b < (rows + 7) / 8; ++b) {
    uint64_t bytes;
    std::memcpy(&bytes, flags + 8 * b, sizeof(bytes));
    word |= ((bytes * 0x0102040810204080ull) >> 56) << (8 * b);
  }
  return word;
}

/// nextafter keeps the closed upper end inside the interval's bin range:
/// [lower, nextafter(upper)) == [lower, upper] for doubles.
double UpperSeparator(double upper) {
  return std::nextafter(upper, std::numeric_limits<double>::infinity());
}

}  // namespace

Rssc::Rssc(const std::vector<Signature>& signatures, Use use)
    : num_signatures_(signatures.size()),
      num_words_((signatures.size() + 63) / 64) {
  // Pass 1: intern the distinct intervals and collect their bounds per
  // attribute. attr_of_slot keeps first-seen order, on which the index
  // layout (and thus the Match traversal order) depends; interval ids are
  // first-seen too.
  std::vector<std::vector<double>> bounds_by_attr;
  std::vector<size_t> attr_of_slot;
  std::unordered_map<size_t, size_t> slot_by_attr;
  std::vector<SlotInterval> distinct;
  std::unordered_map<IntervalKey, uint32_t, IntervalKeyHash> id_by_key;
  sig_begin_.reserve(signatures.size() + 1);
  sig_begin_.push_back(0);
  for (const Signature& sig : signatures) {
    for (const Interval& interval : sig.intervals()) {
      auto [slot_it, new_slot] =
          slot_by_attr.try_emplace(interval.attr, attr_of_slot.size());
      if (new_slot) {
        attr_of_slot.push_back(interval.attr);
        bounds_by_attr.emplace_back();
      }
      const size_t slot = slot_it->second;
      const IntervalKey key{slot, std::bit_cast<uint64_t>(interval.lower),
                            std::bit_cast<uint64_t>(interval.upper)};
      auto [id_it, new_id] = id_by_key.try_emplace(
          key, static_cast<uint32_t>(distinct.size()));
      // A NaN bound contains no coordinate; it is kept out of the
      // separators, which stay NaN-free and strictly sorted.
      if (new_id) {
        distinct.push_back({slot, interval.lower, interval.upper});
        if (!std::isnan(interval.lower) && !std::isnan(interval.upper)) {
          bounds_by_attr[slot].push_back(interval.lower);
          bounds_by_attr[slot].push_back(UpperSeparator(interval.upper));
        }
      }
      sig_intervals_.push_back(id_it->second);
    }
    sig_begin_.push_back(static_cast<uint32_t>(sig_intervals_.size()));
  }

  index_.reserve(attr_of_slot.size());
  for (size_t s = 0; s < attr_of_slot.size(); ++s) {
    AttrIndex ai;
    ai.attr = attr_of_slot[s];
    ai.separators = std::move(bounds_by_attr[s]);
    std::sort(ai.separators.begin(), ai.separators.end());
    ai.separators.erase(
        std::unique(ai.separators.begin(), ai.separators.end()),
        ai.separators.end());
    index_.push_back(std::move(ai));
  }

  // Pass 2: the bins each distinct interval covers. Bin b spans
  // [bin_lo(b), bin_hi(b)) with bin_lo(0) = -inf and bin_hi(last) =
  // +inf; it is covered iff bin_lo(b) >= lower and bin_hi(b) <=
  // nextafter(upper). Both sides are monotone in b, so the covered bins
  // form one range.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  intervals_.reserve(distinct.size());
  for (const SlotInterval& interval : distinct) {
    const std::vector<double>& seps = index_[interval.slot].separators;
    const double lower = interval.lower;
    const double upper_sep = UpperSeparator(interval.upper);
    if (std::isnan(lower) || std::isnan(upper_sep)) {
      intervals_.push_back({static_cast<uint32_t>(interval.slot), 0, 0});
      continue;
    }
    // Bins 1..m start at separators 0..m-1.
    size_t first_bin = 0;
    if (!(-kInf >= lower)) {
      first_bin = 1 + static_cast<size_t>(
                          std::partition_point(
                              seps.begin(), seps.end(),
                              [&](double sep) { return !(sep >= lower); }) -
                          seps.begin());
    }
    // Bins 0..m-1 end at separators 0..m-1; the last bin ends at +inf.
    size_t end_bin = static_cast<size_t>(
        std::partition_point(seps.begin(), seps.end(),
                             [&](double sep) { return sep <= upper_sep; }) -
        seps.begin());
    if (end_bin == seps.size() && kInf <= upper_sep) ++end_bin;
    intervals_.push_back({static_cast<uint32_t>(interval.slot),
                          static_cast<uint32_t>(first_bin),
                          static_cast<uint32_t>(end_bin)});
  }

  if (use == Use::kMatch) BuildMasks();

  attrs_.reserve(index_.size());
  for (const AttrIndex& ai : index_) attrs_.push_back(ai.attr);
  std::sort(attrs_.begin(), attrs_.end());

  int64_t index_bytes = static_cast<int64_t>(
      intervals_.capacity() * sizeof(BinRange) +
      (sig_begin_.capacity() + sig_intervals_.capacity()) * sizeof(uint32_t));
  for (const AttrIndex& ai : index_) {
    index_bytes +=
        static_cast<int64_t>(ai.masks.capacity() * sizeof(uint64_t) +
                             ai.separators.capacity() * sizeof(double));
  }
  index_charge_.Set(index_bytes);
}

void Rssc::BuildMasks() {
  // A signature's bit is set on the bins its interval covers on the
  // attributes it constrains, and on every bin of the attributes it does
  // not (Figure 3: bits of S2 are 1 on attribute a).
  std::vector<uint64_t> constrained(index_.size() * num_words_, 0);
  for (AttrIndex& ai : index_) {
    ai.masks.assign((ai.separators.size() + 1) * num_words_, 0);
  }
  for (size_t j = 0; j < num_signatures_; ++j) {
    const size_t word = j / 64;
    const uint64_t bit = uint64_t{1} << (j % 64);
    for (uint32_t i = sig_begin_[j]; i < sig_begin_[j + 1]; ++i) {
      const BinRange& range = intervals_[sig_intervals_[i]];
      constrained[range.slot * num_words_ + word] |= bit;
      uint64_t* masks = index_[range.slot].masks.data();
      for (size_t b = range.first_bin; b < range.end_bin; ++b) {
        masks[b * num_words_ + word] |= bit;
      }
    }
  }
  // Only live signature lanes get bits: padding above num_signatures_
  // stays clear.
  const size_t tail = num_signatures_ % 64;
  for (size_t s = 0; s < index_.size(); ++s) {
    const uint64_t* slot_constrained = constrained.data() + s * num_words_;
    uint64_t* masks = index_[s].masks.data();
    const size_t num_bins = index_[s].separators.size() + 1;
    for (size_t b = 0; b < num_bins; ++b) {
      for (size_t w = 0; w < num_words_; ++w) {
        uint64_t live = ~uint64_t{0};
        if (tail != 0 && w + 1 == num_words_) live = (uint64_t{1} << tail) - 1;
        masks[b * num_words_ + w] |= live & ~slot_constrained[w];
      }
    }
  }
}

void Rssc::Match(std::span<const double> point,
                 std::vector<uint64_t>& bits_out) const {
  // Use::kCount builds no masks.
  assert(num_words_ == 0 || index_.empty() || !index_.front().masks.empty());
  bits_out.assign(num_words_, ~uint64_t{0});
  if (num_words_ == 0) return;
  // Clear the padding bits of the last word, so downstream counters can
  // size their storage to num_signatures() (no phantom high lanes).
  const size_t tail = num_signatures_ % 64;
  if (tail != 0) bits_out.back() = (uint64_t{1} << tail) - 1;

  const kernels::Ops& ops = kernels::Active();
  const uint64_t* masks[kMaskBatch];
  size_t batched = 0;
  for (const AttrIndex& ai : index_) {
    const double x = ai.attr < point.size() ? point[ai.attr] : 0.0;
    masks[batched++] = ai.masks.data() + FindBin(ai.separators, x) * num_words_;
    if (batched == kMaskBatch) {
      ops.bitmap_and_reduce(bits_out.data(), masks, batched, num_words_);
      batched = 0;
    }
  }
  if (batched > 0) {
    ops.bitmap_and_reduce(bits_out.data(), masks, batched, num_words_);
  }
}

void Rssc::BitsToIds(std::span<const uint64_t> bits, size_t num_signatures,
                     std::vector<uint32_t>& ids_out) {
  for (size_t w = 0; w < bits.size(); ++w) {
    uint64_t word = bits[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      const size_t id = w * 64 + static_cast<size_t>(bit);
      if (id < num_signatures) ids_out.push_back(static_cast<uint32_t>(id));
      word &= word - 1;
    }
  }
}

Rssc::Counter::Counter(const Rssc& rssc, std::span<uint64_t> supports)
    : rssc_(rssc),
      supports_(supports),
      words_(rssc.num_intervals() * kChunkWords),
      columns_(rssc.index_.size() * 64) {
  ge_offset_.reserve(rssc.index_.size());
  size_t ge_words = 0;
  for (const AttrIndex& ai : rssc.index_) {
    ge_offset_.push_back(ge_words);
    ge_words += ai.separators.size() + 2;
  }
  ge_.assign(ge_words, 0);
  size_t widest = 0;
  for (size_t j = 0; j < rssc.num_signatures_; ++j) {
    widest = std::max<size_t>(widest,
                              rssc.sig_begin_[j + 1] - rssc.sig_begin_[j]);
  }
  masks_.resize(widest);
  charge_.Set(static_cast<int64_t>(
      (words_.capacity() + ge_.capacity()) * sizeof(uint64_t) +
      columns_.capacity() * sizeof(double) +
      ge_offset_.capacity() * sizeof(size_t) +
      masks_.capacity() * sizeof(uint64_t*)));
}

void Rssc::Counter::Add(const data::Dataset& dataset, size_t begin,
                        size_t end) {
  if (rssc_.num_signatures_ == 0) return;
  while (begin < end) {
    const size_t group_end = std::min(end, begin + 64);
    AppendWord(dataset, begin, group_end);
    begin = group_end;
  }
}

void Rssc::Counter::AppendWord(const data::Dataset& dataset, size_t begin,
                               size_t end) {
  const size_t rows = end - begin;
  const size_t dims = dataset.num_dims();
  const size_t num_slots = rssc_.index_.size();
  // Gather row by row, so each row's cache lines are read once. Match
  // reads an attribute past the row's end as 0; so does this.
  const double* values = dataset.values().data() + begin * dims;
  for (size_t r = 0; r < rows; ++r) {
    const double* row = values + r * dims;
    for (size_t s = 0; s < num_slots; ++s) {
      const size_t attr = rssc_.index_[s].attr;
      columns_[s * 64 + r] = attr < dims ? row[attr] : 0.0;
    }
  }
  // FindBin(x) is the number of separators s with !(x < s): separators
  // are sorted and NaN-free, so its scan stops at the first s > x, and
  // NaN passes them all. Hence FindBin(x) >= k iff !(x < separator
  // k - 1), and a row lies in bins [first, end) iff its bin is >= first
  // and not >= end: exactly Match's bin, through the same predicate.
  const uint64_t all_rows =
      rows == 64 ? ~uint64_t{0} : (uint64_t{1} << rows) - 1;
  for (size_t s = 0; s < num_slots; ++s) {
    const std::vector<double>& seps = rssc_.index_[s].separators;
    const double* xs = columns_.data() + s * 64;
    uint64_t* ge = ge_.data() + ge_offset_[s];
    ge[0] = all_rows;
    for (size_t k = 0; k < seps.size(); ++k) {
      ge[k + 1] = RowsNotBelow(xs, rows, seps[k]);
    }
    // ge[seps.size() + 1] stays 0: no bin lies past the last.
  }
  for (size_t t = 0; t < rssc_.intervals_.size(); ++t) {
    const BinRange& range = rssc_.intervals_[t];
    const uint64_t* ge = ge_.data() + ge_offset_[range.slot];
    words_[t * kChunkWords + filled_words_] =
        ge[range.first_bin] & ~ge[range.end_bin];
  }
  pending_rows_ += rows;
  if (++filled_words_ == kChunkWords) Flush();
}

void Rssc::Counter::Flush() {
  if (filled_words_ == 0) return;
  const kernels::Ops& ops = kernels::Active();
  for (size_t j = 0; j < rssc_.num_signatures_; ++j) {
    const uint32_t first = rssc_.sig_begin_[j];
    const size_t num_masks = rssc_.sig_begin_[j + 1] - first;
    if (num_masks == 0) {
      // A signature without intervals contains every row.
      supports_[j] += pending_rows_;
      continue;
    }
    for (size_t i = 0; i < num_masks; ++i) {
      masks_[i] = words_.data() +
                  rssc_.sig_intervals_[first + i] * kChunkWords;
    }
    supports_[j] += ops.and_popcount(masks_.data(), num_masks, filled_words_);
  }
  filled_words_ = 0;
  pending_rows_ = 0;
}

void Rssc::Counter::Finish() { Flush(); }

}  // namespace p3c::core
