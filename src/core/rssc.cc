#include "src/core/rssc.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "src/core/kernels/kernels.h"

namespace p3c::core {

Rssc::Rssc(const std::vector<Signature>& signatures)
    : num_signatures_(signatures.size()),
      num_words_((signatures.size() + 63) / 64) {
  // Pass 1: collect the attributes and their interval bounds. The map
  // makes the slot lookup O(1); attr_of_slot keeps first-seen order, on
  // which the index layout (and thus Match/Accumulate traversal order)
  // depends.
  std::vector<std::vector<double>> bounds_by_attr;
  std::vector<size_t> attr_of_slot;
  std::unordered_map<size_t, size_t> slot_by_attr;
  auto slot_of_attr = [&](size_t attr) -> size_t {
    auto [it, inserted] = slot_by_attr.try_emplace(attr, attr_of_slot.size());
    if (inserted) {
      attr_of_slot.push_back(attr);
      bounds_by_attr.emplace_back();
    }
    return it->second;
  };
  for (const Signature& sig : signatures) {
    for (const Interval& interval : sig.intervals()) {
      auto& bounds = bounds_by_attr[slot_of_attr(interval.attr)];
      bounds.push_back(interval.lower);
      // nextafter keeps the closed upper end inside the interval's bin
      // range: [lower, nextafter(upper)) == [lower, upper] for doubles.
      bounds.push_back(
          std::nextafter(interval.upper,
                         std::numeric_limits<double>::infinity()));
    }
  }

  // Pass 2: build per-attribute bin masks. index_charge_ takes the
  // index's exact capacity in one shot at the end of the constructor.
  index_.reserve(attr_of_slot.size());
  for (size_t s = 0; s < attr_of_slot.size(); ++s) {
    AttrIndex ai;
    ai.attr = attr_of_slot[s];
    ai.separators = std::move(bounds_by_attr[s]);
    std::sort(ai.separators.begin(), ai.separators.end());
    ai.separators.erase(
        std::unique(ai.separators.begin(), ai.separators.end()),
        ai.separators.end());
    const size_t num_bins = ai.separators.size() + 1;
    ai.masks.assign(num_bins * num_words_, 0);
    for (size_t j = 0; j < signatures.size(); ++j) {
      const std::optional<Interval> interval = signatures[j].Find(ai.attr);
      for (size_t b = 0; b < num_bins; ++b) {
        bool covered;
        if (!interval.has_value()) {
          // Attribute irrelevant for this signature -> always 1
          // (Figure 3: bits of S2 are 1 on attribute a).
          covered = true;
        } else {
          const double bin_lo =
              b == 0 ? -std::numeric_limits<double>::infinity()
                     : ai.separators[b - 1];
          const double bin_hi =
              b == ai.separators.size()
                  ? std::numeric_limits<double>::infinity()
                  : ai.separators[b];
          // Bin [bin_lo, bin_hi) inside [lower, upper]?
          const double upper_sep = std::nextafter(
              interval->upper, std::numeric_limits<double>::infinity());
          covered = bin_lo >= interval->lower && bin_hi <= upper_sep;
        }
        if (covered) {
          ai.masks[b * num_words_ + j / 64] |= uint64_t{1} << (j % 64);
        }
      }
    }
    index_.push_back(std::move(ai));
  }

  attrs_.reserve(index_.size());
  for (const AttrIndex& ai : index_) attrs_.push_back(ai.attr);
  std::sort(attrs_.begin(), attrs_.end());

  int64_t index_bytes = 0;
  for (const AttrIndex& ai : index_) {
    index_bytes +=
        static_cast<int64_t>(ai.masks.capacity() * sizeof(uint64_t) +
                             ai.separators.capacity() * sizeof(double));
  }
  index_charge_.Set(index_bytes);
}

namespace {

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

}  // namespace

void Rssc::Match(std::span<const double> point,
                 std::vector<uint64_t>& bits_out) const {
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

void Rssc::Accumulate(std::span<const double> point,
                      std::vector<uint64_t>& scratch,
                      std::span<uint64_t> supports) const {
  Match(point, scratch);
  // Full words through the kernel; the partial tail word stays scalar so
  // `supports` only ever needs num_signatures() entries.
  const size_t full_words = num_signatures_ / 64;
  kernels::Active().support_accumulate(scratch.data(), full_words,
                                       supports.data());
  if (full_words < num_words_) {
    uint64_t bits = scratch[full_words];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      ++supports[full_words * 64 + static_cast<size_t>(bit)];
      bits &= bits - 1;
    }
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

}  // namespace p3c::core
