#include "src/core/rssc.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>

#include "src/common/string_util.h"
#include "src/core/kernels/kernels.h"

namespace p3c::core {

namespace {

/// Bit r set iff xs[r] >= lower && xs[r] <= upper, for r < rows <= 64.
/// The comparisons fill a byte per row; one multiply then gathers 8 flag
/// bytes into 8 bits (0x0102040810204080 moves byte i to bit 56 + i, and
/// no two partial products share a bit), which is cheaper than a shift
/// and an OR per row.
uint64_t RowsWithin(const double* xs, size_t rows, double lower,
                    double upper) {
  alignas(8) uint8_t flags[64] = {};
  for (size_t r = 0; r < rows; ++r) {
    flags[r] = (xs[r] >= lower) & (xs[r] <= upper);
  }
  uint64_t word = 0;
  for (size_t b = 0; b < (rows + 7) / 8; ++b) {
    uint64_t bytes;
    std::memcpy(&bytes, flags + 8 * b, sizeof(bytes));
    word |= ((bytes * 0x0102040810204080ull) >> 56) << (8 * b);
  }
  return word;
}

uint64_t AllRows(size_t rows) {
  return rows == 64 ? ~uint64_t{0} : (uint64_t{1} << rows) - 1;
}

}  // namespace

Status CheckIntervalRows(const IntervalTable& table,
                         const IntervalRows& rows) {
  if (rows.begin.empty() || rows.begin.front() != 0 ||
      rows.begin.back() != rows.ids.size()) {
    return Status::InvalidArgument(StringPrintf(
        "interval rows: begin offsets must run from 0 to the %zu ids",
        rows.ids.size()));
  }
  for (size_t r = 1; r < rows.begin.size(); ++r) {
    if (rows.begin[r] < rows.begin[r - 1]) {
      return Status::InvalidArgument(StringPrintf(
          "interval rows: begin offsets decrease at row %zu", r - 1));
    }
  }
  // Table attributes ascend with the id, so in a strictly ascending row
  // two intervals on one attribute are neighbours.
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::span<const IntervalId> row = rows.row(r);
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i] >= table.size()) {
        return Status::InvalidArgument(StringPrintf(
            "interval rows: row %zu names interval %u of a %zu-interval "
            "table",
            r, row[i], table.size()));
      }
      if (i == 0) continue;
      if (row[i] <= row[i - 1]) {
        return Status::InvalidArgument(StringPrintf(
            "interval rows: row %zu is not strictly ascending", r));
      }
      if (table.attrs()[row[i]] == table.attrs()[row[i - 1]]) {
        return Status::InvalidArgument(StringPrintf(
            "interval rows: row %zu has two intervals on attribute %zu", r,
            table.attrs()[row[i]]));
      }
    }
  }
  return Status::OK();
}

IntervalIndex::IntervalIndex(const IntervalTable& table, size_t num_points,
                             size_t split_rows)
    : table_(table),
      num_points_(num_points),
      split_rows_(std::max<size_t>(1, split_rows)),
      ranges_per_split_((split_rows_ + 63) / 64),
      num_ranges_(num_points / split_rows_ * ranges_per_split_ +
                  (num_points % split_rows_ + 63) / 64) {
  words_.assign(table_.size() * num_ranges_, 0);
  charge_.Set(static_cast<int64_t>(words_.capacity() * sizeof(uint64_t) +
                                   table_.size() * sizeof(Interval)));
}

size_t IntervalIndex::RangeBegin(size_t i) const {
  return i / ranges_per_split_ * split_rows_ + i % ranges_per_split_ * 64;
}

size_t IntervalIndex::RangeRows(size_t i) const {
  const size_t begin = RangeBegin(i);
  const size_t split_end = std::min(
      num_points_, (begin / split_rows_ + 1) * split_rows_);
  return std::min<size_t>(64, split_end - begin);
}

size_t IntervalIndex::RangeStartingAt(size_t row) const {
  const size_t offset = row % split_rows_;
  if (row >= num_points_ || offset % 64 != 0) return num_ranges_;
  return row / split_rows_ * ranges_per_split_ + offset / 64;
}

void IntervalIndex::SetRange(size_t i, std::span<const uint64_t> words) {
  assert(i < num_ranges_ && words.size() == table_.size());
  for (size_t t = 0; t < words.size(); ++t) {
    words_[t * num_ranges_ + i] = words[t];
  }
}

Rssc::Rssc(const std::vector<Signature>& signatures) {
  const IntervalTable table(signatures);
  *this = Rssc(table, *table.Rows(signatures));
}

Rssc::Rssc(const IntervalTable& table, const IntervalRows& rows,
           bool whole_table)
    : num_signatures_(rows.size()) {
  assert(CheckIntervalRows(table, rows).ok());
  // id_of[t]: table entry t's id here, kUnused for an entry not kept.
  // Entries are kept in table order, so attributes ascend with the id and
  // a slot, the attribute's rank in attrs_, is gathered in that order.
  constexpr uint32_t kUnused = UINT32_MAX;
  std::vector<uint32_t> id_of(table.size(), whole_table ? 0 : kUnused);
  for (const IntervalId id : rows.ids) id_of[id] = 0;
  for (size_t t = 0; t < table.size(); ++t) {
    if (id_of[t] == kUnused) continue;
    const Interval& interval = table.interval(static_cast<IntervalId>(t));
    if (attrs_.empty() || attrs_.back() != interval.attr) {
      attrs_.push_back(interval.attr);
    }
    id_of[t] = static_cast<uint32_t>(intervals_.size());
    intervals_.push_back({static_cast<uint32_t>(attrs_.size() - 1),
                          interval.lower, interval.upper});
  }
  sig_begin_ = rows.begin;
  sig_intervals_.reserve(rows.ids.size());
  for (const IntervalId id : rows.ids) sig_intervals_.push_back(id_of[id]);

  index_charge_.Set(static_cast<int64_t>(
      intervals_.capacity() * sizeof(SlotInterval) +
      (sig_begin_.capacity() + sig_intervals_.capacity()) * sizeof(uint32_t) +
      attrs_.capacity() * sizeof(size_t)));
}

void Rssc::IntervalWords(const double* rows, size_t count, size_t dims,
                         double* columns, uint64_t* out,
                         size_t stride) const {
  assert(count <= 64);
  const size_t num_slots = attrs_.size();
  // Gather row by row, so each row's cache lines are read once. A
  // coordinate past the row's end reads as NaN, which lies in no
  // interval, as Signature::Contains rejects an attribute the point
  // does not have.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (size_t r = 0; r < count; ++r) {
    const double* row = rows + r * dims;
    for (size_t s = 0; s < num_slots; ++s) {
      columns[s * 64 + r] = attrs_[s] < dims ? row[attrs_[s]] : kNan;
    }
  }
  for (size_t t = 0; t < intervals_.size(); ++t) {
    const SlotInterval& interval = intervals_[t];
    out[t * stride] = RowsWithin(columns + interval.slot * 64, count,
                                 interval.lower, interval.upper);
  }
}

void Rssc::Members(const double* rows, size_t count, size_t dims,
                   Scratch& scratch, std::span<uint64_t> words) const {
  assert(words.size() == num_signatures_);
  scratch.columns.resize(attrs_.size() * 64);
  scratch.interval_words.resize(intervals_.size());
  IntervalWords(rows, count, dims, scratch.columns.data(),
                scratch.interval_words.data(), 1);
  AndWords(scratch.interval_words.data(), 1, AllRows(count), words);
}

void Rssc::Members(const IntervalIndex& index, size_t range,
                   std::span<uint64_t> words) const {
  assert(words.size() == num_signatures_);
  assert(intervals_.size() == index.num_intervals());
  AndWords(index.words(0) + range, index.num_ranges(),
           AllRows(index.RangeRows(range)), words);
}

void Rssc::AndWords(const uint64_t* base, size_t stride, uint64_t all_rows,
                    std::span<uint64_t> words) const {
  for (size_t j = 0; j < num_signatures_; ++j) {
    // A signature without intervals contains every row.
    uint64_t word = all_rows;
    for (uint32_t i = sig_begin_[j]; i < sig_begin_[j + 1]; ++i) {
      word &= base[sig_intervals_[i] * stride];
    }
    words[j] = word;
  }
}

void Rssc::UniqueMembers(std::span<const uint64_t> words, size_t rows,
                         int32_t* out) {
  uint64_t any = 0;
  uint64_t several = 0;
  for (uint64_t word : words) {
    several |= any & word;
    any |= word;
  }
  for (size_t r = 0; r < rows; ++r) out[r] = (several >> r) & 1 ? -2 : -1;
  for (size_t j = 0; j < words.size(); ++j) {
    for (uint64_t once = words[j] & ~several; once != 0; once &= once - 1) {
      out[std::countr_zero(once)] = static_cast<int32_t>(j);
    }
  }
}

Rssc::Counter::Counter(const Rssc& rssc, std::span<uint64_t> supports)
    : Counter(rssc, nullptr, supports) {}

Rssc::Counter::Counter(const Rssc& rssc, const IntervalIndex& index,
                       std::span<uint64_t> supports)
    : Counter(rssc, &index, supports) {
  assert(rssc.num_intervals() == index.num_intervals());
}

Rssc::Counter::Counter(const Rssc& rssc, const IntervalIndex* index,
                       std::span<uint64_t> supports)
    : rssc_(rssc), index_(index), supports_(supports) {
  if (index == nullptr) {
    words_.resize(rssc.num_intervals() * kChunkWords);
    columns_.resize(rssc.attrs_.size() * 64);
  }
  size_t widest = 0;
  for (size_t j = 0; j < rssc.num_signatures_; ++j) {
    widest = std::max<size_t>(widest,
                              rssc.sig_begin_[j + 1] - rssc.sig_begin_[j]);
  }
  masks_.resize(widest);
  charge_.Set(static_cast<int64_t>(
      words_.capacity() * sizeof(uint64_t) +
      columns_.capacity() * sizeof(double) +
      masks_.capacity() * sizeof(uint64_t*)));
}

void Rssc::Counter::Add(const double* rows, size_t count, size_t dims) {
  assert(index_ == nullptr);
  if (rssc_.num_signatures_ == 0) return;
  for (size_t begin = 0; begin < count; begin += 64) {
    const size_t group = std::min<size_t>(64, count - begin);
    last_word_ = filled_words_;
    rssc_.IntervalWords(rows + begin * dims, group, dims, columns_.data(),
                        words_.data() + last_word_, kChunkWords);
    pending_rows_ += group;
    if (++filled_words_ == kChunkWords) Flush();
  }
}

void Rssc::Counter::LastGroupWords(std::span<uint64_t> out) const {
  assert(out.size() <= rssc_.num_intervals());
  for (size_t t = 0; t < out.size(); ++t) {
    out[t] = words_[t * kChunkWords + last_word_];
  }
}

void Rssc::Counter::AddRange(size_t i) {
  if (rssc_.num_signatures_ == 0) return;
  if (filled_words_ > 0 && i != first_range_ + filled_words_) Flush();
  if (filled_words_ == 0) first_range_ = i;
  ++filled_words_;
  pending_rows_ += index_->RangeRows(i);
}

void Rssc::Counter::Flush() {
  if (filled_words_ == 0) return;
  const kernels::Ops& ops = kernels::Active();
  // Interval t's words start at base + t * stride: the gathered chunk,
  // or the index from the first pending range.
  const uint64_t* base =
      index_ != nullptr ? index_->words(0) + first_range_ : words_.data();
  const size_t stride =
      index_ != nullptr ? index_->num_ranges() : kChunkWords;
  for (size_t j = 0; j < rssc_.num_signatures_; ++j) {
    const uint32_t first = rssc_.sig_begin_[j];
    const size_t num_masks = rssc_.sig_begin_[j + 1] - first;
    if (num_masks == 0) {
      // A signature without intervals contains every row.
      supports_[j] += pending_rows_;
      continue;
    }
    for (size_t i = 0; i < num_masks; ++i) {
      masks_[i] = base + rssc_.sig_intervals_[first + i] * stride;
    }
    supports_[j] += ops.and_popcount(masks_.data(), num_masks, filled_words_);
  }
  filled_words_ = 0;
  pending_rows_ = 0;
}

void Rssc::Counter::Finish() { Flush(); }

}  // namespace p3c::core
