#include "src/core/candidate_gen.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace p3c::core {

size_t IdSignatureSet::Slot(std::span<const IntervalId> key) const {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const IntervalId id : key) {
    h = (h ^ id) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  }
  return static_cast<size_t>(h) & (slots_.size() - 1);
}

uint32_t IdSignatureSet::Find(std::span<const IntervalId> key) const {
  if (slots_.empty()) return kMissing;
  const size_t mask = slots_.size() - 1;
  for (size_t s = Slot(key);; s = (s + 1) & mask) {
    const uint32_t entry = slots_[s];
    if (entry == 0) return kMissing;
    if (std::ranges::equal(row(entry - 1), key)) return entry - 1;
  }
}

std::pair<uint32_t, bool> IdSignatureSet::Insert(
    std::span<const IntervalId> key) {
  if (2 * (num_rows_ + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const size_t mask = slots_.size() - 1;
  size_t s = Slot(key);
  for (; slots_[s] != 0; s = (s + 1) & mask) {
    if (std::ranges::equal(row(slots_[s] - 1), key)) {
      return {slots_[s] - 1, false};
    }
  }
  const auto r = static_cast<uint32_t>(num_rows_++);
  ids_.insert(ids_.end(), key.begin(), key.end());
  slots_[s] = r + 1;
  return {r, true};
}

void IdSignatureSet::Reserve(size_t rows) {
  ids_.reserve(rows * p_);
  if (2 * rows > slots_.size()) Rehash(std::bit_ceil(2 * rows));
}

void IdSignatureSet::Rehash(size_t num_slots) {
  slots_.assign(num_slots, 0);
  const size_t mask = num_slots - 1;
  for (size_t r = 0; r < num_rows_; ++r) {
    size_t s = Slot(row(r));
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(r + 1);
  }
}

namespace {

/// One base row in the bucket of the (p-1)-subset that leaves out the
/// row's interval at `skip`.
struct BucketEntry {
  uint32_t row;
  uint32_t skip;
};

/// Stable LSD radix sort of `items` by the key columns
/// key_at(item, 0 .. width-1), each in [0, radix): lexicographic order
/// of the keys, ties in input order. Interned IDs are small, so this is
/// linear where a comparison sort of rows is not.
template <typename T, typename KeyAt>
void RadixSort(std::vector<T>& items, size_t width, size_t radix,
               const KeyAt& key_at) {
  std::vector<T> sorted(items.size());
  std::vector<size_t> start(radix + 1);
  for (size_t col = width; col-- > 0;) {
    std::fill(start.begin(), start.end(), 0);
    for (const T& item : items) ++start[key_at(item, col) + 1];
    for (size_t b = 1; b <= radix; ++b) start[b] += start[b - 1];
    for (const T& item : items) sorted[start[key_at(item, col)]++] = item;
    items.swap(sorted);
  }
}

/// Joins every entry in [begin, end) with the later entries of its
/// bucket, appending the (p+1)-rows to `out`.
void JoinEntries(const IdRows& base, std::span<const size_t> attr_of,
                 const std::vector<BucketEntry>& entries,
                 const std::vector<uint32_t>& bucket_end, size_t begin,
                 size_t end, std::vector<IntervalId>& out) {
  const size_t p = base.p;
  for (size_t x = begin; x < end; ++x) {
    const std::span<const IntervalId> row = base.row(entries[x].row);
    const size_t left_attr = attr_of[row[entries[x].skip]];
    for (size_t y = x + 1; y < bucket_end[x]; ++y) {
      const IntervalId right = base.row(entries[y].row)[entries[y].skip];
      if (attr_of[right] == left_attr) continue;
      // The union is `row` with `right` inserted in ID order.
      const size_t pos = static_cast<size_t>(
          std::lower_bound(row.begin(), row.end(), right) - row.begin());
      out.insert(out.end(), row.begin(), row.begin() + pos);
      out.push_back(right);
      out.insert(out.end(), row.begin() + pos, row.begin() + p);
    }
  }
}

}  // namespace

IdRows GenerateCandidateRows(const IdRows& base,
                             std::span<const size_t> attr_of,
                             ThreadPool* pool, size_t t_gen,
                             CandidateGenStats* stats) {
  if (stats != nullptr) *stats = CandidateGenStats{};
  const size_t p = base.p;
  const size_t k = base.size();
  IdRows out;
  out.p = p + 1;
  if (k < 2) return out;

  // ---- Buckets: entries sorted by their (p-1)-subset key --------------
  std::vector<BucketEntry> entries;
  entries.reserve(k * p);
  for (size_t r = 0; r < k; ++r) {
    for (size_t s = 0; s < p; ++s) {
      entries.push_back(
          {static_cast<uint32_t>(r), static_cast<uint32_t>(s)});
    }
  }
  // Key column i of an entry: its row's IDs with position `skip` removed.
  const auto key_at = [&base, p](const BucketEntry& e, size_t i) {
    return base.ids[e.row * p + i + (i >= e.skip ? 1 : 0)];
  };
  RadixSort(entries, p - 1, attr_of.size(), key_at);
  std::vector<uint32_t> bucket_end(entries.size());
  uint64_t pairs = 0;
  for (size_t b = 0; b < entries.size();) {
    size_t e = b + 1;
    while (e < entries.size()) {
      size_t i = 0;
      while (i + 1 < p && key_at(entries[b], i) == key_at(entries[e], i)) ++i;
      if (i + 1 < p) break;
      ++e;
    }
    for (size_t x = b; x < e; ++x) bucket_end[x] = static_cast<uint32_t>(e);
    pairs += static_cast<uint64_t>(e - b) * (e - b - 1) / 2;
    b = e;
  }

  // ---- Join within buckets ----------------------------------------------
  const bool parallel = pool != nullptr && pairs > t_gen;
  if (stats != nullptr) {
    stats->num_pairs = pairs;
    stats->parallel = parallel;
  }
  std::vector<std::vector<IntervalId>> partials;
  if (!parallel) {
    partials.resize(1);
    JoinEntries(base, attr_of, entries, bucket_end, 0, entries.size(),
                partials[0]);
  } else {
    // m = ceil(c / Tgen) "mappers", each owning a contiguous entry range
    // of about c / m pairs.
    const size_t num_tasks = static_cast<size_t>(std::min<uint64_t>(
        (pairs + t_gen - 1) / t_gen, pool->num_threads() * 8));
    std::vector<size_t> bounds = {0};
    uint64_t seen = 0;
    for (size_t x = 0; x < entries.size(); ++x) {
      seen += bucket_end[x] - x - 1;
      if (seen * num_tasks >= pairs * bounds.size() &&
          bounds.size() < num_tasks) {
        bounds.push_back(x + 1);
      }
    }
    bounds.push_back(entries.size());
    partials.resize(bounds.size() - 1);
    pool->ParallelFor(partials.size(), [&](size_t t) {
      JoinEntries(base, attr_of, entries, bucket_end, bounds[t],
                  bounds[t + 1], partials[t]);
    });
  }

  // ---- Collector: drop duplicates, emit in canonical order -------------
  const size_t q = p + 1;
  size_t raw = 0;
  for (const std::vector<IntervalId>& part : partials) raw += part.size() / q;
  IdSignatureSet unique(q);
  unique.Reserve(raw);
  for (const std::vector<IntervalId>& part : partials) {
    for (size_t i = 0; i < part.size(); i += q) {
      unique.Insert(std::span(part).subspan(i, q));
    }
  }
  if (stats != nullptr) stats->num_duplicates = raw - unique.size();
  std::vector<uint32_t> order(unique.size());
  for (size_t r = 0; r < order.size(); ++r) {
    order[r] = static_cast<uint32_t>(r);
  }
  RadixSort(order, q, attr_of.size(), [&unique](uint32_t r, size_t col) {
    return unique.row(r)[col];
  });
  out.ids.reserve(order.size() * q);
  for (const uint32_t r : order) {
    const std::span<const IntervalId> row = unique.row(r);
    out.ids.insert(out.ids.end(), row.begin(), row.end());
  }
  return out;
}

std::vector<Signature> GenerateCandidates(const std::vector<Signature>& base,
                                          ThreadPool* pool, size_t t_gen,
                                          CandidateGenStats* stats) {
  const IntervalTable table(base);
  IdRows rows;
  rows.p = base.empty() ? 0 : base.front().size();
  rows.ids = std::move(table.Rows(base)->ids);
  assert(rows.ids.size() == base.size() * rows.p);
  const IdRows joined =
      GenerateCandidateRows(rows, table.attrs(), pool, t_gen, stats);
  std::vector<Signature> out;
  out.reserve(joined.size());
  for (size_t r = 0; r < joined.size(); ++r) {
    out.push_back(table.ToSignature(joined.row(r)));
  }
  return out;
}

}  // namespace p3c::core
