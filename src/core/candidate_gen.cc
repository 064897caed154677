#include "src/core/candidate_gen.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace p3c::core {

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
  for (uint32_t r = 0; r < k; ++r) {
    for (uint32_t s = 0; s < p; ++s) entries.push_back({r, s});
  }
  // Key column i of an entry: its row's IDs with position `skip` removed.
  const auto key_at = [&base, p](const BucketEntry& e, size_t i) {
    return base.ids[e.row * p + i + (i >= e.skip ? 1 : 0)];
  };
  RadixSort(entries, p - 1, attr_of.size(), key_at);
  const auto same_key = [&](const BucketEntry& a, const BucketEntry& b) {
    size_t i = 0;
    while (i + 1 < p && key_at(a, i) == key_at(b, i)) ++i;
    return i + 1 >= p;
  };
  // Bucket j holds the entries [start[j], start[j + 1]) in row order.
  // Entry e leaves odd[e] out of its row; bucket_of[r * p + s] is the
  // bucket of row r without position s; copy[r] marks a row equal to an
  // earlier row.
  std::vector<uint32_t> start;
  std::vector<IntervalId> odd(k * p);
  std::vector<uint32_t> bucket_of(k * p);
  std::vector<char> copy(k, 0);
  // An entry pairs with the earlier entries of its bucket. `no_join`
  // counts the pairs whose odd intervals share an attribute: copies of
  // one row, or rows that do not join.
  uint64_t pairs = 0;
  uint64_t no_join = 0;
  std::vector<uint32_t> odd_in(attr_of.size(), UINT32_MAX);
  // Per attribute: the bucket last met in, and its entries there so far.
  std::vector<std::pair<uint32_t, uint32_t>> on_attr(
      *std::max_element(attr_of.begin(), attr_of.end()) + 1, {UINT32_MAX, 0});
  for (size_t e = 0; e < k * p; ++e) {
    const BucketEntry& entry = entries[e];
    if (e == 0 || !same_key(entries[e - 1], entry)) {
      start.push_back(static_cast<uint32_t>(e));
    }
    const auto bucket = static_cast<uint32_t>(start.size() - 1);
    odd[e] = base.ids[entry.row * p + entry.skip];
    bucket_of[entry.row * p + entry.skip] = bucket;
    pairs += e - start.back();
    // Entries are in row order, so a row is a copy when an earlier entry
    // of its bucket has the same odd interval.
    if (odd_in[odd[e]] == bucket) copy[entry.row] = 1;
    odd_in[odd[e]] = bucket;
    auto& [in, entries_on] = on_attr[attr_of[odd[e]]];
    if (in != bucket) entries_on = 0;
    in = bucket;
    no_join += entries_on++;
  }
  start.push_back(static_cast<uint32_t>(k * p));

  // ---- Scan: each candidate from one row --------------------------------
  // Row X builds X ∪ {b} when b is the largest interval whose removal
  // leaves a p-subset in the base. Bucket s of X offers each b with
  // X \ {X[s]} ∪ {b} in the base (b on X[s]'s attribute joins nothing).
  // Going down from s = p - 1, the buckets whose X[s] exceeds b rule b
  // out before one whose X[s] is below b can build X ∪ {b}.
  const auto scan_rows = [&](size_t begin, size_t end,
                             std::vector<IntervalId>& rows) {
    // met[b] = 1 + the last row that built X ∪ {b} or ruled it out.
    std::vector<uint32_t> met(attr_of.size(), 0);
    for (size_t x = begin; x < end; ++x) {
      if (copy[x] != 0) continue;
      const std::span<const IntervalId> row = base.row(x);
      const auto stamp = static_cast<uint32_t>(x + 1);
      for (size_t s = p; s-- > 0;) {
        const size_t own_attr = attr_of[row[s]];
        const uint32_t j = bucket_of[x * p + s];
        for (uint32_t e = start[j]; e < start[j + 1]; ++e) {
          const IntervalId b = odd[e];
          if (attr_of[b] == own_attr || met[b] == stamp) continue;
          met[b] = stamp;
          if (b < row[s]) continue;
          // X ∪ {b} is `row` with b inserted in ID order.
          const auto pos = std::lower_bound(row.begin() + s, row.end(), b);
          rows.insert(rows.end(), row.begin(), pos);
          rows.push_back(b);
          rows.insert(rows.end(), pos, row.end());
        }
      }
    }
  };
  // In parallel, m = ceil(c / Tgen) "mappers" each scan a range of rows;
  // no candidate comes from two of them.
  const bool parallel = pool != nullptr && pairs > t_gen;
  const size_t num_tasks =
      parallel ? static_cast<size_t>(std::min<uint64_t>(
                     {(pairs + t_gen - 1) / t_gen, pool->num_threads() * 8, k}))
               : 1;
  std::vector<std::vector<IntervalId>> partials(num_tasks);
  const auto scan = [&](size_t t) {
    scan_rows(k * t / num_tasks, k * (t + 1) / num_tasks, partials[t]);
  };
  if (parallel) {
    pool->ParallelFor(num_tasks, scan);
  } else {
    scan(0);
  }

  // ---- Emit in canonical order ------------------------------------------
  const size_t q = p + 1;
  std::vector<IntervalId> rows = std::move(partials[0]);
  for (size_t t = 1; t < partials.size(); ++t) {
    rows.insert(rows.end(), partials[t].begin(), partials[t].end());
  }
  std::vector<uint32_t> order(rows.size() / q);
  std::iota(order.begin(), order.end(), 0);
  // Every joining pair builds a candidate; the pairs beyond each
  // candidate's first are the duplicates.
  if (stats != nullptr) {
    *stats = {pairs, parallel, pairs - no_join - order.size()};
  }
  RadixSort(order, q, attr_of.size(), [&rows, q](uint32_t r, size_t col) {
    return rows[r * q + col];
  });
  out.ids.reserve(rows.size());
  for (const uint32_t r : order) {
    out.ids.insert(out.ids.end(), rows.begin() + r * q,
                   rows.begin() + (r + 1) * q);
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
