#ifndef P3C_MAPREDUCE_PARTITION_H_
#define P3C_MAPREDUCE_PARTITION_H_

// Hadoop-style partitioned shuffle for the in-process engine (DESIGN.md
// §9): a deterministic key hash routes every intermediate key to one of R
// reduce partitions at map-commit time, each partition holds one
// key-sorted run per map task, and one merge pass per partition (a stable
// pairwise ladder of std::merge passes — sequential streaming instead of
// a per-element heap) turns those runs into a grouped, contiguous value
// buffer that reducers read zero-copy via std::span. The merge depends
// only on the runs, never on the worker count.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/resource.h"

namespace p3c::mr {

/// splitmix64 finalizer — the engine's standard integer mix (also used by
/// SeededFaultInjector). Deterministic across platforms, unlike
/// std::hash, so partition assignment (and thus per-partition metrics)
/// is reproducible everywhere.
inline uint64_t ShuffleMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a over raw bytes, finalized with ShuffleMix64.
inline uint64_t ShuffleHashBytes(const char* data, size_t len) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * 1099511628211ull;
  }
  return ShuffleMix64(h);
}

/// Deterministic key hash behind shuffle routing: key k goes to
/// partition ShuffleKeyHash(k) % R. Overload for new key types.
template <typename K>
  requires std::is_integral_v<K> || std::is_enum_v<K>
uint64_t ShuffleKeyHash(const K& key) {
  return ShuffleMix64(static_cast<uint64_t>(key));
}

inline uint64_t ShuffleKeyHash(const std::string& key) {
  return ShuffleHashBytes(key.data(), key.size());
}

inline uint64_t ShuffleKeyHash(double key) {
  return ShuffleMix64(std::bit_cast<uint64_t>(key));
}

inline uint64_t ShuffleKeyHash(float key) {
  return ShuffleMix64(std::bit_cast<uint32_t>(key));
}

/// One merged shuffle partition: sorted group keys over a contiguous
/// value buffer. Group g owns values [group_offsets[g],
/// group_offsets[g+1]); reducers read them through group_values() as
/// immutable spans, which is what makes reduce attempts retryable
/// without copying.
template <typename K, typename V>
struct MergedPartition {
  std::vector<K> group_keys;
  std::vector<size_t> group_offsets;  ///< size num_groups()+1 once merged
  std::vector<V> values;

  size_t num_groups() const { return group_keys.size(); }
  const K& key(size_t g) const { return group_keys[g]; }
  std::span<const V> group_values(size_t g) const {
    return std::span<const V>(values).subspan(
        group_offsets[g], group_offsets[g + 1] - group_offsets[g]);
  }
};

namespace shuffle_internal {

/// Stable pairwise-ladder merge of key-sorted slices into one key-sorted
/// vector, moving elements out of the slices. Slices must be ordered by
/// run (map-task) index: std::merge keeps first-range elements first on
/// equal keys and adjacent pairing preserves slice order across rounds,
/// so within a key the result is in (run index, in-run order) order —
/// the same tie-break the former per-element k-way heap produced, at
/// sequential-streaming cost (log2(#slices) linear passes).
template <typename K, typename V>
std::vector<std::pair<K, V>> LadderMergeMove(
    std::span<const std::span<std::pair<K, V>>> slices) {
  using Pair = std::pair<K, V>;
  const auto key_less = [](const Pair& a, const Pair& b) {
    return a.first < b.first;
  };
  const auto merge_two = [&key_less](auto first1, auto last1, auto first2,
                                     auto last2, size_t total) {
    std::vector<Pair> merged;
    // Elements move out of the already-charged runs, so the ladder's
    // transient peak is bounded by the run bytes runs_charge_ reports
    // (DESIGN.md §15).
    merged.reserve(total);
    std::merge(std::move_iterator(first1), std::move_iterator(last1),
               std::move_iterator(first2), std::move_iterator(last2),
               std::back_inserter(merged), key_less);
    return merged;
  };

  std::vector<std::vector<Pair>> level;
  level.reserve(slices.size() / 2 + 1);
  for (size_t i = 0; i + 1 < slices.size(); i += 2) {
    level.push_back(merge_two(slices[i].begin(), slices[i].end(),
                              slices[i + 1].begin(), slices[i + 1].end(),
                              slices[i].size() + slices[i + 1].size()));
  }
  if (slices.size() % 2 == 1) {
    const std::span<Pair> last = slices.back();
    std::vector<Pair> tail;
    tail.reserve(last.size());
    std::move(last.begin(), last.end(), std::back_inserter(tail));
    level.push_back(std::move(tail));
  }
  if (level.empty()) return {};
  while (level.size() > 1) {
    std::vector<std::vector<Pair>> next;
    next.reserve(level.size() / 2 + 1);
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(merge_two(level[i].begin(), level[i].end(),
                               level[i + 1].begin(), level[i + 1].end(),
                               level[i].size() + level[i + 1].size()));
      level[i] = {};
      level[i + 1] = {};
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return std::move(level.front());
}

}  // namespace shuffle_internal

/// Partitioned shuffle buffers of one job: num_partitions × num_maps
/// key-sorted runs plus their merged form.
///
/// Stage protocol (the engine's shuffle phase):
///   1. CommitMapOutput — concurrent for distinct map_index values
///      (disjoint slots, lock-free); separated from the merge by the map
///      barrier.
///   2. MergePartition — concurrent for distinct partitions.
template <typename K, typename V>
class ShuffleBuffers {
 public:
  ShuffleBuffers(size_t num_partitions, size_t num_maps)
      : num_partitions_(std::max<size_t>(1, num_partitions)),
        num_maps_(num_maps),
        runs_(num_partitions_ * num_maps),
        merged_(num_partitions_) {}

  size_t num_partitions() const { return num_partitions_; }

  /// Routes one committed map task's output into per-partition sorted
  /// runs, key k to partition ShuffleKeyHash(k) % num_partitions. Equal
  /// keys share a partition, which grouping depends on. Buckets are
  /// reserved at their exact final size — the map-commit path does no
  /// growth reallocation. The per-key emit order of the map task
  /// survives: the scatter keeps emission order and the sort is stable.
  void CommitMapOutput(size_t map_index, std::vector<std::pair<K, V>> pairs) {
    const size_t committed_pairs = pairs.size();
    std::vector<std::vector<std::pair<K, V>>> buckets(num_partitions_);
    if (num_partitions_ == 1) {
      buckets[0] = std::move(pairs);
    } else {
      std::vector<uint32_t> route(pairs.size());
      std::vector<size_t> counts(num_partitions_, 0);
      for (size_t i = 0; i < pairs.size(); ++i) {
        const auto p = static_cast<uint32_t>(ShuffleKeyHash(pairs[i].first) %
                                             num_partitions_);
        route[i] = p;
        ++counts[p];
      }
      for (size_t p = 0; p < num_partitions_; ++p) {
        buckets[p].reserve(counts[p]);
      }
      for (size_t i = 0; i < pairs.size(); ++i) {
        buckets[route[i]].push_back(std::move(pairs[i]));
      }
    }
    for (auto& bucket : buckets) {
      std::stable_sort(
          bucket.begin(), bucket.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    for (size_t p = 0; p < num_partitions_; ++p) {
      runs_[p * num_maps_ + map_index] = std::move(buckets[p]);
    }
    // Top-level run bytes (DESIGN.md §15: shallow accounting — element
    // payloads behind pointers show up in the RSS drift gauge instead).
    runs_charge_.Add(static_cast<int64_t>(committed_pairs *
                                          sizeof(std::pair<K, V>)));
  }

  /// Stage 2: ladder-merges partition p's runs (in map-task order, so
  /// within a key values keep their (map task, emit order) order) and
  /// groups equal keys into its MergedPartition, freeing the runs once
  /// they are merged.
  void MergePartition(size_t p) {
    using Pair = std::pair<K, V>;
    const std::span<std::vector<Pair>> runs =
        std::span(runs_).subspan(p * num_maps_, num_maps_);
    std::vector<std::span<Pair>> slices;
    slices.reserve(num_maps_);
    for (auto& run : runs) {
      if (!run.empty()) slices.push_back(std::span(run));
    }
    std::vector<Pair> merged = shuffle_internal::LadderMergeMove<K, V>(slices);
    const auto merged_bytes =
        static_cast<int64_t>(merged.size() * sizeof(Pair));
    merged_charge_.Add(merged_bytes);
    for (auto& run : runs) run = {};
    runs_charge_.Sub(merged_bytes);

    MergedPartition<K, V>& out = merged_[p];
    out.values.reserve(merged.size());
    for (auto& kv : merged) {
      if (out.group_keys.empty() || out.group_keys.back() < kv.first) {
        out.group_offsets.push_back(out.values.size());
        out.group_keys.push_back(std::move(kv.first));
      }
      out.values.push_back(std::move(kv.second));
    }
    out.group_offsets.push_back(out.values.size());
    // Swap the accounting from the merged pairs to the grouped form:
    // charge the MergedPartition's buffers first so the grouping-time
    // overlap registers in the peak, then release the pair bytes.
    merged_charge_.Add(static_cast<int64_t>(
        out.values.capacity() * sizeof(V) +
        out.group_keys.capacity() * sizeof(K) +
        out.group_offsets.capacity() * sizeof(size_t)));
    merged_charge_.Sub(merged_bytes);
  }

  /// Merged form of partition p; valid after MergePartition(p).
  const MergedPartition<K, V>& partition(size_t p) const {
    return merged_[p];
  }

 private:
  size_t num_partitions_;
  size_t num_maps_;
  std::vector<std::vector<std::pair<K, V>>> runs_;  ///< [p * num_maps_ + m]
  std::vector<MergedPartition<K, V>> merged_;
  /// Scoped accounting for the two shuffle lifetimes (DESIGN.md §15):
  /// sorted runs (released as each partition merges) and merged
  /// partitions (released when the buffers die with the job). Their
  /// destructors balance whatever is still outstanding.
  resource::ArenaCharge runs_charge_{resource::MemScope::kShuffleRuns};
  resource::ArenaCharge merged_charge_{resource::MemScope::kShuffleMerged};
};

/// Merge of key-sorted pair runs into one sorted vector (ties break
/// toward the lower run index). The map-only shuffle: per-split runs are
/// sorted in parallel at map-commit time and only the merge is left,
/// replacing the former O(n log n) global sort with log2(M) sequential
/// std::merge passes.
template <typename K, typename V>
std::vector<std::pair<K, V>> MergeSortedRuns(
    std::vector<std::vector<std::pair<K, V>>> runs) {
  std::vector<std::span<std::pair<K, V>>> slices;
  slices.reserve(runs.size());
  for (auto& run : runs) {
    if (!run.empty()) slices.push_back(std::span(run));
  }
  return shuffle_internal::LadderMergeMove<K, V>(slices);
}

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_PARTITION_H_
