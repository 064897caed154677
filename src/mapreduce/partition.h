#ifndef P3C_MAPREDUCE_PARTITION_H_
#define P3C_MAPREDUCE_PARTITION_H_

// Hadoop-style partitioned shuffle for the in-process engine (DESIGN.md
// §9): a deterministic key hash routes every intermediate key to one of R
// reduce partitions at map-commit time, each partition holds one
// key-sorted run per map task, and one merge pass per partition (a stable
// loser-tree k-way merge) turns those runs into a grouped, contiguous
// value buffer that reducers read zero-copy via std::span. The merge
// depends only on the runs, never on the worker count.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
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

/// Stable k-way merge of key-sorted slices, moving every element into
/// `sink` in key order. Slices must be ordered by run (map-task) index:
/// on equal keys the lower slice wins, so within a key the output is in
/// (run index, in-run order) order. A loser tree picks each element in
/// log2(#slices) comparisons, and the merge writes nothing but its
/// output: no intermediate buffers.
template <typename K, typename V, typename Sink>
void MergeRunsInto(std::span<const std::span<std::pair<K, V>>> slices,
                   Sink&& sink) {
  const size_t m = slices.size();
  if (m == 0) return;
  if (m == 1) {
    for (auto& kv : slices[0]) sink(std::move(kv));
    return;
  }
  using Pair = std::pair<K, V>;
  std::vector<Pair*> head(m);
  std::vector<Pair*> end(m);
  size_t total = 0;
  for (size_t i = 0; i < m; ++i) {
    head[i] = slices[i].data();
    end[i] = slices[i].data() + slices[i].size();
    total += slices[i].size();
  }
  // Leaf m stands for an exhausted slice and loses every match, so the
  // hot comparison never checks for the end of a slice. Equal keys go in
  // slice order.
  const size_t done = m;
  const auto beats = [&head, done](size_t a, size_t b) {
    if (b == done) return a != done;
    if (a == done) return false;
    const K& ka = head[a]->first;
    const K& kb = head[b]->first;
    return ka < kb || (!(kb < ka) && a < b);
  };
  // Heap-shaped tree: leaf i at node m + i, internal nodes 1 .. m-1 keep
  // the loser of their subtree's match.
  std::vector<size_t> loser(m);
  size_t w = 0;
  {
    std::vector<size_t> winner(2 * m);
    for (size_t i = 0; i < m; ++i) {
      winner[m + i] = slices[i].empty() ? done : i;
    }
    for (size_t node = m - 1; node >= 1; --node) {
      const size_t l = winner[2 * node];
      const size_t r = winner[2 * node + 1];
      const bool left_wins = beats(l, r);
      winner[node] = left_wins ? l : r;
      loser[node] = left_wins ? r : l;
    }
    w = winner[1];
  }
  for (size_t n = 0; n < total; ++n) {
    const size_t leaf = w;
    sink(std::move(*head[leaf]));
    if (++head[leaf] == end[leaf]) w = done;
    for (size_t node = (m + leaf) / 2; node >= 1; node /= 2) {
      const size_t l = loser[node];
      if (beats(l, w)) {
        loser[node] = w;
        w = l;
      }
    }
  }
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

  /// Stage 2: merges partition p's runs (in map-task order, so within a
  /// key values keep their (map task, emit order) order) straight into
  /// its MergedPartition, grouping equal keys on the way, and frees the
  /// runs. The grouped buffers are the only memory the merge allocates.
  void MergePartition(size_t p) {
    using Pair = std::pair<K, V>;
    const std::span<std::vector<Pair>> runs =
        std::span(runs_).subspan(p * num_maps_, num_maps_);
    std::vector<std::span<Pair>> slices;
    slices.reserve(num_maps_);
    size_t total = 0;
    for (auto& run : runs) {
      if (!run.empty()) slices.push_back(std::span(run));
      total += run.size();
    }
    MergedPartition<K, V>& out = merged_[p];
    // Every buffer is sized once: growing a large vector frees its old
    // block, and returning that to the kernel stalls the threads merging
    // other partitions. The group buffers shrink to their size after, and
    // are charged then: their reserved tail is never written.
    out.values.reserve(total);
    out.group_keys.reserve(total);
    out.group_offsets.reserve(total + 1);
    shuffle_internal::MergeRunsInto<K, V>(slices, [&out](Pair&& kv) {
      if (out.group_keys.empty() || out.group_keys.back() < kv.first) {
        out.group_offsets.push_back(out.values.size());
        out.group_keys.push_back(std::move(kv.first));
      }
      out.values.push_back(std::move(kv.second));
    });
    out.group_offsets.push_back(out.values.size());
    out.group_keys.shrink_to_fit();
    out.group_offsets.shrink_to_fit();
    merged_charge_.Add(static_cast<int64_t>(
        out.values.capacity() * sizeof(V) +
        out.group_keys.capacity() * sizeof(K) +
        out.group_offsets.capacity() * sizeof(size_t)));
    for (auto& run : runs) run = {};
    runs_charge_.Sub(static_cast<int64_t>(total * sizeof(Pair)));
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
/// replacing the former O(n log n) global sort with one k-way pass.
template <typename K, typename V>
std::vector<std::pair<K, V>> MergeSortedRuns(
    std::vector<std::vector<std::pair<K, V>>> runs) {
  std::vector<std::span<std::pair<K, V>>> slices;
  slices.reserve(runs.size());
  size_t total = 0;
  for (auto& run : runs) {
    if (!run.empty()) slices.push_back(std::span(run));
    total += run.size();
  }
  std::vector<std::pair<K, V>> merged;
  merged.reserve(total);
  shuffle_internal::MergeRunsInto<K, V>(
      slices, [&merged](std::pair<K, V>&& kv) {
        merged.push_back(std::move(kv));
      });
  return merged;
}

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_PARTITION_H_
