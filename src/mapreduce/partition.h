#ifndef P3C_MAPREDUCE_PARTITION_H_
#define P3C_MAPREDUCE_PARTITION_H_

// Hadoop-style partitioned shuffle for the in-process engine (DESIGN.md
// §9, §14): a deterministic key hash routes every intermediate key to one
// of R reduce partitions at map-commit time, each partition holds one
// key-sorted run per map task, and a staged merge (plan -> chunk merges
// -> finalize) turns those runs into a grouped, contiguous value buffer
// that reducers read zero-copy via std::span.
//
// The merge is *chunked*: PlanMerge splits each partition's key range at
// sampled splitter keys into chunks of roughly target_chunk_records
// records, every (partition, chunk) merges independently (a stable
// pairwise ladder of std::merge passes — sequential streaming instead of
// a per-element heap), and FinalizePartition stitches the chunk
// fragments back in key order. Chunk boundaries are lower-bound key
// boundaries, so equal keys never straddle chunks and the merged output
// is byte-identical for every chunk plan. The plan depends only on the
// data and the chunk-size target — never on the worker count — which is
// what keeps shuffle work flat as threads are added (§14's scaling
// postmortem).

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
///      (disjoint slots, lock-free); separated from the merge stages by
///      the map barrier.
///   2. PlanMerge — concurrent for distinct partitions.
///   3. FinishPlan — serial; flattens the per-partition chunk lists.
///   4. MergeChunk — concurrent for distinct chunk ids (every chunk
///      writes only its own fragment).
///   5. ReleaseRuns — serial; all slices have been consumed.
///   6. FinalizePartition — concurrent for distinct partitions.
/// Every stage boundary is a ParallelFor barrier in the runner.
template <typename K, typename V>
class ShuffleBuffers {
 public:
  ShuffleBuffers(size_t num_partitions, size_t num_maps)
      : num_partitions_(std::max<size_t>(1, num_partitions)),
        num_maps_(num_maps),
        runs_(num_partitions_ * num_maps),
        plans_(num_partitions_),
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

  /// Stage 2: splits partition p's merge into chunks of roughly
  /// target_chunk_records records (0 means one chunk). Splitter keys are
  /// sampled run quantiles; slice boundaries are lower_bound positions,
  /// so equal keys land in exactly one chunk and the eventual output is
  /// independent of the chunk plan. Deterministic: a pure function of
  /// the run contents and the target, never of the worker count.
  void PlanMerge(size_t p, size_t target_chunk_records) {
    const std::span<std::vector<std::pair<K, V>>> runs = RunSpan(p);
    PartitionPlan& plan = plans_[p];
    size_t total = 0;
    for (const auto& run : runs) total += run.size();
    size_t num_chunks =
        target_chunk_records == 0
            ? 1
            : std::max<size_t>(1, total / target_chunk_records);
    num_chunks = std::min(num_chunks, std::max<size_t>(1, total));
    plan.fragments.clear();
    plan.fragments.resize(num_chunks);
    plan.bounds.assign((num_chunks + 1) * num_maps_, 0);
    for (size_t m = 0; m < num_maps_; ++m) {
      plan.bounds[num_chunks * num_maps_ + m] = runs[m].size();
    }
    if (num_chunks == 1) return;

    std::vector<K> sample;
    sample.reserve(num_maps_ * (num_chunks - 1));
    for (const auto& run : runs) {
      if (run.empty()) continue;
      for (size_t c = 1; c < num_chunks; ++c) {
        sample.push_back(run[c * run.size() / num_chunks].first);
      }
    }
    std::sort(sample.begin(), sample.end());
    for (size_t c = 1; c < num_chunks; ++c) {
      const K& splitter = sample[c * sample.size() / num_chunks];
      for (size_t m = 0; m < num_maps_; ++m) {
        plan.bounds[c * num_maps_ + m] = static_cast<size_t>(
            std::lower_bound(runs[m].begin(), runs[m].end(), splitter,
                             [](const std::pair<K, V>& kv, const K& key) {
                               return kv.first < key;
                             }) -
            runs[m].begin());
      }
    }
  }

  /// Stage 3: flattens all planned chunks into one global id space
  /// (partition-major, deterministic) and returns the total chunk count.
  size_t FinishPlan() {
    chunk_index_.clear();
    for (size_t p = 0; p < num_partitions_; ++p) {
      for (size_t c = 0; c < plans_[p].fragments.size(); ++c) {
        chunk_index_.emplace_back(static_cast<uint32_t>(p),
                                  static_cast<uint32_t>(c));
      }
    }
    return chunk_index_.size();
  }

  /// Partition owning global chunk id `chunk` (metrics attribution).
  size_t ChunkPartition(size_t chunk) const {
    return chunk_index_[chunk].first;
  }

  /// Stage 4: ladder-merges one chunk's run slices into its fragment.
  void MergeChunk(size_t chunk) {
    const auto [p, c] = chunk_index_[chunk];
    const std::span<std::vector<std::pair<K, V>>> runs = RunSpan(p);
    PartitionPlan& plan = plans_[p];
    const size_t* lo = plan.bounds.data() + size_t{c} * num_maps_;
    const size_t* hi = lo + num_maps_;
    std::vector<std::span<std::pair<K, V>>> slices;
    slices.reserve(num_maps_);
    for (size_t m = 0; m < num_maps_; ++m) {
      if (hi[m] > lo[m]) {
        slices.push_back(
            std::span(runs[m]).subspan(lo[m], hi[m] - lo[m]));
      }
    }
    plan.fragments[c] = shuffle_internal::LadderMergeMove<K, V>(slices);
    merged_charge_.Add(static_cast<int64_t>(plan.fragments[c].size() *
                                            sizeof(std::pair<K, V>)));
  }

  /// Stage 5: frees all run storage (every slice has been moved out).
  void ReleaseRuns() {
    for (auto& run : runs_) run = {};
    runs_charge_.ReleaseAll();
  }

  /// Stage 6: stitches partition p's chunk fragments (already in global
  /// key order) into its MergedPartition, grouping equal keys — the same
  /// grouping scan the former heap merge did inline. Releases fragment
  /// and plan storage as it goes.
  void FinalizePartition(size_t p) {
    PartitionPlan& plan = plans_[p];
    MergedPartition<K, V>& out = merged_[p];
    size_t total = 0;
    for (const auto& fragment : plan.fragments) total += fragment.size();
    out.values.reserve(total);
    for (auto& fragment : plan.fragments) {
      for (auto& kv : fragment) {
        if (out.group_keys.empty() || out.group_keys.back() < kv.first) {
          out.group_offsets.push_back(out.values.size());
          out.group_keys.push_back(std::move(kv.first));
        }
        out.values.push_back(std::move(kv.second));
      }
      fragment = {};
    }
    out.group_offsets.push_back(out.values.size());
    plan = PartitionPlan{};
    // Swap the accounting from chunk fragments to the merged form:
    // charge the MergedPartition's buffers first so the stitch-time
    // overlap registers in the peak, then release the fragment bytes.
    merged_charge_.Add(static_cast<int64_t>(
        out.values.capacity() * sizeof(V) +
        out.group_keys.capacity() * sizeof(K) +
        out.group_offsets.capacity() * sizeof(size_t)));
    merged_charge_.Sub(
        static_cast<int64_t>(total * sizeof(std::pair<K, V>)));
  }

  /// All six stages for partition p, serially — the single-threaded
  /// convenience used by tests that drive ShuffleBuffers directly.
  void MergePartition(size_t p, size_t target_chunk_records = 0) {
    PlanMerge(p, target_chunk_records);
    const std::span<std::vector<std::pair<K, V>>> runs = RunSpan(p);
    PartitionPlan& plan = plans_[p];
    const size_t saved = chunk_index_.size();
    for (size_t c = 0; c < plan.fragments.size(); ++c) {
      chunk_index_.emplace_back(static_cast<uint32_t>(p),
                                static_cast<uint32_t>(c));
      MergeChunk(chunk_index_.size() - 1);
    }
    chunk_index_.resize(saved);
    for (auto& run : runs) run = {};
    FinalizePartition(p);
  }

  /// Merged form of partition p; valid after FinalizePartition(p).
  const MergedPartition<K, V>& partition(size_t p) const {
    return merged_[p];
  }

 private:
  struct PartitionPlan {
    /// (num_chunks + 1) rows of num_maps_ slice-begin indices; row c is
    /// chunk c's per-run begin, row num_chunks holds the run sizes.
    std::vector<size_t> bounds;
    /// Chunk merge outputs, in key order across the vector.
    std::vector<std::vector<std::pair<K, V>>> fragments;
  };

  std::span<std::vector<std::pair<K, V>>> RunSpan(size_t p) {
    return std::span(runs_).subspan(p * num_maps_, num_maps_);
  }

  size_t num_partitions_;
  size_t num_maps_;
  std::vector<std::vector<std::pair<K, V>>> runs_;  ///< [p * num_maps_ + m]
  std::vector<PartitionPlan> plans_;
  std::vector<std::pair<uint32_t, uint32_t>> chunk_index_;
  std::vector<MergedPartition<K, V>> merged_;
  /// Scoped accounting for the two shuffle lifetimes (DESIGN.md §15):
  /// sorted runs (released at ReleaseRuns) and fragments + merged
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
