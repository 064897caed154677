#ifndef P3C_MAPREDUCE_JOB_H_
#define P3C_MAPREDUCE_JOB_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/mapreduce/counters.h"

namespace p3c::mr {

/// Sink for intermediate (key, value) pairs plus the task-local counter
/// channel. One Emitter instance exists per mapper task *attempt*; it is
/// not shared between threads. If the attempt fails, the emitter —
/// records, counters, byte accounting — is discarded and the retry gets
/// a fresh one, which is what makes task side effects exactly-once.
template <typename K, typename V>
class Emitter {
 public:
  virtual ~Emitter() = default;

  /// Emits one intermediate pair into the shuffle.
  virtual void Emit(K key, V value) = 0;

  /// Task-local counters, merged by the runner after the task finishes.
  virtual Counters& counters() = 0;
};

/// User map task over records of type `Record`, emitting (K, V).
///
/// `Setup` receives the whole split before the per-record calls — the hook
/// the MVB job uses to cache its split (§5.5) — and `Cleanup` runs after
/// the last record, which is where split-level aggregates (per-split
/// medians, per-split histograms) are emitted.
///
/// Retry contract (Hadoop task attempts): a fresh instance runs per
/// attempt over the same immutable split, so mappers may fail (throw or
/// leave partial emissions) without corrupting the job — but must not
/// mutate state outside themselves and their emitter.
template <typename Record, typename K, typename V>
class Mapper {
 public:
  virtual ~Mapper() = default;

  virtual void Setup(size_t split_index, std::span<const Record> split,
                     Emitter<K, V>& out) {
    (void)split_index;
    (void)split;
    (void)out;
  }

  virtual void Map(const Record& record, Emitter<K, V>& out) = 0;

  virtual void Cleanup(Emitter<K, V>& out) { (void)out; }
};

/// User reduce task: receives one key with all of its shuffled values and
/// appends output records.
///
/// `values` is a read-only view into the engine's merged partition
/// buffer (zero-copy shuffle): it is valid only for the duration of the
/// call and must not be retained. Because the view is immutable, a
/// failed reduce attempt cannot corrupt the shuffled input — retries
/// re-read the same spans.
template <typename K, typename V, typename Out>
class Reducer {
 public:
  virtual ~Reducer() = default;

  virtual void Reduce(const K& key, std::span<const V> values,
                      std::vector<Out>& out) = 0;
};

/// Approximate serialized size of a shuffled pair, used for the
/// shuffle-volume accounting in JobMetrics. Specialize/overload for
/// dynamically sized values.
template <typename T>
size_t SerializedSize(const T& value) {
  (void)value;
  return sizeof(T);
}

template <typename T>
size_t SerializedSize(const std::vector<T>& value) {
  return sizeof(size_t) + value.size() * sizeof(T);
}

inline size_t SerializedSize(const std::string& value) {
  return sizeof(size_t) + value.size();
}

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_JOB_H_
