#ifndef P3C_MAPREDUCE_JOB_H_
#define P3C_MAPREDUCE_JOB_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/common/counters.h"

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
  virtual MetricBag& counters() = 0;
};

/// A range of consecutive input records [begin, end). Map input is a
/// record count: a record is its index, and a mapper reads the rows it
/// names from the job's own read-only payload (for the P3C+ jobs, the
/// dataset behind the job-config pointer).
struct RecordRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// Most records one Map call sees. The engine polls the attempt's
/// cancellation token between ranges, so this is also the watchdog's kill
/// granularity for a mapper that never emits.
inline constexpr size_t kMapRangeRecords = 64;

/// User map task emitting (K, V).
///
/// The engine calls `Map` over consecutive ranges of the task's split, in
/// ascending order, each at most kMapRangeRecords long, together covering
/// the split exactly. `Cleanup` runs after the last range, which is where
/// split-level aggregates (per-split medians, per-split histograms) are
/// emitted — the in-mapper combining of Eq. 8.
///
/// Retry contract (Hadoop task attempts): a fresh instance runs per
/// attempt over the same immutable split, so mappers may fail (throw or
/// leave partial emissions) without corrupting the job — but must not
/// mutate state outside themselves and their emitter.
template <typename K, typename V>
class Mapper {
 public:
  virtual ~Mapper() = default;

  virtual void Map(RecordRange rows, Emitter<K, V>& out) = 0;

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
