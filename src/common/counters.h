#ifndef P3C_COMMON_COUNTERS_H_
#define P3C_COMMON_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>

namespace p3c {

/// The two Hadoop-flavored metric kinds a task can report through its
/// counter channel:
///   - kCounter:  monotone uint64 sum ("records skipped").
///   - kGauge:    a level sampled during the task ("peak buffer size").
///                Merging task-local gauges takes the maximum, the only
///                order-free combination — so merged gauges are
///                deterministic for any thread count and merge order.
enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1 };

/// One named metric value. Plain data with kind-aware merge; equality is
/// structural (used by the exactly-once tests to compare a faulty run
/// against a clean one).
struct Metric {
  MetricKind kind = MetricKind::kCounter;
  uint64_t count = 0;  ///< counter value
  double sum = 0.0;    ///< gauge level

  /// Kind-aware accumulation of `other` into this metric. Merging two
  /// kinds is a programming error; this metric is kept and the other
  /// value dropped (never throws — merges run on engine threads).
  void MergeFrom(const Metric& other);

  bool operator==(const Metric& other) const {
    return kind == other.kind && count == other.count && sum == other.sum;
  }
};

/// A name → Metric map with the task-local accumulation API. Not
/// thread-safe, and it needs no lock: every bag has one owner. A task
/// attempt owns its emitter's bag; the engine merges the committed bags
/// on the job thread, in split order, into the job's JobMetrics row; the
/// job log (mr::MetricsRegistry) folds the rows into the run's counters.
class MetricBag {
 public:
  /// Adds `delta` to the named counter.
  void Increment(const std::string& name, uint64_t delta = 1) {
    Metric& m = values_[name];
    m.kind = MetricKind::kCounter;
    m.count += delta;
  }

  /// Sets the named gauge to `value` (last write wins inside a task;
  /// cross-task merge takes the max).
  void SetGauge(const std::string& name, double value) {
    Metric& m = values_[name];
    m.kind = MetricKind::kGauge;
    m.sum = value;
  }

  /// Installs `metric` under `name` wholesale, replacing any previous
  /// value. Deserialization hook (checkpoint restore rebuilds bags from
  /// persisted Metric structs); the accumulation API above remains the
  /// path for live updates.
  void Set(const std::string& name, const Metric& metric) {
    values_[name] = metric;
  }

  /// Counter value; 0 for unknown names and non-counters.
  [[nodiscard]] uint64_t Get(const std::string& name) const;
  /// Gauge level; 0.0 for unknown names and non-gauges.
  [[nodiscard]] double GetGauge(const std::string& name) const;
  /// Full metric, or nullptr when the name is unknown.
  [[nodiscard]] const Metric* Find(const std::string& name) const;

  /// Kind-aware accumulation of every metric of `other`. Names absent
  /// here are copied wholesale — operator[] would default-construct a
  /// counter and the kind-mismatch rule would then drop the incoming
  /// gauge.
  void MergeFrom(const MetricBag& other) {
    for (const auto& [name, metric] : other.values_) {
      auto [it, inserted] = values_.try_emplace(name, metric);
      if (!inserted) it->second.MergeFrom(metric);
    }
  }

  [[nodiscard]] const std::map<std::string, Metric>& values() const {
    return values_;
  }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  void Clear() { values_.clear(); }

  /// JSON object mapping each name to its metric:
  ///   counters →  {"kind": "counter", "value": N}
  ///   gauges   →  {"kind": "gauge", "value": X}
  /// Keys are emitted in map (lexicographic) order, so two bags with
  /// equal contents serialize byte-identically.
  [[nodiscard]] std::string ToJson() const;

  /// Human-readable table, one metric per line: name, kind, value.
  /// Every line starts with `indent`.
  [[nodiscard]] std::string ToString(const std::string& indent = "") const;

 private:
  std::map<std::string, Metric> values_;
};

}  // namespace p3c

#endif  // P3C_COMMON_COUNTERS_H_
