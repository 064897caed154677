#ifndef P3C_COMMON_COUNTERS_H_
#define P3C_COMMON_COUNTERS_H_

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace p3c {

/// The three Hadoop-flavored metric kinds a task can report through its
/// counter channel:
///   - kCounter:    monotone uint64 sum ("records skipped").
///   - kGauge:      a level sampled during the task ("peak buffer size").
///                  Merging task-local gauges takes the maximum, the only
///                  order-free combination — so merged gauges are
///                  deterministic for any thread count and merge order.
///   - kHistogram:  value distribution in power-of-two buckets plus
///                  count/sum/min/max ("values per key"). Bucket counts
///                  merge by addition; the double sum is merged in split
///                  order by the engine, keeping it bit-identical across
///                  thread counts.
enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

const char* MetricKindName(MetricKind kind);

/// One named metric value. Plain data with kind-aware merge; equality is
/// structural (used by the exactly-once tests to compare a faulty run
/// against a clean one).
struct Metric {
  /// Power-of-two histogram buckets: bucket i counts observations v with
  /// v <= 2^i (bucket 0: v <= 1), the last bucket is +inf. 32 buckets
  /// cover [1, 2^30] with two overflow levels — enough for record
  /// counts, byte volumes, and group sizes alike.
  static constexpr size_t kNumBuckets = 32;

  MetricKind kind = MetricKind::kCounter;
  uint64_t count = 0;  ///< counter value, or histogram observation count
  double sum = 0.0;    ///< gauge level, or histogram sum
  double min = std::numeric_limits<double>::infinity();   ///< histogram
  double max = -std::numeric_limits<double>::infinity();  ///< histogram
  std::array<uint64_t, kNumBuckets> buckets{};

  /// Bucket index observing `value` lands in.
  static size_t BucketIndex(double value);

  /// Estimated q-quantile (q in [0, 1]) of a histogram: the upper edge
  /// of the power-of-two bucket where the cumulative count crosses
  /// q x count, clamped to the observed [min, max]. Within one power
  /// of two of the true quantile — good enough for the human-readable
  /// summaries; 0.0 for empty histograms and non-histograms.
  [[nodiscard]] double HistogramQuantile(double q) const;

  /// Kind-aware accumulation of `other` into this metric. Merging two
  /// kinds is a programming error; the counter wins and the other value
  /// is dropped (never throws — merges run on engine threads).
  void MergeFrom(const Metric& other);

  bool operator==(const Metric& other) const;
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

  /// Records one observation into the named histogram.
  void Observe(const std::string& name, double value);

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
  /// gauge/histogram.
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
  ///   counters   →  {"kind": "counter", "value": N}
  ///   gauges     →  {"kind": "gauge", "value": X}
  ///   histograms →  {"kind": "histogram", "count": N, "sum": X,
  ///                  "min": X, "max": X, "buckets": [...trimmed...]}
  /// Keys are emitted in map (lexicographic) order, so two bags with
  /// equal contents serialize byte-identically.
  [[nodiscard]] std::string ToJson() const;

  /// Human-readable table, one metric per line. Histograms get
  /// count/p50/p95/max summary columns (quantiles estimated from the
  /// power-of-two buckets) so heartbeat and report output is readable
  /// without JSON tooling. Every line starts with `indent`.
  [[nodiscard]] std::string ToString(const std::string& indent = "") const;

 private:
  std::map<std::string, Metric> values_;
};

}  // namespace p3c

#endif  // P3C_COMMON_COUNTERS_H_
