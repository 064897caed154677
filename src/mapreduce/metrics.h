#ifndef P3C_MAPREDUCE_METRICS_H_
#define P3C_MAPREDUCE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/counters.h"

namespace p3c::mr {

/// Per-job execution statistics. The paper's efficiency arguments (§5.3's
/// Tc heuristic trades extra candidates against saved MR jobs; §7.5.2
/// attributes P3C+-MR's runtime to its larger job count) are quantified
/// through these numbers in `bench/bench_fig7_runtime`.
struct JobMetrics {
  std::string job_name;
  size_t num_splits = 0;
  size_t num_reducers = 0;
  uint64_t input_records = 0;
  uint64_t map_output_records = 0;   ///< records entering the shuffle
  uint64_t shuffle_bytes = 0;        ///< approximate serialized volume
  uint64_t output_records = 0;
  // Fault-tolerance accounting (Hadoop's failed/killed task attempt
  // counters): every map/reduce task of the job runs as one or
  // more attempts; failed attempts leave no side effects and are
  // retried up to RunnerOptions::max_attempts.
  uint64_t task_attempts = 0;   ///< executed task attempts, all kinds
  uint64_t task_failures = 0;   ///< attempts that failed (throw/Status)
  uint64_t retried_tasks = 0;   ///< tasks that needed > 1 attempt
  // Straggler accounting (DESIGN.md §11). Engine kills are counted
  // separately from genuine failures, mirroring Hadoop's FAILED vs
  // KILLED attempt states; deadline_exceeded is the subset of kills
  // caused by RunnerOptions::task_deadline_seconds (the rest are
  // bodies that surfaced CancelledError on their own). Both are 0 on a
  // run whose attempts are never cancelled.
  uint64_t killed_attempts = 0;    ///< attempts cancelled, not failed
  uint64_t deadline_exceeded = 0;  ///< kills caused by the task deadline
  bool succeeded = true;        ///< false: a task exhausted its attempts
  double map_seconds = 0.0;
  double shuffle_seconds = 0.0;
  double reduce_seconds = 0.0;
  double total_seconds = 0.0;
  // Partitioned-shuffle accounting (empty for map-only jobs): per-reduce-
  // partition merge wall time and record count, plus the skew factor
  // max(partition_records) / mean(partition_records) — 1.0 is a perfectly
  // balanced shuffle, num_reducers is the worst case (all records on one
  // partition; Hadoop's "straggling reducer" diagnosis).
  std::vector<double> partition_shuffle_seconds;
  std::vector<uint64_t> partition_records;
  double partition_skew = 0.0;
  /// Snapshot of the job's merged user counters (counter/gauge/
  /// histogram, see src/common/counters.h). Empty for failed jobs —
  /// failed attempts and failed jobs leave no counter side effects.
  MetricBag counters;
};

/// Accumulates the job log of one clustering run.
class MetricsRegistry {
 public:
  void Record(JobMetrics metrics) { jobs_.push_back(std::move(metrics)); }

  [[nodiscard]] const std::vector<JobMetrics>& jobs() const { return jobs_; }
  [[nodiscard]] size_t num_jobs() const { return jobs_.size(); }

  /// Sum of per-job wall times.
  [[nodiscard]] double TotalSeconds() const;
  /// Projected wall time on a cluster whose scheduler costs
  /// `per_job_overhead_seconds` per MR job (Hadoop-style job latencies
  /// are tens of seconds). This is the quantity behind the paper's §5.3
  /// Tc trade-off and the §7.5.2 runtime ordering: with real job
  /// overhead, pipelines with more jobs lose even when their in-process
  /// compute time is comparable.
  double ProjectedSecondsWithOverhead(double per_job_overhead_seconds) const {
    return TotalSeconds() +
           per_job_overhead_seconds * static_cast<double>(jobs_.size());
  }
  /// Sum of shuffle volumes.
  [[nodiscard]] uint64_t TotalShuffleBytes() const;
  /// Sums of the fault-tolerance accounting across jobs: failed task
  /// attempts and tasks that needed more than one attempt. Both are 0
  /// on a fault-free run.
  [[nodiscard]] uint64_t TotalTaskFailures() const;
  [[nodiscard]] uint64_t TotalRetriedTasks() const;
  /// Sums of the straggler accounting across jobs: attempts killed by
  /// cancellation, and the subset of kills caused by the task deadline.
  /// Both 0 when no attempt is cancelled.
  [[nodiscard]] uint64_t TotalKilledAttempts() const;
  [[nodiscard]] uint64_t TotalDeadlineExceeded() const;
  /// Sum of map input records over all jobs — the "I/O workload" proxy:
  /// each input record of each job corresponds to one record read from
  /// the storage system in a real deployment.
  [[nodiscard]] uint64_t TotalInputRecords() const;

  /// Kind-aware aggregation of every successful job's counter snapshot
  /// — equal to the RunnerOptions::counters sink of the same run.
  [[nodiscard]] MetricBag MergedCounters() const;

  /// Multi-line human-readable table of all jobs, including the
  /// fault-tolerance columns (attempts / failures / retried tasks) and
  /// the shuffle skew ("-" for map-only jobs, whose partition vectors
  /// are empty), followed by the merged counters rendered through
  /// MetricBag::ToString (histograms with count/p50/p95/max columns).
  [[nodiscard]] std::string ToString() const;

  /// Machine-readable export of the whole registry: a JSON object with
  /// a "jobs" array (every JobMetrics field including per-job counters
  /// and per-partition vectors), the aggregate totals, and the merged
  /// counters. Counter values are deterministic — byte-identical across
  /// thread counts and under injected faults; timings of course vary.
  /// When `driver` is non-null its bag is emitted under a "driver" key
  /// — the pipeline driver's own gauges (mem.* peaks, RSS samples),
  /// which belong to no single MR job.
  [[nodiscard]] std::string ToJson(const MetricBag* driver = nullptr) const;

  void Clear() { jobs_.clear(); }

 private:
  std::vector<JobMetrics> jobs_;
};

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_METRICS_H_
