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
  /// Pipeline phase the job ran under: the name of its `phase:*` trace
  /// span and `mem.phase.*` memory window, stamped by the P3C+-MR
  /// driver. Empty for jobs run outside a pipeline.
  std::string phase;
  size_t num_splits = 0;
  size_t num_reducers = 0;
  uint64_t input_records = 0;
  uint64_t map_output_records = 0;   ///< records entering the shuffle
  uint64_t shuffle_bytes = 0;        ///< approximate serialized volume
  /// Largest serialized emit volume of one map task: the task-footprint
  /// gauge of a run with the memory tracker on, 0 with it off. It sits
  /// on the job row, not in `counters`, so the counter JSON does not
  /// depend on whether memory was tracked.
  uint64_t task_peak_bytes = 0;
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
  /// Snapshot of the job's merged user counters (counters and gauges,
  /// see src/common/counters.h). Empty for failed jobs —
  /// failed attempts and failed jobs leave no counter side effects.
  MetricBag counters;
};

/// Accumulates the job log of one clustering run — the run's one record
/// of its MR jobs and their counters.
///
/// A pipeline driver adds two things to its own MetricBag, which the
/// renderers below read when handed it: `phase.<name>.wall_seconds`
/// gauges (the summed wall time of every run of a phase) and a
/// `call.wall_seconds` gauge (the whole call). From them and the jobs'
/// `phase` stamps the renderers build the phase table, and report the
/// call's wall time that no phase covers as `unphased_seconds`.
class MetricsRegistry {
 public:
  void Record(JobMetrics metrics) { jobs_.push_back(std::move(metrics)); }

  /// Stamps `phase` on every job recorded since the log held
  /// `first_job` rows.
  void StampPhase(size_t first_job, const std::string& phase) {
    for (size_t i = first_job; i < jobs_.size(); ++i) jobs_[i].phase = phase;
  }

  /// Adds `seconds` to `phase`'s wall time in a driver bag; the phase
  /// table reads it back. Summed, so a phase that runs several times
  /// (one per EM round, one per support batch) is one row.
  static void AddPhaseWall(MetricBag& driver, const std::string& phase,
                           double seconds);
  /// Sets the whole call's wall time in a driver bag.
  static void SetCallWall(MetricBag& driver, double seconds);

  /// Counters of jobs that ran before this log began. A pipeline resumed
  /// from a checkpoint replays the merged counters persisted with its
  /// last completed phase here, so MergedCounters covers the phases it
  /// skipped.
  void ReplayCounters(const MetricBag& counters) {
    replayed_counters_.MergeFrom(counters);
  }

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

  /// Kind-aware fold of the replayed counters and then every job's
  /// counters in record order. Failed jobs carry empty bags, so only
  /// successful jobs contribute. The fold order is fixed, so the bag's
  /// JSON is byte-identical across threads, reducers, backends, retries
  /// and resume.
  [[nodiscard]] MetricBag MergedCounters() const;

  /// Multi-line human-readable table of all jobs, including the
  /// fault-tolerance columns (attempts / failures / retried tasks) and
  /// the shuffle skew ("-" for map-only jobs, whose partition vectors
  /// are empty). With a pipeline driver's bag the phase table follows
  /// (wall time, job runs, input records, and the phase's peak tracked
  /// bytes when memory tracking is on), then the unphased remainder.
  /// The merged counters close it, rendered through MetricBag::ToString.
  [[nodiscard]] std::string ToString(const MetricBag* driver = nullptr) const;

  /// Machine-readable export of the whole registry: a JSON object with
  /// a "jobs" array (every JobMetrics field including per-job counters
  /// and per-partition vectors), the aggregate totals, and the merged
  /// counters. Counter values are deterministic — byte-identical across
  /// thread counts and under injected faults; timings of course vary.
  /// When `driver` is non-null its bag is emitted under a "driver" key
  /// — the pipeline driver's own gauges (mem.* peaks, RSS samples),
  /// which belong to no single MR job — and, when it holds a call wall
  /// time, a "phases" array plus "wall_seconds" and "unphased_seconds".
  [[nodiscard]] std::string ToJson(const MetricBag* driver = nullptr) const;

  void Clear() {
    jobs_.clear();
    replayed_counters_.Clear();
  }

 private:
  std::vector<JobMetrics> jobs_;
  MetricBag replayed_counters_;
};

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_METRICS_H_
