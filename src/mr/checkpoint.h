#ifndef P3C_MR_CHECKPOINT_H_
#define P3C_MR_CHECKPOINT_H_

// Durable phase checkpoints for the P3C+-MR pipeline (DESIGN.md §13).
//
// The driver persists its state after every completed pipeline phase so
// a killed run resumes at the first incomplete phase instead of
// restarting from scratch — the in-process analog of Hadoop keeping
// each job's output on HDFS. The on-disk layout is one file:
//
//   <dir>/checkpoint.p3ck         the cumulative driver-state record
//
// a checksummed P3CK blob (src/data/io.h) rewritten through the atomic
// temp+fsync+rename writer after every phase, so the rename is the
// commit point. The record binds the checkpoint format version, the
// dataset fingerprint and the parameter hash to the completed phase
// names and one PipelineCheckpoint. Validation is all-or-nothing: any
// corruption, truncation, version skew, fingerprint/parameter mismatch,
// or state that does not fit the live run is logged, counted, and
// discards the whole checkpoint — the run degrades to a clean fresh
// execution, never a crash and never a resume from stale state.

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/counters.h"
#include "src/common/status.h"
#include "src/common/threadpool.h"
#include "src/core/core_detection.h"
#include "src/core/gmm.h"
#include "src/core/params.h"
#include "src/data/dataset.h"
#include "src/data/io.h"
#include "src/stats/histogram.h"

namespace p3c::mr {

/// Version of the checkpoint record schema. Bumped whenever the encoder
/// changes shape; a record carrying a different version is discarded as
/// unusable (version skew), not misparsed. Format 4 stores each counter
/// as a kind, a count and a sum (format 3 carried histogram buckets).
inline constexpr uint32_t kCheckpointFormatVersion = 4;

/// P3CK blob kind tag of the checkpoint file (see data::WriteBlobFile).
/// Public so tests can craft hostile files.
inline constexpr uint32_t kCheckpointBlobKind = 0x44525652;  // "DRVR"

/// Name of the checkpoint file inside a checkpoint directory.
inline constexpr char kCheckpointFilename[] = "checkpoint.p3ck";

/// data::Hasher over u64 n, u64 d, then the data::Hash64 of each
/// data::kFingerprintChunkBytes chunk of the raw values in order:
/// identifies the exact dataset a checkpoint was taken against. A file
/// and the Dataset loaded from it have the same fingerprint (the reader
/// hashed the file's chunks when it opened it). With a `pool`, a
/// Dataset's chunks are hashed on it; the value is the same at every
/// pool width and without one.
uint64_t DatasetFingerprint(const data::RowInput& input,
                            ThreadPool* pool = nullptr);

/// data::Hash64 over every P3CParams field (including `light`, which selects
/// the pipeline variant). Engine knobs (threads, reducers, splits) are
/// deliberately excluded: the engine's determinism contract makes them
/// irrelevant to pipeline output, so resuming under a different thread
/// count is sound.
uint64_t ParamsHash(const core::P3CParams& params);

/// Phase names of a pipeline variant, in pipeline order.
const std::vector<std::string>& PipelinePhases(bool light);

/// The driver's state between MR jobs, extended phase by phase. A field
/// is meaningful once the phase that produces it has completed.
struct PipelineCheckpoint {
  /// Completed phases: a prefix of PipelinePhases(light).
  std::vector<std::string> completed;
  std::vector<stats::Histogram> histograms;  ///< "histogram"
  core::CoreDetectionStats core_stats;       ///< "cluster-cores"
  std::vector<core::ClusterCore> cores;      ///< "cluster-cores"
  /// Light "support-sets": each core's sorted support set.
  std::vector<std::vector<data::PointId>> support_sets;
  core::GmmModel model;  ///< full "em-refinement"
  /// Per point: cluster or negative. Light's m' ("support-sets") or the
  /// full pipeline's OD membership ("outlier-detection").
  std::vector<int32_t> membership;
  /// Cumulative framework counters at the last commit, so a resumed run
  /// restores the skipped phases' counters and its counter JSON is
  /// byte-identical to an uninterrupted run's.
  MetricBag counters;
};

/// Owns one checkpoint directory for one pipeline run.
///
/// Lifecycle: construct, call Initialize() to load and validate any
/// existing checkpoint, read num_completed() / state() to skip finished
/// phases, and after each phase the run executes live, extend state()
/// and call CommitPhase(). Disabled (empty dir) it is inert: nothing is
/// ever completed and commits are no-ops.
class CheckpointManager {
 public:
  struct Options {
    /// Checkpoint directory; empty disables checkpointing entirely.
    std::string dir;
    /// Driver-side observability sink (corruption counter, per-phase
    /// write timings). Kept separate from the framework-counter sink so
    /// resume bookkeeping never perturbs the deterministic counter
    /// JSON. May be null.
    MetricBag* driver_metrics = nullptr;
  };

  /// Name of the counter incremented once per discarded checkpoint.
  static constexpr const char* kCorruptCounter =
      "checkpoint.corrupt_total";

  explicit CheckpointManager(Options options);

  [[nodiscard]] bool enabled() const { return !options_.dir.empty(); }

  /// Binds the manager to this run's dataset and parameters, creates
  /// the directory if needed, and loads any existing checkpoint. A
  /// missing file is a normal fresh start; a record that fails to
  /// decode, belongs to another dataset, configuration or format
  /// version, or does not fit the run (see the checks in the .cc) logs
  /// its reason, increments kCorruptCounter, and leaves the manager in
  /// the fresh state. Never fails the run — only CommitPhase can do
  /// that.
  /// The dataset is fingerprinted on `pool` when given; the time it
  /// takes is the `checkpoint.fingerprint_seconds` driver gauge.
  void Initialize(const data::RowInput& input, const core::P3CParams& params,
                  ThreadPool* pool = nullptr);

  [[nodiscard]] size_t num_completed() const {
    return state_.completed.size();
  }
  /// The record: restored on resume, extended by the live phases.
  PipelineCheckpoint& state() { return state_; }

  /// Appends `name` to the completed phases and atomically rewrites the
  /// checkpoint file from state(). Failures propagate: the caller asked
  /// for durability, so an unwritable checkpoint is a real error.
  Status CommitPhase(const std::string& name);

 private:
  Options options_;
  uint64_t dataset_fingerprint_ = 0;
  uint64_t params_hash_ = 0;
  PipelineCheckpoint state_;
};

}  // namespace p3c::mr

#endif  // P3C_MR_CHECKPOINT_H_
