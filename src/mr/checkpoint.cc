#include "src/mr/checkpoint.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/common/trace.h"
#include "src/core/interval.h"
#include "src/core/signature.h"
#include "src/data/io.h"
#include "src/mapreduce/wire.h"

namespace p3c::mr {

namespace {

/// Bound on the completed-phase list: no pipeline has more than a
/// handful of phases, and a hostile count must not drive the decoder.
constexpr uint64_t kMaxPhases = 16;

Status MakeDirectories(const std::string& dir) {
  // mkdir -p: create each prefix, tolerating ones that already exist.
  std::string prefix;
  prefix.reserve(dir.size());
  for (size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      prefix.push_back(dir[i]);
      continue;
    }
    if (!prefix.empty() &&
        ::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) {
      return Status::IOError("cannot create checkpoint directory: " + prefix +
                             ": " + std::strerror(errno));
    }
    if (i < dir.size()) prefix.push_back('/');
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// ---- Record codec ----------------------------------------------------------
//
// Field by field through wire::WireWriter: structs with padding
// (ClusterCore, CoreDetectionStats, Metric) are never memcpy'd, so the
// bytes — and the P3CK checksum over them — are deterministic.

std::string EncodeRecord(uint64_t fingerprint, uint64_t params_hash,
                         const PipelineCheckpoint& state) {
  wire::WireWriter w;
  w.PutU32(kCheckpointFormatVersion);
  w.PutU64(fingerprint);
  w.PutU64(params_hash);
  w.Put(state.completed);
  w.PutU64(state.histograms.size());
  for (const stats::Histogram& h : state.histograms) w.Put(h.counts());
  const core::CoreDetectionStats& core_stats = state.core_stats;
  w.PutU64(core_stats.num_levels);
  w.PutU64(core_stats.num_candidates_generated);
  w.PutU64(core_stats.num_signatures_counted);
  w.PutU64(core_stats.num_proven);
  w.PutU64(core_stats.num_support_batches);
  w.PutU64(core_stats.num_maximal);
  w.PutU32(core_stats.truncated ? 1 : 0);
  w.PutU64(core_stats.num_after_redundancy);
  w.PutU64(state.cores.size());
  for (const core::ClusterCore& core : state.cores) {
    w.PutU64(core.signature.intervals().size());
    for (const core::Interval& interval : core.signature.intervals()) {
      w.PutU64(interval.attr);
      w.PutDouble(interval.lower);
      w.PutDouble(interval.upper);
    }
    w.PutU64(core.support);
    w.PutDouble(core.expected_support);
  }
  w.PutU64(state.support_sets.size());
  for (const std::vector<data::PointId>& set : state.support_sets) w.Put(set);
  w.Put(state.model.arel);
  w.PutU64(state.model.components.size());
  for (const core::GaussianComponent& comp : state.model.components) {
    w.Put(comp.mean);
    w.PutU64(comp.cov.rows());
    w.PutU64(comp.cov.cols());
    w.Put(comp.cov.data());
    w.PutDouble(comp.weight);
  }
  w.Put(state.membership);
  wire::EncodeMetricBag(state.counters, w);
  return w.Take();
}

/// rows x cols == size, checked without the overflow a hostile shape
/// could use to pass.
bool ShapeMatches(uint64_t rows, uint64_t cols, size_t size) {
  if (rows == 0 || cols == 0) return size == 0;
  return size % rows == 0 && size / rows == cols;
}

/// Decodes the state after the record header. Element counts are never
/// used to size an allocation: vectors of scalars are read through the
/// reader's bounded Get, and every other loop consumes bytes per
/// iteration, so it stops once a false count runs the reader dry.
Result<PipelineCheckpoint> DecodeState(wire::WireReader& r) {
  PipelineCheckpoint state;
  const uint64_t num_phases = r.GetU64();
  if (num_phases > kMaxPhases) {
    return Status::IOError(StringPrintf(
        "checkpoint lists an implausible %llu phases",
        static_cast<unsigned long long>(num_phases)));
  }
  for (uint64_t i = 0; i < num_phases && r.status().ok(); ++i) {
    state.completed.push_back(r.GetString());
  }
  const uint64_t num_histograms = r.GetU64();
  for (uint64_t i = 0; i < num_histograms && r.status().ok(); ++i) {
    r.Get(&state.histograms.emplace_back().counts());
  }
  core::CoreDetectionStats& core_stats = state.core_stats;
  core_stats.num_levels = r.GetU64();
  core_stats.num_candidates_generated = r.GetU64();
  core_stats.num_signatures_counted = r.GetU64();
  core_stats.num_proven = r.GetU64();
  core_stats.num_support_batches = r.GetU64();
  core_stats.num_maximal = r.GetU64();
  core_stats.truncated = r.GetU32() != 0;
  core_stats.num_after_redundancy = r.GetU64();
  const uint64_t num_cores = r.GetU64();
  for (uint64_t i = 0; i < num_cores && r.status().ok(); ++i) {
    const uint64_t num_intervals = r.GetU64();
    std::vector<core::Interval> intervals;
    for (uint64_t j = 0; j < num_intervals && r.status().ok(); ++j) {
      core::Interval& interval = intervals.emplace_back();
      interval.attr = r.GetU64();
      interval.lower = r.GetDouble();
      interval.upper = r.GetDouble();
    }
    if (!r.status().ok()) break;
    Result<core::Signature> signature =
        core::Signature::Make(std::move(intervals));
    if (!signature.ok()) return signature.status();
    core::ClusterCore& core = state.cores.emplace_back();
    core.signature = std::move(signature).value();
    core.support = r.GetU64();
    core.expected_support = r.GetDouble();
  }
  const uint64_t num_sets = r.GetU64();
  for (uint64_t i = 0; i < num_sets && r.status().ok(); ++i) {
    r.Get(&state.support_sets.emplace_back());
  }
  r.Get(&state.model.arel);
  const uint64_t num_components = r.GetU64();
  for (uint64_t c = 0; c < num_components && r.status().ok(); ++c) {
    core::GaussianComponent& comp = state.model.components.emplace_back();
    r.Get(&comp.mean);
    const uint64_t rows = r.GetU64();
    const uint64_t cols = r.GetU64();
    std::vector<double> cov;
    r.Get(&cov);
    if (!r.status().ok()) break;
    if (!ShapeMatches(rows, cols, cov.size())) {
      return Status::IOError("checkpoint covariance shape disagrees with "
                             "its entry count");
    }
    comp.cov = linalg::Matrix(rows, cols);
    comp.cov.data() = std::move(cov);
    comp.weight = r.GetDouble();
  }
  r.Get(&state.membership);
  Result<MetricBag> counters = wire::DecodeMetricBag(r);
  if (!counters.ok()) return counters.status();
  state.counters = std::move(counters).value();
  P3C_RETURN_NOT_OK(r.Finish());
  return state;
}

/// The checks a checksum cannot make: a record committed through the
/// public encoder can still carry values that do not fit this run, and
/// the driver indexes per-cluster and per-point arrays with them.
Status CheckFitsRun(const PipelineCheckpoint& state, size_t n, size_t d,
                    const core::P3CParams& params) {
  const std::vector<std::string>& phases = PipelinePhases(params.light);
  const size_t done = state.completed.size();
  if (done > phases.size() ||
      !std::equal(state.completed.begin(), state.completed.end(),
                  phases.begin())) {
    return Status::FailedPrecondition(
        "completed phases are not a prefix of this pipeline's phases");
  }
  if (done >= 1) {
    if (state.histograms.size() != d) {
      return Status::FailedPrecondition(StringPrintf(
          "%zu histograms for a %zu-dim dataset", state.histograms.size(),
          d));
    }
    const uint64_t bins = stats::NumBins(params.binning, n);
    for (const stats::Histogram& h : state.histograms) {
      if (h.num_bins() != bins) {
        return Status::FailedPrecondition(StringPrintf(
            "histogram with %zu bins where the binning rule gives %llu",
            h.num_bins(), static_cast<unsigned long long>(bins)));
      }
    }
  }
  if (done >= 2) {
    for (const core::ClusterCore& core : state.cores) {
      for (const core::Interval& interval : core.signature.intervals()) {
        if (interval.attr >= d ||
            !(0.0 <= interval.lower && interval.lower <= interval.upper &&
              interval.upper <= 1.0)) {
          return Status::FailedPrecondition(
              "core interval " + interval.ToString() +
              " lies outside the dataset");
        }
      }
    }
  }
  const int64_t k = static_cast<int64_t>(state.cores.size());
  if (done == phases.size()) {  // Light's m' or the full OD membership
    if (state.membership.size() != n) {
      return Status::FailedPrecondition(StringPrintf(
          "membership of %zu points for a %zu-point dataset",
          state.membership.size(), n));
    }
    for (int32_t c : state.membership) {
      if (c < -2 || c >= k) {
        return Status::FailedPrecondition(StringPrintf(
            "membership entry %d outside [-2, %lld)", c,
            static_cast<long long>(k)));
      }
    }
  }
  if (params.light && done >= 3) {
    if (state.support_sets.size() != state.cores.size()) {
      return Status::FailedPrecondition("support-set count disagrees with "
                                        "the core count");
    }
    for (const std::vector<data::PointId>& set : state.support_sets) {
      for (size_t i = 0; i < set.size(); ++i) {
        if (set[i] >= n) {
          return Status::FailedPrecondition(StringPrintf(
              "support-set point id %u outside a %zu-point dataset", set[i],
              n));
        }
        if (i > 0 && set[i] <= set[i - 1]) {
          return Status::FailedPrecondition(
              "support set is not strictly ascending");
        }
      }
    }
  }
  if (!params.light && done >= 3) {
    const std::vector<size_t> arel = core::RelevantAttributeUnion(state.cores);
    if (state.model.components.size() != state.cores.size() ||
        state.model.arel != arel) {
      return Status::FailedPrecondition(
          "EM model disagrees with the restored cores");
    }
    for (const core::GaussianComponent& comp : state.model.components) {
      if (comp.mean.size() != arel.size() ||
          comp.cov.rows() != arel.size() || comp.cov.cols() != arel.size()) {
        return Status::FailedPrecondition(
            "EM component shape disagrees with |Arel|");
      }
    }
  }
  return Status::OK();
}

/// Reads the record at `path` and checks it against the live run.
Result<PipelineCheckpoint> LoadRecord(const std::string& path,
                                      uint64_t dataset_fingerprint,
                                      uint64_t params_hash,
                                      const data::RowInput& input,
                                      const core::P3CParams& params) {
  Result<std::string> blob = data::ReadBlobFile(path, kCheckpointBlobKind);
  if (!blob.ok()) return blob.status();
  wire::WireReader r(*blob, path);
  const uint32_t version = r.GetU32();
  const uint64_t file_fingerprint = r.GetU64();
  const uint64_t file_params_hash = r.GetU64();
  P3C_RETURN_NOT_OK(r.status());
  if (version != kCheckpointFormatVersion) {
    return Status::FailedPrecondition(StringPrintf(
        "checkpoint format version skew (file %u, this build %u)", version,
        kCheckpointFormatVersion));
  }
  if (file_fingerprint != dataset_fingerprint) {
    return Status::FailedPrecondition(StringPrintf(
        "dataset fingerprint mismatch (file %016llx, this run %016llx) — "
        "checkpoint belongs to different data",
        static_cast<unsigned long long>(file_fingerprint),
        static_cast<unsigned long long>(dataset_fingerprint)));
  }
  if (file_params_hash != params_hash) {
    return Status::FailedPrecondition(StringPrintf(
        "parameter hash mismatch (file %016llx, this run %016llx) — "
        "checkpoint belongs to a different configuration",
        static_cast<unsigned long long>(file_params_hash),
        static_cast<unsigned long long>(params_hash)));
  }
  Result<PipelineCheckpoint> state = DecodeState(r);
  if (!state.ok()) return state.status();
  P3C_RETURN_NOT_OK(CheckFitsRun(*state, input.num_points(),
                                 input.num_dims(), params));
  return state;
}

}  // namespace

uint64_t DatasetFingerprint(const data::RowInput& input, ThreadPool* pool) {
  // The reader hashed the same chunks when it opened the file.
  if (input.file() != nullptr) return input.file()->fingerprint();
  const std::vector<double>& values = input.dataset()->values();
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  const size_t size = values.size() * sizeof(double);
  constexpr size_t kChunk = data::kFingerprintChunkBytes;
  std::vector<uint64_t> chunk_hashes((size + kChunk - 1) / kChunk);
  const auto hash_chunk = [&](size_t c) {
    const size_t begin = c * kChunk;
    chunk_hashes[c] =
        data::Hash64(bytes + begin, std::min(kChunk, size - begin));
  };
  if (pool != nullptr) {
    pool->ParallelFor(chunk_hashes.size(), /*grain=*/1, hash_chunk);
  } else {
    for (size_t c = 0; c < chunk_hashes.size(); ++c) hash_chunk(c);
  }
  const uint64_t n = input.num_points();
  const uint64_t d = input.num_dims();
  data::Hasher hasher;
  hasher.Update(&n, sizeof(n));
  hasher.Update(&d, sizeof(d));
  hasher.Update(chunk_hashes.data(), chunk_hashes.size() * sizeof(uint64_t));
  return hasher.Digest();
}

uint64_t ParamsHash(const core::P3CParams& params) {
  // Serialize every field through the checkpoint's byte codec, then
  // hash the bytes. Adding a parameter to P3CParams and to this list
  // invalidates old checkpoints automatically — the safe default for a
  // knob that changes pipeline output.
  wire::WireWriter w;
  w.PutU32(kCheckpointFormatVersion);
  w.PutU32(static_cast<uint32_t>(params.binning));
  w.PutDouble(params.alpha_chi2);
  w.PutDouble(params.alpha_poisson);
  w.PutU32(static_cast<uint32_t>(params.proving));
  w.PutDouble(params.theta_cc);
  w.PutU32(params.redundancy_filter ? 1 : 0);
  w.PutU32(params.multilevel_candidates ? 1 : 0);
  w.PutU64(params.t_c);
  w.PutU64(params.t_gen);
  w.PutU64(params.max_candidates_per_level);
  w.PutU64(params.max_join_pairs);
  w.PutU64(params.max_em_iterations);
  w.PutDouble(params.em_tolerance);
  w.PutDouble(params.covariance_ridge);
  w.PutU32(static_cast<uint32_t>(params.outlier));
  w.PutDouble(params.outlier_alpha);
  w.PutU32(params.ai_proving ? 1 : 0);
  w.PutU32(params.light ? 1 : 0);
  const std::string bytes = w.Take();
  return data::Hash64(bytes.data(), bytes.size());
}

const std::vector<std::string>& PipelinePhases(bool light) {
  static const std::vector<std::string> kLight = {
      "histogram", "cluster-cores", "support-sets"};
  static const std::vector<std::string> kFull = {
      "histogram", "cluster-cores", "em-refinement", "outlier-detection"};
  return light ? kLight : kFull;
}

// ---- CheckpointManager -----------------------------------------------------

CheckpointManager::CheckpointManager(Options options)
    : options_(std::move(options)) {}

void CheckpointManager::Initialize(const data::RowInput& input,
                                   const core::P3CParams& params,
                                   ThreadPool* pool) {
  state_ = PipelineCheckpoint();
  if (!enabled()) return;
  {
    TraceSpan span("checkpoint:fingerprint");
    Stopwatch watch;
    dataset_fingerprint_ = DatasetFingerprint(input, pool);
    if (options_.driver_metrics != nullptr) {
      options_.driver_metrics->SetGauge("checkpoint.fingerprint_seconds",
                                        watch.ElapsedSeconds());
    }
  }
  params_hash_ = ParamsHash(params);
  Status mkdir_status = MakeDirectories(options_.dir);
  if (!mkdir_status.ok()) {
    // Leave the manager "fresh"; the first CommitPhase will surface the
    // unusable directory as a real error.
    P3C_LOG(kWarning) << mkdir_status.ToString();
    return;
  }
  const std::string path = options_.dir + "/" + kCheckpointFilename;
  if (!FileExists(path)) {
    P3C_LOG(kInfo) << "no checkpoint in '" << options_.dir
                   << "'; starting fresh";
    return;
  }
  Result<PipelineCheckpoint> loaded =
      LoadRecord(path, dataset_fingerprint_, params_hash_, input, params);
  if (!loaded.ok()) {
    P3C_LOG(kWarning) << "discarding checkpoint in '" << options_.dir
                      << "' and starting fresh: "
                      << loaded.status().ToString();
    if (options_.driver_metrics != nullptr) {
      options_.driver_metrics->Increment(kCorruptCounter);
    }
    return;
  }
  state_ = std::move(loaded).value();
  if (!state_.completed.empty()) {
    P3C_LOG(kInfo) << "checkpoint in '" << options_.dir << "' is valid: "
                   << state_.completed.size() << " completed phase(s), last '"
                   << state_.completed.back() << "'";
  }
}

Status CheckpointManager::CommitPhase(const std::string& name) {
  if (!enabled()) return Status::OK();
  TraceSpan span(Tracer::Global().enabled()
                     ? std::string("checkpoint:write:") + name
                     : std::string());
  Stopwatch watch;
  state_.completed.push_back(name);
  // The rename inside WriteBlobFile is the commit point: a crash before
  // it leaves the previous record, a crash after it the new one.
  Status status = data::WriteBlobFile(
      options_.dir + "/" + kCheckpointFilename, kCheckpointBlobKind,
      EncodeRecord(dataset_fingerprint_, params_hash_, state_));
  if (!status.ok()) {
    state_.completed.pop_back();
    return status;
  }
  if (options_.driver_metrics != nullptr) {
    options_.driver_metrics->SetGauge(
        "checkpoint.write_seconds." + name, watch.ElapsedSeconds());
  }
  return Status::OK();
}

}  // namespace p3c::mr
