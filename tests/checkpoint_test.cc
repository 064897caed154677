// Kill-and-resume suite for the durable checkpoint/resume machinery
// (DESIGN.md §13), built as its own binary so the checkpoint-smoke
// ctest label (tools/run_sanitizers.sh checkpoint-smoke) can run it in
// isolation under the Sanitize/Tsan build types. Three pillars:
//
//   1. Determinism: a run killed at any phase boundary and resumed
//      from its checkpoint directory produces byte-identical clustering
//      output and framework-counter JSON to an uninterrupted run.
//   2. Hostility: every corrupted-checkpoint scenario — truncation,
//      bit flips, version skew, parameter/dataset mismatch, a
//      directory from a different run — is detected, logged, counted,
//      and degrades to a clean fresh run with correct output.
//   3. Plumbing: the atomic writer's durable-replace protocol, the P3CK
//      container, and the parameter hash's field coverage. The record's
//      byte codec is wire::WireWriter/WireReader, tested with the
//      worker frames (tests/worker_backend_test.cc, WireTest.*).

#include "src/mr/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/cancellation.h"
#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/core/params.h"
#include "src/core/signature.h"
#include "src/data/generator.h"
#include "src/data/io.h"
#include "src/linalg/matrix.h"
#include "src/mapreduce/wire.h"
#include "src/mapreduce/fault.h"
#include "src/mr/p3c_mr.h"
#include "src/stats/histogram.h"

namespace p3c::mr {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

data::SyntheticData MakeData(uint64_t seed, size_t n = 4000,
                             size_t dims = 30) {
  data::GeneratorConfig config;
  config.num_points = n;
  config.num_dims = dims;
  config.num_clusters = 3;
  config.noise_fraction = 0.10;
  config.seed = seed;
  return data::GenerateSynthetic(config).value();
}

/// Fresh, empty per-test scratch directory.
std::string TempDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("p3c_ckpt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

P3CMROptions MakeOptions(bool light, const std::string& checkpoint_dir) {
  P3CMROptions options;
  options.params.light = light;
  options.checkpoint_dir = checkpoint_dir;
  return options;
}

/// Canonical text form of everything the pipeline's output contract
/// covers (timing excluded): the resume-determinism assertions compare
/// these byte for byte.
std::string Canonical(const core::ClusteringResult& r) {
  std::string out = "arel:";
  for (size_t a : r.arel) out += " " + std::to_string(a);
  out += "\ncores:";
  for (const auto& core : r.cores) {
    out += "\n  " + core.signature.ToString() + " support=" +
           std::to_string(core.support);
  }
  for (const auto& cluster : r.clusters) {
    out += "\ncluster attrs:";
    for (size_t a : cluster.attrs) out += " " + std::to_string(a);
    out += " intervals:";
    for (const auto& iv : cluster.intervals) out += " " + iv.ToString();
    out += " points:";
    for (data::PointId p : cluster.points) out += " " + std::to_string(p);
  }
  return out;
}

struct RunOutput {
  Status status = Status::OK();
  std::string canonical;
  std::string counters_json;
  std::string report_json;  ///< the --metrics-out file's contents
};

RunOutput RunPipeline(const data::Dataset& dataset, P3CMROptions options,
                      FaultInjector* injector = nullptr,
                      MetricBag* driver_metrics = nullptr) {
  options.runner.fault_injector = injector;
  P3CMR pipeline{options};
  auto result = pipeline.Cluster(dataset);
  RunOutput out;
  if (driver_metrics != nullptr) *driver_metrics = pipeline.driver_metrics();
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.canonical = Canonical(*result);
  out.counters_json = pipeline.counters().ToJson();
  out.report_json = pipeline.metrics().ToJson(&pipeline.driver_metrics());
  return out;
}

bool LogsContain(const std::vector<std::string>& lines,
                 const std::string& needle) {
  for (const auto& line : lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string CheckpointFile(const std::string& dir) {
  return dir + "/" + kCheckpointFilename;
}

const std::vector<std::string>& FullPhases() { return PipelinePhases(false); }

const std::vector<std::string>& LightPhases() { return PipelinePhases(true); }

// ---------------------------------------------------------------------------
// Atomic writer
// ---------------------------------------------------------------------------

TEST(AtomicFileWriter, CommitReplacesAtomicallyAndLeavesNoTemp) {
  const std::string dir = TempDir("atomic_commit");
  const std::string path = dir + "/out.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  EXPECT_EQ(ReadFileBytes(path), "second");
  // The temp file was renamed away: the directory holds exactly the
  // target.
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicFileWriter, AbandonLeavesTargetUntouched) {
  const std::string dir = TempDir("atomic_abandon");
  const std::string path = dir + "/out.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "keep me").ok());
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("partial garbage").ok());
    // Destructor abandons: simulates a crash between Open and Commit.
  }
  EXPECT_EQ(ReadFileBytes(path), "keep me");
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicFileWriter, StreamedWritesReachTheFile) {
  const std::string dir = TempDir("atomic_stream");
  const std::string path = dir + "/out.txt";
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  std::fprintf(writer.stream(), "%d,%s\n", 7, "x");
  ASSERT_TRUE(writer.Append("tail").ok());
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(ReadFileBytes(path), "7,x\ntail");
}

// ---------------------------------------------------------------------------
// Blob container + parameter hash
// ---------------------------------------------------------------------------

TEST(BlobFile, RoundTripsAndRejectsCorruption) {
  const std::string dir = TempDir("blob");
  const std::string path = dir + "/x.p3ck";
  const std::string payload = "some payload bytes \x01\x02\x03";
  ASSERT_TRUE(data::WriteBlobFile(path, kCheckpointBlobKind, payload).ok());
  auto read = data::ReadBlobFile(path, kCheckpointBlobKind);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);

  // Wrong kind tag.
  EXPECT_FALSE(data::ReadBlobFile(path, kCheckpointBlobKind ^ 1).ok());

  // Truncation.
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 3));
  EXPECT_FALSE(data::ReadBlobFile(path, kCheckpointBlobKind).ok());

  // Single flipped payload bit.
  std::string flipped = bytes;
  flipped[flipped.size() - 1] = static_cast<char>(flipped.back() ^ 0x40);
  WriteFileBytes(path, flipped);
  EXPECT_FALSE(data::ReadBlobFile(path, kCheckpointBlobKind).ok());
}

TEST(ParamsHashTest, EveryFieldChangesTheHash) {
  using core::P3CParams;
  using Edit = std::function<void(P3CParams&)>;
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"binning",
       [](P3CParams& p) { p.binning = stats::BinningRule::kSturges; }},
      {"alpha_chi2", [](P3CParams& p) { p.alpha_chi2 *= 2; }},
      {"alpha_poisson", [](P3CParams& p) { p.alpha_poisson *= 2; }},
      {"proving",
       [](P3CParams& p) { p.proving = core::ProvingMode::kPoisson; }},
      {"theta_cc", [](P3CParams& p) { p.theta_cc *= 2; }},
      {"redundancy_filter",
       [](P3CParams& p) { p.redundancy_filter = !p.redundancy_filter; }},
      {"multilevel_candidates",
       [](P3CParams& p) {
         p.multilevel_candidates = !p.multilevel_candidates;
       }},
      {"t_c", [](P3CParams& p) { p.t_c += 1; }},
      {"t_gen", [](P3CParams& p) { p.t_gen += 1; }},
      {"max_candidates_per_level",
       [](P3CParams& p) { p.max_candidates_per_level += 1; }},
      {"max_join_pairs", [](P3CParams& p) { p.max_join_pairs += 1; }},
      {"max_em_iterations", [](P3CParams& p) { p.max_em_iterations += 1; }},
      {"em_tolerance", [](P3CParams& p) { p.em_tolerance *= 2; }},
      {"covariance_ridge", [](P3CParams& p) { p.covariance_ridge *= 2; }},
      {"outlier",
       [](P3CParams& p) { p.outlier = core::OutlierMode::kNaive; }},
      {"outlier_alpha", [](P3CParams& p) { p.outlier_alpha *= 2; }},
      {"ai_proving", [](P3CParams& p) { p.ai_proving = !p.ai_proving; }},
      {"light", [](P3CParams& p) { p.light = !p.light; }},
  };
  ASSERT_EQ(edits.size(), 18u);  // one per P3CParams field
  const uint64_t base = ParamsHash(P3CParams());
  EXPECT_EQ(ParamsHash(P3CParams()), base);
  for (const auto& [field, edit] : edits) {
    P3CParams params;
    edit(params);
    EXPECT_NE(ParamsHash(params), base) << field;
  }
}

// ---------------------------------------------------------------------------
// Kill-and-resume determinism
// ---------------------------------------------------------------------------

class KillResumeTest : public ::testing::TestWithParam<bool> {};

TEST_P(KillResumeTest, ResumeAtEveryBoundaryIsByteIdentical) {
  const bool light = GetParam();
  const auto data = MakeData(101);
  const RunOutput baseline = RunPipeline(data.dataset, MakeOptions(light, ""));
  ASSERT_TRUE(baseline.status.ok());

  const auto& phases = light ? LightPhases() : FullPhases();
  for (size_t i = 0; i < phases.size(); ++i) {
    SCOPED_TRACE("killed after phase " + phases[i]);
    const std::string dir =
        TempDir((light ? std::string("kr_light_") : std::string("kr_full_")) +
                std::to_string(i));

    // Run 1: die right after phase i's checkpoint is durable. The
    // injected error stands in for a kill: the driver stops with the
    // checkpoint already committed.
    ScriptedFaultInjector injector;
    injector.FailAfterPhase(phases[i]);
    const RunOutput killed =
        RunPipeline(data.dataset, MakeOptions(light, dir), &injector);
    ASSERT_FALSE(killed.status.ok());
    EXPECT_NE(killed.status.ToString().find(phases[i]), std::string::npos);
    // One file holds every phase committed so far.
    CheckpointManager probe({dir, nullptr});
    probe.Initialize(data.dataset, MakeOptions(light, dir).params);
    EXPECT_EQ(probe.num_completed(), i + 1);

    // Run 2: resume. Output and counter JSON must match the
    // uninterrupted run byte for byte.
    MetricBag driver_metrics;
    const RunOutput resumed =
        RunPipeline(data.dataset, MakeOptions(light, dir), nullptr, &driver_metrics);
    ASSERT_TRUE(resumed.status.ok());
    EXPECT_EQ(resumed.canonical, baseline.canonical);
    EXPECT_EQ(resumed.counters_json, baseline.counters_json);
    EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"),
              static_cast<double>(i + 1));
    EXPECT_EQ(driver_metrics.Get(CheckpointManager::kCorruptCounter), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(FullAndLight, KillResumeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& variant) {
                           return variant.param ? "Light" : "Full";
                         });

// The run report's counters section is the bag counters() returns: a
// resumed run reports the counters of the phases it skipped, exactly as
// an uninterrupted run does.
TEST(CheckpointResume, ResumedReportCountsTheSkippedPhases) {
  const auto data = MakeData(105);
  for (bool light : {false, true}) {
    SCOPED_TRACE(light ? "light" : "full");
    const RunOutput baseline =
        RunPipeline(data.dataset, MakeOptions(light, ""));
    ASSERT_TRUE(baseline.status.ok());
    const std::string dir =
        TempDir(light ? "report_resume_light" : "report_resume_full");
    ScriptedFaultInjector injector;
    injector.FailAfterPhase("cluster-cores");
    ASSERT_FALSE(
        RunPipeline(data.dataset, MakeOptions(light, dir), &injector)
            .status.ok());
    const RunOutput resumed =
        RunPipeline(data.dataset, MakeOptions(light, dir));
    ASSERT_TRUE(resumed.status.ok());
    EXPECT_EQ(resumed.counters_json, baseline.counters_json);
    EXPECT_NE(resumed.report_json.find("\n  \"counters\": " +
                                       baseline.counters_json + ","),
              std::string::npos)
        << resumed.report_json;
  }
}

TEST(CheckpointResume, CheckpointingItselfDoesNotPerturbOutput) {
  const auto data = MakeData(102);
  const RunOutput plain = RunPipeline(data.dataset, MakeOptions(false, ""));
  ASSERT_TRUE(plain.status.ok());
  const std::string dir = TempDir("no_perturb");
  MetricBag driver_metrics;
  const RunOutput checkpointed =
      RunPipeline(data.dataset, MakeOptions(false, dir), nullptr, &driver_metrics);
  ASSERT_TRUE(checkpointed.status.ok());
  EXPECT_EQ(checkpointed.canonical, plain.canonical);
  EXPECT_EQ(checkpointed.counters_json, plain.counters_json);
  // Observability of the live commits: one write-timing gauge per phase.
  for (const auto& phase : FullPhases()) {
    EXPECT_NE(driver_metrics.Find("checkpoint.write_seconds." + phase),
              nullptr)
        << phase;
  }
}

TEST(CheckpointResume, FullyCheckpointedRunResumesPastAllPhases) {
  const auto data = MakeData(103);
  const std::string dir = TempDir("full_resume");
  const RunOutput first = RunPipeline(data.dataset, MakeOptions(false, dir));
  ASSERT_TRUE(first.status.ok());
  MetricBag driver_metrics;
  const RunOutput second =
      RunPipeline(data.dataset, MakeOptions(false, dir), nullptr, &driver_metrics);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.canonical, first.canonical);
  EXPECT_EQ(second.counters_json, first.counters_json);
  EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"),
            static_cast<double>(FullPhases().size()));
}

TEST(CheckpointResume, CancelledRunReportsKCancelled) {
  const auto data = MakeData(104);
  const std::string dir = TempDir("cancelled");
  CancellationSource source;
  source.Cancel();
  P3CMROptions options = MakeOptions(false, dir);
  options.cancel = source.token();
  P3CMR pipeline{options};
  auto result = pipeline.Cluster(data.dataset);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(CheckpointResume, CancellationIsNotRetriedAsAJobFailure) {
  EXPECT_FALSE(IsRetryableJobFailure(Status::Cancelled("stop")));
}

// ---------------------------------------------------------------------------
// Hostile checkpoints: every corruption falls back to a clean fresh run
// ---------------------------------------------------------------------------

/// Runs the pipeline against `dir` after it has been sabotaged and
/// checks the fallback contract: a warning is logged, the corruption
/// counter increments, no resume gauge is set, and the output is
/// byte-identical to the uninterrupted baseline.
void ExpectCleanFallback(const data::Dataset& dataset,
                         const RunOutput& baseline, const std::string& dir,
                         const std::string& scenario, bool light = false) {
  SCOPED_TRACE(scenario);
  MetricBag driver_metrics;
  std::vector<std::string> log_lines;
  RunOutput rerun;
  {
    ScopedLogCapture capture;
    rerun = RunPipeline(dataset, MakeOptions(light, dir), nullptr,
                        &driver_metrics);
    log_lines = capture.lines();
  }
  ASSERT_TRUE(rerun.status.ok()) << rerun.status.ToString();
  EXPECT_EQ(rerun.canonical, baseline.canonical);
  EXPECT_EQ(rerun.counters_json, baseline.counters_json);
  EXPECT_EQ(driver_metrics.Get(CheckpointManager::kCorruptCounter), 1u);
  EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"), 0.0);
  EXPECT_TRUE(LogsContain(log_lines, "discarding checkpoint"));
}

class HostileCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeData(105);
    baseline_ = RunPipeline(data_.dataset, MakeOptions(false, ""));
    ASSERT_TRUE(baseline_.status.ok());
  }

  /// A complete, valid checkpoint of the full pipeline in a fresh dir.
  std::string MakeCheckpoint(const std::string& name) {
    const std::string dir = TempDir(name);
    const RunOutput seeded = RunPipeline(data_.dataset, MakeOptions(false, dir));
    EXPECT_TRUE(seeded.status.ok());
    return dir;
  }

  /// A complete checkpoint of the `light` or full pipeline whose record
  /// `edit` changed, re-committed through CheckpointManager: the file is
  /// checksum-valid and decodes, whatever values `edit` wrote.
  std::string CraftCheckpoint(
      const std::string& name, bool light,
      const std::function<void(PipelineCheckpoint&)>& edit) {
    const std::string dir = TempDir(name);
    const RunOutput seeded =
        RunPipeline(data_.dataset, MakeOptions(light, dir));
    EXPECT_TRUE(seeded.status.ok());
    CheckpointManager manager({dir, nullptr});
    manager.Initialize(data_.dataset, MakeOptions(light, dir).params);
    PipelineCheckpoint& state = manager.state();
    if (state.completed.size() != PipelinePhases(light).size()) {
      ADD_FAILURE() << "seeded checkpoint did not load";
      return dir;
    }
    edit(state);
    const std::string last = state.completed.back();
    state.completed.pop_back();
    EXPECT_TRUE(manager.CommitPhase(last).ok());
    return dir;
  }

  RunOutput LightBaseline() const {
    RunOutput out = RunPipeline(data_.dataset, MakeOptions(true, ""));
    EXPECT_TRUE(out.status.ok());
    return out;
  }

  data::SyntheticData data_;
  RunOutput baseline_;
};

TEST_F(HostileCheckpointTest, TruncatedCheckpointFile) {
  const std::string dir = MakeCheckpoint("trunc_file");
  const std::string path = CheckpointFile(dir);
  const std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty());
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  ExpectCleanFallback(data_.dataset, baseline_, dir, "truncated file");
}

TEST_F(HostileCheckpointTest, BitFlippedCheckpointPayload) {
  const std::string dir = MakeCheckpoint("bitflip");
  const std::string path = CheckpointFile(dir);
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  WriteFileBytes(path, bytes);
  ExpectCleanFallback(data_.dataset, baseline_, dir, "bit-flipped payload");
}

TEST_F(HostileCheckpointTest, VersionSkewedCheckpoint) {
  const std::string dir = MakeCheckpoint("version_skew");
  // A structurally valid blob whose payload announces a future format
  // version: must be rejected as skew, not misparsed.
  const std::string path = CheckpointFile(dir);
  std::string payload = data::ReadBlobFile(path, kCheckpointBlobKind).value();
  const uint32_t future = kCheckpointFormatVersion + 1;
  payload.replace(0, sizeof(future), reinterpret_cast<const char*>(&future),
                  sizeof(future));
  ASSERT_TRUE(data::WriteBlobFile(path, kCheckpointBlobKind, payload).ok());
  ExpectCleanFallback(data_.dataset, baseline_, dir,
                      "version-skewed checkpoint");
}

TEST_F(HostileCheckpointTest, FormatVersion2RecordFallsBackCleanly) {
  // Format 2 fingerprinted the dataset with FNV-1a: its fingerprints
  // can never match, so the version alone must discard the record.
  const std::string dir = MakeCheckpoint("format_v2");
  const std::string path = CheckpointFile(dir);
  std::string payload = data::ReadBlobFile(path, kCheckpointBlobKind).value();
  const uint32_t old_version = 2;
  payload.replace(0, sizeof(old_version),
                  reinterpret_cast<const char*>(&old_version),
                  sizeof(old_version));
  ASSERT_TRUE(data::WriteBlobFile(path, kCheckpointBlobKind, payload).ok());
  ExpectCleanFallback(data_.dataset, baseline_, dir, "format-2 record");
}

TEST_F(HostileCheckpointTest, FormatVersion3RecordFallsBackCleanly) {
  // Format 3 stored each counter with histogram fields after its kind,
  // count and sum: a min, a max and 32 buckets. Rewrite a valid
  // record's counter bag that way and stamp it version 3: the run must
  // discard it and start fresh, with the uninterrupted run's output and
  // counter JSON.
  const std::string dir = MakeCheckpoint("format_v3");
  const std::string path = CheckpointFile(dir);
  std::string payload = data::ReadBlobFile(path, kCheckpointBlobKind).value();
  CheckpointManager manager({dir, nullptr});
  manager.Initialize(data_.dataset, MakeOptions(false, dir).params);
  const MetricBag& counters = manager.state().counters;
  ASSERT_FALSE(counters.empty());
  wire::WireWriter v4;
  wire::EncodeMetricBag(counters, v4);
  const std::string v4_bag = v4.Take();
  ASSERT_GE(payload.size(), v4_bag.size());
  ASSERT_EQ(payload.substr(payload.size() - v4_bag.size()), v4_bag);
  wire::WireWriter v3;
  v3.PutU64(counters.values().size());
  for (const auto& [name, metric] : counters.values()) {
    v3.PutString(name);
    v3.PutU32(static_cast<uint32_t>(metric.kind));
    v3.PutU64(metric.count);
    v3.PutDouble(metric.sum);
    v3.PutDouble(std::numeric_limits<double>::infinity());
    v3.PutDouble(-std::numeric_limits<double>::infinity());
    for (int bucket = 0; bucket < 32; ++bucket) v3.PutU64(0);
  }
  payload.resize(payload.size() - v4_bag.size());
  payload += v3.Take();
  const uint32_t old_version = 3;
  payload.replace(0, sizeof(old_version),
                  reinterpret_cast<const char*>(&old_version),
                  sizeof(old_version));
  ASSERT_TRUE(data::WriteBlobFile(path, kCheckpointBlobKind, payload).ok());
  ExpectCleanFallback(data_.dataset, baseline_, dir, "format-3 record");
}

TEST_F(HostileCheckpointTest, SerialFingerprintRecordFallsBackCleanly) {
  // A record sealed when the fingerprint was one serial data::Hasher
  // over n, d and every value byte: that digest never equals the
  // chunked one, so the record is discarded and the run starts fresh.
  const std::string dir = MakeCheckpoint("serial_fingerprint");
  const std::string path = CheckpointFile(dir);
  std::string payload = data::ReadBlobFile(path, kCheckpointBlobKind).value();
  const uint64_t n = data_.dataset.num_points();
  const uint64_t d = data_.dataset.num_dims();
  const std::vector<double>& values = data_.dataset.values();
  data::Hasher serial;
  serial.Update(&n, sizeof(n));
  serial.Update(&d, sizeof(d));
  serial.Update(values.data(), values.size() * sizeof(double));
  const uint64_t old_fingerprint = serial.Digest();
  uint64_t sealed = 0;
  std::memcpy(&sealed, payload.data() + 4, sizeof(sealed));
  ASSERT_EQ(sealed, DatasetFingerprint(data_.dataset));
  ASSERT_NE(old_fingerprint, sealed);
  payload.replace(4, sizeof(old_fingerprint),
                  reinterpret_cast<const char*>(&old_fingerprint),
                  sizeof(old_fingerprint));
  ASSERT_TRUE(data::WriteBlobFile(path, kCheckpointBlobKind, payload).ok());
  ExpectCleanFallback(data_.dataset, baseline_, dir,
                      "serial-fingerprint record");
}

TEST(CheckpointResume, FingerprintTimeIsADriverGauge) {
  const auto data = MakeData(107);
  MetricBag durable;
  ASSERT_TRUE(RunPipeline(data.dataset,
                          MakeOptions(true, TempDir("fingerprint_gauge")),
                          nullptr, &durable)
                  .status.ok());
  EXPECT_EQ(durable.values().count("checkpoint.fingerprint_seconds"), 1u);
  EXPECT_GT(durable.GetGauge("checkpoint.fingerprint_seconds"), 0.0);
  // Without a checkpoint nothing is fingerprinted.
  MetricBag plain;
  ASSERT_TRUE(
      RunPipeline(data.dataset, MakeOptions(true, ""), nullptr, &plain)
          .status.ok());
  EXPECT_EQ(plain.values().count("checkpoint.fingerprint_seconds"), 0u);
}

TEST_F(HostileCheckpointTest, BlobContainerVersion1FallsBackCleanly) {
  // A P3CK v1 container sealed its payload with FNV-1a.
  const std::string dir = MakeCheckpoint("blob_v1");
  const std::string path = CheckpointFile(dir);
  std::string bytes = ReadFileBytes(path);
  const uint32_t old_version = 1;
  bytes.replace(4, sizeof(old_version),
                reinterpret_cast<const char*>(&old_version),
                sizeof(old_version));
  WriteFileBytes(path, bytes);
  ExpectCleanFallback(data_.dataset, baseline_, dir, "P3CK v1 container");
}

TEST_F(HostileCheckpointTest, ParameterMismatch) {
  const std::string dir = MakeCheckpoint("params_mismatch");
  MetricBag driver_metrics;
  P3CMROptions options = MakeOptions(false, dir);
  options.params.theta_cc = options.params.theta_cc * 0.5;  // different run
  RunOutput rerun;
  std::vector<std::string> log_lines;
  {
    ScopedLogCapture capture;
    rerun = RunPipeline(data_.dataset, options, nullptr, &driver_metrics);
    log_lines = capture.lines();
  }
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_GE(driver_metrics.Get(CheckpointManager::kCorruptCounter), 1u);
  EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"), 0.0);
  EXPECT_TRUE(LogsContain(log_lines, "checkpoint"));
}

TEST_F(HostileCheckpointTest, DatasetMismatch) {
  const std::string dir = MakeCheckpoint("dataset_mismatch");
  const auto other = MakeData(106);
  const RunOutput other_baseline = RunPipeline(other.dataset, MakeOptions(false, ""));
  ASSERT_TRUE(other_baseline.status.ok());
  ExpectCleanFallback(other.dataset, other_baseline, dir,
                      "checkpoint from a different dataset");
}

TEST_F(HostileCheckpointTest, DirectoryFromADifferentPipelineVariant) {
  // A light-pipeline checkpoint resumed by a full run: the params hash
  // covers `light`, so this is a different run — discard and redo.
  const std::string dir = TempDir("variant_mismatch");
  const RunOutput light_seeded =
      RunPipeline(data_.dataset, MakeOptions(true, dir));
  ASSERT_TRUE(light_seeded.status.ok());
  ExpectCleanFallback(data_.dataset, baseline_, dir,
                      "checkpoint from the light variant");
}

TEST_F(HostileCheckpointTest, MissingCheckpointIsAFreshStartNotCorruption) {
  const std::string dir = TempDir("fresh_start");
  MetricBag driver_metrics;
  const RunOutput rerun =
      RunPipeline(data_.dataset, MakeOptions(false, dir), nullptr, &driver_metrics);
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_EQ(rerun.canonical, baseline_.canonical);
  EXPECT_EQ(driver_metrics.Get(CheckpointManager::kCorruptCounter), 0u);
}

TEST_F(HostileCheckpointTest, OldManifestLayoutIsAFreshStart) {
  // A directory from a build that wrote MANIFEST.p3ck plus one file per
  // phase: nothing here reads that layout, so the run starts fresh.
  const std::string dir = TempDir("old_layout");
  ASSERT_TRUE(data::WriteBlobFile(dir + "/MANIFEST.p3ck", 0x4d414e49,
                                  "version-1 manifest")
                  .ok());
  WriteFileBytes(dir + "/phase-0-histogram.p3ck", "version-1 phase state");
  MetricBag driver_metrics;
  const RunOutput rerun = RunPipeline(data_.dataset, MakeOptions(false, dir),
                                      nullptr, &driver_metrics);
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_EQ(rerun.canonical, baseline_.canonical);
  EXPECT_EQ(rerun.counters_json, baseline_.counters_json);
  EXPECT_EQ(driver_metrics.Get(CheckpointManager::kCorruptCounter), 0u);
  EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"), 0.0);
  EXPECT_TRUE(fs::exists(CheckpointFile(dir)));
}

TEST_F(HostileCheckpointTest, CorruptionDoesNotStickAcrossRecommit) {
  // After a fallback run re-executed and re-committed every phase, the
  // directory is healthy again: a third run resumes cleanly.
  const std::string dir = MakeCheckpoint("recommit");
  const std::string path = CheckpointFile(dir);
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteFileBytes(path, bytes);
  ExpectCleanFallback(data_.dataset, baseline_, dir, "first fallback");
  MetricBag driver_metrics;
  const RunOutput resumed =
      RunPipeline(data_.dataset, MakeOptions(false, dir), nullptr, &driver_metrics);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.canonical, baseline_.canonical);
  EXPECT_EQ(driver_metrics.Get(CheckpointManager::kCorruptCounter), 0u);
  EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"),
            static_cast<double>(FullPhases().size()));
}

// ---------------------------------------------------------------------------
// Checksum-valid records that do not fit the live run
// ---------------------------------------------------------------------------

TEST_F(HostileCheckpointTest, UneditedCraftedCheckpointResumes) {
  // Control for the tests below: re-committing a record unchanged yields
  // a checkpoint that resumes, so each fallback there is the edit's.
  const std::string dir =
      CraftCheckpoint("crafted_control", false, [](PipelineCheckpoint&) {});
  MetricBag driver_metrics;
  const RunOutput resumed = RunPipeline(data_.dataset, MakeOptions(false, dir),
                                        nullptr, &driver_metrics);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.canonical, baseline_.canonical);
  EXPECT_EQ(resumed.counters_json, baseline_.counters_json);
  EXPECT_EQ(driver_metrics.Get(CheckpointManager::kCorruptCounter), 0u);
  EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"),
            static_cast<double>(FullPhases().size()));
}

TEST_F(HostileCheckpointTest, PhasesOutOfPipelineOrderAreRejected) {
  const std::string dir =
      CraftCheckpoint("bad_order", false, [](PipelineCheckpoint& state) {
        std::swap(state.completed[0], state.completed[1]);
      });
  ExpectCleanFallback(data_.dataset, baseline_, dir, "phase order");
}

TEST_F(HostileCheckpointTest, HistogramWithWrongBinCountIsRejected) {
  const std::string dir =
      CraftCheckpoint("bad_bins", false, [](PipelineCheckpoint& state) {
        state.histograms[3].counts().push_back(0);
      });
  ExpectCleanFallback(data_.dataset, baseline_, dir, "histogram bin count");
}

TEST_F(HostileCheckpointTest, CoreIntervalOutsideTheDatasetIsRejected) {
  const size_t d = data_.dataset.num_dims();
  const std::string dir =
      CraftCheckpoint("bad_attr", false, [d](PipelineCheckpoint& state) {
        core::Interval interval;
        interval.attr = d;
        interval.lower = 0.25;
        interval.upper = 0.5;
        state.cores[0].signature =
            state.cores[0].signature.With(interval).value();
      });
  ExpectCleanFallback(data_.dataset, baseline_, dir, "core attribute >= d");
}

TEST_F(HostileCheckpointTest, MembershipOutsideTheClustersIsRejected) {
  // Unchecked, an entry >= k indexes past the per-cluster arrays.
  for (const bool above : {true, false}) {
    const std::string dir = CraftCheckpoint(
        above ? "bad_member_hi" : "bad_member_lo", false,
        [above](PipelineCheckpoint& state) {
          state.membership[7] =
              above ? static_cast<int32_t>(state.cores.size()) : -3;
        });
    ExpectCleanFallback(data_.dataset, baseline_, dir,
                        above ? "membership >= k" : "membership < -2");
  }
}

TEST_F(HostileCheckpointTest, SupportSetIdOutsideTheDatasetIsRejected) {
  // Unchecked, an id >= n indexes past every per-point array.
  const auto n = static_cast<data::PointId>(data_.dataset.num_points());
  const std::string dir =
      CraftCheckpoint("bad_point_id", true, [n](PipelineCheckpoint& state) {
        state.support_sets[0].push_back(n);
      });
  ExpectCleanFallback(data_.dataset, LightBaseline(), dir, "point id >= n",
                      /*light=*/true);
}

TEST_F(HostileCheckpointTest, UnsortedSupportSetIsRejected) {
  const std::string dir =
      CraftCheckpoint("unsorted_set", true, [](PipelineCheckpoint& state) {
        std::vector<data::PointId>& set = state.support_sets[0];
        ASSERT_GE(set.size(), 2u);
        std::swap(set[0], set[1]);
      });
  ExpectCleanFallback(data_.dataset, LightBaseline(), dir,
                      "support set out of order", /*light=*/true);
}

TEST_F(HostileCheckpointTest, GmmMeanOfWrongLengthIsRejected) {
  const std::string dir =
      CraftCheckpoint("bad_mean", false, [](PipelineCheckpoint& state) {
        state.model.components[0].mean.push_back(0.5);
      });
  ExpectCleanFallback(data_.dataset, baseline_, dir, "mean length");
}

TEST_F(HostileCheckpointTest, GmmCovarianceOfWrongShapeIsRejected) {
  const std::string dir =
      CraftCheckpoint("bad_cov", false, [](PipelineCheckpoint& state) {
        const size_t dim = state.model.arel.size();
        state.model.components[0].cov = linalg::Matrix(dim + 1, dim + 1);
      });
  ExpectCleanFallback(data_.dataset, baseline_, dir, "covariance shape");
}

// ---------------------------------------------------------------------------
// Mutation test over checkpoint.p3ck
// ---------------------------------------------------------------------------

/// Byte offsets of structural 8-byte words in a full-pipeline record
/// payload (layout: EncodeRecord in src/mr/checkpoint.cc): the
/// completed-phase count, each phase name's length, the histogram count,
/// each histogram's bin count, the core count, and the first core's
/// interval count.
std::vector<size_t> LengthPrefixOffsets(size_t dims, uint64_t bins) {
  std::vector<size_t> offsets;
  size_t offset = 4 + 8 + 8;  // version, dataset fingerprint, params hash
  offsets.push_back(offset);
  offset += 8;
  for (const std::string& name : FullPhases()) {
    offsets.push_back(offset);
    offset += 8 + name.size();
  }
  offsets.push_back(offset);
  offset += 8;
  for (size_t a = 0; a < dims; ++a) {
    offsets.push_back(offset);
    offset += 8 + 8 * bins;
  }
  offset += 7 * 8 + 4;  // CoreDetectionStats
  offsets.push_back(offset);
  offsets.push_back(offset + 8);
  return offsets;
}

TEST_F(HostileCheckpointTest, MutatedCheckpointFallsBackCleanly) {
  const std::string seeded = MakeCheckpoint("mutation_seed");
  const std::string file = ReadFileBytes(CheckpointFile(seeded));
  const std::string payload =
      data::ReadBlobFile(CheckpointFile(seeded), kCheckpointBlobKind).value();
  const std::vector<size_t> words = LengthPrefixOffsets(
      data_.dataset.num_dims(),
      stats::NumBins(core::P3CParams().binning, data_.dataset.num_points()));
  // Resealed bit flips hit the record header or a length prefix.
  std::vector<size_t> structural_bytes;
  for (size_t b = 0; b < words.front(); ++b) structural_bytes.push_back(b);
  for (size_t word : words) {
    for (size_t b = 0; b < 8; ++b) structural_bytes.push_back(word + b);
  }
  constexpr uint64_t kHugeLength = uint64_t{1} << 62;
  for (const uint64_t seed : {11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22}) {
    // Seeds cycle through the three mutations, and every other triple
    // re-seals the P3CK checksum over the mutated payload. An unsealed
    // mutation may land anywhere in the file: the container's size and
    // checksum catch it. A resealed one is up to the decoder, so it
    // changes what the decoder judges: a truncation anywhere, or a
    // header word or length prefix. A resealed flip of a stored value
    // (a count, a mean) would be a different but well-formed record.
    std::mt19937_64 rng(seed);
    const uint64_t kind = seed % 3;
    const bool reseal = (seed / 3) % 2 == 1;
    std::string bytes = reseal ? payload : file;
    std::string scenario;
    if (kind == 0) {
      const size_t at = reseal
                            ? structural_bytes[rng() % structural_bytes.size()]
                            : rng() % bytes.size();
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << (rng() % 8)));
      scenario = "bit flip at " + std::to_string(at);
    } else if (kind == 1) {
      bytes.resize(rng() % bytes.size());
      scenario = "truncation to " + std::to_string(bytes.size());
    } else {
      const size_t at =
          reseal ? words[rng() % words.size()] : rng() % (bytes.size() - 8);
      bytes.replace(at, sizeof(kHugeLength),
                    reinterpret_cast<const char*>(&kHugeLength),
                    sizeof(kHugeLength));
      scenario = "huge length at " + std::to_string(at);
    }
    scenario += reseal ? " (resealed)" : "";
    const std::string dir = TempDir("mutation_" + std::to_string(seed));
    if (reseal) {
      ASSERT_TRUE(data::WriteBlobFile(CheckpointFile(dir), kCheckpointBlobKind,
                                      bytes)
                      .ok());
    } else {
      WriteFileBytes(CheckpointFile(dir), bytes);
    }
    ExpectCleanFallback(data_.dataset, baseline_, dir, scenario);
  }
}

}  // namespace
}  // namespace p3c::mr
