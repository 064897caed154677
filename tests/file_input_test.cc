// Tests of the file input: data::BinaryDatasetReader, and P3C+-MR-Light
// reading a container through it one map range at a time. A file-backed
// run must give the result and counters of the in-memory run on the
// loaded Dataset, and every fault of the file must surface as a Status.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/common/resource.h"
#include "src/common/string_util.h"
#include "src/common/threadpool.h"
#include "src/core/p3c.h"
#include "src/core/rssc.h"
#include "src/data/generator.h"
#include "src/data/io.h"
#include "src/mapreduce/fault.h"
#include "src/mr/checkpoint.h"
#include "src/mr/p3c_mr.h"
#include "src/stats/histogram.h"

#if defined(__SANITIZE_THREAD__)
#define P3C_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define P3C_TSAN 1
#endif
#endif

namespace p3c {
namespace {

using data::BinaryDatasetReader;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

data::SyntheticData MakeData(uint64_t seed, size_t n = 6000) {
  data::GeneratorConfig config;
  config.num_points = n;
  config.num_dims = 30;
  config.num_clusters = 3;
  config.noise_fraction = 0.10;
  config.seed = seed;
  return data::GenerateSynthetic(config).value();
}

/// The engine backends a test can run on: TSan does not support forking
/// a multithreaded process.
std::vector<mr::Backend> Backends() {
  std::vector<mr::Backend> backends = {mr::Backend::kInProcess};
#ifndef P3C_TSAN
  backends.push_back(mr::Backend::kProcess);
#endif
  return backends;
}

std::string WriteFile(const data::Dataset& dataset, const char* name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(data::WriteBinary(dataset, path).ok());
  return path;
}

/// Shortens `path` by `bytes`.
void Shrink(const std::string& path, long bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  ASSERT_GT(size, bytes);
  ASSERT_EQ(ftruncate(fileno(f), size - bytes), 0);
  std::fclose(f);
}

/// Flips the low bit of the byte at `offset`.
void FlipByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(byte ^ 0x01, f);
  std::fclose(f);
}

// ---- BinaryDatasetReader ----------------------------------------------------

TEST(BinaryDatasetReaderTest, HeaderAndRows) {
  const auto data = MakeData(51, 1000);
  const std::string path = WriteFile(data.dataset, "reader.p3cd");
  auto reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->num_points(), 1000u);
  EXPECT_EQ(reader->num_dims(), 30u);
  // Reads of any length at any row give the stored values.
  const std::vector<double>& want = data.dataset.values();
  for (size_t count : {size_t{1}, size_t{64}, size_t{128}}) {
    std::vector<double> rows(count * 30);
    for (size_t begin = 0; begin < 1000; begin += count) {
      const size_t n = std::min<size_t>(count, 1000 - begin);
      ASSERT_TRUE(reader->ReadRows(begin, n, rows.data()).ok());
      EXPECT_EQ(std::memcmp(rows.data(), want.data() + begin * 30,
                            n * 30 * sizeof(double)),
                0)
          << "rows " << begin << " + " << n;
    }
  }
  std::remove(path.c_str());
}

TEST(BinaryDatasetReaderTest, RowsPastTheEndAreOutOfRange) {
  const auto data = MakeData(52, 500);
  const std::string path = WriteFile(data.dataset, "reader_range.p3cd");
  auto reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<double> rows(64 * 30);
  EXPECT_TRUE(reader->ReadRows(500, 0, rows.data()).ok());
  EXPECT_EQ(reader->ReadRows(450, 64, rows.data()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(reader->ReadRows(501, 0, rows.data()).code(),
            StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(BinaryDatasetReaderTest, RejectsGarbage) {
  const std::string path = TempPath("garbage.p3cd");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage bytes, definitely not a P3CD header", f);
  std::fclose(f);
  EXPECT_FALSE(BinaryDatasetReader::Open(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryDatasetReaderTest, MissingFileIsAnError) {
  const auto reader = BinaryDatasetReader::Open(TempPath("nope.p3cd"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
}

TEST(BinaryDatasetReaderTest, OpenRejectsTruncatedFile) {
  const auto data = MakeData(56, 300);
  const std::string path = WriteFile(data.dataset, "reader_trunc.p3cd");
  Shrink(path, 8);  // drop one double
  auto reader = BinaryDatasetReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
  EXPECT_NE(reader.status().message().find("truncated"), std::string::npos)
      << reader.status().ToString();
  std::remove(path.c_str());
}

TEST(BinaryDatasetReaderTest, OpenRejectsAFlippedPayloadByteAnywhere) {
  // The size is unchanged, so only the checksum can catch the flip;
  // Open reads the payload in 1 MiB chunks, and a 300 x 30 payload is
  // 72,000 bytes, so these offsets include the first and last byte.
  const auto data = MakeData(57, 300);
  const long header = 32;
  const long payload = 300 * 30 * 8;
  for (long offset : {header, header + 1000, header + payload - 1}) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    const std::string path = WriteFile(data.dataset, "reader_flip.p3cd");
    FlipByte(path, offset);
    auto reader = BinaryDatasetReader::Open(path);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
    EXPECT_NE(reader.status().message().find("checksum mismatch"),
              std::string::npos)
        << reader.status().ToString();
    std::remove(path.c_str());
  }
}

TEST(BinaryDatasetReaderTest, ReadAfterTheFileShrankIsAnIOError) {
  const auto data = MakeData(58, 400);
  const std::string path = WriteFile(data.dataset, "reader_shrink.p3cd");
  auto reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  Shrink(path, 4096);
  std::vector<double> rows(64 * 30);
  EXPECT_TRUE(reader->ReadRows(0, 64, rows.data()).ok());
  const Status st = reader->ReadRows(336, 64, rows.data());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("truncated"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(BinaryDatasetReaderTest, FingerprintEqualsTheLoadedDatasets) {
  const auto data = MakeData(59, 700);
  const std::string path = WriteFile(data.dataset, "reader_fp.p3cd");
  auto reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(mr::DatasetFingerprint(*reader),
            mr::DatasetFingerprint(data.dataset));
  data::Dataset other = data.dataset;
  other.Set(699, 29, 0.5 * other.Get(699, 29));
  EXPECT_NE(mr::DatasetFingerprint(*reader), mr::DatasetFingerprint(other));
  std::remove(path.c_str());
}

TEST(BinaryDatasetReaderTest, FingerprintAgreesAtEveryPoolWidth) {
  // Payloads below, at, and past one chunk, the last one with a short
  // final chunk (5000 x 30 doubles = 1.14 chunks).
  constexpr size_t kChunk = data::kFingerprintChunkBytes;
  ThreadPool one(1);
  ThreadPool four(4);
  for (const auto& [n, d] : {std::pair<size_t, size_t>{700, 30},
                             {kChunk / (32 * sizeof(double)), 32},
                             {5000, 30}}) {
    SCOPED_TRACE(StringPrintf("%zu x %zu", n, d));
    data::GeneratorConfig config;
    config.num_points = n;
    config.num_dims = d;
    config.num_clusters = 3;
    config.seed = 61;
    const data::Dataset dataset = data::GenerateSynthetic(config)->dataset;
    const std::string path = WriteFile(dataset, "reader_fp_pool.p3cd");
    auto reader = BinaryDatasetReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    // The definition: a Hasher over n, d and the chunk digests in order.
    const std::vector<double>& values = dataset.values();
    const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
    const size_t size = values.size() * sizeof(double);
    data::Hasher expected;
    const uint64_t n64 = n;
    const uint64_t d64 = d;
    expected.Update(&n64, sizeof(n64));
    expected.Update(&d64, sizeof(d64));
    for (size_t begin = 0; begin < size; begin += kChunk) {
      const uint64_t chunk =
          data::Hash64(bytes + begin, std::min(kChunk, size - begin));
      expected.Update(&chunk, sizeof(chunk));
    }
    EXPECT_EQ(reader->fingerprint(), expected.Digest());
    EXPECT_EQ(mr::DatasetFingerprint(*reader), expected.Digest());
    EXPECT_EQ(mr::DatasetFingerprint(dataset), expected.Digest());
    EXPECT_EQ(mr::DatasetFingerprint(dataset, &one), expected.Digest());
    EXPECT_EQ(mr::DatasetFingerprint(dataset, &four), expected.Digest());
    std::remove(path.c_str());
  }
}

// ---- P3C+-MR-Light over the file --------------------------------------------

/// Everything the output contract covers, bit for bit: the cores with
/// their supports, Arel, and per cluster its attributes, intervals and
/// points.
std::string Canonical(const core::ClusteringResult& r) {
  std::string out = "cores:";
  for (const auto& core : r.cores) {
    out += " " + core.signature.ToString() + "#" +
           std::to_string(core.support);
  }
  out += "\narel:";
  for (size_t a : r.arel) out += " " + std::to_string(a);
  for (const auto& cluster : r.clusters) {
    out += "\ncluster attrs:";
    for (size_t a : cluster.attrs) out += " " + std::to_string(a);
    out += " intervals:";
    for (const auto& iv : cluster.intervals) {
      out += StringPrintf(" %zu:[%a,%a]", iv.attr, iv.lower, iv.upper);
    }
    out += " points:";
    for (data::PointId p : cluster.points) out += " " + std::to_string(p);
  }
  return out;
}

struct LightRun {
  Status status;
  std::string digest;
  std::string counters_json;
  size_t num_jobs = 0;
};

LightRun RunLight(const data::RowInput& input, mr::RunnerOptions runner,
                  core::P3CParams params = core::LightParams(),
                  const std::string& checkpoint_dir = "") {
  mr::P3CMROptions options;
  options.params = params;
  options.runner = runner;
  options.checkpoint_dir = checkpoint_dir;
  mr::P3CMR pipeline{options};
  auto result = pipeline.Cluster(input);
  LightRun run;
  run.num_jobs = pipeline.metrics().num_jobs();
  if (!result.ok()) {
    run.status = result.status();
    return run;
  }
  const std::string text = Canonical(*result);
  run.digest = StringPrintf(
      "%016llx",
      static_cast<unsigned long long>(data::Hash64(text.data(), text.size())));
  run.counters_json = pipeline.counters().ToJson();
  return run;
}

TEST(FileInputTest, FileRunEqualsInMemoryRunOnEveryEngine) {
  const auto data = MakeData(61);
  const std::string path = WriteFile(data.dataset, "file_engines.p3cd");
  auto file = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  mr::RunnerOptions one_thread;
  one_thread.num_threads = 1;
  const LightRun reference = RunLight(data.dataset, one_thread);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_NE(reference.counters_json.find("support/points"), std::string::npos);

  struct Engine {
    std::string label;
    mr::RunnerOptions runner;
  };
  std::vector<Engine> engines;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (mr::Backend backend : Backends()) {
      mr::RunnerOptions runner;
      runner.num_threads = threads;
      runner.backend = backend;
      runner.num_workers = threads;
      engines.push_back({StringPrintf("threads=%zu %s", threads,
                                      backend == mr::Backend::kProcess
                                          ? "process"
                                          : "inprocess"),
                         runner});
    }
  }
  for (const Engine& engine : engines) {
    SCOPED_TRACE(engine.label);
    const LightRun run = RunLight(*file, engine.runner);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_EQ(run.digest, reference.digest);
    EXPECT_EQ(run.counters_json, reference.counters_json);
    EXPECT_EQ(run.num_jobs, reference.num_jobs);
  }
  std::remove(path.c_str());
}

TEST(FileInputTest, RetriedMapTaskLeavesResultAndCountersUnchanged) {
  const auto data = MakeData(62, 4000);
  const std::string path = WriteFile(data.dataset, "file_retry.p3cd");
  auto file = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(file.ok());
  mr::RunnerOptions clean;
  clean.num_threads = 2;
  const LightRun reference = RunLight(data.dataset, clean);
  ASSERT_TRUE(reference.status.ok());

  // The first attempt of every job's first map task fails; its retry
  // reads the same rows again.
  mr::ScriptedFaultInjector injector;
  mr::ScriptedFaultInjector::Rule rule;
  rule.kind = mr::TaskKind::kMap;
  rule.task_index = 0;
  rule.attempt = 0;
  rule.fires = mr::ScriptedFaultInjector::kUnlimitedFires;
  injector.AddRule(rule);
  mr::RunnerOptions flaky = clean;
  flaky.max_attempts = 2;
  flaky.fault_injector = &injector;
  const LightRun run = RunLight(*file, flaky);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.digest, reference.digest);
  EXPECT_EQ(run.counters_json, reference.counters_json);
  std::remove(path.c_str());
}

TEST(FileInputTest, MatchesInMemoryLightPipeline) {
  const auto data = MakeData(53);
  const std::string path = WriteFile(data.dataset, "file_serial.p3cd");
  auto file = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(file.ok());
  core::P3CParams params = core::LightParams();
  params.multilevel_candidates = false;
  core::P3CPipeline in_memory{params, /*num_threads=*/1};
  auto want = in_memory.Cluster(data.dataset);
  ASSERT_TRUE(want.ok());

  mr::P3CMROptions options;
  options.params = params;
  mr::P3CMR pipeline{options};
  auto got = pipeline.Cluster(*file);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  ASSERT_EQ(got->cores.size(), want->cores.size());
  for (size_t c = 0; c < got->cores.size(); ++c) {
    EXPECT_EQ(got->cores[c].signature, want->cores[c].signature);
    EXPECT_EQ(got->cores[c].support, want->cores[c].support);
  }
  ASSERT_FALSE(got->clusters.empty());
  ASSERT_EQ(got->clusters.size(), want->clusters.size());
  for (size_t c = 0; c < got->clusters.size(); ++c) {
    EXPECT_EQ(got->clusters[c].attrs, want->clusters[c].attrs);
    ASSERT_EQ(got->clusters[c].intervals.size(),
              want->clusters[c].intervals.size());
    for (size_t j = 0; j < got->clusters[c].intervals.size(); ++j) {
      EXPECT_EQ(got->clusters[c].intervals[j].lower,
                want->clusters[c].intervals[j].lower);
      EXPECT_EQ(got->clusters[c].intervals[j].upper,
                want->clusters[c].intervals[j].upper);
    }
    // A Light cluster reports its core's whole support set.
    EXPECT_EQ(got->clusters[c].points.size(), got->cores[c].support);
    EXPECT_EQ(got->clusters[c].points, want->clusters[c].points);
  }
  std::remove(path.c_str());
}

TEST(FileInputTest, SplitSizeDoesNotChangeResult) {
  const auto data = MakeData(54, 3000);
  const std::string path = WriteFile(data.dataset, "file_splits.p3cd");
  auto file = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(file.ok());
  const LightRun whole = RunLight(*file, mr::RunnerOptions{});
  mr::RunnerOptions tiny;
  tiny.records_per_split = 64;
  const LightRun split = RunLight(*file, tiny);
  ASSERT_TRUE(whole.status.ok()) << whole.status.ToString();
  ASSERT_TRUE(split.status.ok()) << split.status.ToString();
  EXPECT_EQ(split.digest, whole.digest);
  std::remove(path.c_str());
}

/// Truncates the file once, at the start of the first support-count
/// attempt: after the histogram job has read the whole file.
class TruncateAtFirstSupportCount : public mr::FaultInjector {
 public:
  explicit TruncateAtFirstSupportCount(std::string path)
      : path_(std::move(path)) {}

  Status OnAttemptStart(const mr::TaskAttempt& attempt) override {
    if (attempt.job_name == "support-count" && !fired_.exchange(true)) {
      Shrink(path_, 4096);
    }
    return Status::OK();
  }
  bool fired() const { return fired_.load(); }

 private:
  std::string path_;
  std::atomic<bool> fired_{false};
};

// A support-count job whose rows vanish mid-run must fail the pipeline
// with the reader's IOError, never count the missing rows as zero
// support and report a clean result.
TEST(FileInputTest, TruncationMidRunIsAnIOErrorNotACleanResult) {
  const auto data = MakeData(57);
  const std::string path = WriteFile(data.dataset, "file_truncate.p3cd");
  for (mr::Backend backend : Backends()) {
    SCOPED_TRACE(backend == mr::Backend::kProcess ? "process" : "inprocess");
    ASSERT_TRUE(data::WriteBinary(data.dataset, path).ok());
    auto file = BinaryDatasetReader::Open(path);
    ASSERT_TRUE(file.ok());
    TruncateAtFirstSupportCount injector(path);
    mr::RunnerOptions runner;
    runner.num_threads = 2;
    runner.backend = backend;
    runner.fault_injector = &injector;
    const LightRun run = RunLight(*file, runner);
    ASSERT_TRUE(injector.fired()) << "no support-count attempt ran";
    ASSERT_FALSE(run.status.ok())
        << "a truncated file produced a clean result";
    EXPECT_EQ(run.status.code(), StatusCode::kIOError)
        << run.status.ToString();
    EXPECT_NE(run.status.message().find("truncated"), std::string::npos)
        << run.status.ToString();
    EXPECT_NE(run.status.message().find("support-count"), std::string::npos)
        << run.status.ToString();
  }
  std::remove(path.c_str());
}

TEST(FileInputTest, HistogramJobRejectsValuesOutsideUnitRange) {
  const std::string path = TempPath("file_range.p3cd");
  for (double value : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(), -1e-300,
                       1.0 + 0x1.0p-52, -0.0, 1.0}) {
    SCOPED_TRACE(StringPrintf("value %a", value));
    data::Dataset dataset = MakeData(53, 2000).dataset;
    dataset.Set(1500, 7, value);
    ASSERT_TRUE(data::WriteBinary(dataset, path).ok());
    auto file = BinaryDatasetReader::Open(path);
    ASSERT_TRUE(file.ok());
    const LightRun run = RunLight(*file, mr::RunnerOptions{});
    if (value >= 0.0 && value <= 1.0) {
      EXPECT_TRUE(run.status.ok()) << run.status.ToString();
    } else {
      ASSERT_FALSE(run.status.ok());
      EXPECT_EQ(run.status.code(), StatusCode::kInvalidArgument)
          << run.status.ToString();
    }
  }
  std::remove(path.c_str());
}

TEST(FileInputTest, Version1ContainerRuns) {
  const auto data = MakeData(63, 3000);
  const std::string path = TempPath("file_v1.p3cd");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char magic[4] = {'P', '3', 'C', 'D'};
  const uint32_t version = 1;
  const uint64_t n = data.dataset.num_points();
  const uint64_t d = data.dataset.num_dims();
  ASSERT_EQ(std::fwrite(magic, 1, sizeof(magic), f), sizeof(magic));
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&n, sizeof(n), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&d, sizeof(d), 1, f), 1u);
  const auto& values = data.dataset.values();
  ASSERT_EQ(std::fwrite(values.data(), sizeof(double), values.size(), f),
            values.size());
  std::fclose(f);
  auto file = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(mr::DatasetFingerprint(*file),
            mr::DatasetFingerprint(data.dataset));
  const LightRun run = RunLight(*file, mr::RunnerOptions{});
  const LightRun reference = RunLight(data.dataset, mr::RunnerOptions{});
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.digest, reference.digest);
  std::remove(path.c_str());
}

TEST(FileInputTest, FullPipelineOnAFileIsNotImplemented) {
  const auto data = MakeData(64, 1000);
  const std::string path = WriteFile(data.dataset, "file_full.p3cd");
  auto file = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(file.ok());
  mr::P3CMR pipeline{mr::P3CMROptions{}};
  ASSERT_FALSE(pipeline.params().light);
  const auto result = pipeline.Cluster(*file);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
  EXPECT_EQ(pipeline.metrics().num_jobs(), 0u);
  std::remove(path.c_str());
}

/// A container reader that counts the ReadRows calls and rows of each
/// job, and the fault injector that tells it which job runs: with one
/// worker thread in-process, attempts run one at a time, and a job's
/// first map attempt starts its count.
class CountingReader : public BinaryDatasetReader {
 public:
  struct JobReads {
    std::string job;
    size_t calls = 0;
    size_t rows = 0;
  };

  explicit CountingReader(BinaryDatasetReader reader)
      : BinaryDatasetReader(std::move(reader)) {}

  Status ReadRows(uint64_t begin, size_t count, double* out) const override {
    if (!jobs_.empty()) {
      ++jobs_.back().calls;
      jobs_.back().rows += count;
    }
    return BinaryDatasetReader::ReadRows(begin, count, out);
  }

  void StartJob(const std::string& job) const { jobs_.push_back({job}); }
  const std::vector<JobReads>& jobs() const { return jobs_; }

 private:
  mutable std::vector<JobReads> jobs_;
};

class JobStarts : public mr::ScriptedFaultInjector {
 public:
  explicit JobStarts(const CountingReader& reader) : reader_(reader) {}

  Status OnAttemptStart(const mr::TaskAttempt& attempt) override {
    if (attempt.kind == mr::TaskKind::kMap && attempt.task_index == 0 &&
        attempt.attempt == 0) {
      reader_.StartJob(attempt.job_name);
    }
    return mr::ScriptedFaultInjector::OnAttemptStart(attempt);
  }

 private:
  const CountingReader& reader_;
};

/// Each job's reads in a run with one core-generation support job that
/// fails once: [histogram, failed support-count, the support-count jobs
/// and support-sets before cluster-histograms, cluster-histograms, the
/// AI-proving support-count, interval-tightening].
struct RunReads {
  std::vector<CountingReader::JobReads> before_histograms;
  std::vector<CountingReader::JobReads> after_histograms;
};

RunReads SplitAtClusterHistograms(
    const std::vector<CountingReader::JobReads>& jobs) {
  RunReads reads;
  bool after = false;
  for (const auto& job : jobs) {
    if (job.job == "cluster-histograms") after = true;
    (after ? reads.after_histograms : reads.before_histograms).push_back(job);
  }
  return reads;
}

TEST(FileInputTest, IntervalIndexRemovesTheRowReads) {
  // Two or more core-generation batches, and an AI-proving batch.
  data::GeneratorConfig config;
  config.num_points = 4000;
  config.num_dims = 30;
  config.num_clusters = 3;
  config.noise_fraction = 0.10;
  config.max_cluster_dims = 4;
  config.seed = 61;
  const auto data = data::GenerateSynthetic(config).value();
  const size_t n = data.dataset.num_points();
  const std::string path = WriteFile(data.dataset, "file_index.p3cd");
  auto open_counting = [&path] {
    auto opened = BinaryDatasetReader::Open(path);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::make_unique<CountingReader>(std::move(opened).value());
  };
  mr::RunnerOptions one_thread;
  one_thread.num_threads = 1;
  const size_t num_ranges =
      core::IntervalIndex({}, n, mr::LocalRunner(one_thread).SplitSize(n))
          .num_ranges();
  const LightRun reference = RunLight(data.dataset, one_thread);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

  // One thread in-process, so the reader sees one job at a time; the
  // first support-count job fails once and the pipeline runs it again.
  {
    const auto file = open_counting();
    JobStarts starts(*file);
    starts.FailOnce("support-count", 0, 0);
    mr::RunnerOptions counted = one_thread;
    counted.max_attempts = 1;
    counted.fault_injector = &starts;
    const LightRun run = RunLight(*file, counted);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_EQ(run.digest, reference.digest);
    EXPECT_EQ(run.counters_json, reference.counters_json);

    const RunReads reads = SplitAtClusterHistograms(file->jobs());
    const auto& before = reads.before_histograms;
    ASSERT_GE(before.size(), 5u);  // histogram, failed, >= 2 batches, sets
    EXPECT_EQ(before[0].job, "histogram");
    EXPECT_EQ(before[0].rows, n);
    EXPECT_EQ(before[1].job, "support-count");
    EXPECT_EQ(before[1].rows, 0u);  // the failed attempt read nothing
    // The first batch reads every range and fills the index.
    EXPECT_EQ(before[2].job, "support-count");
    EXPECT_EQ(before[2].calls, num_ranges);
    EXPECT_EQ(before[2].rows, n);
    // Every later core batch, and the support sets, read no row.
    for (size_t j = 3; j + 1 < before.size(); ++j) {
      EXPECT_EQ(before[j].job, "support-count");
      EXPECT_EQ(before[j].calls, 0u) << "core batch " << j - 1;
    }
    EXPECT_EQ(before.back().job, "support-sets");
    EXPECT_EQ(before.back().calls, 0u);
    // The AI-proving batch carries intervals born after the index.
    const auto& after = reads.after_histograms;
    ASSERT_EQ(after.size(), 3u);
    EXPECT_EQ(after[0].rows, n);
    EXPECT_EQ(after[1].job, "support-count");
    EXPECT_EQ(after[1].calls, num_ranges);
    EXPECT_EQ(after[1].rows, n);
    EXPECT_EQ(after[2].job, "interval-tightening");
  }

  // Every engine, with the first support-count job failing once.
  const auto file = open_counting();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (mr::Backend backend : Backends()) {
      SCOPED_TRACE(StringPrintf("threads=%zu %s", threads,
                                backend == mr::Backend::kProcess
                                    ? "process"
                                    : "inprocess"));
      mr::ScriptedFaultInjector injector;
      injector.FailOnce("support-count", 0, 0);
      mr::RunnerOptions runner;
      runner.num_threads = threads;
      runner.backend = backend;
      runner.num_workers = threads;
      runner.max_attempts = 1;
      runner.fault_injector = &injector;
      const LightRun run = RunLight(*file, runner);
      ASSERT_TRUE(run.status.ok()) << run.status.ToString();
      EXPECT_EQ(injector.injected_faults(), 1u);
      EXPECT_EQ(run.digest, reference.digest);
      EXPECT_EQ(run.counters_json, reference.counters_json);
    }
  }

  // A run resumed past cluster-cores has no index: its support sets scan
  // the rows, and its output and counters are the plain run's.
  const std::string dir = TempPath("file_index_ckpt");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    mr::ScriptedFaultInjector crash;
    crash.FailAfterPhase("cluster-cores");
    mr::RunnerOptions runner = one_thread;
    runner.fault_injector = &crash;
    const LightRun crashed =
        RunLight(*file, runner, core::LightParams(), dir);
    ASSERT_FALSE(crashed.status.ok());
  }
  const auto resumed_file = open_counting();
  JobStarts starts(*resumed_file);
  mr::RunnerOptions runner = one_thread;
  runner.fault_injector = &starts;
  const LightRun resumed =
      RunLight(*resumed_file, runner, core::LightParams(), dir);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.digest, reference.digest);
  EXPECT_EQ(resumed.counters_json, reference.counters_json);
  ASSERT_FALSE(resumed_file->jobs().empty());
  EXPECT_EQ(resumed_file->jobs().front().job, "support-sets");
  EXPECT_EQ(resumed_file->jobs().front().calls, num_ranges);
  std::filesystem::remove_all(dir);
  std::remove(path.c_str());
}

TEST(FileInputTest, ManyIntervalsPerAttributeScanRowsWithoutAnIndex) {
  // d = 2 with 9 dense spikes in every other bin of each attribute, point
  // p on spike p mod 9 of both: 18 relevant intervals, more than the 8·d
  // = 16 an index may hold (it would take 1/8 of the dataset's bytes or
  // more), so the run builds none and every support batch scans the rows.
  constexpr size_t kD = 2;
  constexpr size_t kSpikes = 9;
  constexpr size_t kN = 72000;
  const core::P3CParams params = core::LightParams();
  const uint64_t bins = stats::NumBins(params.binning, kN);
  ASSERT_GE(bins, 2 * kSpikes);
  data::Dataset dataset(kN, kD);
  for (size_t p = 0; p < kN; ++p) {
    const double spike = 2.0 * static_cast<double>(p % kSpikes) + 0.5;
    for (size_t a = 0; a < kD; ++a) {
      const double jitter =
          static_cast<double>((p * 7919 + a * 104729) % 1000) / 1000.0 - 0.5;
      dataset.Set(static_cast<data::PointId>(p), a,
                  (spike + 0.4 * jitter) / static_cast<double>(bins));
    }
  }
  const std::string path = WriteFile(dataset, "file_no_index.p3cd");
  auto opened = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const CountingReader file(std::move(opened).value());
  mr::RunnerOptions one_thread;
  one_thread.num_threads = 1;
  const size_t num_ranges =
      core::IntervalIndex({}, kN, mr::LocalRunner(one_thread).SplitSize(kN))
          .num_ranges();

  core::P3CPipeline serial{params, /*num_threads=*/1};
  auto want = serial.Cluster(dataset);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->cores.size(), kSpikes);
  std::vector<core::Interval> intervals;
  for (const auto& core : want->cores) {
    for (const auto& iv : core.signature.intervals()) {
      const auto same = [&iv](const core::Interval& other) {
        return other.attr == iv.attr && other.lower == iv.lower &&
               other.upper == iv.upper;
      };
      if (std::none_of(intervals.begin(), intervals.end(), same)) {
        intervals.push_back(iv);
      }
    }
  }
  ASSERT_GT(intervals.size(), 8 * kD);
  const std::string text = Canonical(*want);
  const std::string want_digest = StringPrintf(
      "%016llx",
      static_cast<unsigned long long>(data::Hash64(text.data(), text.size())));

  resource::MemoryTracker& tracker = resource::MemoryTracker::Global();
  tracker.Enable(true);
  tracker.ResetRun();
  JobStarts starts(file);
  mr::RunnerOptions counted = one_thread;
  counted.fault_injector = &starts;
  const LightRun run = RunLight(file, counted, params);
  const int64_t index_peak = tracker.PeakBytes(resource::MemScope::kRsscIndex);
  tracker.Enable(false);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.digest, want_digest);
  // What the RSSC objects hold, far below an index's words.
  EXPECT_LT(index_peak,
            static_cast<int64_t>(intervals.size() * num_ranges *
                                 sizeof(uint64_t) / 4));

  size_t support_jobs = 0;
  for (const auto& job : file.jobs()) {
    SCOPED_TRACE(job.job);
    if (job.job == "support-count" || job.job == "support-sets") {
      support_jobs += job.job == "support-count" ? 1 : 0;
      EXPECT_EQ(job.calls, num_ranges);
      EXPECT_EQ(job.rows, kN);
    }
  }
  EXPECT_GE(support_jobs, 2u);  // the first batch and a later one
  std::remove(path.c_str());
}

TEST(FileInputTest, FileRunHoldsAtMostOneMapRangeOfRowsPerThread) {
  const size_t threads = 3;
  const size_t dims = 30;
  std::string path;
  {
    // The dataset dies before the run, so no charge of it remains.
    const auto data = MakeData(65, 5000);
    path = WriteFile(data.dataset, "file_memory.p3cd");
  }
  auto file = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(file.ok());
  resource::MemoryTracker& tracker = resource::MemoryTracker::Global();
  tracker.Enable(true);
  mr::P3CMROptions options;
  options.params.light = true;
  options.runner.num_threads = threads;
  mr::P3CMR pipeline{options};
  const auto result = pipeline.Cluster(*file);
  tracker.Enable(false);
  tracker.ResetRun();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->clusters.empty());
  const double peak =
      pipeline.driver_metrics().GetGauge("mem.dataset.peak_bytes");
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, static_cast<double>(threads * 64 * dims * sizeof(double)));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace p3c
