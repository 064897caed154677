// Tests of the multi-process worker backend (DESIGN.md §16), built as
// its own binary so the worker-smoke ctest label can run it in
// isolation under the sanitizer builds (ASan only: TSan forbids
// forking from a multithreaded process). Four pillars:
//
//   1. Wire protocol: frames round-trip byte-exactly through the
//      incremental reader, and every corruption — bit flip, bad magic,
//      truncation, trailing garbage — is detected, never half-parsed.
//   2. Determinism: `--backend=process` output and counter JSON are
//      byte-identical to the in-process backend across thread counts,
//      split sizes, and reducer counts.
//   3. Crash recovery with REAL processes: a worker SIGKILLed mid-task
//      or frozen with SIGSTOP is detected (pipe EOF + waitpid, or the
//      heartbeat silence budget), respawned, and the attempt retried —
//      and the job output is still byte-identical, including when the
//      kill lands mid-phase of a checkpointed pipeline that is then
//      resumed.
//   4. The exec'd harness (tools/p3c_worker) conforms to the protocol
//      from a process that shares no address space with the driver.

#include "src/mapreduce/worker_backend.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/counters.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/data/generator.h"
#include "src/mapreduce/executor.h"
#include "src/mapreduce/fault.h"
#include "src/mapreduce/metrics.h"
#include "src/mapreduce/runner.h"
#include "src/mapreduce/wire.h"
#include "src/mr/p3c_mr.h"

namespace p3c::mr {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(WireTest, FrameRoundTripsThroughIncrementalReader) {
  const std::string a = wire::EncodeFrame(wire::FrameType::kTask, "payload-a");
  const std::string b = wire::EncodeFrame(wire::FrameType::kPing, "");
  const std::string stream = a + b;
  wire::FrameReader reader;
  std::vector<wire::Frame> frames;
  // Feed one byte at a time: the reader must never mis-frame on a
  // partial header or partial payload.
  for (char c : stream) {
    reader.Append(&c, 1);
    auto next = reader.Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (next->has_value()) frames.push_back(std::move(**next));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, wire::FrameType::kTask);
  EXPECT_EQ(frames[0].payload, "payload-a");
  EXPECT_EQ(frames[1].type, wire::FrameType::kPing);
  EXPECT_TRUE(frames[1].payload.empty());
}

TEST(WireTest, PayloadBitFlipIsCorruption) {
  std::string stream =
      wire::EncodeFrame(wire::FrameType::kResult, "some result bytes");
  stream[stream.size() - 3] ^= 0x40;  // flip one payload bit
  wire::FrameReader reader;
  reader.Append(stream.data(), stream.size());
  auto next = reader.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kIOError);
}

TEST(WireTest, BadMagicIsCorruption) {
  std::string stream = wire::EncodeFrame(wire::FrameType::kPing, "");
  stream[0] = 'X';
  wire::FrameReader reader;
  reader.Append(stream.data(), stream.size());
  EXPECT_FALSE(reader.Next().ok());
}

TEST(WireTest, Version1FrameIsRejected) {
  // Wire v1 sealed payloads with FNV-1a; a v1 peer must get a Status,
  // not a checksum computed the wrong way.
  std::string stream = wire::EncodeFrame(wire::FrameType::kTask, "task");
  const uint32_t v1 = 1;
  std::memcpy(stream.data() + 4, &v1, sizeof(v1));
  wire::FrameReader reader;
  reader.Append(stream.data(), stream.size());
  auto next = reader.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kIOError);
  EXPECT_NE(next.status().message().find("protocol version 1"),
            std::string::npos)
      << next.status().ToString();
}

TEST(WireTest, CodecRoundTripsJobTypes) {
  wire::WireWriter w;
  const std::vector<std::pair<std::string, uint64_t>> pairs = {
      {"alpha", 1}, {"", 42}, {"omega", uint64_t{1} << 60}};
  const std::vector<double> doubles = {0.5, -1.25, 1e300};
  w.Put(pairs);
  w.Put(doubles);
  w.PutString("tail");
  const std::string bytes = w.Take();

  wire::WireReader r(bytes, "test");
  std::vector<std::pair<std::string, uint64_t>> pairs2;
  std::vector<double> doubles2;
  r.Get(&pairs2);
  r.Get(&doubles2);
  EXPECT_EQ(r.GetString(), "tail");
  ASSERT_TRUE(r.Finish().ok()) << r.Finish().ToString();
  EXPECT_EQ(pairs2, pairs);
  EXPECT_EQ(doubles2, doubles);
}

TEST(WireTest, TrailingBytesRejectedByFinish) {
  wire::WireWriter w;
  w.PutU64(7);
  w.PutU32(9);  // the reader below decodes only the u64
  const std::string bytes = w.Take();
  wire::WireReader r(bytes, "test");
  EXPECT_EQ(r.GetU64(), 7u);
  EXPECT_FALSE(r.Finish().ok());
}

TEST(WireTest, TruncatedPayloadIsSticky) {
  wire::WireWriter w;
  w.PutString("hello");
  std::string bytes = w.Take();
  bytes.resize(bytes.size() - 2);
  wire::WireReader r(bytes, "test");
  EXPECT_EQ(r.GetString(), "");
  EXPECT_FALSE(r.status().ok());
  EXPECT_EQ(r.GetU64(), 0u);  // sticky: later reads stay zero
  EXPECT_FALSE(r.Finish().ok());
}

TEST(WireTest, HugeStringLengthIsRejected) {
  wire::WireWriter w;
  w.PutU32(1);
  w.PutU64(~uint64_t{0});  // a length that would wrap the read offset
  w.PutString("x");
  const std::string bytes = w.Take();
  wire::WireReader r(bytes, "test");
  EXPECT_EQ(r.GetU32(), 1u);
  EXPECT_EQ(r.GetString(), "");
  EXPECT_FALSE(r.status().ok());
}

TEST(WireTest, MetricBagRoundTrips) {
  MetricBag bag;
  bag.Increment("records", 12);
  bag.SetGauge("peak", 4096);
  bag.Observe("latency", 0.25);
  bag.Observe("latency", 1000.0);
  wire::WireWriter w;
  wire::EncodeMetricBag(bag, w);
  const std::string bytes = w.Take();
  wire::WireReader r(bytes, "test");
  auto decoded = wire::DecodeMetricBag(r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.Finish().ok());
  EXPECT_EQ(decoded->ToJson(), bag.ToJson());
  // Exact: every field of every metric, histogram buckets included.
  EXPECT_TRUE(decoded->values() == bag.values());
}

TEST(WireTest, ResultFrameRoundTrips) {
  wire::ResultFrame result;
  result.status_code = 5;
  result.message = "it broke";
  result.peak_rss_bytes = 1 << 20;
  result.counters.Increment("n", 3);
  result.payload = std::string("\x00\x01binary\xff", 9);
  auto decoded = wire::DecodeResultFrame(EncodeResultFrame(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->status_code, result.status_code);
  EXPECT_EQ(decoded->message, result.message);
  EXPECT_EQ(decoded->peak_rss_bytes, result.peak_rss_bytes);
  EXPECT_EQ(decoded->counters.ToJson(), result.counters.ToJson());
  EXPECT_EQ(decoded->payload, result.payload);
}

// ---------------------------------------------------------------------------
// Backend determinism + crash recovery (word count on LocalRunner)
// ---------------------------------------------------------------------------

class WordCountMapper : public Mapper<std::string, uint64_t> {
 public:
  explicit WordCountMapper(const std::vector<std::string>* words)
      : words_(words) {}

  void Map(RecordRange rows, Emitter<std::string, uint64_t>& out) override {
    for (size_t i = rows.begin; i < rows.end; ++i) {
      out.Emit((*words_)[i], 1);
      out.counters().Increment("records_mapped");
    }
  }

 private:
  const std::vector<std::string>* words_;
};

class SumReducer
    : public Reducer<std::string, uint64_t, std::pair<std::string, uint64_t>> {
 public:
  void Reduce(const std::string& key, std::span<const uint64_t> values,
              std::vector<std::pair<std::string, uint64_t>>& out) override {
    uint64_t total = 0;
    for (uint64_t v : values) total += v;
    out.emplace_back(key, total);
  }
};

std::vector<std::string> ManyWords(size_t n) {
  std::vector<std::string> words;
  words.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    words.push_back("w" + std::to_string(i % 17));
  }
  return words;
}

struct WordCountRun {
  std::vector<std::pair<std::string, uint64_t>> output;
  std::string counters_json;
  MetricBag worker_metrics;
  Status status = Status::OK();
};

WordCountRun RunWordCount(RunnerOptions options,
                          const std::vector<std::string>& words) {
  MetricsRegistry metrics;
  options.metrics = &metrics;
  LocalRunner runner(options);
  auto result =
      runner.Run<std::string, uint64_t, std::pair<std::string, uint64_t>>(
          "word-count", words.size(),
          [&words] { return std::make_unique<WordCountMapper>(&words); },
          [] { return std::make_unique<SumReducer>(); });
  WordCountRun run;
  run.worker_metrics = runner.SnapshotWorkerMetrics();
  if (!result.ok()) {
    run.status = result.status();
    return run;
  }
  run.output = std::move(result).value();
  run.counters_json = metrics.MergedCounters().ToJson();
  return run;
}

RunnerOptions ProcessOptions(size_t threads = 2, size_t workers = 2) {
  RunnerOptions options;
  options.backend = Backend::kProcess;
  options.num_threads = threads;
  options.num_workers = workers;
  options.records_per_split = 10;
  options.num_reducers = threads;
  return options;
}

TEST(WorkerBackendTest, ByteIdenticalAcrossBackendsAndParallelism) {
  const std::vector<std::string> words = ManyWords(100);
  std::vector<WordCountRun> runs;
  for (Backend backend : {Backend::kInProcess, Backend::kProcess}) {
    for (size_t threads : {1u, 4u}) {
      for (size_t split : {3u, 25u}) {
        RunnerOptions options;
        options.backend = backend;
        options.num_threads = threads;
        options.records_per_split = split;
        options.num_reducers = 3;
        options.num_workers = 2;
        runs.push_back(RunWordCount(options, words));
        ASSERT_TRUE(runs.back().status.ok())
            << BackendName(backend) << ": " << runs.back().status.ToString();
      }
    }
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].output, runs[0].output) << "configuration " << i;
    EXPECT_EQ(runs[i].counters_json, runs[0].counters_json)
        << "configuration " << i;
  }
  // The process-backend halves actually used workers.
  EXPECT_GT(runs.back().worker_metrics.Get("worker.spawn_total"), 0u);
  // And the in-process halves never touched them.
  EXPECT_TRUE(runs.front().worker_metrics.empty());
}

TEST(WorkerBackendTest, SurvivesRealWorkerSigkill) {
  const std::vector<std::string> words = ManyWords(200);
  const WordCountRun baseline = RunWordCount(ProcessOptions(), words);
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();

  // A real SIGKILL delivered to the worker that just accepted map task
  // 0, attempt 0. The driver must see pipe EOF, reap "killed by signal
  // 9", respawn, and re-run the attempt — with identical results and
  // exactly-once counters. One worker, so the retry cannot be absorbed
  // by a surviving sibling: the dead slot MUST be respawned.
  ScriptedFaultInjector injector;
  injector.KillWorkerOnce("word-count", 0, 0, SIGKILL);
  RunnerOptions options = ProcessOptions(/*threads=*/2, /*workers=*/1);
  options.fault_injector = &injector;
  const WordCountRun killed = RunWordCount(options, words);
  ASSERT_TRUE(killed.status.ok()) << killed.status.ToString();
  EXPECT_EQ(injector.injected_faults(), 1u);
  EXPECT_EQ(killed.output, baseline.output);
  EXPECT_EQ(killed.counters_json, baseline.counters_json);
  EXPECT_GE(killed.worker_metrics.Get("worker.kill_total"), 1u);
  EXPECT_GE(killed.worker_metrics.Get("worker.respawn_total"), 1u);
}

TEST(WorkerBackendTest, HeartbeatPolicingRecoversFrozenWorker) {
  const std::vector<std::string> words = ManyWords(60);
  const WordCountRun baseline = RunWordCount(ProcessOptions(), words);
  ASSERT_TRUE(baseline.status.ok());

  // SIGSTOP freezes the worker without killing it: no EOF ever comes,
  // so only the heartbeat silence budget can detect it.
  ScriptedFaultInjector injector;
  injector.KillWorkerOnce("word-count", 0, 0, SIGSTOP);
  RunnerOptions options = ProcessOptions();
  options.fault_injector = &injector;
  options.worker_heartbeat_seconds = 0.4;
  const WordCountRun frozen = RunWordCount(options, words);
  ASSERT_TRUE(frozen.status.ok()) << frozen.status.ToString();
  EXPECT_EQ(frozen.output, baseline.output);
  EXPECT_EQ(frozen.counters_json, baseline.counters_json);
  EXPECT_GE(frozen.worker_metrics.Get("worker.heartbeat_timeouts"), 1u);
  EXPECT_GE(frozen.worker_metrics.Get("worker.kill_total"), 1u);
}

TEST(WorkerBackendTest, DegradesToInlineWhenSpawnFails) {
  const std::vector<std::string> words = ManyWords(40);
  const WordCountRun baseline = RunWordCount(ProcessOptions(), words);
  ASSERT_TRUE(baseline.status.ok());

  SetWorkerSpawnFailureForTesting(true);
  const WordCountRun degraded = RunWordCount(ProcessOptions(), words);
  SetWorkerSpawnFailureForTesting(false);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.output, baseline.output);
  EXPECT_EQ(degraded.counters_json, baseline.counters_json);
  EXPECT_GE(degraded.worker_metrics.Get("worker.spawn_failures"), 1u);
  EXPECT_EQ(degraded.worker_metrics.Get("worker.spawn_total"), 0u);
}

TEST(WorkerBackendTest, NoWorkersOutliveTheirJobs) {
  const std::vector<std::string> words = ManyWords(50);
  ASSERT_TRUE(RunWordCount(ProcessOptions(), words).status.ok());
  ScriptedFaultInjector injector;
  injector.KillWorkerOnce("word-count", 0, 0, SIGKILL);
  RunnerOptions options = ProcessOptions();
  options.fault_injector = &injector;
  ASSERT_TRUE(RunWordCount(options, words).status.ok());
  // Every pool tears its workers down at EndPhase; nothing may leak,
  // even on the crash-recovery path.
  EXPECT_EQ(LiveWorkerCount(), 0u);
}

TEST(WorkerBackendTest, ForkAndShutdownTimesReported) {
  const WordCountRun run = RunWordCount(ProcessOptions(), ManyWords(80));
  ASSERT_TRUE(run.status.ok());
  EXPECT_GT(run.worker_metrics.GetGauge("worker.fork_seconds"), 0.0);
  EXPECT_GT(run.worker_metrics.GetGauge("worker.shutdown_seconds"), 0.0);
  // Healthy workers exit on SHUTDOWN; none needs the SIGKILL fallback.
  EXPECT_EQ(run.worker_metrics.Get("worker.kill_total"), 0u);
}

TEST(WorkerBackendTest, TraceShowsOneForkSpanPerWorker) {
  Tracer::Global().Enable(true);
  if (!Tracer::Global().enabled()) {
    GTEST_SKIP() << "built with P3C_ENABLE_TRACING=OFF";
  }
  Tracer::Global().Clear();
  const WordCountRun run = RunWordCount(ProcessOptions(), ManyWords(80));
  const std::string json = Tracer::Global().ToJson();
  Tracer::Global().Enable(false);
  Tracer::Global().Clear();
  ASSERT_TRUE(run.status.ok());
  // Each fork opens one worker:fork span on the driver (end events
  // carry no name).
  size_t fork_spans = 0;
  for (size_t at = json.find("\"worker:fork\""); at != std::string::npos;
       at = json.find("\"worker:fork\"", at + 1)) {
    ++fork_spans;
  }
  EXPECT_EQ(fork_spans, run.worker_metrics.Get("worker.spawn_total"));
  EXPECT_GT(fork_spans, 0u);
}

/// Installs a phase of `workers` tasks on `executor`, forking its pool.
void BeginIdlePhase(WorkerPoolExecutor& executor, size_t workers) {
  executor.BeginPhase(
      "idle", TaskKind::kMap, workers,
      [](uint64_t) { return Result<std::string>(std::string()); },
      [](const TaskContext&, uint64_t, std::string) { return Status::OK(); });
}

TEST(WorkerBackendTest, StoppedIdleWorkerIsKilledAtShutdownDeadline) {
  // A SIGSTOPped worker never reads SHUTDOWN and never closes its pipe:
  // EndPhase must give up on it at the 1 s deadline, SIGKILL it, reap
  // it, and count the kill.
  WorkerBackendOptions options;
  options.num_workers = 1;
  WorkerPoolExecutor executor(options);
  BeginIdlePhase(executor, 1);
  ASSERT_EQ(LiveWorkerCount(), 1u);
  ASSERT_EQ(SignalLiveWorkers(SIGSTOP), 1u);
  executor.EndPhase();
  const MetricBag metrics = executor.SnapshotMetrics();
  EXPECT_EQ(metrics.Get("worker.kill_total"), 1u);
  EXPECT_GE(metrics.GetGauge("worker.shutdown_seconds"), 0.9);
  EXPECT_EQ(LiveWorkerCount(), 0u);

  // The next phase forks a fresh, healthy pool that exits on SHUTDOWN.
  BeginIdlePhase(executor, 1);
  executor.EndPhase();
  EXPECT_EQ(executor.SnapshotMetrics().Get("worker.kill_total"), 1u);
  EXPECT_EQ(LiveWorkerCount(), 0u);
}

TEST(WorkerBackendTest, WorkerPeakRssGaugeReported) {
  const WordCountRun run = RunWordCount(ProcessOptions(), ManyWords(80));
  ASSERT_TRUE(run.status.ok());
  // /proc-backed RSS sampling: positive on Linux, may be 0 elsewhere.
  EXPECT_GE(run.worker_metrics.GetGauge("worker.peak_rss_bytes"), 0);
}

// ---------------------------------------------------------------------------
// Checkpoint x process backend (DESIGN.md §13 x §16)
// ---------------------------------------------------------------------------

data::SyntheticData MakeData(uint64_t seed) {
  data::GeneratorConfig config;
  config.num_points = 3000;
  config.num_dims = 20;
  config.num_clusters = 3;
  config.noise_fraction = 0.10;
  config.seed = seed;
  return data::GenerateSynthetic(config).value();
}

std::string Canonical(const core::ClusteringResult& r) {
  std::string out = "arel:";
  for (size_t a : r.arel) out += " " + std::to_string(a);
  for (const auto& cluster : r.clusters) {
    out += "\ncluster attrs:";
    for (size_t a : cluster.attrs) out += " " + std::to_string(a);
    out += " points:";
    for (data::PointId p : cluster.points) out += " " + std::to_string(p);
  }
  return out;
}

TEST(WorkerBackendCheckpointTest, SigkillMidPhaseResumesByteIdentical) {
  const auto data = MakeData(11);

  // Baseline: uninterrupted, in-process.
  P3CMROptions inproc;
  inproc.params.light = true;
  P3CMR baseline_pipeline{inproc};
  auto baseline = baseline_pipeline.Cluster(data.dataset);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string baseline_canonical = Canonical(*baseline);
  const std::string baseline_counters =
      baseline_pipeline.counters().ToJson();

  const fs::path dir = fs::temp_directory_path() / "p3c_worker_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Run 1: process backend. A real worker is SIGKILLed mid-phase (the
  // attempt retries and succeeds), then the driver dies right after
  // the first phase's checkpoint is durable.
  ScriptedFaultInjector injector;
  injector.KillWorkerOnce("", 0, 0, SIGKILL);
  injector.FailAfterPhase("histogram");
  P3CMROptions options;
  options.params.light = true;
  options.checkpoint_dir = dir.string();
  options.runner.backend = Backend::kProcess;
  options.runner.num_workers = 2;
  options.runner.fault_injector = &injector;
  {
    P3CMR killed{options};
    auto result = killed.Cluster(data.dataset);
    ASSERT_FALSE(result.ok());
    EXPECT_GE(injector.injected_faults(), 1u);
  }

  // Run 2: resume from the checkpoint, still on the process backend.
  options.runner.fault_injector = nullptr;
  P3CMR resumed{options};
  auto result = resumed.Cluster(data.dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Canonical(*result), baseline_canonical);
  EXPECT_EQ(resumed.counters().ToJson(), baseline_counters);
  EXPECT_EQ(LiveWorkerCount(), 0u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Exec'd harness conformance (tools/p3c_worker)
// ---------------------------------------------------------------------------

#ifdef P3C_WORKER_BIN

struct HarnessProc {
  pid_t pid = -1;
  int to_child = -1;    // we write TASK/SHUTDOWN here
  int from_child = -1;  // HELLO/PING/RESULT arrive here
};

HarnessProc SpawnHarness(const char* mode) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  EXPECT_EQ(::pipe(in_pipe), 0);
  EXPECT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(P3C_WORKER_BIN, "p3c_worker", mode, "--ping-seconds=0.02",
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  HarnessProc proc;
  proc.pid = pid;
  proc.to_child = in_pipe[1];
  proc.from_child = out_pipe[0];
  return proc;
}

/// Reads frames until one of `type` arrives (skipping PINGs), or EOF.
Result<wire::Frame> AwaitFrame(int fd, wire::FrameReader& reader,
                               wire::FrameType type) {
  char buf[4096];
  for (;;) {
    auto next = reader.Next();
    P3C_RETURN_NOT_OK(next.status());
    if (next->has_value()) {
      if ((*next)->type == type) return std::move(**next);
      continue;  // PING or other interleaved frame
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError("harness EOF");
    reader.Append(buf, static_cast<size_t>(n));
  }
}

int WaitFor(pid_t pid) {
  int wait_status = 0;
  while (::waitpid(pid, &wait_status, 0) < 0 && errno == EINTR) {
  }
  return wait_status;
}

TEST(WorkerHarnessTest, EchoModeConformsToProtocol) {
  HarnessProc proc = SpawnHarness("--mode=echo");
  ASSERT_GT(proc.pid, 0);
  wire::FrameReader reader;

  auto hello = AwaitFrame(proc.from_child, reader, wire::FrameType::kHello);
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  auto hello_frame = wire::DecodeHelloFrame(hello->payload);
  ASSERT_TRUE(hello_frame.ok());
  EXPECT_EQ(hello_frame->pid, static_cast<uint64_t>(proc.pid));
  EXPECT_EQ(hello_frame->version, wire::kVersion);

  wire::TaskFrame task;
  task.kind = 1;
  task.task_index = 7;
  ASSERT_TRUE(wire::WriteFrame(proc.to_child, wire::FrameType::kTask,
                               wire::EncodeTaskFrame(task))
                  .ok());
  auto result = AwaitFrame(proc.from_child, reader, wire::FrameType::kResult);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto result_frame = wire::DecodeResultFrame(result->payload);
  ASSERT_TRUE(result_frame.ok());
  // Echo mode: the RESULT payload is the TASK payload, verbatim.
  EXPECT_EQ(result_frame->payload, wire::EncodeTaskFrame(task));

  ASSERT_TRUE(
      wire::WriteFrame(proc.to_child, wire::FrameType::kShutdown, "").ok());
  const int wait_status = WaitFor(proc.pid);
  EXPECT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 0);
  ::close(proc.to_child);
  ::close(proc.from_child);
}

TEST(WorkerHarnessTest, CrashModeDiesBySigkillMidTask) {
  HarnessProc proc = SpawnHarness("--mode=crash");
  ASSERT_GT(proc.pid, 0);
  wire::FrameReader reader;
  ASSERT_TRUE(
      AwaitFrame(proc.from_child, reader, wire::FrameType::kHello).ok());
  ASSERT_TRUE(wire::WriteFrame(proc.to_child, wire::FrameType::kTask,
                               wire::EncodeTaskFrame(wire::TaskFrame{}))
                  .ok());
  // The driver-visible signature of a real crash: EOF, then waitpid
  // reporting death by SIGKILL.
  auto eof = AwaitFrame(proc.from_child, reader, wire::FrameType::kResult);
  EXPECT_FALSE(eof.ok());
  const int wait_status = WaitFor(proc.pid);
  EXPECT_TRUE(WIFSIGNALED(wait_status));
  EXPECT_EQ(WTERMSIG(wait_status), SIGKILL);
  ::close(proc.to_child);
  ::close(proc.from_child);
}

#endif  // P3C_WORKER_BIN

}  // namespace
}  // namespace p3c::mr
