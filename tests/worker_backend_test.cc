// Tests of the multi-process worker backend (DESIGN.md §16), built as
// its own binary so the worker-smoke ctest label can run it in
// isolation under the sanitizer builds (ASan only: TSan forbids
// forking from a multithreaded process). Five pillars:
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
//   4. Worker lifecycle: a job's leases fork its pool while its first
//      tasks run, and EndJob retires the pool without waiting for it;
//      a retiring worker is reaped, or killed at its deadline, by the
//      next job or the executor's end.
//   5. The exec'd harness (tools/p3c_worker) conforms to the protocol
//      from a process that shares no address space with the driver.

#include "src/mapreduce/worker_backend.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/counters.h"
#include "src/common/status.h"
#include "src/common/string_util.h"
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
  wire::WireWriter w;
  wire::EncodeMetricBag(bag, w);
  const std::string bytes = w.Take();
  // The metric count, then per metric its name (length + bytes), kind,
  // count and sum: 20 bytes plus the name.
  EXPECT_EQ(bytes.size(), 8 + (8 + 7 + 20) + (8 + 4 + 20));
  wire::WireReader r(bytes, "test");
  auto decoded = wire::DecodeMetricBag(r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.Finish().ok());
  EXPECT_EQ(decoded->ToJson(), bag.ToJson());
  // Exact: kind, count and sum of every metric.
  EXPECT_TRUE(decoded->values() == bag.values());
}

/// One encoded metric named "m" with a raw `kind` word.
std::string MetricBytes(uint32_t kind) {
  wire::WireWriter w;
  w.PutU64(1);
  w.PutString("m");
  w.PutU32(kind);
  w.PutU64(3);
  w.PutDouble(0.0);
  return w.Take();
}

TEST(WireTest, MetricOfUnknownKindIsRejected) {
  // Kind 2 was the histogram of wire v3; it and everything above it is
  // corruption now.
  for (const uint32_t kind : {2u, 3u, 0xffffffffu}) {
    SCOPED_TRACE(kind);
    const std::string bytes = MetricBytes(kind);
    wire::WireReader r(bytes, "test");
    auto decoded = wire::DecodeMetricBag(r);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
    EXPECT_NE(decoded.status().message().find("unknown kind"),
              std::string::npos)
        << decoded.status().ToString();
  }
  const std::string gauge = MetricBytes(1);
  wire::WireReader r(gauge, "test");
  EXPECT_TRUE(wire::DecodeMetricBag(r).ok());
}

TEST(WireTest, TruncatedMetricIsRejected) {
  MetricBag bag;
  bag.Increment("records", 12);
  bag.SetGauge("peak", 4096);
  wire::WireWriter w;
  wire::EncodeMetricBag(bag, w);
  const std::string bytes = w.Take();
  for (size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE(len);
    wire::WireReader r(std::string_view(bytes).substr(0, len), "test");
    auto decoded = wire::DecodeMetricBag(r);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
  }
}

TEST(WireTest, MetricCountPastTheRemainingBytesIsRejected) {
  // A count no payload could hold is refused before any metric is
  // decoded, so it never sizes anything.
  for (const uint64_t count : {uint64_t{2}, uint64_t{1} << 40, ~uint64_t{0}}) {
    SCOPED_TRACE(count);
    std::string bytes = MetricBytes(0);
    std::memcpy(bytes.data(), &count, sizeof(count));
    wire::WireReader r(bytes, "test");
    auto decoded = wire::DecodeMetricBag(r);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
    EXPECT_NE(decoded.status().message().find("metrics announced"),
              std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(WireTest, ResultFrameRoundTrips) {
  wire::ResultFrame result;
  result.status_code = 5;
  result.message = "it broke";
  result.peak_rss_bytes = 1 << 20;
  result.payload = std::string("\x00\x01binary\xff", 9);
  auto decoded = wire::DecodeResultFrame(
      wire::EncodeResultFrameHead(result) + result.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->status_code, result.status_code);
  EXPECT_EQ(decoded->message, result.message);
  EXPECT_EQ(decoded->peak_rss_bytes, result.peak_rss_bytes);
  EXPECT_EQ(decoded->payload, result.payload);
}

/// A wire-v3 RESULT payload: status, message, peak RSS, then a counter
/// bag (here empty) in front of the payload length and bytes.
std::string Version3ResultPayload(const std::string& payload) {
  wire::WireWriter w;
  w.PutU32(0);
  w.PutString("");
  w.PutI64(1 << 20);
  w.PutU64(0);  // the v3 counter bag: no metrics
  w.PutU64(payload.size());
  return w.Take() + payload;
}

TEST(WireTest, Version3FrameAndResultPayloadAreRejected) {
  // A v3 peer's frames fail at the header...
  std::string stream = wire::EncodeFrame(wire::FrameType::kResult,
                                         Version3ResultPayload("out"));
  const uint32_t v3 = 3;
  std::memcpy(stream.data() + 4, &v3, sizeof(v3));
  wire::FrameReader reader;
  reader.Append(stream.data(), stream.size());
  auto next = reader.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kIOError);
  EXPECT_NE(next.status().message().find("protocol version 3"),
            std::string::npos)
      << next.status().ToString();
  // ...and a v3 RESULT payload, whose counter bag stands where the
  // payload length now is, fails to decode.
  for (const std::string payload : {"", "out"}) {
    auto result = wire::DecodeResultFrame(Version3ResultPayload(payload));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST(WireTest, FrameWrittenInPartsReadsBackAsOne) {
  // A head and a payload larger than the pipe: writev goes out in
  // several short writes, and the reader returns the large frame and
  // then the PING that follows it.
  const std::string head = "head";
  const std::string body(300000, 'b');
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    EXPECT_TRUE(
        wire::WriteFrame(fds[1], wire::FrameType::kTask, {head, "", body})
            .ok());
    EXPECT_TRUE(wire::WriteFrame(fds[1], wire::FrameType::kPing, "").ok());
    ::close(fds[1]);
  });
  std::string stream;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    stream.append(buf, static_cast<size_t>(n));
  }
  writer.join();
  ::close(fds[0]);
  EXPECT_EQ(stream, wire::EncodeFrame(wire::FrameType::kTask, head + body) +
                        wire::EncodeFrame(wire::FrameType::kPing, ""));
  wire::FrameReader reader;
  reader.Append(stream.data(), stream.size());
  auto task = reader.Next();
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  ASSERT_TRUE(task->has_value());
  EXPECT_EQ((*task)->type, wire::FrameType::kTask);
  EXPECT_EQ((*task)->payload, head + body);
  auto ping = reader.Next();
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  ASSERT_TRUE(ping->has_value());
  EXPECT_EQ((*ping)->type, wire::FrameType::kPing);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, FrameWriterResumesOnAFullNonBlockingPipe) {
  // A non-blocking pipe takes what fits and then reports 0 bytes; the
  // writer resumes where it stopped once the reader drains the pipe,
  // and a pipe whose reader has gone is a kIOError, not a signal.
  ::signal(SIGPIPE, SIG_IGN);
  const std::string head = "head";
  const std::string body(300000, 'b');
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::fcntl(fds[1], F_SETFL, O_NONBLOCK), 0);
  wire::FrameWriter writer(wire::FrameType::kTask, {head, body});
  std::string stream;
  char buf[1 << 16];
  size_t full = 0;
  while (!writer.done()) {
    auto wrote = writer.WriteSome(fds[1]);
    ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
    EXPECT_GT(*wrote, 0u);
    if (writer.done()) break;
    // It stopped at a full pipe, which takes nothing more.
    ++full;
    auto again = writer.WriteSome(fds[1]);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(*again, 0u);
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    ASSERT_GT(n, 0);
    stream.append(buf, static_cast<size_t>(n));
  }
  EXPECT_GT(full, 0u);  // the pipe filled at least once
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) > 0;) {
    stream.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(stream, wire::EncodeFrame(wire::FrameType::kTask, head + body));
  ::close(fds[0]);
  wire::FrameWriter orphan(wire::FrameType::kPing, {});
  auto broken = orphan.WriteSome(fds[1]);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kIOError);
  ::close(fds[1]);
}

/// A TASK payload in the v2 layout: kind, index and attempt, no input.
std::string Version2TaskPayload() {
  wire::WireWriter w;
  w.PutU32(static_cast<uint32_t>(TaskKind::kReduce));
  w.PutU64(3);
  w.PutU64(0);
  return w.Take();
}

TEST(WireTest, TaskFrameCarriesItsInputBytes) {
  for (const std::string& input :
       {std::string(), std::string("\x00\x01partition\xff", 12),
        std::string(100000, 'x')}) {
    const wire::TaskFrame task{static_cast<uint32_t>(TaskKind::kReduce), 3,
                               1, input};
    auto decoded =
        wire::DecodeTaskFrame(wire::EncodeTaskFrameHead(task) + task.input);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->kind, task.kind);
    EXPECT_EQ(decoded->task_index, 3u);
    EXPECT_EQ(decoded->attempt, 1u);
    EXPECT_EQ(decoded->input, input);
  }
}

TEST(WireTest, Version2FrameAndTaskPayloadAreRejected) {
  // A v2 peer's frames fail at the header...
  std::string stream =
      wire::EncodeFrame(wire::FrameType::kTask, Version2TaskPayload());
  const uint32_t v2 = 2;
  std::memcpy(stream.data() + 4, &v2, sizeof(v2));
  wire::FrameReader reader;
  reader.Append(stream.data(), stream.size());
  auto next = reader.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kIOError);
  EXPECT_NE(next.status().message().find("protocol version 2"),
            std::string::npos)
      << next.status().ToString();
  // ...and a v2 TASK payload, which ends before the input, fails to
  // decode instead of yielding a task without its partition.
  auto task = wire::DecodeTaskFrame(Version2TaskPayload());
  ASSERT_FALSE(task.ok());
  EXPECT_EQ(task.status().code(), StatusCode::kIOError);
}

TEST(WireTest, TaskInputLengthPastThePayloadIsRejected) {
  // Input lengths from one past the bytes present to one that would
  // wrap the read offset: each is a kIOError, decided before any
  // buffer of that length is allocated.
  for (const uint64_t length :
       {uint64_t{5}, uint64_t{1} << 40, ~uint64_t{0}}) {
    std::string payload = Version2TaskPayload();
    wire::WireWriter w;
    w.PutU64(length);
    w.PutRaw("abcd", 4);
    payload += w.Take();
    auto task = wire::DecodeTaskFrame(payload);
    ASSERT_FALSE(task.ok()) << length;
    EXPECT_EQ(task.status().code(), StatusCode::kIOError);
  }
}

using SamplePartitionType = MergedPartition<std::string, std::vector<uint64_t>>;

/// Two groups over three values, keyed by strings.
SamplePartitionType SamplePartition() {
  SamplePartitionType part;
  part.group_keys = {"alpha", "beta"};
  part.group_offsets = {0, 2, 3};
  part.values = {{1, 2}, {}, {uint64_t{1} << 63}};
  return part;
}

TEST(WireTest, PartitionRoundTrips) {
  const SamplePartitionType part = SamplePartition();
  auto decoded =
      wire::DecodePartition<std::string, std::vector<uint64_t>>(
          wire::EncodePartition(part));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->group_keys, part.group_keys);
  EXPECT_EQ(decoded->group_offsets, part.group_offsets);
  EXPECT_EQ(decoded->values, part.values);
  // The empty partition (no groups, one offset) round-trips too.
  MergedPartition<int64_t, double> empty;
  empty.group_offsets = {0};
  auto none = wire::DecodePartition<int64_t, double>(
      wire::EncodePartition(empty));
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->num_groups(), 0u);
}

TEST(WireTest, TruncatedPartitionIsRejected) {
  const std::string bytes = wire::EncodePartition(SamplePartition());
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    auto decoded = wire::DecodePartition<std::string, std::vector<uint64_t>>(
        std::string_view(bytes).substr(0, keep));
    ASSERT_FALSE(decoded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
  }
  // Trailing bytes are corruption as well.
  auto trailing = wire::DecodePartition<std::string, std::vector<uint64_t>>(
      bytes + "x");
  EXPECT_EQ(trailing.status().code(), StatusCode::kIOError);
}

TEST(WireTest, PartitionGroupsThatDisagreeWithTheValuesAreRejected) {
  std::vector<std::pair<std::string, SamplePartitionType>> hostile;
  auto with = [&hostile](std::string what, auto mutate) {
    SamplePartitionType part = SamplePartition();
    mutate(part);
    hostile.emplace_back(std::move(what), std::move(part));
  };
  with("a group more than the offsets",
       [](auto& p) { p.group_keys.push_back("gamma"); });
  with("a group fewer than the offsets",
       [](auto& p) { p.group_keys.pop_back(); });
  with("no offsets at all", [](auto& p) {
    p.group_keys.clear();
    p.group_offsets.clear();
  });
  with("first offset past 0", [](auto& p) { p.group_offsets[0] = 1; });
  with("last offset short of the values",
       [](auto& p) { p.values.push_back({7}); });
  with("last offset past the values", [](auto& p) { p.values.pop_back(); });
  with("an empty group", [](auto& p) { p.group_offsets = {0, 0, 3}; });
  with("offsets going backwards", [](auto& p) {
    p.group_keys.push_back("gamma");
    p.group_offsets = {0, 2, 1, 3};
  });
  with("an offset near 2^64",
       [](auto& p) { p.group_offsets[1] = ~size_t{0}; });
  with("keys out of order",
       [](auto& p) { std::swap(p.group_keys[0], p.group_keys[1]); });
  with("a repeated key", [](auto& p) { p.group_keys[1] = "alpha"; });
  for (const auto& [what, part] : hostile) {
    auto decoded = wire::DecodePartition<std::string, std::vector<uint64_t>>(
        wire::EncodePartition(part));
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError) << what;
  }
  // A value count far past the bytes present is refused before it is
  // allocated: keys, offsets, then a count of 2^40 values.
  wire::WireWriter w;
  w.Put(std::vector<std::string>{"k"});
  w.Put(std::vector<size_t>{0, uint64_t{1} << 40});
  w.PutU64(uint64_t{1} << 40);
  auto huge = wire::DecodePartition<std::string, std::vector<uint64_t>>(
      w.Take());
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kIOError);
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

TEST(WorkerBackendTest, NoWorkersOutliveTheirRunner) {
  const std::vector<std::string> words = ManyWords(50);
  ASSERT_TRUE(RunWordCount(ProcessOptions(), words).status.ok());
  ScriptedFaultInjector injector;
  injector.KillWorkerOnce("word-count", 0, 0, SIGKILL);
  RunnerOptions options = ProcessOptions();
  options.fault_injector = &injector;
  ASSERT_TRUE(RunWordCount(options, words).status.ok());
  // A runner's executor reaps every pool it retired before it is
  // destroyed; nothing may leak, even on the crash-recovery path.
  EXPECT_EQ(LiveWorkerCount(), 0u);
}

TEST(WorkerBackendTest, KillsWhileFourWorkersRespawnAreByteIdentical) {
  // Respawns fork on pool threads while other leaseholders reap their
  // killed workers and close those pipes. Every fd close and assignment
  // holds the fork lock, so no child closes a reused fd number (the
  // input's, say) and no sibling masks a dead worker's EOF: every kill
  // is seen, retried on a respawned worker, and the output is
  // unchanged.
  const std::vector<std::string> words = ManyWords(400);
  RunnerOptions options = ProcessOptions(/*threads=*/4, /*workers=*/4);
  const WordCountRun baseline = RunWordCount(options, words);
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();

  ScriptedFaultInjector injector;
  for (size_t task = 0; task < 40; task += 3) {
    injector.KillWorkerOnce("word-count", task, 0, SIGKILL);
  }
  options.fault_injector = &injector;
  const WordCountRun killed = RunWordCount(options, words);
  ASSERT_TRUE(killed.status.ok()) << killed.status.ToString();
  // A rule can miss: a worker that sent its RESULT before the SIGKILL
  // landed dies idle, and the next task's attempt 0 fails to reach it.
  EXPECT_GE(injector.injected_faults(), 4u);
  EXPECT_EQ(killed.output, baseline.output);
  EXPECT_EQ(killed.counters_json, baseline.counters_json);
  EXPECT_EQ(killed.worker_metrics.Get("worker.kill_total"),
            injector.injected_faults());
  EXPECT_GE(killed.worker_metrics.Get("worker.respawn_total"), 1u);
  EXPECT_EQ(killed.worker_metrics.Get("worker.heartbeat_timeouts"), 0u);
  EXPECT_EQ(LiveWorkerCount(), 0u);
}

// ---------------------------------------------------------------------------
// Job-scoped pools: one fork per worker per job, reduce tasks included
// ---------------------------------------------------------------------------

/// 200 words in 20 splits, 2 reducers, 2 workers.
RunnerOptions JobPoolOptions() {
  return ProcessOptions(/*threads=*/2, /*workers=*/2);
}

TEST(WorkerJobPoolTest, OnePoolServesBothPhasesOfAJob) {
  const std::vector<std::string> words = ManyWords(200);
  const WordCountRun run = RunWordCount(JobPoolOptions(), words);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  // Two workers for the whole job: none is forked for the reduce phase.
  EXPECT_EQ(run.worker_metrics.Get("worker.spawn_total"), 2u);
  EXPECT_EQ(run.worker_metrics.Get("worker.respawn_total"), 0u);
  EXPECT_EQ(run.worker_metrics.Get("worker.kill_total"), 0u);
  EXPECT_EQ(LiveWorkerCount(), 0u);
  RunnerOptions inproc = JobPoolOptions();
  inproc.backend = Backend::kInProcess;
  const WordCountRun reference = RunWordCount(inproc, words);
  EXPECT_EQ(run.output, reference.output);
  EXPECT_EQ(run.counters_json, reference.counters_json);
}

/// Runs the word count with one scripted fault on reduce task 0,
/// attempt 0, and checks that the job recovers byte-identically on the
/// job's pool and leaves no worker behind.
WordCountRun RunWithReduceFault(ScriptedFaultInjector& injector,
                                RunnerOptions options) {
  const std::vector<std::string> words = ManyWords(200);
  const WordCountRun baseline = RunWordCount(JobPoolOptions(), words);
  EXPECT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  options.fault_injector = &injector;
  WordCountRun run = RunWordCount(options, words);
  EXPECT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(injector.injected_faults(), 1u);
  EXPECT_EQ(run.output, baseline.output);
  EXPECT_EQ(run.counters_json, baseline.counters_json);
  EXPECT_EQ(LiveWorkerCount(), 0u);
  return run;
}

ScriptedFaultInjector::WorkerRule ReduceWorkerRule(int signum) {
  ScriptedFaultInjector::WorkerRule rule;
  rule.job_substring = "word-count";
  rule.kind = TaskKind::kReduce;
  rule.task_index = 0;
  rule.attempt = 0;
  rule.signum = signum;
  return rule;
}

TEST(WorkerJobPoolTest, ReduceWorkerSigkillRetriesOnARespawnedWorker) {
  // One worker: the retry cannot be absorbed by a surviving sibling.
  ScriptedFaultInjector injector;
  injector.AddWorkerRule(ReduceWorkerRule(SIGKILL));
  const WordCountRun run = RunWithReduceFault(
      injector, ProcessOptions(/*threads=*/2, /*workers=*/1));
  EXPECT_EQ(run.worker_metrics.Get("worker.spawn_total"), 2u);
  EXPECT_EQ(run.worker_metrics.Get("worker.respawn_total"), 1u);
  EXPECT_EQ(run.worker_metrics.Get("worker.kill_total"), 1u);
}

TEST(WorkerJobPoolTest, ReduceWorkerSigstopTimesOutAndRetriesRespawned) {
  ScriptedFaultInjector injector;
  injector.AddWorkerRule(ReduceWorkerRule(SIGSTOP));
  RunnerOptions options = ProcessOptions(/*threads=*/2, /*workers=*/1);
  options.worker_heartbeat_seconds = 0.4;
  const WordCountRun run = RunWithReduceFault(injector, options);
  EXPECT_EQ(run.worker_metrics.Get("worker.heartbeat_timeouts"), 1u);
  EXPECT_EQ(run.worker_metrics.Get("worker.respawn_total"), 1u);
  EXPECT_GE(run.worker_metrics.Get("worker.kill_total"), 1u);
}

TEST(WorkerJobPoolTest, FailedReduceAttemptRetriesOnTheJobPool) {
  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Rule rule;
  rule.job_substring = "word-count";
  rule.kind = TaskKind::kReduce;
  rule.task_index = 0;
  rule.attempt = 0;
  injector.AddRule(rule);
  const WordCountRun run = RunWithReduceFault(injector, JobPoolOptions());
  // A failed attempt costs no worker: the retry runs on the same pool.
  EXPECT_EQ(run.worker_metrics.Get("worker.spawn_total"), 2u);
  EXPECT_EQ(run.worker_metrics.Get("worker.respawn_total"), 0u);
  EXPECT_EQ(run.worker_metrics.Get("worker.kill_total"), 0u);
}

/// `n` distinct words: one reduce group each, so that the word count's
/// reduce partition outgrows a pipe buffer.
std::vector<std::string> DistinctWords(size_t n) {
  std::vector<std::string> words;
  words.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    words.push_back(StringPrintf("distinct-word-%06zu", i));
  }
  return words;
}

/// SIGSTOPs every live worker when the first attempt of reduce task 0
/// starts, before the driver leases a worker for it: the task goes to a
/// worker that was idle and now never reads its TASK frame.
class StopWorkersBeforeReduce : public FaultInjector {
 public:
  Status OnAttemptStart(const TaskAttempt& attempt) override {
    if (attempt.kind == TaskKind::kReduce && attempt.task_index == 0 &&
        attempt.attempt == 0) {
      stopped.fetch_add(SignalLiveWorkers(SIGSTOP));
    }
    return Status::OK();
  }
  std::atomic<size_t> stopped{0};
};

TEST(WorkerJobPoolTest, StoppedIdleWorkerTimesOutWhileItsPartitionIsSent) {
  // About 1.7 MB of partition in one reduce task, far past a pipe's
  // buffer: the TASK frame cannot be written to a stopped worker. The
  // driver must time the write out like a silent worker, SIGKILL and
  // reap the worker, and retry the task on a respawned one.
  const std::vector<std::string> words = DistinctWords(40000);
  RunnerOptions options = ProcessOptions(/*threads=*/2, /*workers=*/1);
  options.records_per_split = 5000;
  options.num_reducers = 1;
  options.worker_heartbeat_seconds = 0.4;
  const WordCountRun baseline = RunWordCount(options, words);
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  ASSERT_EQ(baseline.output.size(), words.size());

  StopWorkersBeforeReduce injector;
  options.fault_injector = &injector;
  auto pending = std::async(std::launch::async,
                            [&] { return RunWordCount(options, words); });
  if (pending.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "the driver is still writing to a stopped worker";
    SignalLiveWorkers(SIGKILL);  // breaks the pipe, so the run can end
  }
  const WordCountRun run = pending.get();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(injector.stopped.load(), 1u);
  EXPECT_EQ(run.output, baseline.output);
  EXPECT_EQ(run.counters_json, baseline.counters_json);
  EXPECT_EQ(run.worker_metrics.Get("worker.heartbeat_timeouts"), 1u);
  EXPECT_EQ(run.worker_metrics.Get("worker.spawn_total"), 2u);
  EXPECT_EQ(run.worker_metrics.Get("worker.respawn_total"), 1u);
  EXPECT_EQ(run.worker_metrics.Get("worker.kill_total"), 1u);
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

/// One event of an exported trace, as the lifecycle tests read it.
struct TraceRecord {
  std::string name;
  char phase = 0;
  uint64_t ts = 0;
  uint64_t tid = 0;
};

/// The events of Tracer::ToJson, one object per line, in file order.
std::vector<TraceRecord> ParseTrace(const std::string& json) {
  const auto field = [](const std::string& line, const std::string& key) {
    const size_t at = line.find("\"" + key + "\": ");
    return at == std::string::npos ? std::string()
                                   : line.substr(at + key.size() + 4);
  };
  std::vector<TraceRecord> events;
  size_t begin = 0;
  while (begin < json.size()) {
    size_t end = json.find('\n', begin);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(begin, end - begin);
    begin = end + 1;
    const std::string name = field(line, "name");
    if (name.empty()) continue;
    TraceRecord event;
    event.name = name.substr(1, name.find('"', 1) - 1);
    event.phase = field(line, "ph")[1];
    event.ts = std::stoull(field(line, "ts"));
    event.tid = std::stoull(field(line, "tid"));
    events.push_back(std::move(event));
  }
  return events;
}

/// Runs the word count on a traced runner and returns the run and its
/// trace events.
std::pair<WordCountRun, std::vector<TraceRecord>> TracedWordCount(
    const RunnerOptions& options, const std::vector<std::string>& words) {
  Tracer::Global().Enable(true);
  Tracer::Global().Clear();
  WordCountRun run = RunWordCount(options, words);
  std::vector<TraceRecord> events = ParseTrace(Tracer::Global().ToJson());
  Tracer::Global().Enable(false);
  Tracer::Global().Clear();
  return {std::move(run), std::move(events)};
}

/// End time of every `name` span: B/E pairs nest per lane, and an E
/// event carries no name.
std::vector<uint64_t> SpanEnds(const std::vector<TraceRecord>& events,
                               const std::string& name) {
  std::map<uint64_t, std::vector<std::string>> open;
  std::vector<uint64_t> ends;
  for (const TraceRecord& event : events) {
    if (event.phase == 'B') open[event.tid].push_back(event.name);
    if (event.phase != 'E' || open[event.tid].empty()) continue;
    if (open[event.tid].back() == name) ends.push_back(event.ts);
    open[event.tid].pop_back();
  }
  return ends;
}

TEST(WorkerJobPoolTest, EachJobForksOneWorkerPerSlotItsTasksLease) {
  Tracer::Global().Enable(true);
  if (!Tracer::Global().enabled()) {
    GTEST_SKIP() << "built with P3C_ENABLE_TRACING=OFF";
  }
  // A job's first leases each fork their own slot before any takes a
  // live worker, so the pool forks min(workers, tasks) workers: 10 map
  // tasks fork all 4; 3 map tasks and 2 reduce tasks fork 3.
  for (const auto& [num_words, expected] :
       {std::pair<size_t, uint64_t>{100, 4}, {30, 3}}) {
    RunnerOptions options = ProcessOptions(/*threads=*/4, /*workers=*/4);
    options.num_reducers = 2;
    const auto [run, events] =
        TracedWordCount(options, ManyWords(num_words));
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_EQ(run.worker_metrics.Get("worker.spawn_total"), expected)
        << num_words << " words";
    EXPECT_EQ(run.worker_metrics.Get("worker.respawn_total"), 0u);
    // One worker:fork span per fork, and one worker:retire per job.
    EXPECT_EQ(SpanEnds(events, "worker:fork").size(), expected);
    EXPECT_EQ(SpanEnds(events, "worker:retire").size(), 1u);
  }
}

TEST(WorkerJobPoolTest, FirstTaskIsDispatchedBeforeTheLastFork) {
  if (!kWorkersForkOnLease) {
    GTEST_SKIP() << "AddressSanitizer build: the pool forks in BeginJob";
  }
  Tracer::Global().Enable(true);
  if (!Tracer::Global().enabled()) {
    GTEST_SKIP() << "built with P3C_ENABLE_TRACING=OFF";
  }
  // BeginJob forks nothing: the task that leases a slot first forks its
  // worker and is dispatched to it at once, while the other slots' forks
  // (serialized under the fork lock) still run.
  const auto [run, events] = TracedWordCount(
      ProcessOptions(/*threads=*/8, /*workers=*/8), ManyWords(400));
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(run.worker_metrics.Get("worker.spawn_total"), 8u);
  const std::vector<uint64_t> fork_ends = SpanEnds(events, "worker:fork");
  ASSERT_EQ(fork_ends.size(), 8u);
  uint64_t first_dispatch = ~uint64_t{0};
  for (const TraceRecord& event : events) {
    if (event.phase == 'i' && event.name == "task dispatched") {
      first_dispatch = std::min(first_dispatch, event.ts);
    }
  }
  EXPECT_LT(first_dispatch,
            *std::max_element(fork_ends.begin(), fork_ends.end()));
}

/// Installs a job of `tasks` map tasks on `executor` and runs each task
/// once, in order, so that its leases fork min(workers, tasks) workers.
void RunEchoJob(WorkerPoolExecutor& executor, size_t tasks) {
  executor.BeginJob(tasks, [](TaskKind, uint64_t task, std::string_view) {
    return Result<std::string>(std::to_string(task));
  });
  RemoteTask remote;
  remote.commit = [](const TaskContext&, uint64_t task, std::string payload) {
    return payload == std::to_string(task)
               ? Status::OK()
               : Status::Internal("echo task returned " + payload);
  };
  const std::string job = "echo";
  for (size_t task = 0; task < tasks; ++task) {
    const Status st = executor.RunAttempt(
        TaskAttempt{job, TaskKind::kMap, task, 0}, TaskContext{},
        [](const TaskContext&) { return Status::Internal("ran inline"); },
        &remote);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

WorkerBackendOptions Workers(size_t num_workers) {
  WorkerBackendOptions options;
  options.num_workers = num_workers;
  return options;
}

TEST(WorkerLifecycleTest, StoppedRetiringWorkerIsKilledOnceItsDeadlinePasses) {
  // EndJob does not wait for its pool. A SIGSTOPped worker never reads
  // SHUTDOWN and never exits, so it stays registered until its 1 s
  // deadline has passed; the next reap then SIGKILLs it, counted once.
  MetricBag metrics;
  {
    WorkerPoolExecutor executor(Workers(1));
    RunEchoJob(executor, 1);
    ASSERT_EQ(LiveWorkerCount(), 1u);
    ASSERT_EQ(SignalLiveWorkers(SIGSTOP), 1u);
    const auto ended = std::chrono::steady_clock::now();
    executor.EndJob();
    EXPECT_LT(std::chrono::steady_clock::now() - ended,
              std::chrono::milliseconds(500));
    EXPECT_EQ(LiveWorkerCount(), 1u);
    EXPECT_EQ(executor.SnapshotMetrics().Get("worker.kill_total"), 0u);
    EXPECT_LT(executor.SnapshotMetrics().GetGauge("worker.shutdown_seconds"),
              0.5);

    std::this_thread::sleep_for(std::chrono::milliseconds(1100));
    executor.BeginJob(0, nullptr);  // past the deadline: killed
    executor.EndJob();
    EXPECT_EQ(executor.SnapshotMetrics().Get("worker.kill_total"), 1u);

    // A later job forks a healthy pool; the killed worker is reaped
    // without a second kill.
    RunEchoJob(executor, 1);
    executor.EndJob();
    metrics = executor.SnapshotMetrics();
  }
  EXPECT_EQ(metrics.Get("worker.kill_total"), 1u);
  EXPECT_EQ(metrics.Get("worker.spawn_total"), 2u);
  EXPECT_EQ(LiveWorkerCount(), 0u);
}

TEST(WorkerLifecycleTest, NoWorkerOutlivesItsExecutor) {
  // The destructor waits for every retiring worker, SIGKILLing the ones
  // still running at their deadline (here, the second job's workers,
  // SIGSTOPped before it ends so that they cannot exit).
  {
    WorkerPoolExecutor executor(Workers(2));
    RunEchoJob(executor, 4);
    executor.EndJob();
    RunEchoJob(executor, 4);
    EXPECT_GE(SignalLiveWorkers(SIGSTOP), 2u);
    executor.EndJob();
    EXPECT_GE(LiveWorkerCount(), 2u);
  }
  EXPECT_EQ(LiveWorkerCount(), 0u);
}

TEST(WorkerLifecycleTest, SignalLiveWorkersReachesRetiringWorkers) {
  const auto start = std::chrono::steady_clock::now();
  {
    WorkerPoolExecutor executor(Workers(2));
    RunEchoJob(executor, 2);
    ASSERT_EQ(SignalLiveWorkers(SIGSTOP), 2u);
    executor.EndJob();
    // Both stay registered until a reap, so the CLI's forwarded signal
    // still reaches them: here it ends two frozen workers before their
    // deadline, and a signal from outside is not the executor's kill.
    EXPECT_EQ(SignalLiveWorkers(SIGKILL), 2u);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(900));
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
  {
    P3CMR resumed{options};
    auto result = resumed.Cluster(data.dataset);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Canonical(*result), baseline_canonical);
    EXPECT_EQ(resumed.counters().ToJson(), baseline_counters);
  }
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
  task.input = std::string("\x00partition bytes\xff", 17) +
               std::string(200000, 'p');  // more than one pipe buffer
  ASSERT_TRUE(wire::WriteFrame(proc.to_child, wire::FrameType::kTask,
                               {wire::EncodeTaskFrameHead(task), task.input})
                  .ok());
  auto result = AwaitFrame(proc.from_child, reader, wire::FrameType::kResult);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto result_frame = wire::DecodeResultFrame(result->payload);
  ASSERT_TRUE(result_frame.ok());
  // Echo mode: the RESULT payload is the TASK frame's input, verbatim.
  EXPECT_EQ(result_frame->status_code, 0u);
  EXPECT_EQ(result_frame->payload, task.input);

  // A v2 TASK payload (no input) is answered with the decode error.
  ASSERT_TRUE(wire::WriteFrame(proc.to_child, wire::FrameType::kTask,
                               Version2TaskPayload())
                  .ok());
  result = AwaitFrame(proc.from_child, reader, wire::FrameType::kResult);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  result_frame = wire::DecodeResultFrame(result->payload);
  ASSERT_TRUE(result_frame.ok());
  EXPECT_EQ(result_frame->status_code,
            static_cast<uint32_t>(StatusCode::kIOError));

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
                               wire::EncodeTaskFrameHead(wire::TaskFrame{}))
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
