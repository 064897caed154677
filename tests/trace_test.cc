// Tracing + metrics-export suite (ctest label: trace-smoke).
//
// Validates the observability layer end to end: emitted Chrome
// trace-event JSON is well-formed (checked with a real parser, not
// substring probes), B/E events obey stack discipline per lane,
// timestamps are monotone in file order, every MR job and shuffle
// partition gets a span, task retries are stitched with flow events,
// and the metrics JSON's counter values are byte-identical across
// thread counts and under injected faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/counters.h"
#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/data/generator.h"
#include "src/mapreduce/fault.h"
#include "src/mapreduce/runner.h"
#include "src/mr/p3c_mr.h"

namespace p3c {
namespace {

// ---- A minimal JSON parser (validation-grade, not a library) ---------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->string);
    }
    if (c == 't') {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::kNull;
      return Literal("null");
    }
    return ParseNumber(out);
  }

  bool ParseString(std::string* out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(
                      static_cast<unsigned char>(text_[pos_ + i]))) {
                return false;
              }
            }
            // Validation only: keep the escape verbatim.
            out->append(text_, pos_ - 2, 6);
            pos_ += 4;
            break;
          }
          default:
            return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character: invalid JSON
      } else {
        out->push_back(c);
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    out->kind = JsonValue::kNumber;
    out->number = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue ParseOrDie(const std::string& text) {
  JsonValue value;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&value)) << "invalid JSON:\n" << text;
  return value;
}

// ---- Trace structural validation -------------------------------------

struct TraceStats {
  size_t num_events = 0;
  std::set<std::string> begin_names;
  std::set<uint32_t> partition_lanes;
  std::map<std::string, std::string> lane_names;  // tid -> thread_name
  std::vector<std::pair<char, uint64_t>> flows;   // (phase, id)
  size_t instants = 0;
};

/// Parses `json` as a trace, checks event well-formedness, per-lane B/E
/// stack discipline, and monotone timestamps in file order. Void so the
/// fatal ASSERT_* macros work; use ValidateTrace for the value form.
void ValidateTraceInto(const std::string& json, TraceStats& stats) {
  const JsonValue root = ParseOrDie(json);
  EXPECT_EQ(root.kind, JsonValue::kArray);
  std::map<uint32_t, std::vector<std::string>> stacks;
  double last_ts = -1.0;
  for (const JsonValue& event : root.array) {
    EXPECT_EQ(event.kind, JsonValue::kObject);
    const JsonValue* ph = event.Find("ph");
    const JsonValue* ts = event.Find("ts");
    const JsonValue* tid = event.Find("tid");
    const JsonValue* name = event.Find("name");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(name, nullptr);
    EXPECT_GE(ts->number, last_ts) << "timestamps must be monotone";
    last_ts = ts->number;
    const auto lane = static_cast<uint32_t>(tid->number);
    if (lane >= Tracer::kPartitionLaneBase) {
      stats.partition_lanes.insert(lane);
    }
    const std::string& phase = ph->string;
    ASSERT_EQ(phase.size(), 1u);
    switch (phase[0]) {
      case 'B':
        EXPECT_FALSE(name->string.empty());
        stats.begin_names.insert(name->string);
        stacks[lane].push_back(name->string);
        break;
      case 'E':
        ASSERT_FALSE(stacks[lane].empty())
            << "unbalanced E on lane " << lane;
        stacks[lane].pop_back();
        break;
      case 'i':
        ++stats.instants;
        break;
      case 's':
      case 'f': {
        const JsonValue* id = event.Find("id");
        ASSERT_NE(id, nullptr);
        stats.flows.emplace_back(phase[0],
                                 static_cast<uint64_t>(id->number));
        break;
      }
      case 'M': {
        const JsonValue* args = event.Find("args");
        ASSERT_NE(args, nullptr);
        const JsonValue* lane_name = args->Find("name");
        ASSERT_NE(lane_name, nullptr);
        stats.lane_names[std::to_string(lane)] = lane_name->string;
        break;
      }
      default:
        FAIL() << "unexpected phase '" << phase << "'";
    }
    ++stats.num_events;
  }
  for (const auto& [lane, stack] : stacks) {
    EXPECT_TRUE(stack.empty())
        << "lane " << lane << " has " << stack.size() << " unclosed span(s)";
  }
}

TraceStats ValidateTrace(const std::string& json) {
  TraceStats stats;
  ValidateTraceInto(json, stats);
  return stats;
}

/// RAII: enables the global tracer on a clean slate, disables + clears
/// on exit so suites don't leak events into each other.
class ScopedTracing {
 public:
  ScopedTracing() {
    Tracer::Global().Clear();
    Tracer::Global().Enable(true);
  }
  ~ScopedTracing() {
    Tracer::Global().Enable(false);
    Tracer::Global().Clear();
  }
};

// ---- Keyed-sum job fixture -------------------------------------------

struct KeyedRecord {
  int key;
  int64_t value;
};

class KeyedSumMapper : public mr::Mapper<int, int64_t> {
 public:
  explicit KeyedSumMapper(const std::vector<KeyedRecord>* records)
      : records_(records) {}

  void Map(mr::RecordRange rows, mr::Emitter<int, int64_t>& out) override {
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const KeyedRecord& record = (*records_)[i];
      out.counters().Increment("records_mapped");
      // A value-dependent counter: the sum of |value| over the records.
      out.counters().Increment("abs_value",
                               static_cast<uint64_t>(std::abs(record.value)));
      max_abs_ = std::max<int64_t>(max_abs_, std::abs(record.value));
      out.Emit(record.key, record.value);
    }
  }

  void Cleanup(mr::Emitter<int, int64_t>& out) override {
    out.counters().SetGauge("max_abs_value",
                            static_cast<double>(max_abs_));
  }

 private:
  const std::vector<KeyedRecord>* records_;
  int64_t max_abs_ = 0;
};

class Int64SumReducer
    : public mr::Reducer<int, int64_t, std::pair<int, int64_t>> {
 public:
  void Reduce(const int& key, std::span<const int64_t> values,
              std::vector<std::pair<int, int64_t>>& out) override {
    int64_t total = 0;
    for (int64_t v : values) total += v;
    out.emplace_back(key, total);
  }
};

std::vector<KeyedRecord> MakeKeyedRecords(size_t n) {
  std::vector<KeyedRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].key = static_cast<int>(i % 13);
    records[i].value = static_cast<int64_t>(i) - 50;
  }
  return records;
}

struct RunOutcome {
  Result<std::vector<std::pair<int, int64_t>>> result =
      Status::Internal("not run");
  MetricBag counters;  ///< the job log's merged counters
  mr::MetricsRegistry metrics;
};

RunOutcome RunKeyedSum(size_t threads, size_t reducers,
                       mr::FaultInjector* injector = nullptr,
                       size_t num_records = 500) {
  RunOutcome outcome;
  mr::RunnerOptions options;
  options.num_threads = threads;
  options.records_per_split = 64;  // fixed: splits don't move with threads
  options.num_reducers = reducers;
  options.fault_injector = injector;
  options.metrics = &outcome.metrics;
  mr::LocalRunner runner(options);
  const auto records = MakeKeyedRecords(num_records);
  outcome.result =
      runner.Run<int, int64_t, std::pair<int, int64_t>>(
          "keyed-sum", records.size(),
          [&records] { return std::make_unique<KeyedSumMapper>(&records); },
          [] { return std::make_unique<Int64SumReducer>(); });
  outcome.counters = outcome.metrics.MergedCounters();
  return outcome;
}

// ---- MetricBag unit behavior -----------------------------------------

TEST(MetricBagTest, CounterGaugeKinds) {
  MetricBag bag;
  bag.Increment("jobs", 2);
  bag.Increment("jobs");
  bag.SetGauge("level", 1.5);
  bag.SetGauge("level", 0.5);  // task-local: last write wins

  EXPECT_EQ(bag.Get("jobs"), 3u);
  EXPECT_EQ(bag.GetGauge("level"), 0.5);
  // Each accessor reads only its own kind.
  EXPECT_EQ(bag.Get("level"), 0u);
  EXPECT_EQ(bag.GetGauge("jobs"), 0.0);
  const Metric* jobs = bag.Find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->kind, MetricKind::kCounter);
  EXPECT_EQ(bag.Find("level")->kind, MetricKind::kGauge);
}

TEST(MetricBagTest, MergeSemanticsByKind) {
  MetricBag a;
  a.Increment("count", 5);
  a.SetGauge("peak", 2.0);

  MetricBag b;
  b.Increment("count", 7);
  b.SetGauge("peak", 9.0);
  b.Increment("only_b", 1);

  b.SetGauge("only_b_gauge", 3.5);
  b.SetGauge("mixed", 1.0);
  a.Increment("mixed", 4);

  a.MergeFrom(b);
  EXPECT_EQ(a.Get("count"), 12u);       // counters add
  EXPECT_EQ(a.GetGauge("peak"), 9.0);   // gauges take the max
  EXPECT_EQ(a.Get("only_b"), 1u);       // absent keys copy over
  // Absent keys must keep their kind (a default-constructed slot would
  // be a counter and silently swallow these).
  EXPECT_EQ(a.GetGauge("only_b_gauge"), 3.5);
  // Mixed kinds under one name: ours is kept, the other dropped.
  EXPECT_EQ(a.Get("mixed"), 4u);
  EXPECT_EQ(a.Find("mixed")->kind, MetricKind::kCounter);
}

TEST(MetricBagTest, MergeIsOrderInsensitiveForExportedJson) {
  // Gauge max and integer counter sums are both order-free, so any
  // merge order serializes identically — the property the
  // byte-identical acceptance bar rests on.
  std::vector<MetricBag> parts(3);
  for (size_t i = 0; i < parts.size(); ++i) {
    parts[i].Increment("n", i + 1);
    parts[i].SetGauge("g", static_cast<double>(10 - i));
  }
  MetricBag forward;
  for (const MetricBag& p : parts) forward.MergeFrom(p);
  MetricBag backward;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    backward.MergeFrom(*it);
  }
  EXPECT_EQ(forward.ToJson(), backward.ToJson());
}

TEST(MetricBagTest, ToJsonIsWellFormedAndTyped) {
  MetricBag bag;
  bag.Increment("quoted\"name\n", 1);  // exercises JsonEscape
  bag.SetGauge("gauge", 2.25);
  const JsonValue root = ParseOrDie(bag.ToJson());
  ASSERT_EQ(root.kind, JsonValue::kObject);
  ASSERT_EQ(root.object.size(), 2u);
  const JsonValue* gauge = root.Find("gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->Find("kind")->string, "gauge");
  EXPECT_EQ(gauge->Find("value")->number, 2.25);
  const JsonValue* counter = root.Find("quoted\"name\n");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->Find("kind")->string, "counter");
  EXPECT_EQ(counter->Find("value")->number, 1.0);
}

// ---- Tracer behavior --------------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer::Global().Clear();
  Tracer::Global().Enable(false);
  {
    TraceSpan span("should-not-appear");
    Tracer::Global().RecordInstant("neither-should-this");
    EXPECT_FALSE(span.active());
  }
  const RunOutcome outcome = RunKeyedSum(4, 4);
  ASSERT_TRUE(outcome.result.ok());
  EXPECT_EQ(Tracer::Global().NumEvents(), 0u);
  const JsonValue root = ParseOrDie(Tracer::Global().ToJson());
  EXPECT_EQ(root.kind, JsonValue::kArray);
  EXPECT_TRUE(root.array.empty());
}

TEST(TracerTest, MidSpanEnableDoesNotEmitUnbalancedEnd) {
  Tracer::Global().Clear();
  Tracer::Global().Enable(false);
  {
    TraceSpan span("constructed-while-disabled");
    Tracer::Global().Enable(true);
  }  // destructor runs with tracing on; the inert span must stay silent
  EXPECT_EQ(Tracer::Global().NumEvents(), 0u);
  Tracer::Global().Enable(false);
}

TEST(TracerTest, KeyedJobEmitsBalancedSpansAndPartitionLanes) {
  ScopedTracing tracing;
  if (!Tracer::Global().enabled()) {
    GTEST_SKIP() << "built with P3C_ENABLE_TRACING=OFF";
  }
  const size_t kReducers = 4;
  const RunOutcome outcome = RunKeyedSum(4, kReducers);
  ASSERT_TRUE(outcome.result.ok());

  const TraceStats stats = ValidateTrace(Tracer::Global().ToJson());
  EXPECT_GT(stats.num_events, 0u);
  EXPECT_TRUE(stats.begin_names.count("job:keyed-sum"));
  EXPECT_TRUE(stats.begin_names.count("map-phase"));
  EXPECT_TRUE(stats.begin_names.count("shuffle-phase"));
  EXPECT_TRUE(stats.begin_names.count("reduce-phase"));
  // One synthetic lane per shuffle partition, each named and carrying
  // its merge span.
  EXPECT_EQ(stats.partition_lanes.size(), kReducers);
  for (size_t p = 0; p < kReducers; ++p) {
    EXPECT_TRUE(stats.begin_names.count(
        "merge partition " + std::to_string(p)));
    const auto lane = std::to_string(Tracer::kPartitionLaneBase + p);
    ASSERT_TRUE(stats.lane_names.count(lane));
    EXPECT_EQ(stats.lane_names.at(lane),
              "shuffle partition " + std::to_string(p));
  }
}

TEST(TracerTest, MapOnlyJobTracesWithoutPartitionLanes) {
  ScopedTracing tracing;
  if (!Tracer::Global().enabled()) {
    GTEST_SKIP() << "built with P3C_ENABLE_TRACING=OFF";
  }
  mr::RunnerOptions options;
  options.num_threads = 2;
  options.records_per_split = 64;
  mr::LocalRunner runner(options);
  const auto records = MakeKeyedRecords(200);
  auto result = runner.RunMapOnly<int, int64_t>(
      "map-only-job", records.size(),
      [&records] { return std::make_unique<KeyedSumMapper>(&records); });
  ASSERT_TRUE(result.ok());

  const TraceStats stats = ValidateTrace(Tracer::Global().ToJson());
  EXPECT_TRUE(stats.begin_names.count("job:map-only-job"));
  EXPECT_TRUE(stats.begin_names.count("output-merge"));
  EXPECT_FALSE(stats.begin_names.count("shuffle-phase"));
  EXPECT_TRUE(stats.partition_lanes.empty());
}

TEST(TracerTest, RetriesEmitFailureInstantsAndFlowPairs) {
  ScopedTracing tracing;
  if (!Tracer::Global().enabled()) {
    GTEST_SKIP() << "built with P3C_ENABLE_TRACING=OFF";
  }
  mr::ScriptedFaultInjector injector;
  injector.FailOnce("keyed-sum", /*task_index=*/1, /*attempt=*/0);
  const RunOutcome outcome = RunKeyedSum(4, 4, &injector);
  ASSERT_TRUE(outcome.result.ok());
  EXPECT_EQ(injector.injected_faults(), 1u);

  const TraceStats stats = ValidateTrace(Tracer::Global().ToJson());
  EXPECT_GE(stats.instants, 1u);  // the "... failed" marker
  // The retry is stitched with one flow pair: s in the failed attempt,
  // f (bp=e) into the replacement attempt, same id.
  std::multiset<uint64_t> starts;
  std::multiset<uint64_t> ends;
  for (const auto& [phase, id] : stats.flows) {
    (phase == 's' ? starts : ends).insert(id);
  }
  EXPECT_EQ(starts.size(), 1u);
  EXPECT_EQ(ends, starts);
  // Both attempts of the retried task appear as spans.
  size_t attempt_spans = 0;
  for (const std::string& name : stats.begin_names) {
    if (name.find("map task 1 attempt") != std::string::npos) {
      ++attempt_spans;
    }
  }
  EXPECT_EQ(attempt_spans, 2u);
}

TEST(TracerTest, PipelineTraceCoversEveryRecordedJob) {
  data::GeneratorConfig config;
  config.num_points = 3000;
  config.num_dims = 20;
  config.num_clusters = 3;
  config.noise_fraction = 0.10;
  config.seed = 91;
  const auto data = data::GenerateSynthetic(config).value();

  ScopedTracing tracing;
  if (!Tracer::Global().enabled()) {
    GTEST_SKIP() << "built with P3C_ENABLE_TRACING=OFF";
  }
  mr::P3CMROptions options;
  options.params.light = true;
  mr::P3CMR pipeline{options};
  auto result = pipeline.Cluster(data.dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(pipeline.metrics().num_jobs(), 0u);

  const TraceStats stats = ValidateTrace(Tracer::Global().ToJson());
  EXPECT_TRUE(stats.begin_names.count("pipeline:p3c+-mr-light"));
  for (const mr::JobMetrics& job : pipeline.metrics().jobs()) {
    EXPECT_TRUE(stats.begin_names.count("job:" + job.job_name))
        << "no span for job " << job.job_name;
  }
  size_t phase_spans = 0;
  for (const std::string& name : stats.begin_names) {
    if (name.rfind("phase:", 0) == 0) ++phase_spans;
  }
  EXPECT_GT(phase_spans, 0u);
  // The driver-side A-priori work between the support-count jobs.
  for (const char* name :
       {"core:join", "core:closure", "core:prove", "core:maximal"}) {
    EXPECT_TRUE(stats.begin_names.count(name)) << "no span " << name;
  }
}

TEST(TracerTest, CheckpointedRunTracesTheDatasetFingerprint) {
  data::GeneratorConfig config;
  config.num_points = 2000;
  config.num_dims = 10;
  config.num_clusters = 2;
  config.seed = 93;
  const auto data = data::GenerateSynthetic(config).value();
  const std::string dir =
      std::string(::testing::TempDir()) + "/trace_fingerprint_ckpt";
  std::filesystem::remove_all(dir);

  ScopedTracing tracing;
  if (!Tracer::Global().enabled()) {
    GTEST_SKIP() << "built with P3C_ENABLE_TRACING=OFF";
  }
  mr::P3CMROptions options;
  options.params.light = true;
  options.checkpoint_dir = dir;
  mr::P3CMR pipeline{options};
  auto result = pipeline.Cluster(data.dataset);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Hashing the dataset is its own span, not unattributed driver time.
  const TraceStats stats = ValidateTrace(Tracer::Global().ToJson());
  EXPECT_TRUE(stats.begin_names.count("checkpoint:fingerprint"));
  EXPECT_TRUE(stats.begin_names.count("checkpoint:write:histogram"));
}

// ---- Metrics JSON export ---------------------------------------------

TEST(MetricsJsonTest, RegistryToJsonIsWellFormedAndComplete) {
  const RunOutcome outcome = RunKeyedSum(4, 4);
  ASSERT_TRUE(outcome.result.ok());
  const JsonValue root = ParseOrDie(outcome.metrics.ToJson());
  ASSERT_EQ(root.kind, JsonValue::kObject);
  EXPECT_EQ(root.Find("num_jobs")->number, 1.0);
  const JsonValue* jobs = root.Find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->array.size(), 1u);
  const JsonValue& job = jobs->array.front();
  EXPECT_EQ(job.Find("job_name")->string, "keyed-sum");
  EXPECT_EQ(job.Find("succeeded")->boolean, true);
  EXPECT_EQ(job.Find("input_records")->number, 500.0);
  EXPECT_EQ(job.Find("num_reducers")->number, 4.0);
  ASSERT_NE(job.Find("partition_records"), nullptr);
  EXPECT_EQ(job.Find("partition_records")->array.size(), 4u);
  EXPECT_GT(job.Find("partition_skew")->number, 0.0);
  // Per-job counters rode along into the export.
  const JsonValue* counters = job.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("records_mapped")->Find("value")->number, 500.0);
  // ...and into the merged top-level bag.
  const JsonValue* merged = root.Find("counters");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->Find("records_mapped")->Find("value")->number, 500.0);
  EXPECT_EQ(merged->Find("max_abs_value")->Find("kind")->string, "gauge");
  EXPECT_EQ(merged->Find("abs_value")->Find("kind")->string, "counter");
  // Sum of |i - 50| over the 500 records: 1275 + 449 * 450 / 2.
  EXPECT_EQ(merged->Find("abs_value")->Find("value")->number, 102300.0);
}

TEST(MetricsJsonTest, CounterJsonByteIdenticalAcrossThreadCounts) {
  std::string reference;
  for (size_t threads : {1, 2, 4, 8}) {
    const RunOutcome outcome = RunKeyedSum(threads, 4);
    ASSERT_TRUE(outcome.result.ok());
    const std::string json = outcome.metrics.MergedCounters().ToJson();
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "at " << threads << " threads";
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(MetricsJsonTest, CounterJsonByteIdenticalUnderInjectedFaults) {
  const RunOutcome clean = RunKeyedSum(4, 4);
  ASSERT_TRUE(clean.result.ok());

  mr::SeededFaultInjector injector(/*seed=*/5, /*fail_probability=*/1.0,
                                   /*max_faults_per_task=*/1);
  const RunOutcome faulty = RunKeyedSum(4, 4, &injector);
  ASSERT_TRUE(faulty.result.ok()) << faulty.result.status().ToString();
  EXPECT_GT(injector.injected_faults(), 0u);

  // Retried attempts left no counter side effects: gauge and counter
  // serialization is byte-identical to the fault-free run.
  EXPECT_EQ(faulty.metrics.MergedCounters().ToJson(),
            clean.metrics.MergedCounters().ToJson());
  EXPECT_EQ(faulty.counters.ToJson(), clean.counters.ToJson());
}

TEST(MetricsJsonTest, FailedJobExportsEmptyCounters) {
  mr::ScriptedFaultInjector injector;
  mr::ScriptedFaultInjector::Rule rule;
  rule.job_substring = "keyed-sum";
  rule.fires = mr::ScriptedFaultInjector::kUnlimitedFires;
  injector.AddRule(std::move(rule));
  const RunOutcome failed = RunKeyedSum(2, 2, &injector);
  ASSERT_FALSE(failed.result.ok());
  ASSERT_EQ(failed.metrics.num_jobs(), 1u);
  EXPECT_TRUE(failed.metrics.jobs().front().counters.empty());
  const JsonValue root = ParseOrDie(failed.metrics.ToJson());
  const JsonValue& job = root.Find("jobs")->array.front();
  EXPECT_EQ(job.Find("succeeded")->boolean, false);
  EXPECT_TRUE(job.Find("counters")->object.empty());
}

// The driver's phase rows are the run report. For MR (MVB) and
// MR-Light: every job names its phase, the phase table accounts for
// every job run, each phase's wall time covers its jobs, and the phases
// plus the unphased remainder give the call's wall time.
TEST(MetricsJsonTest, PhaseTableAccountsForEveryJobAndTheCallWall) {
  data::GeneratorConfig config;
  config.num_points = 3000;
  config.num_dims = 20;
  config.num_clusters = 3;
  config.noise_fraction = 0.10;
  config.seed = 95;
  const auto data = data::GenerateSynthetic(config).value();
  for (bool light : {false, true}) {
    SCOPED_TRACE(light ? "MR-Light" : "MR (MVB)");
    mr::P3CMROptions options;
    options.params.light = light;
    mr::P3CMR pipeline{options};
    auto result = pipeline.Cluster(data.dataset);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const mr::MetricsRegistry& log = pipeline.metrics();
    ASSERT_GT(log.num_jobs(), 0u);
    std::map<std::string, double> job_seconds;
    for (const mr::JobMetrics& job : log.jobs()) {
      EXPECT_FALSE(job.phase.empty()) << job.job_name;
      job_seconds[job.phase] += job.total_seconds;
    }

    const JsonValue root = ParseOrDie(log.ToJson(&pipeline.driver_metrics()));
    const JsonValue* phases = root.Find("phases");
    ASSERT_NE(phases, nullptr);
    double job_runs = 0.0;
    double phase_walls = 0.0;
    for (const JsonValue& row : phases->array) {
      const std::string& phase = row.Find("phase")->string;
      const double wall = row.Find("wall_seconds")->number;
      job_runs += row.Find("job_runs")->number;
      // Walls are printed to the microsecond.
      EXPECT_GE(wall + 1e-6, job_seconds[phase]) << phase;
      phase_walls += wall;
    }
    EXPECT_EQ(job_runs, static_cast<double>(log.num_jobs()));
    const double unphased = root.Find("unphased_seconds")->number;
    EXPECT_GE(unphased, 0.0);
    EXPECT_NEAR(phase_walls + unphased, root.Find("wall_seconds")->number,
                1e-5);
  }
}

// ---- The job log as the run report: unit cases -----------------------

mr::JobMetrics JobRow(const std::string& name, uint64_t input_records) {
  mr::JobMetrics job;
  job.job_name = name;
  job.input_records = input_records;
  return job;
}

// A resumed run's counters are the checkpoint's replayed bag folded
// with the live job rows, in that order, and that fold is the report's
// "counters" section.
TEST(MetricsReportTest, MergedCountersFoldReplayedBagThenJobRows) {
  MetricBag replayed;
  replayed.Increment("records", 10);
  replayed.SetGauge("peak", 7.0);
  mr::JobMetrics a = JobRow("a", 0);
  a.counters.Increment("records", 5);
  a.counters.SetGauge("peak", 3.0);
  mr::JobMetrics b = JobRow("b", 0);
  b.counters.Increment("records", 1);
  b.counters.Increment("only_b", 2);

  mr::MetricsRegistry log;
  log.ReplayCounters(replayed);
  log.Record(a);
  log.Record(b);
  const MetricBag merged = log.MergedCounters();
  EXPECT_EQ(merged.Get("records"), 16u);
  EXPECT_EQ(merged.Get("only_b"), 2u);
  EXPECT_EQ(merged.GetGauge("peak"), 7.0);

  MetricBag expected = replayed;
  expected.MergeFrom(a.counters);
  expected.MergeFrom(b.counters);
  EXPECT_EQ(merged.ToJson(), expected.ToJson());
  const JsonValue root = ParseOrDie(log.ToJson());
  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("records")->Find("value")->number, 16.0);
  EXPECT_EQ(counters->Find("peak")->Find("value")->number, 7.0);
  EXPECT_EQ(counters->Find("only_b")->Find("value")->number, 2.0);
}

// A run resumed past its last phase records no job, yet its report
// still carries every counter of the phases it skipped.
TEST(MetricsReportTest, ReplayedCountersAloneFillTheReport) {
  MetricBag replayed;
  replayed.Increment("records", 3);
  mr::MetricsRegistry log;
  log.ReplayCounters(replayed);
  EXPECT_EQ(log.num_jobs(), 0u);
  EXPECT_EQ(log.MergedCounters().ToJson(), replayed.ToJson());
  EXPECT_NE(log.ToString().find("counters:"), std::string::npos);
  const JsonValue root = ParseOrDie(log.ToJson());
  EXPECT_EQ(root.Find("counters")->Find("records")->Find("value")->number,
            3.0);
}

TEST(MetricsReportTest, ClearDropsJobRowsAndReplayedCounters) {
  MetricBag replayed;
  replayed.Increment("records", 3);
  mr::JobMetrics job = JobRow("a", 1);
  job.counters.Increment("records", 1);
  mr::MetricsRegistry log;
  log.ReplayCounters(replayed);
  log.Record(job);
  log.Clear();
  EXPECT_EQ(log.num_jobs(), 0u);
  EXPECT_TRUE(log.MergedCounters().empty());
  EXPECT_EQ(log.ToString().find("counters:"), std::string::npos);
}

TEST(MetricsReportTest, StampPhaseMarksOnlyRowsSinceTheMark) {
  mr::MetricsRegistry log;
  log.Record(JobRow("before-1", 1));
  log.Record(JobRow("before-2", 1));
  const size_t mark = log.num_jobs();
  log.Record(JobRow("inside-1", 1));
  log.Record(JobRow("inside-2", 1));
  log.StampPhase(mark, "cores");
  ASSERT_EQ(log.num_jobs(), 4u);
  EXPECT_EQ(log.jobs()[0].phase, "");
  EXPECT_EQ(log.jobs()[1].phase, "");
  EXPECT_EQ(log.jobs()[2].phase, "cores");
  EXPECT_EQ(log.jobs()[3].phase, "cores");
  // A mark at the end of the log stamps nothing.
  log.StampPhase(log.num_jobs(), "later");
  EXPECT_EQ(log.jobs()[3].phase, "cores");
}

TEST(MetricsReportTest, PhaseWallSumsEveryRunOfAPhase) {
  MetricBag driver;
  mr::MetricsRegistry::AddPhaseWall(driver, "em", 0.25);
  mr::MetricsRegistry::AddPhaseWall(driver, "em", 0.5);
  mr::MetricsRegistry::AddPhaseWall(driver, "histogram", 1.0);
  mr::MetricsRegistry::SetCallWall(driver, 2.0);
  EXPECT_EQ(driver.GetGauge("phase.em.wall_seconds"), 0.75);
  EXPECT_EQ(driver.GetGauge("phase.histogram.wall_seconds"), 1.0);
  EXPECT_EQ(driver.GetGauge("call.wall_seconds"), 2.0);
  EXPECT_EQ(driver.Find("phase.em.wall_seconds")->kind, MetricKind::kGauge);
}

// Phase rows come in the order of their first job; phases that ran no
// job follow in name order; unstamped jobs belong to no row.
TEST(MetricsReportTest, PhaseRowsFollowFirstJobOrderThenJoblessPhases) {
  mr::MetricsRegistry log;
  log.Record(JobRow("unstamped", 1000));
  size_t mark = log.num_jobs();
  log.Record(JobRow("b-1", 10));
  log.StampPhase(mark, "b");
  mark = log.num_jobs();
  log.Record(JobRow("a-1", 20));
  log.StampPhase(mark, "a");
  mark = log.num_jobs();
  log.Record(JobRow("b-2", 30));
  log.StampPhase(mark, "b");

  MetricBag driver;
  mr::MetricsRegistry::AddPhaseWall(driver, "z", 0.5);
  mr::MetricsRegistry::AddPhaseWall(driver, "a", 1.0);
  mr::MetricsRegistry::AddPhaseWall(driver, "c", 0.25);
  mr::MetricsRegistry::AddPhaseWall(driver, "b", 2.0);
  mr::MetricsRegistry::SetCallWall(driver, 5.0);

  const JsonValue root = ParseOrDie(log.ToJson(&driver));
  const JsonValue* phases = root.Find("phases");
  ASSERT_NE(phases, nullptr);
  struct Want {
    const char* phase;
    double wall;
    double runs;
    double input;
  };
  const Want want[] = {{"b", 2.0, 2, 40}, {"a", 1.0, 1, 20},
                       {"c", 0.25, 0, 0}, {"z", 0.5, 0, 0}};
  ASSERT_EQ(phases->array.size(), std::size(want));
  for (size_t i = 0; i < std::size(want); ++i) {
    const JsonValue& row = phases->array[i];
    EXPECT_EQ(row.Find("phase")->string, want[i].phase) << i;
    EXPECT_EQ(row.Find("wall_seconds")->number, want[i].wall) << i;
    EXPECT_EQ(row.Find("job_runs")->number, want[i].runs) << i;
    EXPECT_EQ(row.Find("input_records")->number, want[i].input) << i;
    EXPECT_EQ(row.Find("peak_bytes"), nullptr) << i;
  }
  EXPECT_EQ(root.Find("wall_seconds")->number, 5.0);
  EXPECT_EQ(root.Find("unphased_seconds")->number, 1.25);

  const std::string table = log.ToString(&driver);
  EXPECT_LT(table.find("\nb "), table.find("\na "));
  EXPECT_NE(table.find("unphased: 1.2500 s of the call's 5.0000 s"),
            std::string::npos);
}

TEST(MetricsReportTest, UnphasedSecondsNeverGoNegative) {
  mr::MetricsRegistry log;
  MetricBag driver;
  mr::MetricsRegistry::AddPhaseWall(driver, "a", 3.0);
  mr::MetricsRegistry::SetCallWall(driver, 2.0);
  const JsonValue root = ParseOrDie(log.ToJson(&driver));
  EXPECT_EQ(root.Find("unphased_seconds")->number, 0.0);
  EXPECT_NE(log.ToString(&driver).find("unphased: 0.0000 s"),
            std::string::npos);
}

// Without a call wall time there is no phase table: a bare engine run
// or a driver bag of gauges only exports the bag under "driver".
TEST(MetricsReportTest, NoPhaseTableWithoutACallWall) {
  mr::MetricsRegistry log;
  log.Record(JobRow("a-1", 1));
  log.StampPhase(0, "a");
  MetricBag driver;
  mr::MetricsRegistry::AddPhaseWall(driver, "a", 1.0);
  for (const MetricBag* bag : {static_cast<const MetricBag*>(nullptr),
                               static_cast<const MetricBag*>(&driver)}) {
    const JsonValue root = ParseOrDie(log.ToJson(bag));
    EXPECT_EQ(root.Find("phases"), nullptr);
    EXPECT_EQ(root.Find("wall_seconds"), nullptr);
    EXPECT_EQ(root.Find("unphased_seconds"), nullptr);
    EXPECT_EQ(root.Find("driver") != nullptr, bag != nullptr);
    EXPECT_EQ(log.ToString(bag).find("unphased:"), std::string::npos);
  }
}

// The peak-bytes column is filled only for phases whose memory window
// was tracked.
TEST(MetricsReportTest, PeakBytesOnlyForTrackedPhases) {
  mr::MetricsRegistry log;
  log.Record(JobRow("a-1", 1));
  log.StampPhase(0, "a");
  log.Record(JobRow("b-1", 1));
  log.StampPhase(1, "b");
  MetricBag driver;
  mr::MetricsRegistry::AddPhaseWall(driver, "a", 1.0);
  mr::MetricsRegistry::AddPhaseWall(driver, "b", 1.0);
  mr::MetricsRegistry::SetCallWall(driver, 2.0);
  driver.SetGauge("mem.phase.a.peak_bytes", 4096.0);

  const JsonValue root = ParseOrDie(log.ToJson(&driver));
  const JsonValue* phases = root.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->array.size(), 2u);
  ASSERT_NE(phases->array[0].Find("peak_bytes"), nullptr);
  EXPECT_EQ(phases->array[0].Find("peak_bytes")->number, 4096.0);
  EXPECT_EQ(phases->array[1].Find("peak_bytes"), nullptr);

  const std::string table = log.ToString(&driver);
  const size_t row_a = table.find("\na ");
  const size_t row_b = table.find("\nb ");
  ASSERT_NE(row_a, std::string::npos);
  ASSERT_NE(row_b, std::string::npos);
  const std::string line_a = table.substr(row_a + 1,
                                          table.find('\n', row_a + 1) - row_a);
  const std::string line_b = table.substr(row_b + 1,
                                          table.find('\n', row_b + 1) - row_b);
  EXPECT_NE(line_a.find(" 4096\n"), std::string::npos) << line_a;
  EXPECT_NE(line_b.find(" -\n"), std::string::npos) << line_b;
}

// ---- partition_skew edge cases ---------------------------------------

TEST(PartitionSkewTest, ZeroRecordJobHasZeroSkew) {
  mr::MetricsRegistry metrics;
  mr::RunnerOptions options;
  options.num_threads = 2;
  options.num_reducers = 4;
  options.metrics = &metrics;
  mr::LocalRunner runner(options);
  const std::vector<KeyedRecord> empty;
  auto result = runner.Run<int, int64_t, std::pair<int, int64_t>>(
      "empty-job", empty.size(),
      [&empty] { return std::make_unique<KeyedSumMapper>(&empty); },
      [] { return std::make_unique<Int64SumReducer>(); });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  ASSERT_EQ(metrics.num_jobs(), 1u);
  const mr::JobMetrics& job = metrics.jobs().front();
  EXPECT_EQ(job.partition_skew, 0.0);
  EXPECT_EQ(job.partition_records, std::vector<uint64_t>(4, 0));
  // The table renders without dividing by zero.
  EXPECT_NE(metrics.ToString().find("empty-job"), std::string::npos);
}

TEST(PartitionSkewTest, MapOnlyJobHasEmptyPartitionVectorsAndDashSkew) {
  mr::MetricsRegistry metrics;
  mr::RunnerOptions options;
  options.num_threads = 2;
  options.records_per_split = 64;
  options.metrics = &metrics;
  mr::LocalRunner runner(options);
  const auto records = MakeKeyedRecords(200);
  auto result = runner.RunMapOnly<int, int64_t>(
      "map-only-skew", records.size(),
      [&records] { return std::make_unique<KeyedSumMapper>(&records); });
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(metrics.num_jobs(), 1u);
  const mr::JobMetrics& job = metrics.jobs().front();
  EXPECT_TRUE(job.partition_records.empty());
  EXPECT_TRUE(job.partition_shuffle_seconds.empty());
  EXPECT_EQ(job.partition_skew, 0.0);
  // Map-only rows render a "-" in the skew column instead of a bogus 0.
  const std::string table = metrics.ToString();
  const size_t row = table.find("map-only-skew");
  ASSERT_NE(row, std::string::npos);
  EXPECT_NE(table.find("-", row), std::string::npos);
}

TEST(PartitionSkewTest, AllRecordsOnOnePartitionMaxesSkew) {
  mr::MetricsRegistry metrics;
  mr::RunnerOptions options;
  options.num_threads = 4;
  options.records_per_split = 64;
  options.metrics = &metrics;
  mr::LocalRunner runner(options);
  // One key for every record: hash routing sends them all to the single
  // partition that key hashes to.
  auto records = MakeKeyedRecords(500);
  for (KeyedRecord& record : records) record.key = 7;
  const size_t hot = mr::ShuffleKeyHash(7) % 8;
  auto result = runner.Run<int, int64_t, std::pair<int, int64_t>>(
      "skewed-job", records.size(),
      [&records] { return std::make_unique<KeyedSumMapper>(&records); },
      [] { return std::make_unique<Int64SumReducer>(); },
      /*num_reducers=*/8);
  ASSERT_TRUE(result.ok());
  const mr::JobMetrics& job = metrics.jobs().front();
  // Worst case: skew equals the reducer count.
  EXPECT_DOUBLE_EQ(job.partition_skew, 8.0);
  for (size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(job.partition_records[p], p == hot ? 500u : 0u);
  }
}

// ---- Logging satellite -----------------------------------------------

TEST(LoggingTest, ParseLogLevelNames) {
  LogLevel level = LogLevel::kOff;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kOff);  // untouched on failure
}

TEST(LoggingTest, ScopedCaptureSeesFilteredLines) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  {
    ScopedLogCapture capture;
    P3C_LOG(kInfo) << "captured " << 42;
    P3C_LOG(kDebug) << "below the level";
    const auto lines = capture.lines();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("captured 42"), std::string::npos);
    EXPECT_NE(lines[0].find("[INFO"), std::string::npos);
    EXPECT_NE(lines[0].find("trace_test.cc"), std::string::npos);
  }
  SetLogLevel(saved);
}

TEST(LoggingTest, CaptureRestoresPreviousSink) {
  std::vector<std::string> outer;
  LogSink previous = SetLogSink(
      [&outer](LogLevel, const char*, int, const std::string& message) {
        outer.push_back(message);
      });
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  {
    ScopedLogCapture capture;
    P3C_LOG(kInfo) << "inner";
  }
  P3C_LOG(kInfo) << "outer";
  SetLogLevel(saved);
  SetLogSink(std::move(previous));
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer[0], "outer");
}

}  // namespace
}  // namespace p3c
