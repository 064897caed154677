// p3c_report — fuses a run's --trace-out and --metrics-out JSON into one
// self-contained run report (DESIGN.md §15).
//
//   p3c_report [--trace trace.json] [--metrics metrics.json]
//              [--format text|json] [--out report.txt] [--top-spans N]
//
// At least one of --trace / --metrics is required; the report degrades
// gracefully when only one is given (phase wall-clock and top spans come
// from the trace, records / retries / skew / memory from the metrics).
// The per-phase table joins the three sources on the phase name: wall
// seconds from "phase:*" trace spans, records from the "job:*" spans
// nested inside them, and peak bytes from the driver bag's
// mem.phase.<name>.peak_bytes gauges (--track-memory runs only).
//
// Exit code 0 on success; parse and I/O errors go to stderr with a
// non-zero exit.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/status.h"
#include "src/common/string_util.h"

namespace {

using namespace p3c;

// ---- Minimal JSON reader ----------------------------------------------------
//
// Tolerant of everything the Tracer and MetricsRegistry emit (objects,
// arrays, strings with escapes, numbers, bools, null); nothing more. A
// hand-rolled reader keeps the tool dependency-free, like the rest of
// the toolchain.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> fields;   // kObject

  [[nodiscard]] const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] double Number(const std::string& key,
                              double fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
  }
  [[nodiscard]] std::string String(const std::string& key) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->kind == Kind::kString ? v->string
                                                    : std::string();
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    P3C_RETURN_NOT_OK(ParseValue(value));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing content");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StringPrintf("JSON parse error at offset %zu: %s", pos_,
                     what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status Expect(char c) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Error(StringPrintf("expected '%c'", c));
    }
    ++pos_;
    return Status::OK();
  }

  Status ParseValue(JsonValue& out) {  // NOLINT(misc-no-recursion)
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return ParseString(out.string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      pos_ += 4;
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      pos_ += 5;
      return Status::OK();
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out.kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return Status::OK();
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      char* end = nullptr;
      out.kind = JsonValue::Kind::kNumber;
      out.number = std::strtod(text_.c_str() + pos_, &end);
      if (end == text_.c_str() + pos_) return Error("malformed number");
      pos_ = static_cast<size_t>(end - text_.c_str());
      return Status::OK();
    }
    return Error("unexpected character");
  }

  Status ParseObject(JsonValue& out) {  // NOLINT(misc-no-recursion)
    out.kind = JsonValue::Kind::kObject;
    P3C_RETURN_NOT_OK(Expect('{'));
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      P3C_RETURN_NOT_OK(ParseString(key));
      P3C_RETURN_NOT_OK(Expect(':'));
      JsonValue value;
      P3C_RETURN_NOT_OK(ParseValue(value));
      out.fields.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Expect('}');
    }
  }

  Status ParseArray(JsonValue& out) {  // NOLINT(misc-no-recursion)
    out.kind = JsonValue::Kind::kArray;
    P3C_RETURN_NOT_OK(Expect('['));
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      JsonValue value;
      P3C_RETURN_NOT_OK(ParseValue(value));
      out.items.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Expect(']');
    }
  }

  Status ParseString(std::string& out) {
    P3C_RETURN_NOT_OK(Expect('"'));
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u':
          // The emitters only escape control characters; render the
          // code point's low byte, which round-trips ASCII.
          if (pos_ + 4 <= text_.size()) {
            out.push_back(static_cast<char>(
                std::strtol(text_.substr(pos_, 4).c_str(), nullptr, 16)));
            pos_ += 4;
          }
          break;
        default: out.push_back(esc); break;
      }
    }
    return Error("unterminated string");
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "'");
  }
  std::string out;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

// ---- Report model -----------------------------------------------------------

struct PhaseRow {
  std::string name;          // without the "phase:" prefix
  double wall_seconds = 0.0;
  double records = 0.0;      // input records of the jobs inside the phase
  double peak_bytes = -1.0;  // < 0: no memory gauge for this phase
  size_t job_runs = 0;
};

struct SpanRow {
  std::string name;
  double seconds = 0.0;
};

struct SkewRow {
  std::string job;
  double skew = 0.0;
};

struct Report {
  std::vector<PhaseRow> phases;   // pipeline order (first B event wins)
  std::vector<SpanRow> top_spans;
  std::vector<SkewRow> skews;     // jobs sorted by descending skew
  std::map<std::string, double> memory;   // driver mem.* gauges
  double total_seconds = -1.0;
  double total_records = -1.0;
  double task_failures = 0.0;
  double retried_tasks = 0.0;
  double killed_attempts = 0.0;
  double deadline_exceeded = 0.0;
  size_t mem_instants = 0;
  bool have_trace = false;
  bool have_metrics = false;
};

PhaseRow& PhaseByName(Report& report, const std::string& name) {
  for (PhaseRow& row : report.phases) {
    if (row.name == name) return row;
  }
  report.phases.push_back(PhaseRow{name, 0.0, 0.0, -1.0, 0});
  return report.phases.back();
}

/// Folds the Chrome trace-event array into per-phase wall clock, per-
/// phase record counts, and the longest spans. B/E events pair up per
/// (pid, tid) stack; "job:*" spans credit their input_records to the
/// enclosing "phase:*" span on the same thread.
void FoldTrace(const JsonValue& trace, size_t top_n, Report& report) {
  struct OpenSpan {
    std::string name;
    double ts = 0.0;
    double job_records = 0.0;
  };
  std::map<std::pair<double, double>, std::vector<OpenSpan>> stacks;
  std::vector<SpanRow> spans;
  for (const JsonValue& event : trace.items) {
    const std::string ph = event.String("ph");
    const auto key = std::make_pair(event.Number("pid", 0.0),
                                    event.Number("tid", 0.0));
    if (ph == "B") {
      OpenSpan span;
      span.name = event.String("name");
      span.ts = event.Number("ts", 0.0);
      if (span.name.rfind("job:", 0) == 0) {
        const JsonValue* args = event.Find("args");
        if (args != nullptr) {
          span.job_records = args->Number("input_records", 0.0);
        }
      }
      stacks[key].push_back(std::move(span));
    } else if (ph == "E") {
      auto& stack = stacks[key];
      if (stack.empty()) continue;  // tolerate truncated traces
      const OpenSpan span = stack.back();
      stack.pop_back();
      const double seconds =
          (event.Number("ts", span.ts) - span.ts) / 1e6;
      spans.push_back(SpanRow{span.name, seconds});
      if (span.name.rfind("phase:", 0) == 0) {
        PhaseRow& row = PhaseByName(report, span.name.substr(6));
        row.wall_seconds += seconds;
      } else if (span.name.rfind("job:", 0) == 0) {
        // Credit the records to the innermost enclosing phase span.
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          if (it->name.rfind("phase:", 0) == 0) {
            PhaseRow& row = PhaseByName(report, it->name.substr(6));
            row.records += span.job_records;
            ++row.job_runs;
            break;
          }
        }
      }
    } else if (ph == "i" || ph == "I") {
      if (event.String("name") == "mem-high-water") ++report.mem_instants;
    }
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRow& a, const SpanRow& b) {
                     return a.seconds > b.seconds;
                   });
  if (spans.size() > top_n) spans.resize(top_n);
  report.top_spans = std::move(spans);
  report.have_trace = true;
}

/// Folds the metrics JSON: run totals, retry/kill summary, the
/// per-job skew table, and the driver bag's mem.* gauges (including the
/// per-phase peaks joined into the phase table).
void FoldMetrics(const JsonValue& metrics, Report& report) {
  report.total_seconds = metrics.Number("total_seconds", -1.0);
  report.total_records = metrics.Number("total_input_records", -1.0);
  report.task_failures = metrics.Number("total_task_failures", 0.0);
  report.retried_tasks = metrics.Number("total_retried_tasks", 0.0);
  report.killed_attempts = metrics.Number("total_killed_attempts", 0.0);
  report.deadline_exceeded =
      metrics.Number("total_deadline_exceeded", 0.0);
  if (const JsonValue* jobs = metrics.Find("jobs")) {
    for (const JsonValue& job : jobs->items) {
      const double skew = job.Number("partition_skew", 0.0);
      if (skew > 0.0) {
        report.skews.push_back(SkewRow{job.String("job_name"), skew});
      }
    }
    std::stable_sort(report.skews.begin(), report.skews.end(),
                     [](const SkewRow& a, const SkewRow& b) {
                       return a.skew > b.skew;
                     });
  }
  if (const JsonValue* driver = metrics.Find("driver")) {
    for (const auto& [key, value] : driver->fields) {
      if (key.rfind("mem.", 0) != 0 ||
          value.kind != JsonValue::Kind::kObject) {
        continue;
      }
      const double bytes = value.Number("value", 0.0);
      report.memory[key] = bytes;
      // mem.phase.<name>.peak_bytes joins the phase table.
      const std::string prefix = "mem.phase.";
      const std::string suffix = ".peak_bytes";
      if (key.size() > prefix.size() + suffix.size() &&
          key.rfind(prefix, 0) == 0 &&
          key.compare(key.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        const std::string phase = key.substr(
            prefix.size(), key.size() - prefix.size() - suffix.size());
        PhaseByName(report, phase).peak_bytes = bytes;
      }
    }
  }
  report.have_metrics = true;
}

// ---- Rendering --------------------------------------------------------------

std::string HumanBytes(double bytes) {
  if (bytes < 0.0) return "-";
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  size_t u = 0;
  while (bytes >= 1024.0 && u + 1 < 5) {
    bytes /= 1024.0;
    ++u;
  }
  return u == 0 ? StringPrintf("%.0f %s", bytes, units[u])
                : StringPrintf("%.2f %s", bytes, units[u]);
}

std::string RenderText(const Report& report) {
  std::string out = "p3c run report\n==============\n";
  if (report.total_seconds >= 0.0) {
    out += StringPrintf("total job seconds:  %.3f\n", report.total_seconds);
  }
  if (report.total_records >= 0.0) {
    out += StringPrintf("total job records:  %.0f\n", report.total_records);
  }
  if (!report.phases.empty()) {
    out += "\nphases";
    if (!report.have_trace) out += " (no trace: wall clock unavailable)";
    if (!report.have_metrics) out += " (no metrics: peaks unavailable)";
    out += ":\n";
    out += StringPrintf("  %-22s %12s %14s %14s %6s\n", "phase", "wall s",
                        "records", "peak bytes", "jobs");
    for (const PhaseRow& row : report.phases) {
      out += StringPrintf(
          "  %-22s %12s %14.0f %14s %6zu\n", row.name.c_str(),
          report.have_trace ? StringPrintf("%.3f", row.wall_seconds).c_str()
                            : "-",
          row.records, HumanBytes(row.peak_bytes).c_str(), row.job_runs);
    }
  }
  if (!report.memory.empty()) {
    out += "\nmemory (tracked peaks + sampled RSS):\n";
    for (const auto& [key, bytes] : report.memory) {
      if (key.rfind("mem.phase.", 0) == 0) continue;  // in the table above
      out += StringPrintf("  %-38s %14s\n", key.c_str(),
                          HumanBytes(bytes).c_str());
    }
    if (report.mem_instants > 0) {
      out += StringPrintf("  %zu mem-high-water instant(s) in the trace\n",
                          report.mem_instants);
    }
  }
  if (report.have_metrics) {
    out += "\nretries & kills:\n";
    out += StringPrintf(
        "  task failures %.0f, retried tasks %.0f, killed attempts %.0f, "
        "deadline exceeded %.0f\n",
        report.task_failures, report.retried_tasks, report.killed_attempts,
        report.deadline_exceeded);
  }
  if (!report.skews.empty()) {
    out += "\npartition skew (max/mean records, worst jobs first):\n";
    const size_t shown = std::min<size_t>(report.skews.size(), 5);
    for (size_t i = 0; i < shown; ++i) {
      out += StringPrintf("  %-28s %8.3f\n", report.skews[i].job.c_str(),
                          report.skews[i].skew);
    }
  }
  if (!report.top_spans.empty()) {
    out += "\ntop spans by wall clock:\n";
    for (const SpanRow& span : report.top_spans) {
      out += StringPrintf("  %-44s %10.3f s\n", span.name.c_str(),
                          span.seconds);
    }
  }
  return out;
}

std::string RenderJson(const Report& report) {
  std::string out = "{\n  \"phases\": [";
  for (size_t i = 0; i < report.phases.size(); ++i) {
    const PhaseRow& row = report.phases[i];
    out += StringPrintf(
        "%s\n    {\"phase\": \"%s\", \"wall_seconds\": %.6f, "
        "\"records\": %.0f, \"peak_bytes\": %.0f, \"job_runs\": %zu}",
        i == 0 ? "" : ",", JsonEscape(row.name).c_str(), row.wall_seconds,
        row.records, std::max(row.peak_bytes, -1.0), row.job_runs);
  }
  out += "\n  ],\n  \"memory\": {";
  size_t i = 0;
  for (const auto& [key, bytes] : report.memory) {
    out += StringPrintf("%s\n    \"%s\": %.0f", i++ == 0 ? "" : ",",
                        JsonEscape(key).c_str(), bytes);
  }
  out += "\n  },\n";
  out += StringPrintf(
      "  \"totals\": {\"job_seconds\": %.6f, \"job_records\": %.0f, "
      "\"task_failures\": %.0f, \"retried_tasks\": %.0f, "
      "\"killed_attempts\": %.0f, \"deadline_exceeded\": %.0f, "
      "\"mem_high_water_instants\": %zu},\n",
      report.total_seconds, report.total_records, report.task_failures,
      report.retried_tasks, report.killed_attempts, report.deadline_exceeded,
      report.mem_instants);
  out += "  \"skew\": [";
  for (size_t s = 0; s < report.skews.size(); ++s) {
    out += StringPrintf("%s\n    {\"job\": \"%s\", \"skew\": %.6f}",
                        s == 0 ? "" : ",",
                        JsonEscape(report.skews[s].job).c_str(),
                        report.skews[s].skew);
  }
  out += "\n  ],\n  \"top_spans\": [";
  for (size_t s = 0; s < report.top_spans.size(); ++s) {
    out += StringPrintf("%s\n    {\"name\": \"%s\", \"seconds\": %.6f}",
                        s == 0 ? "" : ",",
                        JsonEscape(report.top_spans[s].name).c_str(),
                        report.top_spans[s].seconds);
  }
  out += "\n  ]\n}\n";
  return out;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "p3c_report: error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: p3c_report [--trace trace.json] [--metrics metrics.json]\n"
      "                  [--format text|json] [--out FILE] [--top-spans N]\n"
      "at least one of --trace / --metrics is required\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::string format = "text";
  std::string out_path;
  size_t top_spans = 10;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage();
    }
    if (arg == "--trace") {
      trace_path = value;
    } else if (arg == "--metrics") {
      metrics_path = value;
    } else if (arg == "--format") {
      format = value;
    } else if (arg == "--out") {
      out_path = value;
    } else if (arg == "--top-spans") {
      top_spans = static_cast<size_t>(std::atoll(value.c_str()));
    } else {
      return Usage();
    }
  }
  if (trace_path.empty() && metrics_path.empty()) return Usage();
  if (format != "text" && format != "json") {
    return Fail("--format must be text or json");
  }

  Report report;
  if (!trace_path.empty()) {
    Result<std::string> text = ReadFile(trace_path);
    if (!text.ok()) return Fail(text.status().ToString());
    JsonParser parser(*text);
    Result<JsonValue> trace = parser.Parse();
    if (!trace.ok()) {
      return Fail(trace_path + ": " + trace.status().ToString());
    }
    if (trace->kind != JsonValue::Kind::kArray) {
      return Fail(trace_path + ": expected a trace-event array");
    }
    FoldTrace(*trace, top_spans, report);
  }
  if (!metrics_path.empty()) {
    Result<std::string> text = ReadFile(metrics_path);
    if (!text.ok()) return Fail(text.status().ToString());
    JsonParser parser(*text);
    Result<JsonValue> metrics = parser.Parse();
    if (!metrics.ok()) {
      return Fail(metrics_path + ": " + metrics.status().ToString());
    }
    if (metrics->kind != JsonValue::Kind::kObject) {
      return Fail(metrics_path + ": expected a metrics object");
    }
    FoldMetrics(*metrics, report);
  }

  const std::string rendered =
      format == "json" ? RenderJson(report) : RenderText(report);
  if (out_path.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    const Status st = AtomicWriteFile(out_path, rendered);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote run report to %s\n", out_path.c_str());
  }
  return 0;
}
