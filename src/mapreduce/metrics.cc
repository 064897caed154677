#include "src/mapreduce/metrics.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "src/common/string_util.h"

namespace p3c::mr {

double MetricsRegistry::TotalSeconds() const {
  double acc = 0.0;
  for (const auto& j : jobs_) acc += j.total_seconds;
  return acc;
}

uint64_t MetricsRegistry::TotalShuffleBytes() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.shuffle_bytes;
  return acc;
}

uint64_t MetricsRegistry::TotalTaskFailures() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.task_failures;
  return acc;
}

uint64_t MetricsRegistry::TotalRetriedTasks() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.retried_tasks;
  return acc;
}

uint64_t MetricsRegistry::TotalKilledAttempts() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.killed_attempts;
  return acc;
}

uint64_t MetricsRegistry::TotalDeadlineExceeded() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.deadline_exceeded;
  return acc;
}

uint64_t MetricsRegistry::TotalInputRecords() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.input_records;
  return acc;
}

MetricBag MetricsRegistry::MergedCounters() const {
  MetricBag merged = replayed_counters_;
  for (const auto& j : jobs_) merged.MergeFrom(j.counters);
  return merged;
}

namespace {

constexpr char kCallWall[] = "call.wall_seconds";
constexpr std::string_view kPhasePrefix = "phase.";
constexpr std::string_view kWallSuffix = ".wall_seconds";

/// One row of the phase table, read from the job log and a driver bag.
struct PhaseRow {
  std::string phase;
  double wall_seconds = 0.0;
  size_t job_runs = 0;
  uint64_t input_records = 0;
  const Metric* peak_bytes = nullptr;  ///< null unless memory was tracked
};

/// Phases in the order their first job ran; a phase that ran no job
/// (its wall time is still the driver's) follows in name order.
std::vector<PhaseRow> PhaseTable(const std::vector<JobMetrics>& jobs,
                                 const MetricBag& driver) {
  std::vector<PhaseRow> rows;
  auto row = [&rows](const std::string& phase) -> PhaseRow& {
    for (PhaseRow& r : rows) {
      if (r.phase == phase) return r;
    }
    rows.push_back(PhaseRow{phase});
    return rows.back();
  };
  for (const JobMetrics& j : jobs) {
    if (j.phase.empty()) continue;
    PhaseRow& r = row(j.phase);
    ++r.job_runs;
    r.input_records += j.input_records;
  }
  for (const auto& [name, metric] : driver.values()) {
    const std::string_view n = name;
    if (n.size() > kPhasePrefix.size() + kWallSuffix.size() &&
        n.starts_with(kPhasePrefix) && n.ends_with(kWallSuffix)) {
      row(name.substr(kPhasePrefix.size(), n.size() - kPhasePrefix.size() -
                                               kWallSuffix.size()))
          .wall_seconds = metric.sum;
    }
  }
  for (PhaseRow& r : rows) {
    r.peak_bytes = driver.Find("mem.phase." + r.phase + ".peak_bytes");
  }
  return rows;
}

/// The call's wall time no phase covers; never negative.
double UnphasedSeconds(const std::vector<PhaseRow>& rows,
                       const MetricBag& driver) {
  double phased = 0.0;
  for (const PhaseRow& r : rows) phased += r.wall_seconds;
  return std::max(0.0, driver.GetGauge(kCallWall) - phased);
}

}  // namespace

void MetricsRegistry::AddPhaseWall(MetricBag& driver, const std::string& phase,
                                   double seconds) {
  const std::string name =
      std::string(kPhasePrefix) + phase + std::string(kWallSuffix);
  driver.SetGauge(name, driver.GetGauge(name) + seconds);
}

void MetricsRegistry::SetCallWall(MetricBag& driver, double seconds) {
  driver.SetGauge(kCallWall, seconds);
}

std::string MetricsRegistry::ToString(const MetricBag* driver) const {
  std::string out = StringPrintf(
      "%-34s %8s %6s %12s %12s %6s %6s %6s %6s %6s %6s %10s\n", "job",
      "splits", "red.", "input", "shuffled(B)", "att.", "fail.", "retr.",
      "kill.", "ddl.", "skew", "time(s)");
  for (const auto& j : jobs_) {
    // Map-only jobs have no shuffle partitions; print "-" instead of a
    // meaningless 0.00 skew so the column stays readable either way.
    const std::string skew = j.partition_records.empty()
                                 ? std::string("     -")
                                 : StringPrintf("%6.2f", j.partition_skew);
    out += StringPrintf(
        "%-34s %8zu %6zu %12llu %12llu %6llu %6llu %6llu %6llu %6llu "
        "%s %10.4f%s\n",
        j.job_name.c_str(), j.num_splits, j.num_reducers,
        static_cast<unsigned long long>(j.input_records),
        static_cast<unsigned long long>(j.shuffle_bytes),
        static_cast<unsigned long long>(j.task_attempts),
        static_cast<unsigned long long>(j.task_failures),
        static_cast<unsigned long long>(j.retried_tasks),
        static_cast<unsigned long long>(j.killed_attempts),
        static_cast<unsigned long long>(j.deadline_exceeded), skew.c_str(),
        j.total_seconds, j.succeeded ? "" : "  FAILED");
  }
  out += StringPrintf("TOTAL: %zu jobs, %llu input records, %llu shuffle "
                      "bytes, %llu failed attempts, %llu retried tasks, "
                      "%llu killed, %llu deadline, "
                      "%.4f s\n",
                      jobs_.size(),
                      static_cast<unsigned long long>(TotalInputRecords()),
                      static_cast<unsigned long long>(TotalShuffleBytes()),
                      static_cast<unsigned long long>(TotalTaskFailures()),
                      static_cast<unsigned long long>(TotalRetriedTasks()),
                      static_cast<unsigned long long>(TotalKilledAttempts()),
                      static_cast<unsigned long long>(
                          TotalDeadlineExceeded()),
                      TotalSeconds());
  if (driver != nullptr && driver->Find(kCallWall) != nullptr) {
    const std::vector<PhaseRow> rows = PhaseTable(jobs_, *driver);
    out += StringPrintf("%-34s %10s %6s %12s %14s\n", "phase", "wall(s)",
                        "jobs", "input", "peak(B)");
    for (const PhaseRow& r : rows) {
      const std::string peak =
          r.peak_bytes == nullptr
              ? std::string("-")
              : StringPrintf("%.0f", r.peak_bytes->sum);
      out += StringPrintf("%-34s %10.4f %6zu %12llu %14s\n", r.phase.c_str(),
                          r.wall_seconds, r.job_runs,
                          static_cast<unsigned long long>(r.input_records),
                          peak.c_str());
    }
    out += StringPrintf("unphased: %.4f s of the call's %.4f s\n",
                        UnphasedSeconds(rows, *driver),
                        driver->GetGauge(kCallWall));
  }
  const MetricBag merged = MergedCounters();
  if (!merged.empty()) {
    out += "counters:\n";
    out += merged.ToString("  ");
  }
  return out;
}

namespace {

template <typename T, typename Fn>
std::string JsonArray(const std::vector<T>& values, Fn&& render) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += render(values[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string MetricsRegistry::ToJson(const MetricBag* driver) const {
  std::string out = "{\n  \"jobs\": [";
  for (size_t i = 0; i < jobs_.size(); ++i) {
    const JobMetrics& j = jobs_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StringPrintf(
        "    {\"job_name\": \"%s\", \"num_splits\": %zu, "
        "\"num_reducers\": %zu, \"input_records\": %llu, "
        "\"map_output_records\": %llu, \"shuffle_bytes\": %llu, "
        "\"task_peak_bytes\": %llu, "
        "\"output_records\": %llu, \"task_attempts\": %llu, "
        "\"task_failures\": %llu, \"retried_tasks\": %llu, "
        "\"killed_attempts\": %llu, \"deadline_exceeded\": %llu, "
        "\"succeeded\": %s, \"map_seconds\": %.6f, "
        "\"shuffle_seconds\": %.6f, \"reduce_seconds\": %.6f, "
        "\"total_seconds\": %.6f, \"partition_skew\": %.6f, "
        "\"partition_records\": %s, \"partition_shuffle_seconds\": %s, "
        "\"phase\": \"%s\", \"counters\": %s}",
        JsonEscape(j.job_name).c_str(), j.num_splits, j.num_reducers,
        static_cast<unsigned long long>(j.input_records),
        static_cast<unsigned long long>(j.map_output_records),
        static_cast<unsigned long long>(j.shuffle_bytes),
        static_cast<unsigned long long>(j.task_peak_bytes),
        static_cast<unsigned long long>(j.output_records),
        static_cast<unsigned long long>(j.task_attempts),
        static_cast<unsigned long long>(j.task_failures),
        static_cast<unsigned long long>(j.retried_tasks),
        static_cast<unsigned long long>(j.killed_attempts),
        static_cast<unsigned long long>(j.deadline_exceeded),
        j.succeeded ? "true" : "false", j.map_seconds, j.shuffle_seconds,
        j.reduce_seconds, j.total_seconds, j.partition_skew,
        JsonArray(j.partition_records,
                  [](uint64_t r) {
                    return StringPrintf(
                        "%llu", static_cast<unsigned long long>(r));
                  })
            .c_str(),
        JsonArray(j.partition_shuffle_seconds,
                  [](double s) { return StringPrintf("%.6f", s); })
            .c_str(),
        JsonEscape(j.phase).c_str(), j.counters.ToJson().c_str());
  }
  out += StringPrintf(
      "\n  ],\n"
      "  \"num_jobs\": %zu,\n"
      "  \"total_seconds\": %.6f,\n"
      "  \"total_shuffle_bytes\": %llu,\n"
      "  \"total_input_records\": %llu,\n"
      "  \"total_task_failures\": %llu,\n"
      "  \"total_retried_tasks\": %llu,\n"
      "  \"total_killed_attempts\": %llu,\n"
      "  \"total_deadline_exceeded\": %llu,\n"
      "  \"counters\": %s",
      jobs_.size(), TotalSeconds(),
      static_cast<unsigned long long>(TotalShuffleBytes()),
      static_cast<unsigned long long>(TotalInputRecords()),
      static_cast<unsigned long long>(TotalTaskFailures()),
      static_cast<unsigned long long>(TotalRetriedTasks()),
      static_cast<unsigned long long>(TotalKilledAttempts()),
      static_cast<unsigned long long>(TotalDeadlineExceeded()),
      MergedCounters().ToJson().c_str());
  if (driver != nullptr && driver->Find(kCallWall) != nullptr) {
    const std::vector<PhaseRow> rows = PhaseTable(jobs_, *driver);
    out += ",\n  \"phases\": [";
    for (size_t i = 0; i < rows.size(); ++i) {
      const PhaseRow& r = rows[i];
      out += StringPrintf(
          "%s\n    {\"phase\": \"%s\", \"wall_seconds\": %.6f, "
          "\"job_runs\": %zu, \"input_records\": %llu",
          i == 0 ? "" : ",", JsonEscape(r.phase).c_str(), r.wall_seconds,
          r.job_runs, static_cast<unsigned long long>(r.input_records));
      if (r.peak_bytes != nullptr) {
        out += StringPrintf(", \"peak_bytes\": %.0f", r.peak_bytes->sum);
      }
      out += "}";
    }
    out += StringPrintf(
        "\n  ],\n  \"wall_seconds\": %.6f,\n  \"unphased_seconds\": %.6f",
        driver->GetGauge(kCallWall), UnphasedSeconds(rows, *driver));
  }
  if (driver != nullptr && !driver->empty()) {
    out += StringPrintf(",\n  \"driver\": %s", driver->ToJson().c_str());
  }
  out += "\n}\n";
  return out;
}

}  // namespace p3c::mr
