// Partitioned-shuffle microbenchmark: a map-heavy synthetic keyed-sum
// job swept over record count x reducers x threads. For every sweep cell
// it reports the engine's shuffle-phase wall time next to a measured
// serial global-sort baseline (the pre-partitioning shuffle: one
// stable_sort + group scan over all map output), verifies the job output
// is byte-identical to the serial single-reducer run, and optionally
// dumps the sweep as JSON (--json <path>; tools/run_benches.sh writes
// BENCH_shuffle.json). Each cell reports the min over
// bench::Repeats() runs; the JSON is {"machine": {...}, "rows": [...]}
// and tools/check_bench_regression.py gates the committed numbers.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/atomic_file.h"
#include "src/common/resource.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/common/trace.h"
#include "src/mapreduce/partition.h"
#include "src/mapreduce/runner.h"

namespace {

using p3c::mr::Emitter;
using p3c::mr::Mapper;
using p3c::mr::Reducer;

struct KeyedRecord {
  int64_t key;
  uint64_t value;
};

class KeyedMapper : public Mapper<int64_t, uint64_t> {
 public:
  explicit KeyedMapper(const std::vector<KeyedRecord>* records)
      : records_(records) {}

  void Map(p3c::mr::RecordRange rows,
           Emitter<int64_t, uint64_t>& out) override {
    // A little per-record compute so the map phase resembles the paper's
    // jobs (distance/bin math per point) instead of a pure memcpy.
    for (size_t i = rows.begin; i < rows.end; ++i) {
      const KeyedRecord& record = (*records_)[i];
      out.Emit(record.key, p3c::mr::ShuffleMix64(record.value));
    }
  }

 private:
  const std::vector<KeyedRecord>* records_;
};

class OrderHashReducer
    : public Reducer<int64_t, uint64_t, std::pair<int64_t, uint64_t>> {
 public:
  void Reduce(const int64_t& key, std::span<const uint64_t> values,
              std::vector<std::pair<int64_t, uint64_t>>& out) override {
    uint64_t h = 1469598103934665603ull;
    for (uint64_t v : values) h = h * 31 + v;
    out.emplace_back(key, h);
  }
};

std::vector<KeyedRecord> MakeKeyedRecords(size_t n) {
  const size_t num_keys = std::max<size_t>(1, n / 64);
  std::vector<KeyedRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].key =
        static_cast<int64_t>(p3c::mr::ShuffleMix64(i) % num_keys);
    records[i].value = i;
  }
  return records;
}

/// The pre-PR shuffle, measured directly: concatenate all map output into
/// one vector, stable_sort it globally, scan the group boundaries.
double MeasureSerialSortBaseline(const std::vector<KeyedRecord>& records) {
  std::vector<std::pair<int64_t, uint64_t>> pairs;
  pairs.reserve(records.size());
  for (const KeyedRecord& r : records) {
    pairs.emplace_back(r.key, p3c::mr::ShuffleMix64(r.value));
  }
  p3c::Stopwatch watch;
  std::stable_sort(
      pairs.begin(), pairs.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t groups = 0;
  for (size_t i = 0; i < pairs.size();) {
    size_t j = i + 1;
    while (j < pairs.size() && pairs[i].first == pairs[j].first) ++j;
    ++groups;
    i = j;
  }
  const double seconds = watch.ElapsedSeconds();
  if (groups == 0 && !pairs.empty()) std::abort();  // keep the scan live
  return seconds;
}

struct Row {
  size_t records = 0;
  size_t threads = 0;
  size_t reducers = 0;
  double map_seconds = 0.0;
  double shuffle_seconds = 0.0;
  double reduce_seconds = 0.0;
  double total_seconds = 0.0;
  double baseline_sort_seconds = 0.0;
  double shuffle_speedup = 0.0;
  double partition_skew = 0.0;
  int64_t peak_bytes = 0;
  bool output_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace p3c;
  const char* json_path = nullptr;
  const char* trace_path = nullptr;
  const char* metrics_path = nullptr;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
    if (std::strcmp(argv[i], "--trace-out") == 0) trace_path = argv[i + 1];
    if (std::strcmp(argv[i], "--metrics-out") == 0) {
      metrics_path = argv[i + 1];
    }
  }
  if (trace_path != nullptr) {
    // Note: tracing adds per-task overhead; don't compare traced shuffle
    // numbers against untraced baselines.
    Tracer::Global().Clear();
    Tracer::Global().Enable(true);
  }
  mr::MetricsRegistry sweep_metrics;  // one entry per sweep cell

  // Scoped memory accounting is on for the whole sweep: the charge
  // sites are coarse (per task commit / partition merge / 256 emits), so
  // the overhead is uniform noise across cells, and every BENCH row
  // gains a peak_bytes column the regression gate can hold flat across
  // thread counts (memory, like the merge work, must not scale with
  // parallelism).
  resource::MemoryTracker& mem_tracker = resource::MemoryTracker::Global();
  mem_tracker.Enable(true);

  bench::Banner("Partitioned shuffle — records x threads x reducers",
                "the engine-side analog of §7.5's scale-up argument");

  const std::vector<size_t> record_counts = {bench::Scaled(250000),
                                             bench::Scaled(1000000)};
  const std::vector<size_t> thread_counts = {1, 4, 8};
  const std::vector<size_t> reducer_counts = {1, 4, 8};

  std::vector<Row> rows;
  std::printf("%9s %8s %9s %9s %10s %10s %9s %6s %8s %5s\n", "records",
              "threads", "reducers", "map(s)", "shuffle(s)", "serial(s)",
              "speedup", "skew", "peak(MB)", "ok");
  for (size_t n : record_counts) {
    const auto records = MakeKeyedRecords(n);
    const double baseline_sort = MeasureSerialSortBaseline(records);
    std::vector<std::pair<int64_t, uint64_t>> reference;

    // Min-of-repeats with PAIRED sampling: the repeat loop is the outer
    // loop, so every repeat sweeps all (threads, reducers) cells through
    // the same slice of wall-clock time, and the sweep direction
    // alternates per repeat (palindromic order). Machine drift — a noisy
    // neighbor on a shared host, thermal/frequency wander — then hits
    // every cell alike instead of whichever thread count happened to run
    // last, which matters because the no-inversion gate compares cells
    // against each other. Scheduling noise only ever inflates a run, so
    // the per-cell min is the cleanest estimate of the work actually
    // done. Output must be identical in every repeat of every cell.
    struct Cell {
      size_t threads = 0;
      size_t reducers = 0;
      mr::JobMetrics best;
      bool have_best = false;
      bool identical = true;
      int64_t peak_bytes = 0;
    };
    std::vector<Cell> cells;
    for (size_t threads : thread_counts) {
      for (size_t reducers : reducer_counts) {
        cells.push_back(Cell{threads, reducers, {}, false, true, 0});
      }
    }
    const size_t repeats = bench::Repeats();
    for (size_t rep = 0; rep < repeats; ++rep) {
      for (size_t i = 0; i < cells.size(); ++i) {
        // Forward on even repeats, backward on odd — the first run of
        // repeat 0 is the 1-thread/1-reducer cell, which seeds the
        // byte-identity reference with the serial single-reducer output.
        Cell& cell = cells[rep % 2 == 0 ? i : cells.size() - 1 - i];
        mr::MetricsRegistry metrics;
        mr::RunnerOptions options;
        options.num_threads = cell.threads;
        options.metrics = &metrics;
        mr::LocalRunner runner(options);
        // Memory window per run; the per-cell figure is the max across
        // repeats (the footprint is a property of the work, so repeats
        // agree; max is robust if a repeat ever diverges).
        mem_tracker.BeginPhase(StringPrintf("shuffle-bench/t=%zu/r=%zu",
                                            cell.threads, cell.reducers));
        auto result =
            runner.Run<int64_t, uint64_t, std::pair<int64_t, uint64_t>>(
                "shuffle-bench", records.size(),
                [&records] { return std::make_unique<KeyedMapper>(&records); },
                [] { return std::make_unique<OrderHashReducer>(); },
                cell.reducers);
        cell.peak_bytes = std::max(cell.peak_bytes, mem_tracker.EndPhase());
        if (!result.ok()) {
          std::fprintf(stderr, "run failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
        if (reference.empty()) reference = *result;
        cell.identical = cell.identical && *result == reference;
        const mr::JobMetrics& job = metrics.jobs().front();
        if (!cell.have_best ||
            job.shuffle_seconds < cell.best.shuffle_seconds) {
          cell.best = job;
          cell.have_best = true;
        }
      }
    }

    for (const Cell& cell : cells) {
      const mr::JobMetrics& best = cell.best;
      {
        // Keep a copy in the sweep-wide registry, tagged with the cell
        // coordinates so --metrics-out rows are self-describing.
        mr::JobMetrics tagged = best;
        tagged.job_name = StringPrintf("shuffle-bench/n=%zu/t=%zu/r=%zu", n,
                                       cell.threads, cell.reducers);
        sweep_metrics.Record(std::move(tagged));
      }
      Row row;
      row.records = n;
      row.threads = cell.threads;
      row.reducers = cell.reducers;
      row.map_seconds = best.map_seconds;
      row.shuffle_seconds = best.shuffle_seconds;
      row.reduce_seconds = best.reduce_seconds;
      row.total_seconds = best.total_seconds;
      row.baseline_sort_seconds = baseline_sort;
      row.shuffle_speedup =
          best.shuffle_seconds > 0.0 ? baseline_sort / best.shuffle_seconds
                                     : 0.0;
      row.partition_skew = best.partition_skew;
      row.peak_bytes = cell.peak_bytes;
      row.output_identical = cell.identical;
      rows.push_back(row);
      std::printf(
          "%9zu %8zu %9zu %9.4f %10.4f %10.4f %8.2fx %6.2f %8.1f %5s\n", n,
          cell.threads, cell.reducers, row.map_seconds, row.shuffle_seconds,
          baseline_sort, row.shuffle_speedup, row.partition_skew,
          static_cast<double>(row.peak_bytes) / (1024.0 * 1024.0),
          row.output_identical ? "yes" : "NO");
      if (!row.output_identical) {
        std::fprintf(stderr,
                     "output diverged from the serial single-reducer "
                     "run at %zu threads / %zu reducers\n",
                     cell.threads, cell.reducers);
        return 1;
      }
    }
  }

  if (json_path != nullptr) {
    AtomicFileWriter writer{std::string(json_path)};
    if (!writer.Open().ok()) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::FILE* f = writer.stream();
    std::fprintf(f, "{\n\"machine\": %s,\n\"rows\": [\n",
                 bench::MachineJson().c_str());
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "  {\"records\": %zu, \"threads\": %zu, \"reducers\": %zu, "
          "\"map_seconds\": %.6f, \"shuffle_seconds\": %.6f, "
          "\"reduce_seconds\": %.6f, \"total_seconds\": %.6f, "
          "\"baseline_sort_seconds\": %.6f, \"shuffle_speedup\": %.3f, "
          "\"partition_skew\": %.3f, \"peak_bytes\": %lld, "
          "\"output_identical\": %s}%s\n",
          r.records, r.threads, r.reducers, r.map_seconds, r.shuffle_seconds,
          r.reduce_seconds, r.total_seconds, r.baseline_sort_seconds,
          r.shuffle_speedup, r.partition_skew,
          static_cast<long long>(r.peak_bytes),
          r.output_identical ? "true" : "false",
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n}\n");
    if (!writer.Commit().ok()) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::printf("\nwrote %zu rows to %s\n", rows.size(), json_path);
  }

  if (metrics_path != nullptr) {
    const Status st =
        AtomicWriteFile(std::string(metrics_path), sweep_metrics.ToJson());
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", metrics_path,
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote engine metrics for %zu cells to %s\n",
                sweep_metrics.num_jobs(), metrics_path);
  }

  if (trace_path != nullptr) {
    const Status st = Tracer::Global().WriteJson(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace (%zu events) to %s\n",
                Tracer::Global().NumEvents(), trace_path);
  }

  bench::Rule();
  std::printf(
      "Shape check: the merge plan is a pure function of the data, never\n"
      "the thread count, so shuffle time at 8 threads must not exceed the\n"
      "1-thread time (no scaling inversion; tools/check_bench_regression.py\n"
      "gates this), the speedup over the serial global sort stays > 1x,\n"
      "and output is byte-identical to the serial single-reducer run in\n"
      "every cell and every repeat.\n");
  return 0;
}
