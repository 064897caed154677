// End-to-end benchmark of the P3C+-MR pipelines, one workload per
// process. Each workload is a closed loop with one client: a Cluster call
// starts only after the previous one returned.
//
//   bench_pipeline --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//                  [--smoke] [--work-dir DIR]
//
// The binary drives the library through its public API only and adds no
// instrumentation to it. Every run reports the end-to-end metrics, timed
// with tracing and the MemoryTracker off. --trace 1 adds a separate traced
// loop and derives the per-layer attribution from the engine's JobMetrics,
// the driver's gauges, a replay of core generation and kernel timings; it
// writes the Chrome/Perfetto trace to DIR/trace-NAME.json. --smoke shrinks
// the data (see kSmokeDivisor) and makes one warm-up and one timed call.
//
// Progress goes to stderr. The last stdout line is one JSON object
// (correct, attempted, failed, errors, digest, metrics, samples); run.py
// turns it into the benchmark's report.

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/common/resource.h"
#include "src/common/trace.h"
#include "src/core/core_detection.h"
#include "src/core/kernels/kernels.h"
#include "src/core/relevant_intervals.h"
#include "src/data/generator.h"
#include "src/eval/clustering.h"
#include "src/eval/e4sc.h"
#include "src/mr/checkpoint.h"
#include "src/mr/jobs.h"
#include "src/mr/p3c_mr.h"

namespace {

using namespace p3c;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  const char* name;
  size_t points;
  size_t dims;
  size_t min_cluster_dims;
  size_t max_cluster_dims;
  bool light;
  /// Process backend with one worker per thread and a checkpoint
  /// directory that is wiped before every call.
  bool durable;
};

// The sizes are part of the benchmark's definition; no environment
// variable scales them. Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"mvb-250k", 250000, 50, 2, 10, false, false},
    {"light-500k", 500000, 100, 2, 10, true, false},
    {"wide-cores-100k", 100000, 50, 8, 15, true, false},
    {"light-500k-durable", 500000, 100, 2, 10, true, true},
};

constexpr size_t kClusters = 5;
constexpr double kNoise = 0.10;
/// The generator seed is fixed: across generator seeds the work of one
/// workload varies up to 12x (candidate lattices, EM iterations), which
/// no bound survives. --seed draws the row order instead, so it
/// changes which points every map split holds but not the work.
constexpr uint64_t kDataSeed = 71;
constexpr size_t kMaxThreads = 4;
constexpr size_t kSmokeDivisor = 50;
/// --smoke also caps the relevant attributes per cluster at the §7.1
/// maximum: wide-cores-100k's A-priori lattice costs about 2 s a call at
/// any point count, more than the smoke run's budget of 10 s allows.
constexpr size_t kSmokeMaxClusterDims = 10;
/// Set-up is repeated and its median reported, so that one slow
/// generation does not move setup_s.
constexpr size_t kSetupRepeats = 3;
/// Minimum timed calls per loop, whatever --seconds says.
constexpr size_t kMinCalls = 3;
/// A run whose warm-up recovers the planted clusters worse than this is
/// not a valid measurement.
constexpr double kMinE4SC = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 71;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = "build-bench";
};

/// Cores this process may run on: the affinity mask, which is what
/// `nproc` prints. hardware_concurrency(), which MachineJson's "cores"
/// reports, ignores affinity and cgroups.
size_t UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- Machine-speed probe ---------------------------------------------------

/// The benchmark runs on a few cores of a shared host. As other tenants
/// load the host, the same instructions run 20-50% slower for minutes at
/// a time, and a workload's wall time moves with them (README.md,
/// "Timing on a shared host"). The probe measures that speed: a fixed set
/// of small kernels that belong to the benchmark, not to the library, so
/// that no change to the library moves them. They cover the kinds of work
/// the pipeline does: a dependent and an independent arithmetic chain, a
/// sequential scan, pointer chases in working sets that fit L2, that do
/// not, and that are far larger, hash-map inserts, a sort, and a sort and
/// chase on every thread at once. The probe's time is the geometric mean
/// of the kernels' times, so no one kernel dominates it.
class SpeedProbe {
 public:
  /// `divisor` shrinks every kernel, for the smoke run; its times then
  /// mean nothing.
  SpeedProbe(size_t threads, size_t divisor)
      : threads_(threads),
        divisor_(static_cast<int>(divisor)),
        l2_(Cycle((size_t{64} << 10) / divisor)),
        l3_(Cycle((size_t{2} << 20) / divisor)),
        large_(Cycle((size_t{16} << 20) / divisor)) {}

  /// The geometric mean of the kernels' times now, in seconds. Running
  /// the probe takes about 0.3 s.
  double Seconds() const {
    const int d = divisor_;
    double log_sum = 0.0;
    int kernels = 0;
    auto time = [&](auto&& kernel) {
      const Clock::time_point start = Clock::now();
      Sink(kernel());
      log_sum += std::log(Since(start));
      ++kernels;
    };
    time([d] { return DependentChain(8'000'000 / d); });
    time([d] { return IndependentChains(4'000'000 / d); });
    time([&] {
      return std::accumulate(large_.begin(), large_.end(), uint64_t{0});
    });
    time([&] { return Chase(l2_, 4'000'000 / d); });
    time([&] { return Chase(l3_, 1'000'000 / d); });
    time([&] { return Chase(large_, 300'000 / d); });
    time([d] { return HashInserts(200'000 / d); });
    time([d] { return SortRandom(500'000 / d, 1); });
    time([&] {
      std::vector<std::thread> workers;
      for (size_t t = 0; t < threads_; ++t) {
        workers.emplace_back([&, t] {
          Sink(SortRandom(200'000 / d, t + 2) + Chase(l3_, 300'000 / d));
        });
      }
      for (std::thread& worker : workers) worker.join();
      return uint64_t{0};
    });
    return std::exp(log_sum / kernels);
  }

 private:
  static uint64_t Next(uint64_t& state) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }

  /// next[i] of one random cycle through all n slots.
  static std::vector<uint32_t> Cycle(size_t n) {
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), uint32_t{0});
    uint64_t state = 0x2545f4914f6cdd1dULL;
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[Next(state) % (i + 1)]);
    }
    std::vector<uint32_t> next(n);
    for (size_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
    return next;
  }

  static uint64_t Chase(const std::vector<uint32_t>& next, size_t steps) {
    uint32_t at = 0;
    for (size_t i = 0; i < steps; ++i) at = next[at];
    return at;
  }

  static uint64_t DependentChain(int steps) {
    uint64_t state = 88172645463325252ULL;
    double f = 1.0;
    for (int i = 0; i < steps; ++i) {
      f = f * 0.999999 + static_cast<double>(Next(state) & 0xff) * 1e-9;
    }
    return state + static_cast<uint64_t>(f);
  }

  static uint64_t IndependentChains(int steps) {
    uint64_t states[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < steps; ++i) {
      for (uint64_t& state : states) Next(state);
    }
    return std::accumulate(std::begin(states), std::end(states), uint64_t{0});
  }

  static uint64_t HashInserts(int count) {
    std::unordered_map<uint64_t, uint64_t> counts;
    uint64_t state = 12345;
    for (int i = 0; i < count; ++i) ++counts[Next(state) >> 40];
    return counts.size();
  }

  static uint64_t SortRandom(size_t count, uint64_t seed) {
    std::vector<uint64_t> values(count);
    uint64_t state = seed * 0x9e3779b97f4a7c15ULL;
    for (uint64_t& v : values) v = Next(state);
    std::sort(values.begin(), values.end());
    return values[count / 2];
  }

  /// Keeps the kernels' results alive so the compiler cannot drop them.
  static void Sink(uint64_t value) {
    static std::atomic<uint64_t> sink{0};
    sink.fetch_add(value, std::memory_order_relaxed);
  }

  size_t threads_;
  int divisor_;
  std::vector<uint32_t> l2_, l3_, large_;
};

/// The probe's median time on the reference machine, a 4-vCPU Xeon VM on
/// a shared host (README.md). Timings are reported at that speed.
constexpr double kProbeReferenceS = 0.026;

/// FNV-1a over the clustering: member points, attributes and the bit
/// patterns of the tightened intervals. Equal digests mean equal output.
uint64_t Digest(const core::ClusteringResult& result) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(result.clusters.size());
  for (const core::ProjectedCluster& cluster : result.clusters) {
    mix(cluster.points.size());
    for (data::PointId p : cluster.points) mix(p);
    mix(cluster.attrs.size());
    for (size_t a : cluster.attrs) mix(a);
    for (const core::Interval& iv : cluster.intervals) {
      mix(std::bit_cast<uint64_t>(iv.lower));
      mix(std::bit_cast<uint64_t>(iv.upper));
    }
  }
  return h;
}

struct Report {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics;
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;

  void Add(std::string name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      Error("metric " + name + " is not finite");
      value = -1.0;
    }
    metrics.push_back({std::move(name), value, unit});
  }
  void Error(std::string message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    errors.push_back(std::move(message));
  }
};

mr::P3CMROptions MakeOptions(const Workload& w, size_t threads,
                             const std::string& checkpoint_dir) {
  mr::P3CMROptions options;
  options.params.light = w.light;
  options.runner.num_threads = threads;
  if (w.durable) {
    options.runner.backend = mr::Backend::kProcess;
    options.runner.num_workers = threads;
    options.checkpoint_dir = checkpoint_dir;
  }
  return options;
}

/// One Cluster call and what the checks and the attribution need of it.
struct Call {
  double seconds = 0.0;
  Status status;
  uint64_t digest = 0;
  size_t jobs = 0;
  bool resumed = false;
  core::ClusteringResult result;
  std::vector<mr::JobMetrics> job_log;
  MetricBag driver;
};

Call RunCall(mr::P3CMR& algo, const data::Dataset& dataset,
             const std::string& checkpoint_dir) {
  if (!checkpoint_dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(checkpoint_dir, ignored);
  }
  Call call;
  const Clock::time_point start = Clock::now();
  Result<core::ClusteringResult> result = [&] {
    TraceSpan span("bench:cluster");
    return algo.Cluster(dataset);
  }();
  call.seconds = Since(start);
  call.status = result.status();
  call.jobs = algo.metrics().num_jobs();
  call.job_log = algo.metrics().jobs();
  call.driver = algo.driver_metrics();
  call.resumed = call.driver.GetGauge("checkpoint.resumed_from_phase") > 0.0;
  if (result.ok()) {
    call.result = std::move(result).value();
    call.digest = Digest(call.result);
  }
  return call;
}

/// Counts `call` as attempted and, when it fails, as failed. A call fails
/// when it returns a non-OK Status, clusters differently from the
/// reference warm-up, or resumed a checkpoint phase.
void CheckCall(const Call& call, const Call& reference, const char* what,
               Report& report) {
  ++report.attempted;
  std::string why;
  if (!call.status.ok()) {
    why = call.status.ToString();
  } else if (call.digest != reference.digest) {
    why = "clustering differs from the warm-up's";
  } else if (call.jobs != reference.jobs) {
    why = "MR job count differs from the warm-up's";
  } else if (call.resumed) {
    why = "resumed a checkpoint phase";
  }
  if (!why.empty()) {
    ++report.failed;
    report.Error(std::string(what) + " call failed: " + why);
  }
}

/// Reorders the rows in place into an order drawn from `seed` and returns
/// the ground truth renumbered to match.
eval::Clustering ShuffleRows(data::SyntheticData& data, uint64_t seed) {
  data::Dataset& dataset = data.dataset;
  const size_t n = dataset.num_points();
  const size_t d = dataset.num_dims();
  // New row i is old row order[i].
  std::vector<data::PointId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<data::PointId>(i);
  Rng(seed).Shuffle(order);
  // Apply the permutation one cycle at a time, so the dataset is never
  // held twice.
  std::vector<bool> placed(n, false);
  std::vector<double> saved(d);
  auto copy_row = [&](size_t to, size_t from) {
    for (size_t j = 0; j < d; ++j) {
      dataset.Set(static_cast<data::PointId>(to), j,
                  dataset.Get(static_cast<data::PointId>(from), j));
    }
  };
  for (size_t start = 0; start < n; ++start) {
    if (placed[start]) continue;
    const auto row = dataset.Row(static_cast<data::PointId>(start));
    std::copy(row.begin(), row.end(), saved.begin());
    size_t i = start;
    while (order[i] != start) {
      copy_row(i, order[i]);
      placed[i] = true;
      i = order[i];
    }
    for (size_t j = 0; j < d; ++j) {
      dataset.Set(static_cast<data::PointId>(i), j, saved[j]);
    }
    placed[i] = true;
  }
  std::vector<data::PointId> new_id(n);
  for (size_t i = 0; i < n; ++i) new_id[order[i]] = static_cast<data::PointId>(i);
  for (data::HiddenCluster& cluster : data.clusters) {
    for (data::PointId& p : cluster.points) p = new_id[p];
    std::sort(cluster.points.begin(), cluster.points.end());
  }
  return eval::FromGroundTruth(data.clusters);
}

struct Instance {
  data::Dataset dataset;
  eval::Clustering truth;
  std::unique_ptr<mr::P3CMR> algo;
  Call warmup;
};

/// Set-up as a user pays it: generate the data, construct the driver, and
/// make the untimed warm-up call.
std::optional<Instance> SetUp(const Workload& w, bool smoke, uint64_t seed,
                              size_t threads, const std::string& ckpt,
                              bool charge_dataset, Report& report) {
  data::GeneratorConfig config;
  config.num_points = smoke ? w.points / kSmokeDivisor : w.points;
  config.num_dims = w.dims;
  config.num_clusters = kClusters;
  config.noise_fraction = kNoise;
  config.min_cluster_dims = w.min_cluster_dims;
  config.max_cluster_dims =
      smoke ? std::min(w.max_cluster_dims, kSmokeMaxClusterDims)
            : w.max_cluster_dims;
  config.seed = kDataSeed;
  // The dataset is charged to the ledger only if the tracker is on while
  // it is allocated; the traced run wants mem.dataset in its gauges.
  resource::MemoryTracker::Global().Enable(charge_dataset);
  Result<data::SyntheticData> data = data::GenerateSynthetic(config);
  resource::MemoryTracker::Global().Enable(false);
  if (!data.ok()) {
    report.Error("data generation failed: " + data.status().ToString());
    return std::nullopt;
  }
  eval::Clustering truth = ShuffleRows(*data, seed);
  Instance instance{std::move(data->dataset), std::move(truth),
                    std::make_unique<mr::P3CMR>(MakeOptions(w, threads, ckpt)),
                    {}};
  instance.warmup = RunCall(*instance.algo, instance.dataset, ckpt);
  return instance;
}

/// Checks of the warm-up that need no second call: it succeeded, did a
/// fresh run, recovered the planted clusters, and on the durable workload
/// really crossed processes and checkpointed every phase.
void CheckWarmup(const Workload& w, const Instance& instance, Report& report) {
  ++report.attempted;
  const Call& call = instance.warmup;
  if (!call.status.ok() || call.resumed) {
    ++report.failed;
    report.Error("warm-up call failed: " +
                 (call.resumed ? std::string("resumed a checkpoint phase")
                               : call.status.ToString()));
    return;
  }
  const double e4sc = eval::E4SC(instance.truth,
                                 call.result.ToEvalClustering());
  if (e4sc < kMinE4SC) {
    report.Error("E4SC " + std::to_string(e4sc) + " below the floor " +
                 std::to_string(kMinE4SC));
  }
  if (!w.durable) return;
  size_t phases_written = 0;
  for (const auto& [name, metric] : call.driver.values()) {
    if (name.rfind("checkpoint.write_seconds.", 0) == 0) ++phases_written;
  }
  const size_t phases = w.light ? 3 : 4;
  if (phases_written != phases) {
    report.Error("durable warm-up wrote " + std::to_string(phases_written) +
                 " checkpoint phases, expected " + std::to_string(phases));
  }
  if (call.driver.Get("worker.spawn_total") == 0) {
    report.Error("durable warm-up spawned no worker process");
  }
}

/// Calls Cluster until `seconds` have passed and at least `min_calls`
/// calls were made. `on_call` sees every call.
template <typename OnCall>
std::vector<double> TimedLoop(Instance& instance, const std::string& ckpt,
                              double seconds, size_t min_calls,
                              const char* what, Report& report,
                              OnCall&& on_call) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < min_calls || Since(start) < seconds) {
    Call call = RunCall(*instance.algo, instance.dataset, ckpt);
    CheckCall(call, instance.warmup, what, report);
    times.push_back(call.seconds);
    std::fprintf(stderr, "  %s call %zu: %.3f s\n", what, times.size(),
                 call.seconds);
    on_call(std::move(call));
  }
  return times;
}

// ---- Per-layer attribution (--trace 1) ------------------------------------

/// The pipeline phase a job belongs to. support-count jobs run twice: for
/// core generation, and after cluster-histograms to prove the intervals
/// attribute inspection suggests.
const char* PhaseOf(const std::string& job, bool after_cluster_histograms) {
  if (job == "histogram") return "histogram";
  if (job == "support-count") {
    return after_cluster_histograms ? "attribute_inspection" : "cluster_cores";
  }
  if (job.rfind("em-", 0) == 0) return "em";
  if (job.rfind("mvb-", 0) == 0) return "mvb";
  if (job == "outlier-detection") return "outlier_detection";
  if (job == "support-sets") return "support_sets";
  if (job == "cluster-histograms") return "attribute_inspection";
  if (job == "interval-tightening") return "tightening";
  return "other";
}

constexpr const char* kPhases[] = {
    "histogram",    "cluster_cores",        "em",         "mvb",
    "outlier_detection", "support_sets", "attribute_inspection",
    "tightening",   "other"};

/// The driver's MemoryTracker phase windows and the scopes reported.
constexpr const char* kMemPhases[] = {
    "histogram",    "support-count",      "em-init",
    "em-step",      "mvb",                "outlier-detection",
    "support-sets", "cluster-histograms", "interval-tightening"};
constexpr const char* kMemScopes[] = {"shuffle-runs", "emitter", "rssc-index",
                                      "gmm-matrices", "dataset"};

constexpr double kMB = 1e6;

/// Metric names use '_' where the library's gauge names use '-'.
std::string Underscored(std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

/// Per-phase and per-layer split of one traced call. The driver's self
/// time is what the call's wall time leaves after every job's own time.
void AddLayerMetrics(const Call& call, uint64_t worker_spawns,
                     Report& report) {
  std::map<std::string, double> phase_s;
  for (const char* phase : kPhases) phase_s[phase] = 0.0;
  double jobs_s = 0.0, map_s = 0.0, shuffle_s = 0.0, reduce_s = 0.0;
  double skew_max = 0.0;
  uint64_t shuffle_bytes = 0, input_records = 0;
  uint64_t attempts = 0, wasted = 0;
  bool after_cluster_histograms = false;
  for (const mr::JobMetrics& job : call.job_log) {
    phase_s[PhaseOf(job.job_name, after_cluster_histograms)] +=
        job.total_seconds;
    if (job.job_name == "cluster-histograms") after_cluster_histograms = true;
    jobs_s += job.total_seconds;
    map_s += job.map_seconds;
    shuffle_s += job.shuffle_seconds;
    reduce_s += job.reduce_seconds;
    skew_max = std::max(skew_max, job.partition_skew);
    shuffle_bytes += job.shuffle_bytes;
    input_records += job.input_records;
    attempts += job.task_attempts;
    wasted += job.task_failures + job.killed_attempts;
  }
  const double driver_self_s = call.seconds - jobs_s;
  if (driver_self_s < 0.0) {
    report.Error("jobs account for more time than the call took");
  }
  report.Add("trace.cluster_s", call.seconds, "s");
  report.Add("mr.driver_self_s", driver_self_s, "s");
  for (const char* phase : kPhases) {
    report.Add(std::string("mr.phase.") + phase + "_s", phase_s[phase], "s");
  }
  double write_s = 0.0;
  for (const auto& [name, metric] : call.driver.values()) {
    if (name.rfind("checkpoint.write_seconds.", 0) == 0) write_s += metric.sum;
  }
  report.Add("mr.checkpoint.write_s", write_s, "s");
  report.Add("mapreduce.map_s", map_s, "s");
  report.Add("mapreduce.shuffle_s", shuffle_s, "s");
  report.Add("mapreduce.reduce_s", reduce_s, "s");
  report.Add("mapreduce.job_overhead_s", jobs_s - map_s - shuffle_s - reduce_s,
             "s");
  report.Add("mapreduce.shuffle_mb", static_cast<double>(shuffle_bytes) / kMB,
             "MB");
  report.Add("mapreduce.input_records", static_cast<double>(input_records),
             "count");
  report.Add("mapreduce.partition_skew_max", skew_max, "ratio");
  report.Add("mapreduce.useful_attempt_ratio",
             attempts == 0 ? 1.0
                           : static_cast<double>(attempts - wasted) /
                                 static_cast<double>(attempts),
             "ratio");
  report.Add("mapreduce.worker.spawns", static_cast<double>(worker_spawns),
             "count");
  report.Add("mapreduce.worker.peak_rss_mb",
             call.driver.GetGauge("worker.peak_rss_bytes") / kMB, "MB");
  for (const char* window : kMemPhases) {
    const std::string name = std::string("mem.phase.") + window;
    report.Add(Underscored(name) + ".peak_mb",
               call.driver.GetGauge(name + ".peak_bytes") / kMB, "MB");
  }
  for (const char* scope : kMemScopes) {
    const std::string name = std::string("mem.") + scope;
    report.Add(Underscored(name) + ".peak_mb",
               call.driver.GetGauge(name + ".peak_bytes") / kMB, "MB");
  }
  report.Add("mem.untracked_mb",
             call.driver.GetGauge("mem.sampled.untracked_bytes") / kMB, "MB");
}

/// Replays histogram → relevant intervals → core generation with a support
/// counter that times its own jobs, which splits core generation into the
/// driver's A-priori work and the support-count jobs it waits for.
struct CoreReplay {
  Status status;
  double total_s = 0.0;
  double support_s = 0.0;
  size_t max_batch = 0;
  core::CoreDetectionStats stats;
};

CoreReplay ReplayCores(const mr::RunnerOptions& runner_options,
                       const core::P3CParams& params,
                       const data::Dataset& dataset) {
  CoreReplay replay;
  mr::LocalRunner runner(runner_options);
  TraceSpan span("bench:replay-cores");
  Result<std::vector<stats::Histogram>> histograms = [&] {
    TraceSpan job_span("bench:histogram-job");
    return mr::RunHistogramJob(runner, dataset, params.binning);
  }();
  if (!histograms.ok()) {
    replay.status = histograms.status();
    return replay;
  }
  const std::vector<core::Interval> relevant =
      core::FindAllRelevantIntervals(*histograms, params.alpha_chi2);
  core::SupportCountFn counter =
      [&](const std::vector<core::Signature>& signatures) {
        TraceSpan job_span("bench:support-job");
        const Clock::time_point start = Clock::now();
        Result<std::vector<uint64_t>> supports =
            mr::RunSupportJob(runner, dataset, signatures);
        replay.support_s += Since(start);
        replay.max_batch = std::max(replay.max_batch, signatures.size());
        if (!supports.ok()) {
          if (replay.status.ok()) replay.status = supports.status();
          return std::vector<uint64_t>(signatures.size(), 0);
        }
        return std::move(supports).value();
      };
  TraceSpan cores_span("bench:generate-cores");
  const Clock::time_point start = Clock::now();
  const core::CoreDetectionResult detection = core::GenerateClusterCores(
      relevant, dataset.num_points(), params, counter, &runner.pool());
  replay.total_s = Since(start);
  replay.stats = detection.stats;
  return replay;
}

/// Median over five rounds of the time of one `op()` call, in ns; each
/// round runs long enough (about 5 ms) for the clock to resolve it.
template <typename Op>
double NsPerCall(const Op& op) {
  size_t iters = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < iters; ++i) op();
    if (Since(start) > 0.005 || iters >= (size_t{1} << 24)) break;
    iters *= 2;
  }
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < iters; ++i) op();
    rounds.push_back(Since(start) * 1e9 / static_cast<double>(iters));
  }
  return Median(std::move(rounds));
}

/// Times the dispatched kernels against the scalar reference on buffers
/// shaped like the workload: the largest support batch, one map split of
/// one attribute's histogram, k components and |Arel| dimensions.
void AddKernelMetrics(const data::Dataset& dataset, size_t support_batch,
                      size_t k, size_t arel, Report& report) {
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  auto unit = [&next] {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  };

  constexpr size_t kMasks = 16;  // attributes per bitmap_and_reduce call
  const size_t words = std::max<size_t>(1, (support_batch + 63) / 64);
  std::vector<uint64_t> mask_words(kMasks * words);
  // Mostly-set masks keep bits alive through the AND, as real matches do.
  for (uint64_t& m : mask_words) m = next() | next() | next() | next();
  std::array<const uint64_t*, kMasks> masks;
  for (size_t i = 0; i < kMasks; ++i) masks[i] = &mask_words[i * words];
  std::vector<uint64_t> bits(words), counters(words * 64);

  const size_t rows = std::max<size_t>(1, dataset.num_points() / 32);
  const size_t bins = static_cast<size_t>(stats::NumBins(
      stats::BinningRule::kFreedmanDiaconis, dataset.num_points()));
  std::vector<uint64_t> counts(bins);

  const size_t kk = std::max<size_t>(1, k);
  std::vector<double> logw(kk), scratch(kk);
  for (double& v : logw) v = -50.0 * unit();

  const size_t d = std::max<size_t>(1, arel);
  std::vector<double> x(d), outer(d * d);
  for (double& v : x) v = unit();

  using core::kernels::Ops;
  struct Kernel {
    const char* name;
    std::function<void(const Ops&)> op;
  };
  const Kernel kernels[] = {
      {"rssc",
       [&](const Ops& ops) {
         std::fill(bits.begin(), bits.end(), ~uint64_t{0});
         ops.bitmap_and_reduce(bits.data(), masks.data(), kMasks, words);
         ops.support_accumulate(bits.data(), words, counters.data());
       }},
      {"histogram",
       [&](const Ops& ops) {
         ops.histogram_bin(dataset.values().data(), rows, dataset.num_dims(),
                           bins, counts.data());
       }},
      {"softmax",
       [&](const Ops& ops) {
         std::copy(logw.begin(), logw.end(), scratch.begin());
         ops.softmax_normalize(scratch.data(), kk);
       }},
      {"outer",
       [&](const Ops& ops) {
         ops.outer_accumulate(outer.data(), x.data(), 1e-9, d);
       }},
  };
  const Ops& active = core::kernels::Active();
  const Ops& scalar = core::kernels::ScalarOps();
  for (const Kernel& kernel : kernels) {
    const double active_ns = NsPerCall([&] { kernel.op(active); });
    const double scalar_ns = NsPerCall([&] { kernel.op(scalar); });
    report.Add(std::string("kernels.") + kernel.name + "_ns", active_ns, "ns");
    report.Add(std::string("kernels.") + kernel.name + ".active_vs_scalar",
               scalar_ns / active_ns, "ratio");
  }
}

// ---- Output ----------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void PrintReport(const Args& args, const Workload& w, size_t threads,
                 const Report& report) {
  std::string out = "{\"workload\": " + JsonString(w.name) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"smoke\": " + (args.smoke ? "true" : "false") +
                    ", \"machine\": " + bench::MachineJson() +
                    ", \"usable_cores\": " + std::to_string(UsableCores()) +
                    ", \"threads\": " + std::to_string(threads) +
                    ", \"kernel_backend\": " +
                    JsonString(core::kernels::Active().name);
  out += std::string(", \"correct\": ") +
         (report.errors.empty() ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(report.errors[i]);
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(report.digest));
  out += std::string("], \"digest\": ") + JsonString(digest);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Entry& m = report.metrics[i];
    out += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  out += "}, \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : report.samples) {
    out += (first ? "" : ", ") + JsonString(name) + ": [";
    first = false;
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i ? ", " : "") + JsonNumber(values[i]);
    }
    out += "]";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    bool valid = !value.empty();
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      valid = valid && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      valid = valid && *end == '\0' && args.seconds >= 0.0 &&
              args.seconds < 3600.0;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      valid = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (!valid) {
      std::fprintf(stderr, "bad value for %s: '%s'\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  return true;
}

int RunWorkload(const Args& args, const Workload& w) {
  const size_t threads = std::min(kMaxThreads, UsableCores());
  const size_t min_calls = args.smoke ? 1 : kMinCalls;
  const size_t setup_repeats = args.smoke || args.trace ? 1 : kSetupRepeats;
  const std::string ckpt =
      w.durable ? args.work_dir + "/ckpt-" + w.name + "-" +
                      std::to_string(getpid())
                : std::string();
  std::fprintf(stderr, "[%s] seed %llu, %zu threads%s%s\n", w.name,
               static_cast<unsigned long long>(args.seed), threads,
               args.smoke ? ", smoke" : "", args.trace ? ", traced" : "");
  Report report;
  const SpeedProbe probe(threads, args.smoke ? kSmokeDivisor : 1);

  // The probe runs before the first set-up and after every set-up and
  // untraced call, so its times span the run.
  std::vector<double> probe_s = {probe.Seconds()};
  std::vector<double> setup_s;
  std::optional<Instance> instance;
  for (size_t i = 0; i < setup_repeats; ++i) {
    instance.reset();  // free the previous dataset before generating again
    const Clock::time_point start = Clock::now();
    instance =
        SetUp(w, args.smoke, args.seed, threads, ckpt, args.trace, report);
    if (!instance) break;
    setup_s.push_back(Since(start));
    probe_s.push_back(probe.Seconds());
    std::fprintf(stderr, "  setup %zu: %.3f s (warm-up %.3f s)\n", i + 1,
                 setup_s.back(), instance->warmup.seconds);
    if (i == 0) {
      CheckWarmup(w, *instance, report);
      report.digest = instance->warmup.digest;
    } else {
      ++report.attempted;
      if (instance->warmup.digest != report.digest) {
        ++report.failed;
        report.Error("a repeated set-up clustered differently");
      }
    }
  }
  if (!instance || !instance->warmup.status.ok()) {
    PrintReport(args, w, threads, report);
    return 1;
  }
  const core::ClusteringResult& reference = instance->warmup.result;

  // Untraced loop: the end-to-end numbers. The traced run gives it part
  // of its time and the traced loop the same part.
  const double untraced_seconds = args.trace ? 0.4 * args.seconds
                                             : args.seconds;
  uint64_t worker_spawns_seen = instance->warmup.driver.Get(
      "worker.spawn_total");
  const std::vector<double> cluster_s =
      TimedLoop(*instance, ckpt, untraced_seconds, min_calls, "timed",
                report, [&](Call call) {
                  worker_spawns_seen = call.driver.Get("worker.spawn_total");
                  probe_s.push_back(probe.Seconds());
                });
  const double cluster_median = Median(cluster_s);
  // The run's times at the reference machine speed.
  const double to_reference = kProbeReferenceS / Median(probe_s);
  std::fprintf(stderr,
               "  cluster_s median %.4f s wall, %.4f s at reference speed "
               "(n=%zu)\n",
               cluster_median, cluster_median * to_reference,
               cluster_s.size());
  report.Add("cluster_s", cluster_median * to_reference, "s");
  report.Add("setup_s", Median(setup_s) * to_reference, "s");
  auto at_reference = [to_reference](std::vector<double> times) {
    for (double& t : times) t *= to_reference;
    return times;
  };
  report.samples["cluster_s"] = at_reference(cluster_s);
  report.samples["setup_s"] = at_reference(setup_s);
  report.samples["cluster_wall_s"] = cluster_s;
  report.samples["setup_wall_s"] = setup_s;
  report.samples["probe_s"] = probe_s;
  report.Add("e4sc",
             eval::E4SC(instance->truth,
                        reference.ToEvalClustering()),
             "ratio");
  report.Add("mr_jobs", static_cast<double>(instance->warmup.jobs), "count");

  if (args.trace) {
    Tracer::Global().Clear();
    Tracer::Global().Enable(true);
    resource::MemoryTracker::Global().Enable(true);
    std::vector<Call> traced;
    std::vector<uint64_t> spawns;
    TimedLoop(*instance, ckpt, 0.4 * args.seconds, min_calls, "traced", report,
              [&](Call call) {
                const uint64_t total = call.driver.Get("worker.spawn_total");
                spawns.push_back(total - worker_spawns_seen);
                worker_spawns_seen = total;
                call.result = {};  // keep only what the attribution needs
                traced.push_back(std::move(call));
              });
    resource::MemoryTracker::Global().Enable(false);
    // The call with the median wall time gives the whole breakdown, so
    // driver self time plus the phases add up to its wall time exactly.
    std::vector<size_t> order(traced.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return traced[a].seconds < traced[b].seconds;
    });
    const size_t median_call = order[order.size() / 2];
    AddLayerMetrics(traced[median_call], spawns[median_call], report);
    report.Add("trace.overhead_ratio",
               traced[median_call].seconds / cluster_median, "ratio");

    const mr::P3CMROptions options = MakeOptions(w, threads, ckpt);
    // Timed on every workload: it is what checkpointing this dataset costs,
    // whether or not the workload checkpoints.
    {
      TraceSpan span("bench:dataset-fingerprint");
      const Clock::time_point start = Clock::now();
      const uint64_t fingerprint = mr::DatasetFingerprint(instance->dataset);
      report.Add("mr.checkpoint.fingerprint_s", Since(start), "s");
      if (fingerprint == 0) report.Error("dataset fingerprint is 0");
    }

    const CoreReplay replay =
        ReplayCores(options.runner, options.params, instance->dataset);
    Tracer::Global().Enable(false);
    if (!replay.status.ok()) {
      report.Error("core replay failed: " + replay.status.ToString());
    }
    const core::CoreDetectionStats& stats = reference.core_stats;
    if (replay.stats.num_candidates_generated !=
            stats.num_candidates_generated ||
        replay.stats.num_signatures_counted != stats.num_signatures_counted ||
        replay.stats.num_support_batches != stats.num_support_batches ||
        replay.stats.num_levels != stats.num_levels) {
      report.Error("core replay diverged from the pipeline's core stats");
    }
    report.Add("core.cores_self_s", replay.total_s - replay.support_s, "s");
    report.Add("core.support_jobs_s", replay.support_s, "s");
    report.Add("core.candidates_generated",
               static_cast<double>(stats.num_candidates_generated), "count");
    report.Add("core.signatures_counted",
               static_cast<double>(stats.num_signatures_counted), "count");
    report.Add("core.support_batches",
               static_cast<double>(stats.num_support_batches), "count");
    report.Add("core.levels", static_cast<double>(stats.num_levels), "count");

    // One untraced single-thread call: t1 / (threads x t).
    {
      mr::P3CMR single(MakeOptions(w, 1, ckpt));
      const Call call = RunCall(single, instance->dataset, ckpt);
      CheckCall(call, instance->warmup, "single-thread", report);
      std::fprintf(stderr, "  single-thread call: %.3f s\n", call.seconds);
      report.Add("mapreduce.parallel_efficiency",
                 call.seconds /
                     (static_cast<double>(threads) * cluster_median),
                 "ratio");
    }

    AddKernelMetrics(instance->dataset, replay.max_batch,
                     reference.cores.size(), reference.arel.size(), report);

    const std::string trace_path =
        args.work_dir + "/trace-" + w.name + ".json";
    const Status written = Tracer::Global().WriteJson(trace_path);
    if (!written.ok()) {
      report.Error("writing " + trace_path + ": " + written.ToString());
    } else {
      std::fprintf(stderr, "  trace: %s\n", trace_path.c_str());
    }
    Tracer::Global().Clear();
  }

  const std::optional<resource::RssSample> rss =
      resource::MemoryTracker::SampleRss();
  if (!rss) report.Error("VmHWM unreadable");
  report.Add("peak_rss_mb",
             rss ? static_cast<double>(rss->vm_hwm_bytes) / kMB : 0.0, "MB");
  // The complement of the failure ratio, so that it never reads 0.
  report.Add("success_ratio",
             static_cast<double>(report.attempted - report.failed) /
                 static_cast<double>(report.attempted),
             "ratio");

  instance.reset();  // stops the durable workload's worker processes
  if (!ckpt.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(ckpt, ignored);
  }
  PrintReport(args, w, threads, report);
  return report.errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) return 2;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      std::error_code ec;
      std::filesystem::create_directories(args.work_dir, ec);
      if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                     ec.message().c_str());
        return 2;
      }
      return RunWorkload(args, w);
    }
  }
  std::fprintf(stderr, "unknown workload '%s'; one of:",
               args.workload.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}
