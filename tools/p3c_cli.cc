// p3c_cli — command-line front end for the library.
//
//   p3c_cli generate --out points.csv [--labels labels.csv]
//           [--truth clusters.txt] [--points N] [--dims D] [--clusters K]
//           [--noise F] [--seed S] [--binary]
//   p3c_cli cluster  --in points.csv --algo ALGO [--out assignments.csv]
//                                      (mr-light reads a .p3cd input
//                                      through the file, a map range at a
//                                      time, unless --normalize has to
//                                      rewrite the rows)
//           [--clusters-out clusters.txt] [--normalize] [--threads T]
//           [--theta F] [--alpha-poisson F]
//           [--job-log]                the run report as text: the job
//                                      table, the phase table (wall s,
//                                      jobs, input, peak bytes) and the
//                                      merged counters (mr / mr-light)
//           [--trace-out=trace.json]   Chrome trace-event JSON (load in
//                                      Perfetto / chrome://tracing)
//           [--metrics-out=m.json]     the same run report as JSON: jobs,
//                                      phases, counters and the driver
//                                      bag (mr / mr-light only)
//           [--max-attempts N]         task attempts per task (>= 1)
//           [--task-deadline S]        wall-clock deadline per task
//                                      attempt in seconds (0 = off); a
//                                      hung attempt is killed and retried
//           [--phase-budget S]         wall-clock budget per pipeline
//                                      phase in seconds (0 = off)
//           [--heartbeat-seconds S]    periodic structured progress line
//                                      (stage, records, live attempts,
//                                      tracked memory) at info level
//                                      every S seconds (0 = off)
//           [--backend=NAME]           task-execution backend (DESIGN.md
//                                      §16): inprocess (threads in the
//                                      driver, the default) | process
//                                      (forked worker processes — real
//                                      crash isolation, byte-identical
//                                      results)
//           [--num-workers N]          worker processes per MR job for
//                                      --backend=process (0 = one per
//                                      pool thread)
//           [--worker-heartbeat-seconds S]  a worker silent for S seconds
//                                      is declared hung, SIGKILLed, and
//                                      respawned (default 10)
//           [--track-memory]           scoped memory accounting: per-phase
//                                      mem.*.peak_bytes gauges in
//                                      --metrics-out plus mem-high-water
//                                      instants in --trace-out
//                                      (DESIGN.md §15)
//           [--checkpoint-dir DIR]     durable phase checkpoints: persist
//                                      driver state after each completed
//                                      phase and resume a re-run of the
//                                      same dataset+params from the first
//                                      incomplete phase (DESIGN.md §13)
//           [--crash-after-phase NAME] kill the process (exit 42) right
//                                      after phase NAME's checkpoint is
//                                      durable — test hook for the
//                                      kill-and-resume CI smoke
//                                      (all seven: mr / mr-light only)
//           [--kernel-backend=NAME]    compute-kernel backend for the hot
//                                      loops (DESIGN.md §14): auto (pick
//                                      the fastest the CPU supports, the
//                                      default) | scalar | avx2; all
//                                      backends are bit-exact, so this
//                                      never changes results
//           [--log-level=LEVEL]        debug|info|warning|error|off
//           [--samples-per-reducer N]        (bow only)
//           ALGO: p3c | p3c+ | light | mr | mr-light | bow
//   p3c_cli evaluate --assignments a.csv --labels labels.csv
//   p3c_cli evaluate-subspace --found f.txt --truth t.txt
//   p3c_cli info     --in points.csv
//
// --log-level, --track-memory and --trace-out apply to every command.
// A flag the command does not read is rejected with a usage error
// (exit 2). Exit code 0 on success; errors go to stderr with a non-zero
// exit.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/bow/bow.h"
#include "src/common/atomic_file.h"
#include "src/common/cancellation.h"
#include "src/common/logging.h"
#include "src/common/resource.h"
#include "src/common/string_util.h"
#include "src/common/trace.h"
#include "src/core/kernels/kernels.h"
#include "src/core/p3c.h"
#include "src/data/generator.h"
#include "src/data/io.h"
#include "src/eval/accuracy.h"
#include "src/eval/ce.h"
#include "src/eval/e4sc.h"
#include "src/eval/f1.h"
#include "src/eval/rnia.h"
#include "src/eval/serialization.h"
#include "src/mapreduce/fault.h"
#include "src/mapreduce/worker_backend.h"
#include "src/mr/p3c_mr.h"

namespace {

using namespace p3c;

/// Flags read by main for every command.
const std::set<std::string> kGlobalFlags = {"log-level", "track-memory",
                                            "trace-out"};

/// Flags each command reads besides kGlobalFlags, or null for an
/// unknown command. main rejects any other flag before the command
/// runs, so a typo such as --task-dealine fails instead of running with
/// the default.
const std::set<std::string>* CommandFlags(const std::string& command) {
  static const std::map<std::string, std::set<std::string>> kFlags = {
      {"generate",
       {"out", "labels", "truth", "points", "dims", "clusters", "noise",
        "seed", "binary"}},
      {"cluster",
       {"in", "algo", "out", "clusters-out", "normalize", "threads", "theta",
        "alpha-poisson", "job-log", "metrics-out", "max-attempts",
        "task-deadline", "phase-budget", "heartbeat-seconds", "backend",
        "num-workers", "worker-heartbeat-seconds", "checkpoint-dir",
        "crash-after-phase", "kernel-backend", "samples-per-reducer"}},
      {"evaluate", {"assignments", "labels"}},
      {"evaluate-subspace", {"found", "truth"}},
      {"info", {"in"}},
  };
  const auto it = kFlags.find(command);
  return it == kFlags.end() ? nullptr : &it->second;
}

/// Minimal --flag value parser; accepts both `--flag value` and
/// `--flag=value`; flags without a value get "1".
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      const size_t eq = key.find('=');
      if (eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// The first flag that is neither in `known` nor global, or "".
  std::string FirstUnknown(const std::set<std::string>& known) const {
    for (const auto& [key, value] : values_) {
      if (known.count(key) == 0 && kGlobalFlags.count(key) == 0) return key;
    }
    return "";
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: p3c_cli <generate|cluster|evaluate|evaluate-subspace|"
               "info> [--flags]\n"
               "see the header of tools/p3c_cli.cc for the full flag "
               "list\n");
  return 2;
}

Status WriteLabels(const std::vector<int>& labels, const std::string& path) {
  AtomicFileWriter writer(path);
  P3C_RETURN_NOT_OK(writer.Open());
  for (int label : labels) std::fprintf(writer.stream(), "%d\n", label);
  return writer.Commit();
}

// ---- Cooperative shutdown ---------------------------------------------------
//
// SIGINT/SIGTERM set a flag (the only async-signal-safe thing to do);
// a watcher thread polls it and trips the cancellation source, which
// the MR driver checks at phase boundaries. With --checkpoint-dir the
// killed run therefore loses at most the phase in flight.

volatile std::sig_atomic_t g_signal_flag = 0;

void HandleShutdownSignal(int /*signum*/) { g_signal_flag = 1; }

CancellationSource& ShutdownSource() {
  static CancellationSource source;
  return source;
}

/// Process-exit fault injector behind --crash-after-phase: once the
/// named phase's checkpoint is durable, dies like a kill -9 would —
/// no stack unwinding, no atexit, no flushing (_Exit), so the resumed
/// run proves the checkpoint alone carries the state.
class CrashAfterPhaseInjector : public mr::FaultInjector {
 public:
  explicit CrashAfterPhaseInjector(std::string phase)
      : phase_(std::move(phase)) {}

  Status OnAttemptStart(const mr::TaskAttempt& /*attempt*/) override {
    return Status::OK();
  }

  Status OnPhaseCommit(const mr::PhaseCommit& commit) override {
    if (commit.phase_name == phase_) {
      std::fprintf(stderr,
                   "crash-after-phase: checkpoint of '%s' is durable; "
                   "simulating driver kill\n",
                   commit.phase_name.c_str());
      std::_Exit(42);
    }
    return Status::OK();
  }

 private:
  std::string phase_;
};

Result<std::vector<int>> ReadLabels(const std::string& path) {
  Result<data::Dataset> raw = data::ReadCsv(path);
  if (!raw.ok()) return raw.status();
  if (raw->num_dims() != 1) {
    return Status::InvalidArgument("label file must have one column");
  }
  std::vector<int> labels;
  labels.reserve(raw->num_points());
  for (size_t i = 0; i < raw->num_points(); ++i) {
    labels.push_back(static_cast<int>(raw->Get(static_cast<data::PointId>(i),
                                               0)));
  }
  return labels;
}

int CmdGenerate(const Args& args) {
  data::GeneratorConfig config;
  config.num_points = static_cast<size_t>(args.GetInt("points", 10000));
  config.num_dims = static_cast<size_t>(args.GetInt("dims", 50));
  config.num_clusters = static_cast<size_t>(args.GetInt("clusters", 5));
  config.noise_fraction = args.GetDouble("noise", 0.10);
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string out = args.Get("out", "");
  if (out.empty()) return Fail("generate requires --out");

  Result<data::SyntheticData> data = data::GenerateSynthetic(config);
  if (!data.ok()) return Fail(data.status().ToString());
  const Status io = args.Has("binary")
                        ? data::WriteBinary(data->dataset, out)
                        : data::WriteCsv(data->dataset, out);
  if (!io.ok()) return Fail(io.ToString());
  std::printf("wrote %zu x %zu points to %s\n", data->dataset.num_points(),
              data->dataset.num_dims(), out.c_str());
  const std::string labels = args.Get("labels", "");
  if (!labels.empty()) {
    const Status st = WriteLabels(data->labels, labels);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote labels to %s\n", labels.c_str());
  }
  const std::string truth = args.Get("truth", "");
  if (!truth.empty()) {
    const Status st = eval::WriteClusteringFile(
        eval::FromGroundTruth(data->clusters), truth);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote ground-truth clustering to %s\n", truth.c_str());
  }
  return 0;
}

/// Runs `algo` on `input`, which is a file only for mr-light.
Result<core::ClusteringResult> RunAlgo(const std::string& algo,
                                       const data::RowInput& input,
                                       const Args& args) {
  core::P3CParams params;
  params.theta_cc = args.GetDouble("theta", params.theta_cc);
  params.alpha_poisson =
      args.GetDouble("alpha-poisson", params.alpha_poisson);
  const auto threads = static_cast<size_t>(args.GetInt("threads", 0));

  // Process-global compute-kernel backend (DESIGN.md §14). Applies to
  // every algorithm; validated up front so a typo fails fast instead of
  // silently falling back to auto-detection.
  const Status backend =
      core::kernels::SetBackend(args.Get("kernel-backend", "auto"));
  if (!backend.ok()) return backend;

  if (algo == "p3c") {
    core::P3CPipeline pipeline{core::OriginalP3CParams(), threads};
    return pipeline.Cluster(*input.dataset());
  }
  if (algo == "p3c+") {
    core::P3CPipeline pipeline{params, threads};
    return pipeline.Cluster(*input.dataset());
  }
  if (algo == "light") {
    params.light = true;
    core::P3CPipeline pipeline{params, threads};
    return pipeline.Cluster(*input.dataset());
  }
  if (algo == "mr" || algo == "mr-light") {
    mr::P3CMROptions options;
    options.params = params;
    options.params.multilevel_candidates = true;
    options.params.t_c = 2000;
    options.params.light = algo == "mr-light";
    options.runner.num_threads = threads;
    // Straggler/fault-tolerance knobs (mr / mr-light only). Nonsense
    // values are rejected here, not silently clamped: a user who typed
    // --task-deadline=-1 meant something, and it was not "disable".
    const int64_t max_attempts =
        args.GetInt("max-attempts",
                    static_cast<int64_t>(options.runner.max_attempts));
    if (max_attempts < 1) {
      return Status::InvalidArgument(
          "--max-attempts must be >= 1 (each task runs at least once)");
    }
    options.runner.max_attempts = static_cast<size_t>(max_attempts);
    const double task_deadline = args.GetDouble("task-deadline", 0.0);
    if (task_deadline < 0.0) {
      return Status::InvalidArgument(
          "--task-deadline must be >= 0 seconds (0 disables the deadline)");
    }
    options.runner.task_deadline_seconds = task_deadline;
    const double phase_budget = args.GetDouble("phase-budget", 0.0);
    if (phase_budget < 0.0) {
      return Status::InvalidArgument(
          "--phase-budget must be >= 0 seconds (0 disables the budget)");
    }
    options.retry.phase_budget_seconds = phase_budget;
    const double heartbeat = args.GetDouble("heartbeat-seconds", 0.0);
    if (heartbeat < 0.0) {
      return Status::InvalidArgument(
          "--heartbeat-seconds must be >= 0 seconds (0 disables the "
          "heartbeat)");
    }
    options.runner.heartbeat_seconds = heartbeat;
    Result<mr::Backend> parsed_backend =
        mr::ParseBackend(args.Get("backend", "inprocess"));
    if (!parsed_backend.ok()) return parsed_backend.status();
    options.runner.backend = *parsed_backend;
    const int64_t num_workers = args.GetInt("num-workers", 0);
    if (num_workers < 0) {
      return Status::InvalidArgument(
          "--num-workers must be >= 0 (0 means one worker per pool thread)");
    }
    options.runner.num_workers = static_cast<size_t>(num_workers);
    const double worker_heartbeat = args.GetDouble(
        "worker-heartbeat-seconds", options.runner.worker_heartbeat_seconds);
    if (worker_heartbeat <= 0.0) {
      return Status::InvalidArgument(
          "--worker-heartbeat-seconds must be > 0 (a silent worker is "
          "declared hung and respawned after this long)");
    }
    options.runner.worker_heartbeat_seconds = worker_heartbeat;
    options.checkpoint_dir = args.Get("checkpoint-dir", "");
    options.cancel = ShutdownSource().token();
    std::unique_ptr<CrashAfterPhaseInjector> crash_injector;
    const std::string crash_phase = args.Get("crash-after-phase", "");
    if (!crash_phase.empty()) {
      if (options.checkpoint_dir.empty()) {
        return Status::InvalidArgument(
            "--crash-after-phase needs --checkpoint-dir (the crash fires "
            "after the phase checkpoint is durable)");
      }
      crash_injector = std::make_unique<CrashAfterPhaseInjector>(crash_phase);
      options.runner.fault_injector = crash_injector.get();
    }
    mr::P3CMR pipeline{options};
    Result<core::ClusteringResult> result = pipeline.Cluster(input);
    if (result.ok() && args.Has("job-log")) {
      std::printf("%s", pipeline.metrics()
                            .ToString(&pipeline.driver_metrics())
                            .c_str());
    }
    const std::string metrics_out = args.Get("metrics-out", "");
    if (!metrics_out.empty()) {
      // Written even when clustering failed: the per-job table up to the
      // failure is exactly what a post-mortem needs. The driver bag
      // carries the phase walls, and the mem.*.peak_bytes gauges when
      // --track-memory is on.
      const Status st = AtomicWriteFile(
          metrics_out, pipeline.metrics().ToJson(&pipeline.driver_metrics()));
      if (!st.ok()) return st;
      std::printf("wrote MR metrics to %s\n", metrics_out.c_str());
    }
    return result;
  }
  if (algo == "bow") {
    bow::BoWOptions options;
    options.params = params;
    options.samples_per_reducer = static_cast<size_t>(
        args.GetInt("samples-per-reducer", 100000));
    options.num_threads = threads;
    bow::BoW pipeline{options};
    return pipeline.Cluster(*input.dataset());
  }
  return Status::InvalidArgument("unknown --algo '" + algo + "'");
}

int CmdCluster(const Args& args) {
  const std::string in = args.Get("in", "");
  if (in.empty()) return Fail("cluster requires --in");
  const std::string algo = args.Get("algo", "light");
  const bool binary = in.size() > 5 && in.substr(in.size() - 5) == ".p3cd";
  // mr-light reads a container through the file unless --normalize has
  // to rewrite the rows; everything else loads them.
  std::optional<data::BinaryDatasetReader> file;
  std::optional<data::Dataset> dataset;
  if (binary && algo == "mr-light" && !args.Has("normalize")) {
    Result<data::BinaryDatasetReader> reader =
        data::BinaryDatasetReader::Open(in);
    if (!reader.ok()) return Fail(reader.status().ToString());
    file.emplace(std::move(reader).value());
  } else {
    Result<data::Dataset> loaded =
        binary ? data::ReadBinary(in) : data::ReadCsv(in);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    dataset.emplace(std::move(loaded).value());
    if (args.Has("normalize")) dataset->NormalizeMinMax();
  }
  const data::RowInput input =
      file ? data::RowInput(*file) : data::RowInput(*dataset);

  if (args.Has("metrics-out") && algo != "mr" && algo != "mr-light") {
    std::fprintf(stderr,
                 "warning: --metrics-out only applies to --algo mr / "
                 "mr-light; ignoring\n");
  }
  Result<core::ClusteringResult> result = RunAlgo(algo, input, args);
  if (!result.ok()) return Fail(result.status().ToString());

  std::printf("%s: %zu clusters in %.2f s\n", algo.c_str(),
              result->clusters.size(), result->seconds);
  for (size_t c = 0; c < result->clusters.size(); ++c) {
    const auto& cluster = result->clusters[c];
    std::string signature;
    for (const auto& interval : cluster.intervals) {
      signature += (signature.empty() ? "" : ", ") + interval.ToString();
    }
    std::printf("  cluster %zu: %zu points {%s}\n", c, cluster.points.size(),
                signature.c_str());
  }

  const std::string out = args.Get("out", "");
  if (!out.empty()) {
    std::vector<int> assignment(input.num_points(), -1);
    for (size_t c = 0; c < result->clusters.size(); ++c) {
      for (data::PointId p : result->clusters[c].points) {
        if (assignment[p] == -1) assignment[p] = static_cast<int>(c);
      }
    }
    const Status st = WriteLabels(assignment, out);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote assignments to %s\n", out.c_str());
  }
  const std::string clusters_out = args.Get("clusters-out", "");
  if (!clusters_out.empty()) {
    const Status st = eval::WriteClusteringFile(result->ToEvalClustering(),
                                                clusters_out);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote clustering to %s\n", clusters_out.c_str());
  }
  return 0;
}

int CmdEvaluate(const Args& args) {
  const std::string assignments_path = args.Get("assignments", "");
  const std::string labels_path = args.Get("labels", "");
  if (assignments_path.empty() || labels_path.empty()) {
    return Fail("evaluate requires --assignments and --labels");
  }
  Result<std::vector<int>> assignments = ReadLabels(assignments_path);
  if (!assignments.ok()) return Fail(assignments.status().ToString());
  Result<std::vector<int>> labels = ReadLabels(labels_path);
  if (!labels.ok()) return Fail(labels.status().ToString());
  if (assignments->size() != labels->size()) {
    return Fail("assignment / label counts differ");
  }
  // Build an object-level clustering view from the assignment vector.
  std::map<int, eval::SubspaceCluster> clusters;
  for (size_t i = 0; i < assignments->size(); ++i) {
    const int c = (*assignments)[i];
    if (c >= 0) {
      clusters[c].points.push_back(static_cast<data::PointId>(i));
    }
  }
  eval::Clustering found;
  for (auto& [id, cluster] : clusters) {
    (void)id;
    cluster.attrs = {0};  // object-level measures ignore attrs
    cluster.Normalize();
    found.push_back(std::move(cluster));
  }
  std::printf("clusters:            %zu\n", found.size());
  std::printf("majority accuracy:   %.4f\n",
              eval::MajorityClassAccuracy(found, *labels));
  std::printf("one-to-one accuracy: %.4f\n",
              eval::HungarianAccuracy(found, *labels));
  return 0;
}

int CmdEvaluateSubspace(const Args& args) {
  const std::string found_path = args.Get("found", "");
  const std::string truth_path = args.Get("truth", "");
  if (found_path.empty() || truth_path.empty()) {
    return Fail("evaluate-subspace requires --found and --truth "
                "(clustering files, see eval/serialization.h)");
  }
  Result<eval::Clustering> found = eval::ReadClusteringFile(found_path);
  if (!found.ok()) return Fail(found.status().ToString());
  Result<eval::Clustering> truth = eval::ReadClusteringFile(truth_path);
  if (!truth.ok()) return Fail(truth.status().ToString());
  std::printf("clusters (found/truth): %zu / %zu\n", found->size(),
              truth->size());
  std::printf("E4SC: %.4f\n", eval::E4SC(*truth, *found));
  std::printf("F1:   %.4f\n", eval::F1(*truth, *found));
  std::printf("RNIA: %.4f\n", eval::RNIA(*truth, *found));
  std::printf("CE:   %.4f\n", eval::CE(*truth, *found));
  return 0;
}

int CmdInfo(const Args& args) {
  const std::string in = args.Get("in", "");
  if (in.empty()) return Fail("info requires --in");
  Result<data::Dataset> dataset =
      in.size() > 5 && in.substr(in.size() - 5) == ".p3cd"
          ? data::ReadBinary(in)
          : data::ReadCsv(in);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  std::printf("points:     %zu\n", dataset->num_points());
  std::printf("dims:       %zu\n", dataset->num_dims());
  std::printf("normalized: %s\n", dataset->IsNormalized() ? "yes" : "no");
  return 0;
}

}  // namespace

int RunCommand(const std::string& command, const Args& args) {
  if (command == "generate") return CmdGenerate(args);
  if (command == "cluster") return CmdCluster(args);
  if (command == "evaluate") return CmdEvaluate(args);
  if (command == "evaluate-subspace") return CmdEvaluateSubspace(args);
  if (command == "info") return CmdInfo(args);
  return Usage();
}

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const std::set<std::string>* known = CommandFlags(command);
  if (known == nullptr) return Usage();
  const Args args(argc, argv);
  const std::string unknown = args.FirstUnknown(*known);
  if (!unknown.empty()) {
    std::fprintf(stderr, "error: unknown flag --%s for '%s'\n",
                 unknown.c_str(), command.c_str());
    return Usage();
  }

  // Graceful SIGINT/SIGTERM: the handler only sets a flag; this watcher
  // trips the cancellation source the MR driver polls. Joined before
  // exit so the thread never outlives main.
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::atomic<bool> watcher_done{false};
  std::thread signal_watcher([&watcher_done] {
    while (!watcher_done.load(std::memory_order_relaxed)) {
      if (g_signal_flag != 0) {
        std::fprintf(stderr,
                     "shutdown signal received: stopping at the next phase "
                     "boundary\n");
        ShutdownSource().Cancel();
        // Process backend: forward the shutdown to live worker
        // processes too. The cancellation path tears pools down at the
        // phase boundary, but a worker wedged in a long task would
        // otherwise outlive a Ctrl-C'd driver.
        const size_t forwarded = mr::SignalLiveWorkers(SIGTERM);
        if (forwarded > 0) {
          std::fprintf(stderr,
                       "forwarded shutdown to %zu worker process(es)\n",
                       forwarded);
        }
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  const std::string log_level = args.Get("log-level", "");
  if (!log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level, &level)) {
      return Fail("unknown --log-level '" + log_level +
                  "' (want debug|info|warning|error|off)");
    }
    SetLogLevel(level);
  }

  // Scoped memory accounting (DESIGN.md §15): flipped before anything
  // instrumented exists — including the dataset, whose load precedes
  // RunAlgo — the run boundary the tracker's toggle contract requires.
  if (args.Has("track-memory")) {
    resource::MemoryTracker::Global().Enable(true);
  }

  const std::string trace_out = args.Get("trace-out", "");
  if (!trace_out.empty()) {
    Tracer::Global().Clear();
    Tracer::Global().Enable(true);
    if (!Tracer::Global().enabled()) {
      std::fprintf(stderr,
                   "warning: binary built with P3C_ENABLE_TRACING=OFF; "
                   "%s will be empty\n",
                   trace_out.c_str());
    }
  }

  const int exit_code = RunCommand(command, args);
  watcher_done.store(true, std::memory_order_relaxed);
  signal_watcher.join();

  // Final worker sweep: if a shutdown signal arrived, any worker still
  // alive after the driver unwound is killed and reaped here so the CLI
  // never exits leaving orphaned worker processes behind.
  if (g_signal_flag != 0) {
    mr::SignalLiveWorkers(SIGKILL);
    mr::ReapWorkers();
  }

  if (!trace_out.empty()) {
    const Status st = Tracer::Global().WriteJson(trace_out);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote trace (%zu events) to %s\n",
                Tracer::Global().NumEvents(), trace_out.c_str());
  }
  return exit_code;
}
