// Ablation (§5.3): the multi-level candidate collection heuristic (Tc).
// Collecting candidates across levels before proving trades extra counted
// signatures (weaker A-priori pruning) against fewer proving rounds —
// each round being one MR support job in the MapReduce pipeline. Each
// strategy runs with three support counters: the serial CountSupports,
// and RunSupportJob on the in-process and on the process engine backend,
// whose job overheads differ.

#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "src/common/stopwatch.h"
#include "src/core/core_detection.h"
#include "src/core/p3c.h"
#include "src/core/relevant_intervals.h"
#include "src/core/support_counter.h"
#include "src/mr/jobs.h"
#include "src/stats/histogram.h"

int main() {
  using namespace p3c;
  bench::Banner("Ablation — multi-level candidate collection (Tc heuristic)",
                "§5.3 (I/O overhead of MR jobs)");

  const auto data = bench::MakeWorkload(bench::Scaled(50000), 7, 0.10, 97);
  const size_t bins = static_cast<size_t>(stats::NumBins(
      stats::BinningRule::kFreedmanDiaconis, data.dataset.num_points()));
  std::vector<stats::Histogram> hists(data.dataset.num_dims(),
                                      stats::Histogram(bins));
  for (size_t i = 0; i < data.dataset.num_points(); ++i) {
    const auto row = data.dataset.Row(static_cast<data::PointId>(i));
    for (size_t j = 0; j < data.dataset.num_dims(); ++j) hists[j].Add(row[j]);
  }
  core::P3CParams base;
  const auto intervals = core::FindAllRelevantIntervals(hists,
                                                        base.alpha_chi2);
  ThreadPool pool;
  mr::RunnerOptions in_process;
  mr::RunnerOptions process;
  process.backend = mr::Backend::kProcess;
  mr::LocalRunner in_process_runner(in_process);
  mr::LocalRunner process_runner(process);
  auto job_counter = [&](mr::LocalRunner& runner) -> core::SupportCountFn {
    return [&runner, &data](const std::vector<core::Signature>& sigs) {
      auto supports = mr::RunSupportJob(runner, data.dataset, sigs);
      if (!supports.ok()) {
        std::fprintf(stderr, "support job failed: %s\n",
                     supports.status().ToString().c_str());
        std::exit(1);
      }
      return std::move(supports).value();
    };
  };
  struct Counter {
    const char* name;
    core::SupportCountFn fn;
  };
  const Counter counters[] = {
      {"serial",
       [&](const std::vector<core::Signature>& sigs) {
         return core::CountSupports(data.dataset, sigs, &pool);
       }},
      {"mr in-process", job_counter(in_process_runner)},
      {"mr process", job_counter(process_runner)},
  };

  std::printf("%22s %14s %14s %16s %8s %9s\n", "strategy", "counter",
              "prove rounds", "sigs counted", "cores", "time");
  struct Config {
    const char* name;
    bool multilevel;
    size_t t_c;
  };
  for (const Counter& counter : counters) {
    for (const Config& config : {Config{"per-level (classic)", false, 0},
                                 Config{"multilevel Tc=100", true, 100},
                                 Config{"multilevel Tc=2000", true, 2000},
                                 Config{"multilevel Tc=3e4", true, 30000}}) {
      core::P3CParams params = base;
      params.multilevel_candidates = config.multilevel;
      if (config.t_c > 0) params.t_c = config.t_c;
      // The minimum over bench::Repeats() runs: noise only inflates.
      core::CoreDetectionResult result;
      double seconds = 0.0;
      for (size_t rep = 0; rep < bench::Repeats(); ++rep) {
        Stopwatch watch;
        result = core::GenerateClusterCores(
            intervals, data.dataset.num_points(), params, counter.fn, &pool);
        const double s = watch.ElapsedSeconds();
        if (rep == 0 || s < seconds) seconds = s;
      }
      std::printf("%22s %14s %14zu %16llu %8zu %8.3fs\n", config.name,
                  counter.name, result.stats.num_support_batches,
                  static_cast<unsigned long long>(
                      result.stats.num_signatures_counted),
                  result.cores.size(), seconds);
    }
  }

  bench::Rule();
  std::printf(
      "Shape check: multilevel collection cuts the proving rounds (= MR\n"
      "support jobs) while counting somewhat more signatures, and the\n"
      "final cluster cores are identical.\n");
  return 0;
}
