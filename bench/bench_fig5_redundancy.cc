// Figure 5: number of generated cluster cores as a function of the
// Poisson significance threshold (1e-140 .. 1e-3), for the pure 'Poisson'
// test vs the 'Combined' (Poisson + effect size) test, with and without
// the redundancy filter. Data: 5 hidden clusters, 20% noise; two sizes
// (the paper's 10k and 100k, scaled).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/string_util.h"
#include "src/core/core_detection.h"
#include "src/core/p3c.h"
#include "src/core/relevant_intervals.h"
#include "src/core/support_counter.h"
#include "src/stats/histogram.h"

namespace {

using namespace p3c;

struct Row {
  double threshold;
  size_t poisson_raw, poisson_filtered;
  size_t combined_raw, combined_filtered;
};

std::vector<core::Interval> RelevantIntervals(const data::Dataset& dataset,
                                              const core::P3CParams& params) {
  const size_t bins = static_cast<size_t>(
      stats::NumBins(params.binning, dataset.num_points()));
  std::vector<stats::Histogram> hists(dataset.num_dims(),
                                      stats::Histogram(bins));
  for (size_t i = 0; i < dataset.num_points(); ++i) {
    const auto row = dataset.Row(static_cast<data::PointId>(i));
    for (size_t j = 0; j < dataset.num_dims(); ++j) hists[j].Add(row[j]);
  }
  return core::FindAllRelevantIntervals(hists, params.alpha_chi2);
}

}  // namespace

int main() {
  bench::Banner(
      "Figure 5 — redundancy filter & effect size vs Poisson threshold",
      "Fig. 5(a-d), §7.4.2");

  const size_t optimal = 5;
  const double exponents[] = {-140, -100, -80, -60, -40, -20, -5, -3};

  for (size_t n : {bench::Scaled(10000), bench::Scaled(50000)}) {
    const auto data = bench::MakeWorkload(n, optimal, 0.20, 51);
    ThreadPool pool;
    core::SupportCountFn counter =
        [&](const std::vector<core::Signature>& sigs) {
          return core::CountSupports(data.dataset, sigs, &pool);
        };

    std::printf("\nDB size %zu (optimal = %zu clusters):\n", n, optimal);
    std::printf("%12s %14s %14s %14s %14s\n", "threshold", "Poisson",
                "Poisson+red", "Combined", "Combined+red");
    for (double exponent : exponents) {
      Row row{};
      row.threshold = exponent;
      for (core::ProvingMode mode :
           {core::ProvingMode::kPoisson,
            core::ProvingMode::kPoissonAndEffectSize}) {
        core::P3CParams params;
        params.proving = mode;
        params.alpha_poisson = std::pow(10.0, exponent);
        params.redundancy_filter = true;  // both counts are in the stats
        const auto intervals = RelevantIntervals(data.dataset, params);
        const auto detection = core::GenerateClusterCores(
            intervals, data.dataset.num_points(), params, counter, &pool);
        if (mode == core::ProvingMode::kPoisson) {
          row.poisson_raw = detection.stats.num_maximal;
          row.poisson_filtered = detection.stats.num_after_redundancy;
        } else {
          row.combined_raw = detection.stats.num_maximal;
          row.combined_filtered = detection.stats.num_after_redundancy;
        }
      }
      std::printf("%12s %14zu %14zu %14zu %14zu\n",
                  p3c::StringPrintf("1e%+.0f", row.threshold).c_str(),
                  row.poisson_raw, row.poisson_filtered, row.combined_raw,
                  row.combined_filtered);
    }
  }

  bench::Rule();
  std::printf(
      "Shape check (paper): without the filter, 'Poisson' overestimates\n"
      "the core count badly at weak thresholds and 'Combined' stagnates at\n"
      "a moderate count; with the redundancy filter both stabilize at (or\n"
      "very near) the planted cluster count across thresholds.\n");
  return 0;
}
