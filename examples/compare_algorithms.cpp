// Runs every algorithm of the paper — serial P3C+, P3C+-MR (naive & MVB
// outlier detection), P3C+-MR-Light and both BoW variants — on the same
// synthetic dataset and prints a quality/runtime comparison table, plus
// the MapReduce job log of the MR runs (the data behind §7.5).
//
//   ./build/examples/compare_algorithms [num_points]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/bow/bow.h"
#include "src/core/p3c.h"
#include "src/data/generator.h"
#include "src/eval/ce.h"
#include "src/eval/e4sc.h"
#include "src/eval/f1.h"
#include "src/eval/rnia.h"
#include "src/mr/p3c_mr.h"

namespace {

struct Row {
  std::string name;
  double e4sc, f1, rnia, ce, seconds;
  size_t clusters;
  size_t jobs;  // 0 when not applicable
};

void Print(const Row& row) {
  const std::string jobs = row.jobs ? std::to_string(row.jobs) : "-";
  std::printf("%-18s %8.3f %8.3f %8.3f %8.3f %9.2fs %9zu %6s\n",
              row.name.c_str(), row.e4sc, row.f1, row.rnia, row.ce,
              row.seconds, row.clusters, jobs.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p3c;
  const size_t n = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 20000;

  data::GeneratorConfig config;
  config.num_points = n;
  config.num_dims = 50;
  config.num_clusters = 5;
  config.noise_fraction = 0.10;
  config.seed = 7;
  auto data = data::GenerateSynthetic(config).value();
  const auto gt = eval::FromGroundTruth(data.clusters);
  std::printf("dataset: %zu points, %zu dims, %zu hidden clusters, 10%% "
              "noise\n\n",
              n, config.num_dims, config.num_clusters);
  std::printf("%-18s %8s %8s %8s %8s %10s %9s %6s\n", "algorithm", "E4SC",
              "F1", "RNIA", "CE", "time", "clusters", "jobs");

  auto score = [&gt](const std::string& name,
                     const core::ClusteringResult& result, size_t jobs) {
    const auto found = result.ToEvalClustering();
    Print(Row{name, eval::E4SC(gt, found), eval::F1(gt, found),
              eval::RNIA(gt, found), eval::CE(gt, found), result.seconds,
              result.clusters.size(), jobs});
  };

  {
    core::P3CPipeline pipeline{core::P3CParams{}};
    score("P3C+ (serial)", pipeline.Cluster(data.dataset).value(), 0);
  }
  {
    mr::P3CMROptions options;
    options.params.outlier = core::OutlierMode::kNaive;
    mr::P3CMR algo{options};
    auto result = algo.Cluster(data.dataset).value();
    score("P3C+-MR (naive)", result, algo.metrics().num_jobs());
  }
  {
    mr::P3CMROptions options;  // MVB by default
    mr::P3CMR algo{options};
    auto result = algo.Cluster(data.dataset).value();
    score("P3C+-MR (MVB)", result, algo.metrics().num_jobs());
    std::printf("\nP3C+-MR (MVB) job log:\n%s\n",
                algo.metrics().ToString().c_str());
  }
  {
    mr::P3CMROptions options;
    options.params.light = true;
    mr::P3CMR algo{options};
    auto result = algo.Cluster(data.dataset).value();
    score("P3C+-MR-Light", result, algo.metrics().num_jobs());
  }
  {
    bow::BoWOptions options;
    options.variant = bow::PluginVariant::kLight;
    options.samples_per_reducer = n / 4;
    bow::BoW algo{options};
    score("BoW (Light)", algo.Cluster(data.dataset).value(), 0);
  }
  {
    bow::BoWOptions options;
    options.variant = bow::PluginVariant::kMVB;
    options.samples_per_reducer = n / 4;
    bow::BoW algo{options};
    score("BoW (MVB)", algo.Cluster(data.dataset).value(), 0);
  }
  return 0;
}
