// google-benchmark micro-ablation (§5.3): RSSC bitmap support counting vs
// naive per-signature containment, across candidate-set sizes. The paper
// introduces the RSSC precisely because "a total of 1e5 and more
// candidates is common".

#include <benchmark/benchmark.h>

#include "src/common/random.h"
#include "src/core/rssc.h"
#include "src/core/support_counter.h"
#include "src/data/generator.h"

namespace {

using namespace p3c;

struct Fixture {
  data::Dataset dataset{0, 0};
  std::vector<core::Signature> signatures;

  Fixture(size_t num_points, size_t num_signatures) {
    data::GeneratorConfig config;
    config.num_points = num_points;
    config.num_dims = 50;
    config.num_clusters = 5;
    config.noise_fraction = 0.10;
    config.seed = 1234;
    dataset = data::GenerateSynthetic(config).value().dataset;

    Rng rng(99);
    for (size_t s = 0; s < num_signatures; ++s) {
      std::vector<core::Interval> intervals;
      std::vector<size_t> attrs;
      const size_t num_attrs = 2 + rng.UniformInt(4);
      while (attrs.size() < num_attrs) {
        const size_t a = rng.UniformInt(50);
        if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
          attrs.push_back(a);
        }
      }
      for (size_t a : attrs) {
        // Quantized bounds: distinct interval borders stay few per
        // attribute, as with merged histogram bins.
        const double lo = 0.05 * static_cast<double>(rng.UniformInt(16));
        intervals.push_back({a, lo, lo + 0.15});
      }
      signatures.push_back(
          core::Signature::Make(std::move(intervals)).value());
    }
  }
};

void BM_RsscCounting(benchmark::State& state) {
  const Fixture fx(10000, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto supports = core::CountSupports(fx.dataset, fx.signatures, nullptr);
    benchmark::DoNotOptimize(supports);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.dataset.num_points()));
}

void BM_NaiveCounting(benchmark::State& state) {
  const Fixture fx(10000, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto supports =
        core::CountSupportsNaive(fx.dataset, fx.signatures, nullptr);
    benchmark::DoNotOptimize(supports);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.dataset.num_points()));
}

void BM_RsscConstruction(benchmark::State& state) {
  const Fixture fx(100, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    core::Rssc rssc(fx.signatures);
    benchmark::DoNotOptimize(rssc.num_intervals());
  }
}

}  // namespace

BENCHMARK(BM_RsscCounting)->Arg(100)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NaiveCounting)->Arg(100)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RsscConstruction)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
