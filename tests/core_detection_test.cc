// Tests of cluster-core generation (Algorithm 1), the proving rules of
// Definition 5, the effect-size gate and the redundancy filter — built on
// synthetic support counters so each rule is exercised in isolation.

#include "src/core/core_detection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "src/common/random.h"
#include "src/common/threadpool.h"
#include "src/core/relevant_intervals.h"
#include "src/core/rssc.h"
#include "src/core/support_counter.h"
#include "src/data/generator.h"
#include "src/stats/effect_size.h"
#include "src/stats/histogram.h"
#include "src/stats/poisson.h"

namespace p3c::core {
namespace {

Interval I(size_t attr, double lo, double hi) { return Interval{attr, lo, hi}; }

/// Support counter backed by real data.
SupportCountFn DataCounter(const data::Dataset& dataset) {
  return [&dataset](const std::vector<Signature>& sigs) {
    return CountSupports(dataset, sigs, nullptr);
  };
}

/// Generates a planted two-cluster dataset and its relevant intervals.
struct Planted {
  data::SyntheticData data;
  std::vector<Interval> intervals;
};

Planted MakePlanted(uint64_t seed) {
  data::GeneratorConfig config;
  config.num_points = 4000;
  config.num_dims = 30;
  config.num_clusters = 2;
  config.noise_fraction = 0.10;
  config.min_cluster_dims = 3;
  config.max_cluster_dims = 4;
  config.force_overlap = false;
  config.seed = seed;
  Planted planted;
  planted.data = data::GenerateSynthetic(config).value();
  // Ground-truth intervals as the candidate pool (isolates core detection
  // from the histogram step).
  for (const auto& cluster : planted.data.clusters) {
    for (size_t j = 0; j < cluster.relevant_attrs.size(); ++j) {
      planted.intervals.push_back(I(cluster.relevant_attrs[j],
                                    cluster.intervals[j].first,
                                    cluster.intervals[j].second));
    }
  }
  return planted;
}

TEST(CoreDetectionTest, RecoversPlantedSubspaces) {
  const Planted planted = MakePlanted(3);
  P3CParams params;
  const auto result =
      GenerateClusterCores(planted.intervals, planted.data.dataset.num_points(),
                           params, DataCounter(planted.data.dataset), nullptr);
  ASSERT_EQ(result.cores.size(), 2u);
  // Each core's attrs must equal one hidden cluster's attrs.
  for (const auto& core : result.cores) {
    bool matched = false;
    for (const auto& cluster : planted.data.clusters) {
      if (core.signature.attrs() == cluster.relevant_attrs) matched = true;
    }
    EXPECT_TRUE(matched) << core.signature.ToString();
  }
}

TEST(CoreDetectionTest, EmptyIntervalsYieldNothing) {
  P3CParams params;
  int calls = 0;
  SupportCountFn counter = [&calls](const std::vector<Signature>& sigs) {
    ++calls;
    return std::vector<uint64_t>(sigs.size(), 0);
  };
  const auto result = GenerateClusterCores({}, 1000, params, counter, nullptr);
  EXPECT_TRUE(result.cores.empty());
  EXPECT_EQ(calls, 0);
}

TEST(CoreDetectionTest, UniformDataYieldsNoCores) {
  // Wide intervals over uniform data have no significant support excess.
  data::GeneratorConfig config;
  config.num_points = 5000;
  config.num_dims = 5;
  config.num_clusters = 1;
  config.noise_fraction = 0.0;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 2;
  config.seed = 4;
  auto data = data::GenerateSynthetic(config).value();
  // Overwrite with pure uniform noise.
  Rng rng(99);
  for (size_t i = 0; i < data.dataset.num_points(); ++i) {
    for (size_t j = 0; j < data.dataset.num_dims(); ++j) {
      data.dataset.Set(static_cast<data::PointId>(i), j, rng.Uniform());
    }
  }
  const std::vector<Interval> intervals = {I(0, 0.1, 0.3), I(1, 0.4, 0.6),
                                           I(2, 0.2, 0.5)};
  P3CParams params;
  const auto result = GenerateClusterCores(
      intervals, data.dataset.num_points(), params, DataCounter(data.dataset),
      nullptr);
  EXPECT_TRUE(result.cores.empty());
}

TEST(CoreDetectionTest, EffectSizeGateSuppressesWeakDeviations) {
  // Synthetic counter: the pair {a0, a1} has support 1.2x expectation —
  // hugely significant at n = 1e6 (Poisson) but below theta_cc = 0.35.
  const std::vector<Interval> intervals = {I(0, 0.0, 0.5), I(1, 0.0, 0.5)};
  const uint64_t n = 1000000;
  SupportCountFn counter2 = [n](const std::vector<Signature>& sigs) {
    std::vector<uint64_t> counts;
    for (const Signature& s : sigs) {
      if (s.size() == 1) {
        // 1-signature support: 0.75 n on half the space (1.5x expected,
        // passes both tests).
        counts.push_back(3 * n / 4);
      } else {
        // Pair support: expected = Supp(single) * 0.5 = 0.375 n;
        // observed 1.2x that = 0.45 n. Significant, weak effect.
        counts.push_back(static_cast<uint64_t>(0.45 * n));
      }
    }
    return counts;
  };

  P3CParams poisson_only;
  poisson_only.proving = ProvingMode::kPoisson;
  poisson_only.redundancy_filter = false;
  const auto with_poisson =
      GenerateClusterCores(intervals, n, poisson_only, counter2, nullptr);
  // Poisson alone accepts the weak pair (power pathology, §4.1.2).
  ASSERT_EQ(with_poisson.cores.size(), 1u);
  EXPECT_EQ(with_poisson.cores[0].signature.size(), 2u);

  P3CParams combined;
  combined.proving = ProvingMode::kPoissonAndEffectSize;
  combined.redundancy_filter = false;
  const auto with_effect =
      GenerateClusterCores(intervals, n, combined, counter2, nullptr);
  // The combined test rejects it; the (strong) singles remain as maximal
  // proven signatures.
  ASSERT_EQ(with_effect.cores.size(), 2u);
  for (const auto& core : with_effect.cores) {
    EXPECT_EQ(core.signature.size(), 1u);
  }
}

TEST(CoreDetectionTest, RedundancyFilterRemovesIntersectionSignature) {
  // The paper's Figure 2 example: clusters in {a1,a3} and {a1,a2}; the
  // intersection region produces a third signature in {a2,a3} with a much
  // lower interest ratio.
  const Interval ia1 = I(1, 0.4, 0.5);
  const Interval ia2 = I(2, 0.4, 0.5);
  const Interval ia3 = I(3, 0.4, 0.5);
  const uint64_t n = 10000;
  SupportCountFn counter = [](const std::vector<Signature>& sigs) {
    std::vector<uint64_t> counts;
    for (const Signature& s : sigs) {
      const auto attrs = s.attrs();
      if (s.size() == 1) {
        counts.push_back(1500);
      } else if (s.size() == 2) {
        if (attrs == std::vector<size_t>{1, 3} ||
            attrs == std::vector<size_t>{1, 2}) {
          counts.push_back(1000);  // real clusters
        } else {
          // The intersection artifact {a2,a3}: passes Poisson AND the
          // effect-size gate (250 vs 150 expected, d_cc = 0.67) yet has a
          // far lower interest ratio than the real clusters.
          counts.push_back(250);
        }
      } else {
        counts.push_back(0);  // no triple survives
      }
    }
    return counts;
  };
  P3CParams params;  // redundancy filter on
  const auto filtered =
      GenerateClusterCores({ia1, ia2, ia3}, n, params, counter, nullptr);
  EXPECT_EQ(filtered.stats.num_maximal, 3u);
  ASSERT_EQ(filtered.cores.size(), 2u);
  for (const auto& core : filtered.cores) {
    EXPECT_NE(core.signature.attrs(), (std::vector<size_t>{2, 3}));
  }

  P3CParams no_filter = params;
  no_filter.redundancy_filter = false;
  const auto unfiltered =
      GenerateClusterCores({ia1, ia2, ia3}, n, no_filter, counter, nullptr);
  EXPECT_EQ(unfiltered.cores.size(), 3u);
}

TEST(CoreDetectionTest, MultilevelMatchesPerLevelResults) {
  const Planted planted = MakePlanted(7);
  P3CParams per_level;
  per_level.multilevel_candidates = false;
  P3CParams multilevel;
  multilevel.multilevel_candidates = true;
  multilevel.t_c = 5;  // force early batch cuts

  const auto a = GenerateClusterCores(
      planted.intervals, planted.data.dataset.num_points(), per_level,
      DataCounter(planted.data.dataset), nullptr);
  const auto b = GenerateClusterCores(
      planted.intervals, planted.data.dataset.num_points(), multilevel,
      DataCounter(planted.data.dataset), nullptr);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (size_t i = 0; i < a.cores.size(); ++i) {
    EXPECT_EQ(a.cores[i].signature, b.cores[i].signature);
    EXPECT_EQ(a.cores[i].support, b.cores[i].support);
  }
  // Multilevel spends fewer proving rounds ("MR jobs").
  EXPECT_LE(b.stats.num_support_batches, a.stats.num_support_batches);
}

TEST(CoreDetectionTest, StatsAreCoherent) {
  const Planted planted = MakePlanted(5);
  P3CParams params;
  const auto result = GenerateClusterCores(
      planted.intervals, planted.data.dataset.num_points(), params,
      DataCounter(planted.data.dataset), nullptr);
  const auto& s = result.stats;
  EXPECT_GE(s.num_candidates_generated, planted.intervals.size());
  EXPECT_GE(s.num_signatures_counted, s.num_proven);
  EXPECT_GE(s.num_maximal, s.num_after_redundancy);
  EXPECT_EQ(result.cores.size(), s.num_after_redundancy);
  EXPECT_GE(s.num_support_batches, 1u);
  EXPECT_GE(s.num_levels, 2u);
}

// ---- Oracle: maximality against its O(P^2) definition ----------------
//
// A synthetic counter makes exactly the sub-signatures of a few random
// "target" signatures proven: a sub-signature of a target has support
// n * prod(4 w) (4x its expectation from every (p-1)-subset), anything
// else has its expected support (1-signatures) or none. The proven set
// is then the downward closure of the targets, and the maximal cores
// must be exactly its members without a proven strict superset.

bool IsSubset(const Signature& small, const Signature& big) {
  const std::vector<Interval>& a = small.intervals();
  const std::vector<Interval>& b = big.intervals();
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

TEST(CoreDetectionOracleTest, MaximalityMatchesQuadraticDefinition) {
  const uint64_t n = 1000000;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed + 77);
    // 6 attributes with 2 intervals of width 0.2 each.
    std::vector<Interval> pool;
    for (size_t a = 0; a < 6; ++a) {
      pool.push_back(I(a, 0.1, 0.3));
      pool.push_back(I(a, 0.5, 0.7));
    }
    std::vector<Signature> targets;
    const size_t num_targets = 1 + rng.UniformInt(5);
    for (size_t t = 0; t < num_targets; ++t) {
      std::vector<size_t> attrs = {0, 1, 2, 3, 4, 5};
      rng.Shuffle(attrs);
      std::vector<Interval> intervals;
      const size_t size = 1 + rng.UniformInt(6);
      for (size_t k = 0; k < size; ++k) {
        intervals.push_back(pool[2 * attrs[k] + rng.UniformInt(2)]);
      }
      targets.push_back(Signature::Make(std::move(intervals)).value());
    }

    // Expected proven set: every non-empty sub-signature of a target.
    std::set<Signature> proven;
    for (const Signature& t : targets) {
      for (uint32_t mask = 1; mask < (1u << t.size()); ++mask) {
        std::vector<Interval> sub;
        for (size_t k = 0; k < t.size(); ++k) {
          if ((mask >> k) & 1u) sub.push_back(t.intervals()[k]);
        }
        proven.insert(Signature::Make(std::move(sub)).value());
      }
    }
    std::vector<Signature> expected_maximal;
    for (const Signature& s : proven) {
      bool maximal = true;
      for (const Signature& t : proven) {
        if (t.size() > s.size() && IsSubset(s, t)) maximal = false;
      }
      if (maximal) expected_maximal.push_back(s);
    }

    const SupportCountFn counter = [&](const std::vector<Signature>& sigs) {
      std::vector<uint64_t> counts;
      for (const Signature& s : sigs) {
        if (proven.count(s) != 0) {
          counts.push_back(static_cast<uint64_t>(
              static_cast<double>(n) * std::pow(0.8, s.size())));
        } else if (s.size() == 1) {
          counts.push_back(static_cast<uint64_t>(
              static_cast<double>(n) * s.VolumeFraction()));
        } else {
          counts.push_back(0);
        }
      }
      return counts;
    };
    P3CParams params;
    params.redundancy_filter = false;
    const auto result = GenerateClusterCores(pool, n, params, counter, nullptr);
    EXPECT_EQ(result.stats.num_proven, proven.size()) << "seed " << seed;
    std::vector<Signature> got;
    for (const ClusterCore& core : result.cores) got.push_back(core.signature);
    EXPECT_EQ(got, expected_maximal) << "seed " << seed;
  }
}

TEST(CoreDetectionTest, SameAttrOtherBoundsIsNoSuperset) {
  // {a0:[0.1,0.3], a1} is not a subset of {a0:[0.5,0.7], a1, a2}: an
  // interval on the same attribute with other bounds is another interval.
  const Interval a0 = I(0, 0.1, 0.3);
  const Interval a0_other = I(0, 0.5, 0.7);
  const Interval a1 = I(1, 0.1, 0.3);
  const Interval a2 = I(2, 0.1, 0.3);
  const std::set<Signature> proven = {
      Signature::Single(a0),
      Signature::Single(a0_other),
      Signature::Single(a1),
      Signature::Single(a2),
      Signature::Make({a0, a1}).value(),
      Signature::Make({a0_other, a1}).value(),
      Signature::Make({a0_other, a2}).value(),
      Signature::Make({a1, a2}).value(),
      Signature::Make({a0_other, a1, a2}).value(),
  };
  const uint64_t n = 1000000;
  const SupportCountFn counter = [&](const std::vector<Signature>& sigs) {
    std::vector<uint64_t> counts;
    for (const Signature& s : sigs) {
      counts.push_back(
          proven.count(s) != 0
              ? static_cast<uint64_t>(static_cast<double>(n) *
                                      std::pow(0.8, s.size()))
              : 0);
    }
    return counts;
  };
  P3CParams params;
  params.redundancy_filter = false;
  const auto result =
      GenerateClusterCores({a0, a0_other, a1, a2}, n, params, counter, nullptr);
  ASSERT_EQ(result.cores.size(), 2u);
  EXPECT_EQ(result.cores[0].signature, Signature::Make({a0, a1}).value());
  EXPECT_EQ(result.cores[1].signature,
            Signature::Make({a0_other, a1, a2}).value());
}

// ---- Oracle: the proven set against Definition 5 ---------------------
//
// Brute force on small inputs: every signature the relevant intervals
// form (distinct attributes) is counted by CountSupportsNaive and proven
// by Definition 5 directly, smaller signatures first. GenerateClusterCores
// must prove as many signatures and return the same maximal cores with
// the same supports, however its batches are cut and pruned. Both proven
// sets are downward closed, so equal maximal cores mean equal proven
// sets; the count checks that again.

struct Definition5 {
  size_t num_proven = 0;
  std::vector<ClusterCore> maximal;  // sorted by signature
};

Definition5 ProveByDefinition5(const data::Dataset& dataset,
                               const std::vector<Interval>& intervals,
                               const P3CParams& params) {
  std::vector<Signature> all;
  for (uint32_t mask = 1; mask < (1u << intervals.size()); ++mask) {
    std::vector<Interval> members;
    std::set<size_t> attrs;
    for (size_t k = 0; k < intervals.size(); ++k) {
      if ((mask >> k) & 1u) {
        members.push_back(intervals[k]);
        attrs.insert(intervals[k].attr);
      }
    }
    if (attrs.size() == members.size()) {
      all.push_back(Signature::Make(std::move(members)).value());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Signature& a, const Signature& b) {
                     return a.size() < b.size();
                   });
  const std::vector<uint64_t> counts =
      CountSupportsNaive(dataset, all, nullptr);
  std::map<Signature, uint64_t> support;
  for (size_t i = 0; i < all.size(); ++i) support[all[i]] = counts[i];

  const double n = static_cast<double>(dataset.num_points());
  const double log_alpha = std::log(params.alpha_poisson);
  std::set<Signature> proven;
  for (const Signature& s : all) {
    const double observed = static_cast<double>(support[s]);
    bool ok = true;
    for (size_t i = 0; i < s.size() && ok; ++i) {
      const Interval& interval = s.intervals()[i];
      double expected = n * interval.width();
      if (s.size() > 1) {
        std::vector<Interval> rest = s.intervals();
        rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
        const Signature sub = Signature::Make(std::move(rest)).value();
        ok = proven.count(sub) != 0;
        expected = static_cast<double>(support[sub]) * interval.width();
      }
      ok = ok &&
           stats::PoissonSignificantlyLargerLog(observed, expected,
                                                log_alpha) &&
           (params.proving != ProvingMode::kPoissonAndEffectSize ||
            stats::EffectSizeLargeEnough(observed, expected,
                                         params.theta_cc));
    }
    if (ok) proven.insert(s);
  }

  Definition5 oracle;
  oracle.num_proven = proven.size();
  for (const Signature& s : proven) {
    bool maximal = true;
    for (const Signature& t : proven) {
      if (t.size() > s.size() && IsSubset(s, t)) maximal = false;
    }
    if (!maximal) continue;
    ClusterCore core;
    core.signature = s;
    core.support = support[s];
    oracle.maximal.push_back(std::move(core));
  }
  return oracle;
}

void ExpectMatchesDefinition5(const CoreDetectionResult& result,
                              const Definition5& oracle,
                              const std::string& where) {
  EXPECT_FALSE(result.stats.truncated) << where;
  EXPECT_EQ(result.stats.num_proven, oracle.num_proven) << where;
  ASSERT_EQ(result.cores.size(), oracle.maximal.size()) << where;
  for (size_t c = 0; c < result.cores.size(); ++c) {
    EXPECT_EQ(result.cores[c].signature, oracle.maximal[c].signature)
        << where;
    EXPECT_EQ(result.cores[c].support, oracle.maximal[c].support) << where;
  }
}

TEST(CoreDetectionOracleTest, ProvenSetMatchesDefinition5) {
  ThreadPool four(4);
  const auto counter = [](const data::Dataset& dataset) -> SupportCountFn {
    return [&dataset](const std::vector<Signature>& sigs) {
      return CountSupportsNaive(dataset, sigs, nullptr);
    };
  };
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    data::GeneratorConfig config;
    config.num_points = 2000;
    config.num_dims = 10;
    config.num_clusters = 3;
    config.noise_fraction = 0.15;
    config.min_cluster_dims = 4;
    config.max_cluster_dims = 8;
    config.seed = seed;
    const data::SyntheticData data = data::GenerateSynthetic(config).value();
    const data::Dataset& dataset = data.dataset;
    P3CParams defaults;
    defaults.redundancy_filter = false;
    std::vector<stats::Histogram> hists(
        dataset.num_dims(),
        stats::Histogram(static_cast<size_t>(
            stats::NumBins(defaults.binning, dataset.num_points()))));
    for (size_t i = 0; i < dataset.num_points(); ++i) {
      const auto row = dataset.Row(static_cast<data::PointId>(i));
      for (size_t j = 0; j < dataset.num_dims(); ++j) hists[j].Add(row[j]);
    }
    const std::vector<Interval> intervals =
        FindAllRelevantIntervals(hists, defaults.alpha_chi2);
    ASSERT_LE(intervals.size(), 20u) << "seed " << seed;
    const Definition5 oracle =
        ProveByDefinition5(dataset, intervals, defaults);
    EXPECT_GT(oracle.maximal.size(), 0u) << "seed " << seed;

    // t_c 0 stands for multi-level collection off.
    for (const size_t t_c : {size_t{0}, size_t{1}, size_t{300},
                             size_t{30000}}) {
      P3CParams params = defaults;
      params.multilevel_candidates = t_c != 0;
      params.t_c = t_c;
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
        const std::string where =
            "seed " + std::to_string(seed) + " t_c " + std::to_string(t_c) +
            (pool == nullptr ? " serial" : " pool");
        const CoreDetectionResult result = GenerateClusterCores(
            intervals, dataset.num_points(), params, counter(dataset), pool);
        ExpectMatchesDefinition5(result, oracle, where);
      }
    }
  }

  // A batch pruned whole: {a, b} and {a, c} are proven and join into
  // {a, b, c}, whose sub-row {b, c} the level-2 batch left unproven. The
  // third batch has nothing to count and proves nothing.
  const Interval a = I(0, 0.0, 0.1);
  const Interval b = I(1, 0.0, 0.1);
  const Interval c = I(2, 0.0, 0.1);
  Rng rng(5);
  data::Dataset dataset(1000, 3);
  for (size_t i = 0; i < dataset.num_points(); ++i) {
    const auto id = static_cast<data::PointId>(i);
    // 200 points in {a, b}, 200 in {a, c}, the rest outside a, b and c.
    for (size_t j = 0; j < 3; ++j) {
      dataset.Set(id, j, 0.2 + 0.8 * rng.Uniform());
    }
    if (i < 400) {
      dataset.Set(id, 0, 0.1 * rng.Uniform());
      dataset.Set(id, i < 200 ? 1 : 2, 0.1 * rng.Uniform());
    }
  }
  P3CParams params;
  params.redundancy_filter = false;
  const Definition5 oracle = ProveByDefinition5(dataset, {a, b, c}, params);
  ASSERT_EQ(oracle.maximal.size(), 2u);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    const std::string where = pool == nullptr ? "serial" : "pool";
    size_t calls = 0;
    const SupportCountFn count_calls =
        [&](const std::vector<Signature>& sigs) {
          ++calls;
          return CountSupportsNaive(dataset, sigs, nullptr);
        };
    const CoreDetectionResult result = GenerateClusterCores(
        {a, b, c}, dataset.num_points(), params, count_calls, pool);
    ExpectMatchesDefinition5(result, oracle, where);
    EXPECT_EQ(result.stats.num_support_batches, 3u) << where;
    EXPECT_EQ(calls, 2u) << where;
    EXPECT_EQ(result.stats.num_signatures_counted, 6u) << where;
    EXPECT_EQ(result.stats.num_proven, 5u) << where;
  }
}

TEST(FilterRedundantTest, EmptyAndSingle) {
  EXPECT_TRUE(FilterRedundant({}).empty());
  ClusterCore core;
  core.signature = Signature::Single(I(0, 0.1, 0.2));
  core.support = 100;
  core.expected_support = 10.0;
  EXPECT_EQ(FilterRedundant({core}).size(), 1u);
}

TEST(FilterRedundantTest, CoverRequiresIdenticalIntervals) {
  // The better core's intervals cover {a0, a1} only if they are the same
  // intervals: an interval on a0 with other bounds does not cover a0.
  const Interval a0 = I(0, 0.1, 0.2);
  const Interval a1 = I(1, 0.1, 0.2);
  ClusterCore better;
  better.signature = Signature::Make({I(0, 0.1, 0.25), a1}).value();
  better.support = 1000;
  better.expected_support = 10.0;
  ClusterCore worse;
  worse.signature = Signature::Make({a0, a1}).value();
  worse.support = 100;
  worse.expected_support = 10.0;
  EXPECT_EQ(FilterRedundant({better, worse}).size(), 2u);

  // With an identical interval on a0 among the better cores it is covered.
  ClusterCore cover;
  cover.signature = Signature::Make({a0, I(2, 0.5, 0.6)}).value();
  cover.support = 1000;
  cover.expected_support = 10.0;
  const auto kept = FilterRedundant({better, worse, cover});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].signature, better.signature);
  EXPECT_EQ(kept[1].signature, cover.signature);
}

TEST(FilterRedundantTest, EqualRatiosDoNotEliminateEachOther) {
  // Two cores composed of each other's intervals but with equal ratios:
  // Eq. 6 is strict, so neither is redundant.
  const Interval a = I(0, 0.1, 0.2);
  const Interval b = I(1, 0.1, 0.2);
  ClusterCore c1;
  c1.signature = Signature::Make({a, b}).value();
  c1.support = 100;
  c1.expected_support = 10.0;
  ClusterCore c2 = c1;
  EXPECT_EQ(FilterRedundant({c1, c2}).size(), 2u);
}

// ---- Lattice stress: full-dimensional boxes plus uniform noise -------
//
// Every cluster is a box over all attributes, so every subset of a
// cluster's intervals is a proven signature and the A-priori lattice
// grows as 2^d per cluster: the worst case for candidate generation. The
// small caps below stop the expansion early; the cores and stats are
// pinned so that a change to the join, the closure or the maximality
// pass cannot silently change what a truncated run reports.

struct StressRun {
  CoreDetectionResult result;
  size_t num_intervals = 0;
};

/// The lattice stress data and its relevant intervals.
struct StressInput {
  data::SyntheticData data;
  std::vector<Interval> intervals;
};

/// Clusters that are boxes over all `num_dims` attributes.
StressInput MakeStressInput(const P3CParams& params, size_t num_dims = 10) {
  data::GeneratorConfig config;
  config.num_points = 3000;
  config.num_dims = num_dims;
  config.num_clusters = 3;
  config.noise_fraction = 0.20;
  config.min_cluster_dims = config.num_dims;
  config.max_cluster_dims = config.num_dims;
  config.seed = 17;
  StressInput input;
  input.data = data::GenerateSynthetic(config).value();
  const data::Dataset& dataset = input.data.dataset;

  const size_t bins = static_cast<size_t>(
      stats::NumBins(params.binning, dataset.num_points()));
  std::vector<stats::Histogram> hists(dataset.num_dims(),
                                      stats::Histogram(bins));
  for (size_t i = 0; i < dataset.num_points(); ++i) {
    const auto row = dataset.Row(static_cast<data::PointId>(i));
    for (size_t j = 0; j < dataset.num_dims(); ++j) hists[j].Add(row[j]);
  }
  input.intervals = FindAllRelevantIntervals(hists, params.alpha_chi2);
  return input;
}

StressRun RunLatticeStress(const P3CParams& params) {
  const StressInput input = MakeStressInput(params);
  const data::Dataset& dataset = input.data.dataset;
  StressRun run;
  run.num_intervals = input.intervals.size();
  ThreadPool pool(2);
  run.result = GenerateClusterCores(
      input.intervals, dataset.num_points(), params,
      [&](const std::vector<Signature>& sigs) {
        return CountSupports(dataset, sigs, &pool);
      },
      &pool);
  return run;
}

std::string Describe(const StressRun& run) {
  const CoreDetectionStats& s = run.result.stats;
  std::string out = "intervals=" + std::to_string(run.num_intervals) +
                    " levels=" + std::to_string(s.num_levels) +
                    " generated=" + std::to_string(s.num_candidates_generated) +
                    " counted=" + std::to_string(s.num_signatures_counted) +
                    " proven=" + std::to_string(s.num_proven) +
                    " batches=" + std::to_string(s.num_support_batches) +
                    " maximal=" + std::to_string(s.num_maximal) +
                    " after_redundancy=" +
                    std::to_string(s.num_after_redundancy) +
                    " truncated=" + std::to_string(s.truncated) + "\n";
  for (const ClusterCore& core : run.result.cores) {
    out += core.signature.ToString() + " " + std::to_string(core.support) +
           "\n";
  }
  return out;
}

TEST(LatticeStressTest, FullLatticeMatchesPinnedCores) {
  const StressRun run = RunLatticeStress(P3CParams{});
  EXPECT_FALSE(run.result.stats.truncated);
  EXPECT_EQ(Describe(run),
            "intervals=16 levels=10 generated=2737 counted=1473 proven=1455 "
            "batches=10 maximal=5 after_redundancy=4 truncated=0\n"
            "{a0:[0.333333,0.533333], a1:[0.533333,0.733333], "
            "a2:[0.533333,0.866667], a3:[0,0.533333], "
            "a4:[0.333333,0.866667], a5:[0,0.333333], "
            "a7:[0.266667,0.866667], a8:[0.466667,0.933333], "
            "a9:[0.6,0.933333]} 755\n"
            "{a0:[0.333333,0.533333], a1:[0.533333,0.733333], "
            "a3:[0,0.533333], a4:[0.333333,0.866667], a5:[0,0.333333], "
            "a6:[0.466667,0.866667], a7:[0.266667,0.866667], "
            "a8:[0.466667,0.933333], a9:[0.6,0.933333]} 758\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a2:[0.0666667,0.266667], "
            "a3:[0,0.533333], a4:[0.333333,0.866667], a5:[0,0.333333], "
            "a7:[0.266667,0.866667], a8:[0.466667,0.933333], "
            "a9:[0.6,0.933333]} 774\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a2:[0.533333,0.866667], "
            "a3:[0,0.533333], a4:[0.333333,0.866667], "
            "a7:[0.266667,0.866667], a8:[0.466667,0.933333], a9:[0.2,0.4]} "
            "798\n");
}

TEST(LatticeStressTest, CandidateCapTruncatesToPinnedCores) {
  P3CParams params;
  params.max_candidates_per_level = 400;
  const StressRun run = RunLatticeStress(params);
  EXPECT_TRUE(run.result.stats.truncated);
  EXPECT_EQ(Describe(run),
            "intervals=16 levels=3 generated=985 counted=319 proven=301 "
            "batches=3 maximal=212 after_redundancy=10 truncated=1\n"
            "{a0:[0.333333,0.533333], a1:[0.533333,0.733333], "
            "a5:[0,0.333333]} 787\n"
            "{a0:[0.333333,0.533333], a1:[0.533333,0.733333], "
            "a6:[0.466667,0.866667]} 786\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a3:[0,0.533333]} 1594\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a4:[0.333333,0.866667]} "
            "1591\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a7:[0.266667,0.866667]} "
            "1594\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a8:[0.466667,0.933333]} "
            "1588\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a9:[0.2,0.4]} 803\n"
            "{a0:[0.866667,1], a2:[0.0666667,0.266667], a5:[0,0.333333]} "
            "775\n"
            "{a0:[0.866667,1], a2:[0.0666667,0.266667], a9:[0.6,0.933333]} "
            "777\n"
            "{a0:[0.866667,1], a2:[0.533333,0.866667], a9:[0.2,0.4]} 805\n");
}

TEST(LatticeStressTest, JoinPairCapTruncatesToPinnedCores) {
  P3CParams params;
  params.max_join_pairs = 20000;
  params.multilevel_candidates = true;
  params.t_c = 300;
  const StressRun run = RunLatticeStress(params);
  EXPECT_TRUE(run.result.stats.truncated);
  EXPECT_EQ(Describe(run),
            "intervals=16 levels=3 generated=606 counted=606 proven=301 "
            "batches=1 maximal=212 after_redundancy=10 truncated=1\n"
            "{a0:[0.333333,0.533333], a1:[0.533333,0.733333], "
            "a5:[0,0.333333]} 787\n"
            "{a0:[0.333333,0.533333], a1:[0.533333,0.733333], "
            "a6:[0.466667,0.866667]} 786\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a3:[0,0.533333]} 1594\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a4:[0.333333,0.866667]} "
            "1591\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a7:[0.266667,0.866667]} "
            "1594\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a8:[0.466667,0.933333]} "
            "1588\n"
            "{a0:[0.866667,1], a1:[0.0666667,0.4], a9:[0.2,0.4]} 803\n"
            "{a0:[0.866667,1], a2:[0.0666667,0.266667], a5:[0,0.333333]} "
            "775\n"
            "{a0:[0.866667,1], a2:[0.0666667,0.266667], a9:[0.6,0.933333]} "
            "777\n"
            "{a0:[0.866667,1], a2:[0.533333,0.866667], a9:[0.2,0.4]} 805\n");
}

// ---- Interval-id counter and the Signature adapter --------------------
//
// The same detection through a counter of interval-id rows (an Rssc built
// from the rows) and through a Signature counter (CountSupports): the
// cores, the stats and every batch handed to the counter must be equal,
// serially and with the proving rounds on a pool.

/// One detection run and the batches its counter was handed.
struct CountedRun {
  CoreDetectionResult result;
  std::vector<std::vector<Signature>> batches;
};

CountedRun RunThroughIds(const StressInput& input, const P3CParams& params,
                         ThreadPool* pool) {
  const data::Dataset& dataset = input.data.dataset;
  CountedRun run;
  const IdSupportCountFn counter = [&](const IntervalTable& table,
                                       const IntervalRows& rows) {
    std::vector<Signature>& batch = run.batches.emplace_back();
    for (size_t r = 0; r < rows.size(); ++r) {
      batch.push_back(table.ToSignature(rows.row(r)));
    }
    const Rssc rssc(table, rows);
    std::vector<uint64_t> supports(rows.size(), 0);
    Rssc::Counter count(rssc, supports);
    count.Add(dataset.values().data(), dataset.num_points(),
              dataset.num_dims());
    count.Finish();
    return supports;
  };
  run.result = GenerateClusterCores(input.intervals, dataset.num_points(),
                                    params, counter, pool);
  return run;
}

CountedRun RunThroughSignatures(const StressInput& input,
                                const P3CParams& params, ThreadPool* pool) {
  const data::Dataset& dataset = input.data.dataset;
  CountedRun run;
  const SupportCountFn counter = [&](const std::vector<Signature>& sigs) {
    run.batches.push_back(sigs);
    return CountSupports(dataset, sigs, nullptr);
  };
  run.result = GenerateClusterCores(input.intervals, dataset.num_points(),
                                    params, counter, pool);
  return run;
}

void ExpectSameRun(const CountedRun& a, const CountedRun& b,
                   const std::string& where) {
  const CoreDetectionStats& s = a.result.stats;
  const CoreDetectionStats& t = b.result.stats;
  EXPECT_EQ(s.num_levels, t.num_levels) << where;
  EXPECT_EQ(s.num_candidates_generated, t.num_candidates_generated) << where;
  EXPECT_EQ(s.num_signatures_counted, t.num_signatures_counted) << where;
  EXPECT_EQ(s.num_proven, t.num_proven) << where;
  EXPECT_EQ(s.num_support_batches, t.num_support_batches) << where;
  EXPECT_EQ(s.num_maximal, t.num_maximal) << where;
  EXPECT_EQ(s.truncated, t.truncated) << where;
  EXPECT_EQ(s.num_after_redundancy, t.num_after_redundancy) << where;
  ASSERT_EQ(a.result.cores.size(), b.result.cores.size()) << where;
  for (size_t c = 0; c < a.result.cores.size(); ++c) {
    EXPECT_EQ(a.result.cores[c].signature, b.result.cores[c].signature)
        << where;
    EXPECT_EQ(a.result.cores[c].support, b.result.cores[c].support) << where;
    EXPECT_EQ(a.result.cores[c].expected_support,
              b.result.cores[c].expected_support)
        << where;
  }
  EXPECT_EQ(a.batches, b.batches) << where;
}

TEST(CoreDetectionTest, IdCounterMatchesSignatureAdapter) {
  // 12 attributes: on 10, the a-priori prune leaves no batch with a
  // counted level above the grain.
  const StressInput input = MakeStressInput(P3CParams{}, 12);
  ThreadPool one(1);
  ThreadPool four(4);
  for (bool multilevel : {false, true}) {
    P3CParams params;
    params.multilevel_candidates = multilevel;
    params.t_c = 300;
    const CountedRun reference = RunThroughSignatures(input, params, nullptr);
    // Some batch must hold more new signatures of one size than the
    // parallel-prove grain (512 rows), so that the pools prove a level
    // in parallel. A level's counted rows are among its new rows (the
    // pruned ones are not counted), so a counted level above the grain
    // is a new level above it.
    size_t widest_level = 0;
    for (const std::vector<Signature>& batch : reference.batches) {
      std::vector<size_t> per_size(input.intervals.size() + 1, 0);
      for (const Signature& sig : batch) {
        widest_level = std::max(widest_level, ++per_size[sig.size()]);
      }
    }
    EXPECT_GT(widest_level, 512u) << "multilevel=" << multilevel;
    EXPECT_GT(reference.result.cores.size(), 0u);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
      const std::string where =
          "multilevel=" + std::to_string(multilevel) + " threads=" +
          std::to_string(pool == nullptr ? 0 : pool->num_threads());
      ExpectSameRun(RunThroughIds(input, params, pool), reference, where);
      ExpectSameRun(RunThroughSignatures(input, params, pool), reference,
                    where);
    }
  }
}

// ---- Paper shape: Fig. 5 (§7.4.2) -------------------------------------
//
// bench_fig5_redundancy's 10k-point workload: 5 planted clusters, 20%
// noise, the bench's generator seed. With the redundancy filter both
// proving modes find exactly the planted cores at every threshold;
// without it, at the weakest threshold, the pure Poisson test
// overestimates far more than Poisson + effect size, which itself still
// overestimates.

TEST(PaperShapeTest, Fig5RedundancyFilterRecoversPlantedCores) {
  data::GeneratorConfig config;
  config.num_points = 10000;
  config.num_dims = 50;
  config.num_clusters = 5;
  config.noise_fraction = 0.20;
  // bench::MakeWorkload(10000, 5, 0.20, /*seed=*/51).
  config.seed = 51 * 1000003 + 10000 * 31 + 5 * 7 + 20;
  const data::SyntheticData data = data::GenerateSynthetic(config).value();
  const data::Dataset& dataset = data.dataset;

  P3CParams defaults;
  const size_t bins = static_cast<size_t>(
      stats::NumBins(defaults.binning, dataset.num_points()));
  std::vector<stats::Histogram> hists(dataset.num_dims(),
                                      stats::Histogram(bins));
  for (size_t i = 0; i < dataset.num_points(); ++i) {
    const auto row = dataset.Row(static_cast<data::PointId>(i));
    for (size_t j = 0; j < dataset.num_dims(); ++j) hists[j].Add(row[j]);
  }
  const std::vector<Interval> intervals =
      FindAllRelevantIntervals(hists, defaults.alpha_chi2);

  ThreadPool pool(2);
  const SupportCountFn counter = [&](const std::vector<Signature>& sigs) {
    return CountSupports(dataset, sigs, &pool);
  };
  auto detect = [&](ProvingMode mode, double alpha_poisson) {
    P3CParams params;
    params.proving = mode;
    params.alpha_poisson = alpha_poisson;
    params.redundancy_filter = true;  // both counts are in the stats
    return GenerateClusterCores(intervals, dataset.num_points(), params,
                                counter, &pool)
        .stats;
  };

  for (double exponent : {-140.0, -40.0, -3.0}) {
    const double alpha = std::pow(10.0, exponent);
    const auto poisson = detect(ProvingMode::kPoisson, alpha);
    const auto combined = detect(ProvingMode::kPoissonAndEffectSize, alpha);
    EXPECT_EQ(poisson.num_after_redundancy, 5u) << "alpha 1e" << exponent;
    EXPECT_EQ(combined.num_after_redundancy, 5u) << "alpha 1e" << exponent;
    if (exponent == -3.0) {
      EXPECT_GT(poisson.num_maximal, combined.num_maximal);
      EXPECT_GT(combined.num_maximal, 5u);
    }
  }
}

}  // namespace
}  // namespace p3c::core
