// Tests of the Rapid Signature Support Counter, including the property
// that it agrees exactly with naive per-signature containment.

#include "src/core/rssc.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/support_counter.h"
#include "src/data/generator.h"

namespace p3c::core {
namespace {

Signature MakeSig(std::vector<Interval> intervals) {
  return Signature::Make(std::move(intervals)).value();
}

/// Ids of the signatures whose support set holds `point`, through a
/// one-row Members group.
std::vector<uint32_t> MemberIds(const Rssc& rssc, std::vector<double> point) {
  Rssc::Scratch scratch;
  std::vector<uint64_t> words(rssc.num_signatures());
  rssc.Members(point.data(), 1, point.size(), scratch, words);
  std::vector<uint32_t> ids;
  for (size_t j = 0; j < words.size(); ++j) {
    if (words[j] & 1) ids.push_back(static_cast<uint32_t>(j));
  }
  return ids;
}

using Ids = std::vector<uint32_t>;

TEST(RsscTest, SingleSignatureMatch) {
  const std::vector<Signature> sigs = {
      MakeSig({{0, 0.2, 0.4}, {2, 0.6, 0.8}})};
  const Rssc rssc(sigs);
  EXPECT_EQ(MemberIds(rssc, {0.3, 0.0, 0.7}), Ids{0});
  EXPECT_EQ(MemberIds(rssc, {0.5, 0.0, 0.7}), Ids{});
  EXPECT_EQ(MemberIds(rssc, {0.3, 0.0, 0.5}), Ids{});
}

TEST(RsscTest, ClosedBoundariesIncluded) {
  const std::vector<Signature> sigs = {MakeSig({{0, 0.2, 0.4}})};
  const Rssc rssc(sigs);
  for (double x : {0.2, 0.4}) {  // both closed ends
    EXPECT_EQ(MemberIds(rssc, {x}), Ids{0}) << x;
  }
  for (double x : {0.19999999, 0.40000001}) {
    EXPECT_EQ(MemberIds(rssc, {x}), Ids{}) << x;
  }
}

TEST(RsscTest, UnitBoundaries) {
  // Intervals touching 0 and 1 must include those exact values.
  const std::vector<Signature> sigs = {MakeSig({{0, 0.0, 1.0}}),
                                       MakeSig({{0, 0.9, 1.0}})};
  const Rssc rssc(sigs);
  EXPECT_EQ(MemberIds(rssc, {1.0}), (Ids{0, 1}));
  EXPECT_EQ(MemberIds(rssc, {0.0}), Ids{0});
}

TEST(RsscTest, IrrelevantAttributeAlwaysOne) {
  // Figure 3's S2: a signature with no interval on the probed attribute
  // must not be filtered by it.
  const std::vector<Signature> sigs = {MakeSig({{0, 0.2, 0.4}}),
                                       MakeSig({{1, 0.5, 0.6}})};
  const Rssc rssc(sigs);
  EXPECT_EQ(MemberIds(rssc, {0.3, 0.55}), (Ids{0, 1}));
  EXPECT_EQ(MemberIds(rssc, {0.9, 0.55}), Ids{1});  // only the attr-1 one
}

TEST(RsscTest, ManySignaturesAcrossWordBoundary) {
  // 130 signatures, more than one word of them; signature i holds
  // points in [i/130 * 0.9, i/130 * 0.9 + 0.05] on attr 0.
  std::vector<Signature> sigs;
  for (int i = 0; i < 130; ++i) {
    const double lo = 0.9 * i / 130.0;
    sigs.push_back(MakeSig({{0, lo, lo + 0.05}}));
  }
  const Rssc rssc(sigs);
  EXPECT_EQ(rssc.num_intervals(), 130u);
  const double x = 0.9 * 100 / 130.0 + 0.01;
  const Ids ids = MemberIds(rssc, {x});
  // Signature 100 must be among the matches, and every match holds x.
  EXPECT_NE(std::find(ids.begin(), ids.end(), 100u), ids.end());
  for (uint32_t id : ids) {
    EXPECT_TRUE(sigs[id].Contains(std::vector<double>{x}));
  }
}

TEST(RsscTest, MembersSetNoBitPastTheGroup) {
  // Ten rows: a signature without intervals and one holding every row
  // set exactly the ten low bits.
  data::Dataset dataset(10, 1);
  for (size_t i = 0; i < 10; ++i) {
    dataset.Set(static_cast<data::PointId>(i), 0, 0.1 * static_cast<double>(i));
  }
  const std::vector<Signature> sigs = {Signature(), MakeSig({{0, 0.0, 1.0}}),
                                       MakeSig({{0, 0.25, 0.45}})};
  const Rssc rssc(sigs);
  Rssc::Scratch scratch;
  std::vector<uint64_t> words(sigs.size());
  rssc.Members(dataset.values().data(), 10, 1, scratch, words);
  EXPECT_EQ(words, (std::vector<uint64_t>{0x3FF, 0x3FF, 0b11000}));
  // A later group reuses the scratch; bit r is row begin + r.
  rssc.Members(dataset.values().data() + 3, 2, 1, scratch, words);
  EXPECT_EQ(words, (std::vector<uint64_t>{0b11, 0b11, 0b11}));
}

TEST(RsscTest, EmptySignatureMatchesEverything) {
  const std::vector<Signature> sigs = {Signature()};
  const Rssc rssc(sigs);
  EXPECT_EQ(MemberIds(rssc, {0.123}), Ids{0});
}

// Property: RSSC-based counting agrees exactly with naive containment on
// random signatures over generated data, serial and parallel.
class RsscAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RsscAgreementTest, MatchesNaiveCounting) {
  data::GeneratorConfig config;
  config.num_points = 2000;
  config.num_dims = 8;
  config.num_clusters = 2;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 4;
  config.seed = GetParam();
  const auto data = data::GenerateSynthetic(config).value();

  Rng rng(GetParam() * 31 + 7);
  std::vector<Signature> sigs;
  for (int s = 0; s < 40; ++s) {
    std::vector<Interval> intervals;
    const size_t num_attrs = 1 + rng.UniformInt(4);
    std::vector<size_t> attrs;
    while (attrs.size() < num_attrs) {
      const size_t a = rng.UniformInt(8);
      if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
        attrs.push_back(a);
      }
    }
    for (size_t a : attrs) {
      const double lo = rng.Uniform(0.0, 0.8);
      intervals.push_back({a, lo, lo + rng.Uniform(0.05, 0.2)});
    }
    sigs.push_back(MakeSig(std::move(intervals)));
  }

  ThreadPool pool(4);
  const auto fast_serial = CountSupports(data.dataset, sigs, nullptr);
  const auto fast_parallel = CountSupports(data.dataset, sigs, &pool);
  const auto naive = CountSupportsNaive(data.dataset, sigs, nullptr);
  EXPECT_EQ(fast_serial, naive);
  EXPECT_EQ(fast_parallel, naive);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RsscAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SupportCounterTest, EmptySignatureList) {
  data::GeneratorConfig config;
  config.num_points = 100;
  config.num_dims = 4;
  config.num_clusters = 1;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 2;
  const auto data = data::GenerateSynthetic(config).value();
  EXPECT_TRUE(CountSupports(data.dataset, {}, nullptr).empty());
}

TEST(SupportCounterTest, SupportSetsMatchContainment) {
  data::GeneratorConfig config;
  config.num_points = 500;
  config.num_dims = 6;
  config.num_clusters = 2;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 3;
  config.seed = 9;
  const auto data = data::GenerateSynthetic(config).value();
  const std::vector<Signature> sigs = {MakeSig({{0, 0.0, 0.5}}),
                                       MakeSig({{1, 0.25, 0.75}})};
  ThreadPool pool(3);
  const auto sets = ComputeSupportSets(data.dataset, sigs, &pool);
  ASSERT_EQ(sets.size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    // Sorted, and exactly the contained points.
    EXPECT_TRUE(std::is_sorted(sets[s].begin(), sets[s].end()));
    size_t expected = 0;
    for (size_t i = 0; i < data.dataset.num_points(); ++i) {
      if (sigs[s].Contains(data.dataset.Row(static_cast<data::PointId>(i)))) {
        ++expected;
      }
    }
    EXPECT_EQ(sets[s].size(), expected);
    for (data::PointId p : sets[s]) {
      EXPECT_TRUE(sigs[s].Contains(data.dataset.Row(p)));
    }
  }
}

TEST(SupportCounterTest, UniqueAssignmentsSemantics) {
  data::Dataset d(4, 1);
  d.Set(0, 0, 0.1);  // only sig 0
  d.Set(1, 0, 0.45); // both
  d.Set(2, 0, 0.9);  // only sig 1
  d.Set(3, 0, 0.99); // none... wait 0.99 in [0.4,1.0]? adjust below
  const std::vector<Signature> sigs = {MakeSig({{0, 0.0, 0.5}}),
                                       MakeSig({{0, 0.4, 0.95}})};
  const auto assignment = UniqueAssignments(d, sigs, nullptr);
  EXPECT_EQ(assignment[0], 0);
  EXPECT_EQ(assignment[1], -2);  // in both
  EXPECT_EQ(assignment[2], 1);
  EXPECT_EQ(assignment[3], -1);  // in none (0.99 > 0.95)
}

}  // namespace
}  // namespace p3c::core
