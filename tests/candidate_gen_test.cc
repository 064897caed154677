#include "src/core/candidate_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "src/common/random.h"

namespace p3c::core {
namespace {

Interval I(size_t attr, double lo, double hi) { return Interval{attr, lo, hi}; }

std::vector<Signature> Singles(const std::vector<Interval>& intervals) {
  std::vector<Signature> out;
  for (const Interval& i : intervals) out.push_back(Signature::Single(i));
  return out;
}

TEST(CandidateGenTest, PairsFromSingles) {
  const auto singles =
      Singles({I(0, 0, 0.1), I(1, 0.2, 0.3), I(2, 0.4, 0.5)});
  CandidateGenStats stats;
  const auto pairs = GenerateCandidates(singles, nullptr, 1 << 20, &stats);
  EXPECT_EQ(pairs.size(), 3u);  // all attr pairs
  EXPECT_EQ(stats.num_pairs, 3u);
  EXPECT_FALSE(stats.parallel);
  for (const Signature& s : pairs) EXPECT_EQ(s.size(), 2u);
}

TEST(CandidateGenTest, SameAttrSinglesDoNotJoin) {
  const auto singles = Singles({I(0, 0, 0.1), I(0, 0.2, 0.3)});
  const auto pairs = GenerateCandidates(singles, nullptr, 1 << 20);
  EXPECT_TRUE(pairs.empty());
}

TEST(CandidateGenTest, TriplesRequireSharedInterval) {
  const Interval a = I(0, 0, 0.1);
  const Interval b = I(1, 0.2, 0.3);
  const Interval c = I(2, 0.4, 0.5);
  const Interval d = I(3, 0.6, 0.7);
  const std::vector<Signature> level2 = {
      Signature::Make({a, b}).value(),
      Signature::Make({a, c}).value(),
      Signature::Make({b, d}).value(),
  };
  const auto level3 = GenerateCandidates(level2, nullptr, 1 << 20);
  // {a,b} ⋈ {a,c} share a -> {a,b,c}; {a,b} ⋈ {b,d} share b -> {a,b,d};
  // {a,c} ⋈ {b,d} share nothing.
  ASSERT_EQ(level3.size(), 2u);
  EXPECT_EQ(level3[0].attrs(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(level3[1].attrs(), (std::vector<size_t>{0, 1, 3}));
}

TEST(CandidateGenTest, DuplicatesIgnored) {
  // {a,b},{a,c},{b,c} join pairwise into the SAME {a,b,c} three times.
  const Interval a = I(0, 0, 0.1);
  const Interval b = I(1, 0.2, 0.3);
  const Interval c = I(2, 0.4, 0.5);
  const std::vector<Signature> level2 = {
      Signature::Make({a, b}).value(),
      Signature::Make({a, c}).value(),
      Signature::Make({b, c}).value(),
  };
  CandidateGenStats stats;
  const auto level3 = GenerateCandidates(level2, nullptr, 1 << 20, &stats);
  ASSERT_EQ(level3.size(), 1u);
  EXPECT_EQ(stats.num_duplicates, 2u);
}

TEST(CandidateGenTest, EmptyAndSingletonInput) {
  EXPECT_TRUE(GenerateCandidates({}, nullptr, 100).empty());
  EXPECT_TRUE(
      GenerateCandidates(Singles({I(0, 0, 0.1)}), nullptr, 100).empty());
}

TEST(CandidateGenTest, ParallelMatchesSerial) {
  // 40 singles -> 780 pairs; force the parallel path with a tiny Tgen.
  std::vector<Interval> intervals;
  for (size_t a = 0; a < 40; ++a) {
    intervals.push_back(I(a, 0.1 * (a % 7), 0.1 * (a % 7) + 0.05));
  }
  const auto singles = Singles(intervals);
  const auto serial = GenerateCandidates(singles, nullptr, 1 << 30);
  ThreadPool pool(4);
  CandidateGenStats stats;
  const auto parallel = GenerateCandidates(singles, &pool, 10, &stats);
  EXPECT_TRUE(stats.parallel);
  EXPECT_EQ(serial.size(), parallel.size());
  EXPECT_TRUE(std::equal(serial.begin(), serial.end(), parallel.begin()));
}

TEST(CandidateGenTest, OutputSortedCanonically) {
  const auto singles =
      Singles({I(2, 0.4, 0.5), I(0, 0, 0.1), I(1, 0.2, 0.3)});
  const auto pairs = GenerateCandidates(singles, nullptr, 1 << 20);
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
}

TEST(CandidateGenTest, SameAttrLeftoversDoNotJoin) {
  // Both share the interval on attr 0, but their other intervals sit on
  // the SAME attribute with different bounds: the union is no signature.
  const Interval shared = I(0, 0.1, 0.2);
  const std::vector<Signature> level2 = {
      Signature::Make({shared, I(1, 0.3, 0.4)}).value(),
      Signature::Make({shared, I(1, 0.5, 0.6)}).value(),
  };
  CandidateGenStats stats;
  EXPECT_TRUE(GenerateCandidates(level2, nullptr, 1 << 20, &stats).empty());
  EXPECT_EQ(stats.num_duplicates, 0u);
}

TEST(CandidateGenTest, IdenticalSignaturesDoNotJoin) {
  const Signature s = Signature::Make({I(0, 0.1, 0.2), I(1, 0.3, 0.4)}).value();
  EXPECT_TRUE(GenerateCandidates({s, s}, nullptr, 1 << 20).empty());
  // A duplicated base entry joins with a third signature once per copy;
  // the collector keeps one result and counts the other as a duplicate.
  const Signature t = Signature::Make({I(0, 0.1, 0.2), I(2, 0.5, 0.6)}).value();
  CandidateGenStats stats;
  const auto joined = GenerateCandidates({s, t, s}, nullptr, 1 << 20, &stats);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].attrs(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(stats.num_duplicates, 1u);
}

// ---- Oracle: GenerateCandidates against the all-pairs join ------------

struct Reference {
  std::vector<Signature> candidates;
  uint64_t num_duplicates = 0;
  /// Pairs sharing p-1 intervals whose odd intervals sit on one attribute.
  uint64_t same_attr_rejects = 0;
};

/// The definition of the A-priori join, pair by pair: two p-signatures
/// join iff they share exactly p-1 intervals and their two odd intervals
/// lie on distinct attributes.
Reference AllPairsJoin(const std::vector<Signature>& base) {
  Reference ref;
  for (size_t i = 0; i < base.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      const std::vector<Interval>& a = base[i].intervals();
      const std::vector<Interval>& b = base[j].intervals();
      if (a.size() != b.size() || a.empty()) continue;
      std::vector<Interval> merged;
      std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                     std::back_inserter(merged));
      if (merged.size() != a.size() + 1) continue;
      Result<Signature> joined = Signature::Make(std::move(merged));
      if (joined.ok()) {
        ref.candidates.push_back(std::move(joined).value());
      } else {
        ++ref.same_attr_rejects;
      }
    }
  }
  const size_t before = ref.candidates.size();
  std::sort(ref.candidates.begin(), ref.candidates.end());
  ref.candidates.erase(
      std::unique(ref.candidates.begin(), ref.candidates.end()),
      ref.candidates.end());
  ref.num_duplicates = before - ref.candidates.size();
  return ref;
}

/// Random p-signature over `attrs` attributes with `per_attr` intervals
/// of distinct bounds on each.
Signature RandomSignature(size_t p, size_t attrs, size_t per_attr, Rng& rng) {
  std::vector<size_t> order(attrs);
  for (size_t a = 0; a < attrs; ++a) order[a] = a;
  rng.Shuffle(order);
  std::vector<Interval> intervals;
  for (size_t k = 0; k < p; ++k) {
    const double lo = 0.1 * static_cast<double>(rng.UniformInt(per_attr));
    intervals.push_back(I(order[k], lo, lo + 0.05));
  }
  return Signature::Make(std::move(intervals)).value();
}

/// A base of p-signatures in one of four shapes: every p-subset of a
/// few larger signatures (the proven lattice's shape), independent random
/// signatures (a base that is not downward closed, as under §5.3
/// multi-level collection), a mix with duplicated entries, or the first
/// shape with about a third of the subsets removed, so that a candidate
/// has anywhere from 2 to p + 1 of its p-subsets in the base.
std::vector<Signature> RandomBase(size_t p, int shape, Rng& rng) {
  const size_t attrs = p + 3;
  std::vector<Signature> base;
  if (shape == 0 || shape == 3) {
    for (int t = 0; t < 4; ++t) {
      const Signature big = RandomSignature(p + 2, attrs, 2, rng);
      const size_t m = big.size();
      // Every p-subset of `big`: drop two of its m = p + 2 intervals.
      for (size_t x = 0; x < m; ++x) {
        for (size_t y = x + 1; y < m; ++y) {
          if (shape == 3 && rng.UniformInt(3) == 0) continue;
          std::vector<Interval> subset;
          for (size_t k = 0; k < m; ++k) {
            if (k != x && k != y) subset.push_back(big.intervals()[k]);
          }
          base.push_back(Signature::Make(std::move(subset)).value());
        }
      }
    }
  } else {
    const size_t count = 20 + rng.UniformInt(40);
    for (size_t k = 0; k < count; ++k) {
      base.push_back(RandomSignature(p, attrs, 3, rng));
    }
    if (shape == 2) {
      for (size_t k = 0; k < 5; ++k) {
        base.push_back(base[rng.UniformInt(base.size())]);
      }
    }
  }
  rng.Shuffle(base);
  return base;
}

TEST(CandidateGenOracleTest, MatchesAllPairsJoin) {
  ThreadPool pool(3);
  uint64_t same_attr_rejects = 0;
  uint64_t duplicates = 0;
  for (size_t p = 1; p <= 7; ++p) {
    for (int shape = 0; shape < 4; ++shape) {
      // Shapes 0-2 up to p = 5; the partial lattice up to p = 7.
      if (shape < 3 && p > 5) continue;
      for (uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(1000 * p + 100 * static_cast<uint64_t>(shape) + seed);
        const std::vector<Signature> base = RandomBase(p, shape, rng);
        const Reference ref = AllPairsJoin(base);
        same_attr_rejects += ref.same_attr_rejects;
        duplicates += ref.num_duplicates;

        CandidateGenStats serial_stats;
        const auto serial =
            GenerateCandidates(base, nullptr, 1 << 30, &serial_stats);
        EXPECT_FALSE(serial_stats.parallel);
        EXPECT_EQ(serial, ref.candidates)
            << "p=" << p << " shape=" << shape << " seed=" << seed;
        EXPECT_EQ(serial_stats.num_duplicates, ref.num_duplicates)
            << "p=" << p << " shape=" << shape << " seed=" << seed;

        CandidateGenStats parallel_stats;
        const auto parallel =
            GenerateCandidates(base, &pool, 1, &parallel_stats);
        EXPECT_EQ(parallel_stats.parallel, serial_stats.num_pairs > 1);
        EXPECT_EQ(parallel, ref.candidates)
            << "p=" << p << " shape=" << shape << " seed=" << seed;
        EXPECT_EQ(parallel_stats.num_duplicates, ref.num_duplicates);
        EXPECT_EQ(parallel_stats.num_pairs, serial_stats.num_pairs);
      }
    }
  }
  // The random bases did exercise both rejection paths of the join.
  EXPECT_GT(same_attr_rejects, 0u);
  EXPECT_GT(duplicates, 0u);
}

}  // namespace
}  // namespace p3c::core
