#include "src/stats/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace p3c::stats {
namespace {

TEST(BinRulesTest, Sturges) {
  EXPECT_EQ(SturgesBins(1), 1u);
  EXPECT_EQ(SturgesBins(1024), 11u);   // 1 + log2(1024) = 11
  EXPECT_EQ(SturgesBins(1000), 11u);   // ceil(1 + 9.97)
  EXPECT_EQ(SturgesBins(100000), 18u); // ceil(1 + 16.6)
}

TEST(BinRulesTest, FreedmanDiaconis) {
  // bin width n^{-1/3} (IQR = 1/2 simplification) -> ceil(n^{1/3}) bins.
  EXPECT_EQ(FreedmanDiaconisBins(1), 1u);
  EXPECT_EQ(FreedmanDiaconisBins(1000), 10u);
  EXPECT_EQ(FreedmanDiaconisBins(1001), 11u);
  EXPECT_EQ(FreedmanDiaconisBins(100000), 47u);  // cbrt(1e5) = 46.4
}

TEST(BinRulesTest, FdExceedsSturgesForLargeN) {
  // §4.1.1: Sturges oversmooths; FD must give (many) more bins at scale.
  EXPECT_GT(FreedmanDiaconisBins(1000000), SturgesBins(1000000) * 4);
}

TEST(BinRulesTest, Dispatch) {
  EXPECT_EQ(NumBins(BinningRule::kSturges, 1024), SturgesBins(1024));
  EXPECT_EQ(NumBins(BinningRule::kFreedmanDiaconis, 1024),
            FreedmanDiaconisBins(1024));
}

TEST(BinRulesTest, EveryBinCountFitsInt32Lanes) {
  // AddRows requires num_bins <= INT32_MAX (the kernel's int32 bin
  // lanes); no dataset size can make either rule exceed it.
  for (BinningRule rule :
       {BinningRule::kSturges, BinningRule::kFreedmanDiaconis}) {
    EXPECT_LE(NumBins(rule, std::numeric_limits<uint64_t>::max()),
              static_cast<uint64_t>(std::numeric_limits<int32_t>::max()));
  }
  EXPECT_EQ(SturgesBins(std::numeric_limits<uint64_t>::max()), 65u);
  EXPECT_LT(FreedmanDiaconisBins(std::numeric_limits<uint64_t>::max()),
            uint64_t{1} << 22);
}

TEST(BinIndexTest, PaperFormula) {
  // Eq. 8 (1-based max(1, ceil(m x)), here 0-based): with m = 4,
  // (0.25, 0.5] -> bin 1, etc.; 0 and everything below 1/m -> bin 0.
  EXPECT_EQ(BinIndex(0.0, 4), 0u);
  EXPECT_EQ(BinIndex(0.1, 4), 0u);
  EXPECT_EQ(BinIndex(0.25, 4), 0u);   // boundary belongs to lower bin
  EXPECT_EQ(BinIndex(0.26, 4), 1u);
  EXPECT_EQ(BinIndex(0.5, 4), 1u);
  EXPECT_EQ(BinIndex(0.75, 4), 2u);
  EXPECT_EQ(BinIndex(1.0, 4), 3u);
  EXPECT_EQ(BinIndex(1.5, 4), 3u);    // clamped
  EXPECT_EQ(BinIndex(-0.5, 4), 0u);   // clamped
}

TEST(HistogramTest, AddAndTotal) {
  Histogram h(4);
  h.Add(0.1);
  h.Add(0.3);
  h.Add(0.3);
  h.Add(0.99);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(2), 0u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, MergeSumsCounts) {
  Histogram a(3);
  Histogram b(3);
  a.Add(0.1);
  b.Add(0.1);
  b.Add(0.9);
  a.Merge(b);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.count(2), 1u);
  EXPECT_EQ(a.total(), 3u);
}

TEST(HistogramTest, BinEdges) {
  Histogram h(5);
  EXPECT_DOUBLE_EQ(h.BinLower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BinUpper(0), 0.2);
  EXPECT_DOUBLE_EQ(h.BinLower(4), 0.8);
  EXPECT_DOUBLE_EQ(h.BinUpper(4), 1.0);
}

// Property: every value lands in the bin whose [lower, upper] bounds
// bracket it under Eq. 8 semantics.
class BinIndexProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(BinIndexProperty, IndexConsistentWithEdges) {
  const size_t m = GetParam();
  Histogram h(m);
  for (int i = 0; i <= 1000; ++i) {
    const double x = i / 1000.0;
    const size_t bin = BinIndex(x, m);
    EXPECT_LE(h.BinLower(bin), x + 1e-12);
    EXPECT_GE(h.BinUpper(bin), x - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Bins, BinIndexProperty,
                         ::testing::Values(1, 2, 3, 7, 16, 47, 100));

}  // namespace
}  // namespace p3c::stats
