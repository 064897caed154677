// Support counting and memberships through the RSSC row words
// (kernel-smoke): Rssc::Members must set bit r of a signature's word
// exactly when Signature::Contains holds for row r, and the chunked
// interval-bitmap counter must give the words' popcounts and naive
// containment's counts, on every kernel backend, at every signature-count
// and split shape; the interval index's words must agree with
// Signature::Contains and give the row scan's supports and support sets;
// an Rssc built from interval-id rows must equal one built from the same
// Signatures; IntervalTable must give NaN, signed-zero and infinite
// bounds distinct ids in any input order, and a batch must read the index
// only over the index's table; RunSupportJob must reject malformed rows
// and be byte-identical across threads, engine backends, kernel backends
// and retried attempts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <csignal>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/random.h"
#include "src/common/threadpool.h"
#include "src/core/candidate_gen.h"
#include "src/core/kernels/kernels.h"
#include "src/core/rssc.h"
#include "src/core/signature.h"
#include "src/core/support_counter.h"
#include "src/data/dataset.h"
#include "src/data/generator.h"
#include "src/mapreduce/fault.h"
#include "src/mapreduce/metrics.h"
#include "src/mr/jobs.h"

#if defined(__SANITIZE_THREAD__)
#define P3C_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define P3C_TSAN 1
#endif
#endif

namespace p3c::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMax = std::numeric_limits<double>::max();

std::vector<std::string> KernelBackends() {
  std::vector<std::string> names;
  for (const kernels::Ops* ops : kernels::AvailableBackends()) {
    names.emplace_back(ops->name);
  }
  return names;
}

/// Runs each test under one kernel backend.
class SupportCountTest : public testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { ASSERT_TRUE(kernels::SetBackend(GetParam()).ok()); }
  void TearDown() override { ASSERT_TRUE(kernels::SetBackend("auto").ok()); }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, SupportCountTest,
                         testing::ValuesIn(KernelBackends()),
                         [](const auto& param_info) { return param_info.param; });

Signature MakeSig(std::vector<Interval> intervals) {
  return Signature::Make(std::move(intervals)).value();
}

/// Counts the way the support job does: one fresh counter per split of
/// `split_rows` rows, fed 64-row map ranges when `map_ranges` (the MR
/// mapper) or the whole split at once (CountSupports); partials summed.
std::vector<uint64_t> CountBySplits(const data::Dataset& dataset,
                                    const std::vector<Signature>& sigs,
                                    size_t split_rows, bool map_ranges) {
  const Rssc rssc(sigs);
  std::vector<uint64_t> total(sigs.size(), 0);
  std::vector<uint64_t> partial(sigs.size());
  const size_t n = dataset.num_points();
  for (size_t begin = 0; begin < n; begin += split_rows) {
    const size_t end = std::min(n, begin + split_rows);
    std::fill(partial.begin(), partial.end(), 0);
    Rssc::Counter counter(rssc, partial);
    const size_t step = map_ranges ? 64 : end - begin;
    for (size_t row = begin; row < end; row += step) {
      counter.Add(dataset.values().data() + row * dataset.num_dims(),
                  std::min(end, row + step) - row, dataset.num_dims());
    }
    counter.Finish();
    for (size_t j = 0; j < sigs.size(); ++j) total[j] += partial[j];
  }
  return total;
}

/// Popcounts of the membership words, 64 rows at a time.
std::vector<uint64_t> CountByMembers(const data::Dataset& dataset,
                                     const std::vector<Signature>& sigs) {
  const Rssc rssc(sigs);
  Rssc::Scratch scratch;
  std::vector<uint64_t> words(sigs.size());
  std::vector<uint64_t> counts(sigs.size(), 0);
  const size_t n = dataset.num_points();
  for (size_t begin = 0; begin < n; begin += 64) {
    rssc.Members(dataset.values().data() + begin * dataset.num_dims(),
                 std::min<size_t>(64, n - begin), dataset.num_dims(), scratch,
                 words);
    for (size_t j = 0; j < sigs.size(); ++j) {
      counts[j] += static_cast<uint64_t>(std::popcount(words[j]));
    }
  }
  return counts;
}

/// Coordinates and bounds that sit on or past the edges of [0, 1].
const std::vector<double>& HostileValues() {
  static const std::vector<double> values = {
      kNan, -kInf, kInf,  -0.0, 0.0,  0.2,  0.3,
      0.4,  std::nextafter(0.4, 1.0), 0.5, 1.0, kMax, -kMax};
  return values;
}

/// Signatures over attributes 0-2 whose bounds include NaN, +-inf, -0.0,
/// 1.0 and DBL_MAX, plus one without intervals.
std::vector<Signature> HostileSignatures() {
  return {
      MakeSig({{0, 0.2, 0.4}}),
      MakeSig({{0, 0.4, 0.4}}),           // lower == upper
      MakeSig({{0, 0.4, kMax}}),          // upper == DBL_MAX
      MakeSig({{0, 0.4, 0.5}, {1, 0.2, 0.4}}),  // bounds shared with others
      MakeSig({{1, 0.0, 0.2}, {2, 0.2, 0.4}}),
      MakeSig({{2, -0.0, 1.0}}),
      MakeSig({{2, 0.0, 1.0}}),
      Signature(),                        // no intervals: every row
      MakeSig({{0, -kInf, 0.3}}),
      MakeSig({{1, 0.5, 0.5}, {2, 0.5, kMax}}),
      MakeSig({{0, kNan, 0.5}}),          // a NaN bound contains nothing
      MakeSig({{1, -kInf, kInf}}),        // every value but NaN
      MakeSig({{2, kInf, kInf}}),         // +inf alone
  };
}

/// Every pair of hostile values on attributes 0 and 1, m * m rows.
data::Dataset HostileGrid() {
  const std::vector<double>& values = HostileValues();
  const size_t m = values.size();
  data::Dataset dataset(m * m, 3);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const auto row = static_cast<data::PointId>(i * m + j);
      dataset.Set(row, 0, values[i]);
      dataset.Set(row, 1, values[j]);
      dataset.Set(row, 2, values[(i + j) % m]);
    }
  }
  return dataset;
}

TEST_P(SupportCountTest, HostileCoordinatesCountAsContainsDoes) {
  const size_t m = HostileValues().size();
  const data::Dataset dataset = HostileGrid();
  const std::vector<Signature> sigs = HostileSignatures();
  const std::vector<uint64_t> naive = CountSupportsNaive(dataset, sigs, nullptr);
  // NaN lies in no interval, and +inf in none with a finite upper bound,
  // DBL_MAX included: the words agree with closed-interval containment
  // on every input.
  EXPECT_EQ(CountByMembers(dataset, sigs), naive);
  for (size_t split : {size_t{1}, size_t{64}, size_t{100}, m * m}) {
    for (bool map_ranges : {false, true}) {
      EXPECT_EQ(CountBySplits(dataset, sigs, split, map_ranges), naive)
          << "split=" << split << " map_ranges=" << map_ranges;
    }
  }
  EXPECT_EQ(naive[7], dataset.num_points());
  EXPECT_EQ(naive[10], 0u);
  // Attribute 0 takes each value on m rows: 0.4, nextafter(0.4), 0.5,
  // 1.0 and DBL_MAX lie in [0.4, DBL_MAX]; NaN and +inf do not.
  EXPECT_EQ(naive[2], 5 * m);
  EXPECT_EQ(naive[11], (m - 1) * m);
  EXPECT_EQ(naive[12], m);
}

TEST_P(SupportCountTest, AttributeBeyondTheRowContainsNoRow) {
  // Signature::Contains rejects an attribute the point does not have;
  // so do the row words, whatever the interval.
  data::Dataset dataset(5, 2);
  for (size_t i = 0; i < 5; ++i) {
    dataset.Set(static_cast<data::PointId>(i), 0,
                0.125 * static_cast<double>(i));
  }
  const std::vector<Signature> sigs = {
      MakeSig({{7, 0.0, 0.5}}), MakeSig({{7, -kInf, kInf}}),
      MakeSig({{0, 0.125, 0.375}, {9, 0.0, 0.0}}),
      MakeSig({{0, 0.125, 0.375}})};
  const std::vector<uint64_t> expected = {0, 0, 0, 3};
  EXPECT_EQ(CountSupportsNaive(dataset, sigs, nullptr), expected);
  EXPECT_EQ(CountByMembers(dataset, sigs), expected);
  EXPECT_EQ(CountBySplits(dataset, sigs, 5, false), expected);
}

TEST_P(SupportCountTest, MembersAgreeWithContainsAndCounter) {
  // Row counts around one group, one chunk of 64 words and a tail; a
  // third of the coordinates are hostile values.
  const std::vector<double>& values = HostileValues();
  const std::vector<Signature> sigs = HostileSignatures();
  const Rssc rssc(sigs);
  Rng rng(41);
  for (size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{4097}}) {
    data::Dataset dataset(n, 3);
    for (size_t i = 0; i < n; ++i) {
      for (size_t a = 0; a < 3; ++a) {
        dataset.Set(static_cast<data::PointId>(i), a,
                    rng.UniformInt(3) == 0
                        ? values[rng.UniformInt(values.size())]
                        : rng.Uniform());
      }
    }
    std::vector<uint64_t> popcounts(sigs.size(), 0);
    Rssc::Scratch scratch;
    std::vector<uint64_t> words(sigs.size());
    for (size_t begin = 0; begin < n; begin += 64) {
      const size_t rows = std::min<size_t>(64, n - begin);
      rssc.Members(dataset.values().data() + begin * dataset.num_dims(), rows,
                   dataset.num_dims(), scratch, words);
      for (size_t j = 0; j < sigs.size(); ++j) {
        for (size_t r = 0; r < 64; ++r) {
          const bool bit = (words[j] >> r) & 1;
          const bool contains =
              r < rows && sigs[j].Contains(dataset.Row(
                              static_cast<data::PointId>(begin + r)));
          ASSERT_EQ(bit, contains)
              << "n=" << n << " row=" << begin + r << " signature " << j;
        }
        popcounts[j] += static_cast<uint64_t>(std::popcount(words[j]));
      }
    }
    std::vector<uint64_t> counted(sigs.size(), 0);
    Rssc::Counter counter(rssc, counted);
    counter.Add(dataset.values().data(), n, dataset.num_dims());
    counter.Finish();
    EXPECT_EQ(counted, popcounts) << "n=" << n;
  }
}

TEST(RsscUniqueMembersTest, NoneOneOrSeveral) {
  // Rows 0-3: in no word, word 1 only, words 0 and 2, word 2 only; row 4
  // is past `rows` and must not be written.
  const std::vector<uint64_t> words = {0b0100, 0b0010, 0b1100};
  int32_t out[5] = {7, 7, 7, 7, 7};
  Rssc::UniqueMembers(words, 4, out);
  EXPECT_EQ(std::vector<int32_t>(out, out + 5),
            (std::vector<int32_t>{-1, 1, -2, 2, 7}));
}

/// Random signatures over `dims` attributes with bounds on a 0.05 grid,
/// so many intervals are shared between signatures, as in A-priori
/// batches.
std::vector<Signature> GridSignatures(size_t count, size_t dims, Rng& rng) {
  std::vector<Signature> sigs;
  sigs.reserve(count);
  while (sigs.size() < count) {
    const size_t width = 1 + rng.UniformInt(4);
    std::vector<Interval> intervals;
    for (size_t a = 0; a < width; ++a) {
      const double lo = 0.05 * static_cast<double>(rng.UniformInt(14));
      intervals.push_back(
          {rng.UniformInt(dims), lo,
           lo + 0.05 * static_cast<double>(1 + rng.UniformInt(6))});
    }
    auto made = Signature::Make(std::move(intervals));
    if (made.ok()) sigs.push_back(std::move(made).value());
  }
  return sigs;
}

TEST_P(SupportCountTest, EverySignatureCountAndSplitShape) {
  data::GeneratorConfig config;
  config.num_points = 10001;
  config.num_dims = 8;
  config.num_clusters = 3;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 4;
  config.seed = 23;
  const auto data = data::GenerateSynthetic(config).value();
  const data::Dataset& dataset = data.dataset;
  ThreadPool pool(4);
  Rng rng(5);
  for (size_t count : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                       size_t{10000}}) {
    const std::vector<Signature> sigs = GridSignatures(count, 8, rng);
    const std::vector<uint64_t> naive =
        CountSupportsNaive(dataset, sigs, &pool);
    EXPECT_EQ(CountSupports(dataset, sigs, &pool), naive) << count;
    EXPECT_EQ(CountByMembers(dataset, sigs), naive) << count;
    for (size_t split : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                         size_t{4095}, size_t{4096}, size_t{4097},
                         size_t{10000}}) {
      EXPECT_EQ(CountBySplits(dataset, sigs, split, /*map_ranges=*/true),
                naive)
          << "signatures=" << count << " split=" << split;
      if (split >= 64) {
        EXPECT_EQ(CountBySplits(dataset, sigs, split, /*map_ranges=*/false),
                  naive)
            << "signatures=" << count << " split=" << split;
      }
    }
  }
}

TEST_P(SupportCountTest, DroppedCounterLeavesNoTrace) {
  // A failed map attempt drops its mapper, counter and partial counts
  // mid-split; the retry's fresh counter counts the split exactly once.
  Rng rng(3);
  data::Dataset dataset(5000, 4);
  for (size_t i = 0; i < 5000; ++i) {
    for (size_t a = 0; a < 4; ++a) {
      dataset.Set(static_cast<data::PointId>(i), a, rng.Uniform());
    }
  }
  const std::vector<Signature> sigs = GridSignatures(300, 4, rng);
  const Rssc rssc(sigs);
  {
    std::vector<uint64_t> abandoned(sigs.size(), 0);
    Rssc::Counter counter(rssc, abandoned);
    counter.Add(dataset.values().data(), 4100, 4);  // a flush, then pending
  }
  std::vector<uint64_t> retried(sigs.size(), 0);
  Rssc::Counter counter(rssc, retried);
  counter.Add(dataset.values().data(), dataset.num_points(), 4);
  counter.Finish();
  counter.Finish();  // a second Finish adds nothing
  EXPECT_EQ(retried, CountSupportsNaive(dataset, sigs, nullptr));
}

TEST_P(SupportCountTest, IntervalIndexBitsAgreeWithContains) {
  // The index of every hostile interval, filled by the indexing support
  // job over splits that end mid map range, plus bounds of NaN, +-inf,
  // -0.0, 1.0 and DBL_MAX, and an attribute past the rows.
  const std::vector<double>& values = HostileValues();
  const std::vector<Signature> sigs = HostileSignatures();
  std::vector<Interval> intervals;
  for (const Signature& sig : sigs) {
    for (const Interval& interval : sig.intervals()) {
      intervals.push_back(interval);
    }
  }
  intervals.insert(intervals.end(), {{1, 0.2, kNan},
                                     {0, -0.0, -0.0},
                                     {1, 1.0, kMax},
                                     {2, -kInf, -0.0},
                                     {1, -kMax, 1.0},
                                     {5, -kInf, kInf},
                                     intervals.front()});
  // A later batch: every pair of indexed intervals on two attributes.
  std::vector<Signature> pairs;
  for (const Interval& a : intervals) {
    for (const Interval& b : intervals) {
      if (a.attr < b.attr) pairs.push_back(MakeSig({a, b}));
    }
  }
  Rng rng(43);
  for (size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{4097}}) {
    data::Dataset dataset(n, 3);
    for (size_t i = 0; i < n; ++i) {
      for (size_t a = 0; a < 3; ++a) {
        dataset.Set(static_cast<data::PointId>(i), a,
                    rng.UniformInt(2) == 0
                        ? values[rng.UniformInt(values.size())]
                        : rng.Uniform());
      }
    }
    mr::RunnerOptions options;
    options.num_threads = 2;
    options.records_per_split = 100;
    mr::LocalRunner runner(options);
    const IntervalTable table(intervals);
    auto filled = mr::RunIndexingSupportJob(runner, dataset, table,
                                            *table.Rows(sigs));
    ASSERT_TRUE(filled.ok()) << filled.status().ToString();
    EXPECT_EQ(filled->supports, CountSupportsNaive(dataset, sigs, nullptr))
        << "n=" << n;
    const IntervalIndex& index = filled->index;
    ASSERT_EQ(index.num_points(), n);
    ASSERT_TRUE(index.table() == table);
    ASSERT_LT(index.num_intervals(), intervals.size());  // duplicates merged
    size_t next_row = 0;
    for (size_t i = 0; i < index.num_ranges(); ++i) {
      const size_t begin = index.RangeBegin(i);
      ASSERT_EQ(begin, next_row);
      ASSERT_EQ(index.RangeStartingAt(begin), i);
      for (size_t t = 0; t < index.num_intervals(); ++t) {
        const Signature single = Signature::Single(
            index.table().interval(static_cast<IntervalId>(t)));
        for (size_t r = 0; r < 64; ++r) {
          const bool bit = (index.words(t)[i] >> r) & 1;
          const bool contains =
              r < index.RangeRows(i) &&
              single.Contains(
                  dataset.Row(static_cast<data::PointId>(begin + r)));
          ASSERT_EQ(bit, contains) << "n=" << n << " row=" << begin + r
                                   << " interval " << single.ToString();
        }
      }
      next_row += index.RangeRows(i);
    }
    EXPECT_EQ(next_row, n);
    // Batches and support sets read from the index (every interval of
    // them is an index interval) equal the row scan's.
    for (const std::vector<Signature>* batch :
         {&sigs, static_cast<const std::vector<Signature>*>(&pairs)}) {
      auto counted = mr::RunSupportJob(runner, dataset, *batch, &index);
      ASSERT_TRUE(counted.ok()) << counted.status().ToString();
      EXPECT_EQ(*counted, CountSupportsNaive(dataset, *batch, nullptr))
          << "n=" << n;
      auto from_index = mr::RunSupportSetJob(runner, dataset, *batch, &index);
      auto from_rows = mr::RunSupportSetJob(runner, dataset, *batch);
      ASSERT_TRUE(from_index.ok()) << from_index.status().ToString();
      ASSERT_TRUE(from_rows.ok()) << from_rows.status().ToString();
      EXPECT_EQ(from_index->support_sets, from_rows->support_sets);
      EXPECT_EQ(from_index->unique_assignment, from_rows->unique_assignment);
    }
  }
}

/// RsscRowsTest runs under every kernel backend too.
class RsscRowsTest : public SupportCountTest {};

INSTANTIATE_TEST_SUITE_P(AllBackends, RsscRowsTest,
                         testing::ValuesIn(KernelBackends()),
                         [](const auto& param_info) { return param_info.param; });

/// Both Rsscs keep the same intervals, bound bits included.
void ExpectSameIntervals(const Rssc& a, const Rssc& b) {
  ASSERT_EQ(a.num_intervals(), b.num_intervals());
  for (size_t t = 0; t < a.num_intervals(); ++t) {
    EXPECT_EQ(a.interval(t).attr, b.interval(t).attr) << t;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.interval(t).lower),
              std::bit_cast<uint64_t>(b.interval(t).lower))
        << t;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.interval(t).upper),
              std::bit_cast<uint64_t>(b.interval(t).upper))
        << t;
  }
}

TEST_P(RsscRowsTest, RowsBuildEqualsSignatureBuild) {
  // Random batches with a zero-interval row and duplicate rows, over a
  // table that also holds intervals no row uses, on data with NaN and
  // +-inf coordinates; the Rssc keeps the rows' entries or the whole
  // table, reading gathered rows or an index over the table.
  const std::vector<double>& values = HostileValues();
  constexpr size_t kDims = 6;
  Rng rng(59);
  for (size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{4097}}) {
    std::vector<Signature> sigs = GridSignatures(150, kDims, rng);
    sigs.insert(sigs.begin() + 7, Signature());
    sigs.push_back(sigs[3]);
    sigs.push_back(sigs[0]);
    sigs.push_back(Signature());
    std::vector<Interval> intervals = {
        {0, 0.96, 0.99}, {kDims + 1, 0.0, 1.0}, {2, -kInf, kInf}};
    for (const Signature& sig : sigs) {
      for (const Interval& interval : sig.intervals()) {
        intervals.push_back(interval);
      }
    }
    rng.Shuffle(intervals);
    const IntervalTable table(intervals);
    const IntervalRows rows = *table.Rows(sigs);
    ASSERT_TRUE(CheckIntervalRows(table, rows).ok());

    data::Dataset dataset(n, kDims);
    for (size_t i = 0; i < n; ++i) {
      for (size_t a = 0; a < kDims; ++a) {
        dataset.Set(static_cast<data::PointId>(i), a,
                    rng.UniformInt(3) == 0
                        ? values[rng.UniformInt(values.size())]
                        : rng.Uniform());
      }
    }
    const std::vector<uint64_t> naive =
        CountSupportsNaive(dataset, sigs, nullptr);

    // The rows' entries in table order, which is the Signature build's
    // table; or the whole table, entry t at id t.
    const Rssc from_rows(table, rows);
    const Rssc from_sigs(sigs);
    const Rssc whole(table, rows, /*whole_table=*/true);
    ExpectSameIntervals(from_rows, from_sigs);
    ASSERT_EQ(from_rows.num_signatures(), sigs.size());
    ASSERT_EQ(from_rows.num_intervals(), table.size() - 3);
    ASSERT_EQ(whole.num_intervals(), table.size());
    for (size_t t = 0; t < table.size(); ++t) {
      const Interval& entry = table.interval(static_cast<IntervalId>(t));
      EXPECT_EQ(whole.interval(t), entry) << t;
    }
    for (const Rssc* rssc : {&from_rows, &whole}) {
      Rssc::Scratch scratch;
      std::vector<uint64_t> a(sigs.size());
      std::vector<uint64_t> b(sigs.size());
      for (size_t begin = 0; begin < n; begin += 64) {
        const double* group = dataset.values().data() + begin * kDims;
        const size_t count = std::min<size_t>(64, n - begin);
        rssc->Members(group, count, kDims, scratch, a);
        from_sigs.Members(group, count, kDims, scratch, b);
        ASSERT_EQ(a, b) << "n=" << n << " group " << begin;
      }
      std::vector<uint64_t> counted(sigs.size(), 0);
      Rssc::Counter counter(*rssc, counted);
      counter.Add(dataset.values().data(), n, kDims);
      counter.Finish();
      EXPECT_EQ(counted, naive) << "n=" << n;
    }

    // The index over the table, read instead of the rows.
    mr::RunnerOptions options;
    options.num_threads = 2;
    options.records_per_split = 100;
    mr::LocalRunner runner(options);
    auto filled = mr::RunIndexingSupportJob(runner, dataset, table, rows);
    ASSERT_TRUE(filled.ok()) << filled.status().ToString();
    EXPECT_EQ(filled->supports, naive) << "n=" << n;
    const IntervalIndex& index = filled->index;
    ASSERT_EQ(index.num_intervals(), table.size());
    std::vector<uint64_t> a(sigs.size());
    std::vector<uint64_t> from_index(sigs.size(), 0);
    Rssc::Counter counter(whole, index, from_index);
    Rssc::Scratch scratch;
    std::vector<uint64_t> b(sigs.size());
    for (size_t i = 0; i < index.num_ranges(); ++i) {
      whole.Members(index, i, a);
      from_sigs.Members(dataset.values().data() + index.RangeBegin(i) * kDims,
                        index.RangeRows(i), kDims, scratch, b);
      ASSERT_EQ(a, b) << "n=" << n << " range " << i;
      counter.AddRange(i);
    }
    counter.Finish();
    EXPECT_EQ(from_index, naive) << "n=" << n;
    auto counted = mr::RunSupportJob(runner, dataset, table, rows, &index);
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    EXPECT_EQ(*counted, naive) << "n=" << n;
  }
}

// ---- IntervalTable: the run's one id space --------------------------------

/// (attr, lower bits, upper bits): an entry's identity.
using EntryBits = std::tuple<size_t, uint64_t, uint64_t>;

EntryBits BitsOf(const Interval& interval) {
  return {interval.attr, std::bit_cast<uint64_t>(interval.lower),
          std::bit_cast<uint64_t>(interval.upper)};
}

TEST(IntervalTableTest, EdgeBoundsGetDistinctIdsInAnyInputOrder) {
  // NaN of either sign, -0.0 and +0.0, +-inf and +-DBL_MAX bounds, each
  // given twice: one entry per distinct bit pattern, in one order.
  const double bounds[] = {kNan, -kNan, -0.0, 0.0, -kInf, kInf, kMax, -kMax};
  std::vector<Interval> intervals;
  for (size_t attr : {size_t{0}, size_t{3}}) {
    for (double lower : bounds) {
      intervals.push_back({attr, lower, 1.0});
      intervals.push_back({attr, 0.5, lower});
    }
  }
  intervals.insert(intervals.end(), intervals.begin(), intervals.end());
  std::set<EntryBits> distinct;
  for (const Interval& interval : intervals) distinct.insert(BitsOf(interval));
  ASSERT_EQ(distinct.size(), 2u * 2u * std::size(bounds));

  const IntervalTable reference(intervals);
  ASSERT_EQ(reference.size(), distinct.size());
  for (size_t t = 1; t < reference.size(); ++t) {
    const Interval& a = reference.interval(static_cast<IntervalId>(t - 1));
    const Interval& b = reference.interval(static_cast<IntervalId>(t));
    const auto order =
        a.attr != b.attr ? a.attr <=> b.attr
        : std::strong_order(a.lower, b.lower) != 0
            ? std::strong_order(a.lower, b.lower)
            : std::strong_order(a.upper, b.upper);
    EXPECT_TRUE(order < 0) << t;
    EXPECT_LE(reference.attrs()[t - 1], reference.attrs()[t]) << t;
  }
  Rng rng(17);
  for (int round = 0; round < 20; ++round) {
    rng.Shuffle(intervals);
    const IntervalTable table(intervals);
    ASSERT_TRUE(table == reference) << "round " << round;
    for (const Interval& interval : intervals) {
      const IntervalId id = table.Find(interval);
      ASSERT_NE(id, IntervalTable::kMissing);
      EXPECT_EQ(BitsOf(table.interval(id)), BitsOf(interval));
    }
  }
  EXPECT_NE(reference.Find({0, -0.0, 1.0}), reference.Find({0, 0.0, 1.0}));
  EXPECT_NE(reference.Find({3, kNan, 1.0}), reference.Find({3, -kNan, 1.0}));
}

TEST(IntervalTableTest, FindRoundTripsEveryEntryAndMissesAnAbsentOne) {
  const std::vector<Signature> sigs = HostileSignatures();
  const IntervalTable table(sigs);
  for (size_t t = 0; t < table.size(); ++t) {
    const auto id = static_cast<IntervalId>(t);
    EXPECT_EQ(table.Find(table.interval(id)), id);
  }
  // {2, -0.0, 1.0} and {2, 0.0, 1.0} are entries; the others are not.
  ASSERT_NE(table.Find({2, -0.0, 1.0}), IntervalTable::kMissing);
  ASSERT_NE(table.Find({2, 0.0, 1.0}), IntervalTable::kMissing);
  EXPECT_EQ(table.Find({2, -0.0, -0.0}), IntervalTable::kMissing);
  EXPECT_EQ(table.Find({0, -kNan, 0.5}), IntervalTable::kMissing);
  EXPECT_EQ(table.Find({0, 0.2, std::nextafter(0.4, 1.0)}),
            IntervalTable::kMissing);
  EXPECT_EQ(table.Find({9, 0.2, 0.4}), IntervalTable::kMissing);
  EXPECT_EQ(IntervalTable().Find({0, 0.2, 0.4}), IntervalTable::kMissing);
  // Rows over a table that misses one interval of the batch: none.
  EXPECT_FALSE(IntervalTable(std::vector<Signature>(sigs.begin(),
                                                    sigs.end() - 1))
                   .Rows(sigs)
                   .has_value());
}

TEST(IntervalTableTest, HostileRowsCountAsNaive) {
  const data::Dataset dataset = HostileGrid();
  const std::vector<Signature> sigs = HostileSignatures();
  const IntervalTable table(sigs);
  const std::optional<IntervalRows> rows = table.Rows(sigs);
  ASSERT_TRUE(rows.has_value());
  ASSERT_TRUE(CheckIntervalRows(table, *rows).ok());
  ASSERT_EQ(rows->size(), sigs.size());
  for (size_t r = 0; r < sigs.size(); ++r) {
    const Signature back = table.ToSignature(rows->row(r));
    ASSERT_EQ(back.size(), sigs[r].size()) << r;
    for (size_t i = 0; i < back.size(); ++i) {
      EXPECT_EQ(BitsOf(back.intervals()[i]), BitsOf(sigs[r].intervals()[i]))
          << r;
    }
  }
  const std::vector<uint64_t> naive =
      CountSupportsNaive(dataset, sigs, nullptr);
  std::vector<uint64_t> counted(sigs.size(), 0);
  const Rssc rssc(table, *rows);
  Rssc::Counter counter(rssc, counted);
  counter.Add(dataset.values().data(), dataset.num_points(),
              dataset.num_dims());
  counter.Finish();
  EXPECT_EQ(counted, naive);
  mr::LocalRunner runner(mr::RunnerOptions{});
  const auto job = mr::RunSupportJob(runner, dataset, table, *rows);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(*job, naive);
}

}  // namespace
}  // namespace p3c::core

namespace p3c::mr {
namespace {

struct SupportRun {
  std::vector<uint64_t> supports;
  std::string counters_json;
};

SupportRun RunSupports(RunnerOptions options, const data::Dataset& dataset,
                       const std::vector<core::Signature>& sigs) {
  MetricsRegistry metrics;
  options.metrics = &metrics;
  LocalRunner runner(options);
  auto supports = RunSupportJob(runner, dataset, sigs);
  EXPECT_TRUE(supports.ok()) << supports.status().ToString();
  if (!supports.ok()) return {};
  return {std::move(supports).value(), metrics.MergedCounters().ToJson()};
}

TEST(SupportJobDeterminismTest, ByteIdenticalAcrossThreadsBackendsAndRetries) {
  data::GeneratorConfig config;
  config.num_points = 6001;
  config.num_dims = 10;
  config.num_clusters = 3;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 4;
  config.seed = 31;
  const auto data = data::GenerateSynthetic(config).value();
  Rng rng(8);
  std::vector<core::Signature> sigs;
  sigs.push_back(core::Signature());
  while (sigs.size() < 700) {
    const size_t attr = rng.UniformInt(10);
    const double lo = 0.05 * static_cast<double>(rng.UniformInt(16));
    auto made = core::Signature::Make(
        {{attr, lo, lo + 0.2}, {(attr + 1 + rng.UniformInt(9)) % 10, 0.1, 0.7}});
    if (made.ok()) sigs.push_back(std::move(made).value());
  }
  const std::vector<uint64_t> naive =
      core::CountSupportsNaive(data.dataset, sigs, nullptr);

  std::vector<Backend> engines = {Backend::kInProcess};
#ifndef P3C_TSAN
  // TSan does not support forking a multithreaded process.
  engines.push_back(Backend::kProcess);
#endif
  SupportRun reference;
  for (const std::string& kernel : core::KernelBackends()) {
    ASSERT_TRUE(core::kernels::SetBackend(kernel).ok());
    for (Backend engine : engines) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        for (bool inject : {false, true}) {
          const std::string where = "kernel=" + kernel +
                                    " engine=" + BackendName(engine) +
                                    " threads=" + std::to_string(threads) +
                                    " inject=" + std::to_string(inject);
          RunnerOptions options;
          options.backend = engine;
          options.num_threads = threads;
          options.num_workers = 2;
          options.records_per_split = 1500;  // splits end mid map range
          ScriptedFaultInjector injector;
          if (inject) {
            // The process backend kills the worker that just took map
            // task 1, mid-split; in-process, the attempt fails.
            if (engine == Backend::kProcess) {
              injector.KillWorkerOnce("support-count", 1, 0, SIGKILL);
            } else {
              injector.FailOnce("support-count", 1, 0);
            }
            options.fault_injector = &injector;
          }
          const SupportRun run = RunSupports(options, data.dataset, sigs);
          if (inject) {
            EXPECT_EQ(injector.injected_faults(), 1u) << where;
          }
          EXPECT_EQ(run.supports, naive) << where;
          if (reference.counters_json.empty()) {
            reference = run;
            ASSERT_FALSE(reference.counters_json.empty());
            continue;
          }
          EXPECT_EQ(run.counters_json, reference.counters_json) << where;
        }
      }
    }
  }
  ASSERT_TRUE(core::kernels::SetBackend("auto").ok());
}


// ---- Malformed interval-id rows -------------------------------------------
//
// RunSupportJob and RunIndexingSupportJob check the rows before any
// table lookup: a malformed batch is InvalidArgument, never a read past
// the table.

class SupportJobRowsTest : public testing::Test {
 protected:
  /// Runs both jobs on `rows` over a three-interval table whose first two
  /// intervals share attribute 0; both must reject them naming `what`.
  void ExpectRejected(const core::IntervalRows& rows, const std::string& what) {
    LocalRunner runner(RunnerOptions{});
    const auto plain = RunSupportJob(runner, dataset_, table_, rows);
    ASSERT_FALSE(plain.ok());
    EXPECT_EQ(plain.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(plain.status().message().find(what), std::string::npos)
        << plain.status().ToString();
    const auto indexing = RunIndexingSupportJob(runner, dataset_, table_, rows);
    ASSERT_FALSE(indexing.ok());
    EXPECT_EQ(indexing.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(indexing.status().message().find(what), std::string::npos)
        << indexing.status().ToString();
  }

  /// Rows built from `begin` and `ids` as given.
  static core::IntervalRows Rows(std::vector<uint32_t> begin,
                                 std::vector<core::IntervalId> ids) {
    core::IntervalRows rows;
    rows.begin = std::move(begin);
    rows.ids = std::move(ids);
    return rows;
  }

  /// An index over table_ whose words were never filled: a batch that
  /// reads it counts no row.
  core::IntervalIndex ClearIndex(LocalRunner& runner) const {
    return core::IntervalIndex(table_, dataset_.num_points(),
                               runner.SplitSize(dataset_.num_points()));
  }

  data::Dataset dataset_{10, 2};
  core::IntervalTable table_{std::vector<core::Interval>{
      {0, 0.0, 0.5}, {0, 0.5, 1.0}, {1, 0.0, 1.0}}};
};

TEST_F(SupportJobRowsTest, WellFormedRowsAreCounted) {
  LocalRunner runner(RunnerOptions{});
  const auto counted = RunSupportJob(runner, dataset_, table_,
                                     Rows({0, 2, 2, 3}, {0, 2, 1}));
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  EXPECT_EQ(*counted, (std::vector<uint64_t>{10, 10, 0}));
}

TEST_F(SupportJobRowsTest, BatchOverAnotherTableScansTheRows) {
  LocalRunner runner(RunnerOptions{});
  const core::IntervalIndex clear = ClearIndex(runner);
  // table_'s first and last entries: ids 0 and 2 of table_, ids 0 and 1
  // of the batch's own table.
  const std::vector<core::Signature> sigs = {
      table_.ToSignature(std::vector<core::IntervalId>{0, 2}),
      table_.ToSignature(std::vector<core::IntervalId>{2})};
  const std::vector<uint64_t> naive =
      core::CountSupportsNaive(dataset_, sigs, nullptr);
  ASSERT_EQ(naive, (std::vector<uint64_t>{10, 10}));
  const core::IntervalTable own(sigs);
  ASSERT_FALSE(own == table_);
  const auto scanned =
      RunSupportJob(runner, dataset_, own, *own.Rows(sigs), &clear);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(*scanned, naive);
  // Over an equal table the same batch reads the index.
  const core::IntervalTable copy(std::vector<core::Interval>(
      table_.intervals().begin(), table_.intervals().end()));
  const auto read =
      RunSupportJob(runner, dataset_, copy, *copy.Rows(sigs), &clear);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, (std::vector<uint64_t>{0, 0}));
}

TEST_F(SupportJobRowsTest, SignatureBatchResolvesAgainstTheIndexTable) {
  LocalRunner runner(RunnerOptions{});
  const core::IntervalIndex clear = ClearIndex(runner);
  // Every interval is an entry of table_: the batch reads the index.
  const std::vector<core::Signature> held = {
      table_.ToSignature(std::vector<core::IntervalId>{0, 2})};
  const auto read = RunSupportJob(runner, dataset_, held, &clear);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, std::vector<uint64_t>{0});
  const auto sets = RunSupportSetJob(runner, dataset_, held, &clear);
  ASSERT_TRUE(sets.ok()) << sets.status().ToString();
  EXPECT_TRUE(sets->support_sets.front().empty());
  // One interval is not: the batch scans the rows.
  const std::vector<core::Signature> newer = {
      core::Signature::Make({{0, 0.0, 0.25}, {1, 0.0, 1.0}}).value()};
  const auto scanned = RunSupportJob(runner, dataset_, newer, &clear);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(*scanned, core::CountSupportsNaive(dataset_, newer, nullptr));
  EXPECT_EQ(*scanned, std::vector<uint64_t>{10});
  const auto scanned_sets = RunSupportSetJob(runner, dataset_, newer, &clear);
  ASSERT_TRUE(scanned_sets.ok()) << scanned_sets.status().ToString();
  EXPECT_EQ(scanned_sets->support_sets.front().size(), 10u);
}

TEST_F(SupportJobRowsTest, IdPastTheTableIsRejected) {
  ExpectRejected(Rows({0, 2}, {0, 3}), "row 0 names interval 3");
  ExpectRejected(Rows({0, 1, 2}, {2, UINT32_MAX}), "row 1 names interval");
}

TEST_F(SupportJobRowsTest, RowNotStrictlyAscendingIsRejected) {
  ExpectRejected(Rows({0, 1, 3}, {0, 2, 0}), "row 1 is not strictly ascending");
  ExpectRejected(Rows({0, 2}, {2, 2}), "row 0 is not strictly ascending");
}

TEST_F(SupportJobRowsTest, TwoIntervalsOnOneAttributeAreRejected) {
  ExpectRejected(Rows({0, 1, 3}, {2, 0, 1}),
                 "row 1 has two intervals on attribute 0");
}

TEST_F(SupportJobRowsTest, BadBeginOffsetsAreRejected) {
  // Decreasing, ending short of or past the ids, not starting at 0, or
  // no offsets at all.
  ExpectRejected(Rows({0, 2, 1, 3}, {0, 2, 1}), "decrease at row 1");
  ExpectRejected(Rows({0, 1, 2}, {0, 2, 1}), "begin offsets must run");
  ExpectRejected(Rows({0, 1, 4}, {0, 2, 1}), "begin offsets must run");
  ExpectRejected(Rows({1, 3}, {0, 2, 1}), "begin offsets must run");
  ExpectRejected(Rows({}, {}), "begin offsets must run");
}

}  // namespace
}  // namespace p3c::mr
