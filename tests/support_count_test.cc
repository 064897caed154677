// Support counting and memberships through the RSSC row words
// (kernel-smoke): Rssc::Members must set bit r of a signature's word
// exactly when Signature::Contains holds for row r, and the chunked
// interval-bitmap counter must give the words' popcounts and naive
// containment's counts, on every kernel backend, at every signature-count
// and split shape; the interval index's words must agree with
// Signature::Contains and give the row scan's supports and support sets;
// an Rssc built from interval-id rows must equal one built from the same
// Signatures; RunSupportJob must reject malformed rows and be
// byte-identical across threads, engine backends, kernel backends and
// retried attempts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <csignal>
#include <cmath>
#include <limits>
#include <string>
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

TEST_P(SupportCountTest, HostileCoordinatesCountAsContainsDoes) {
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
    const SignatureRows interned = InternSignatures(sigs);
    auto filled = mr::RunIndexingSupportJob(runner, dataset, interned.table,
                                            interned.rows, intervals);
    ASSERT_TRUE(filled.ok()) << filled.status().ToString();
    EXPECT_EQ(filled->supports, CountSupportsNaive(dataset, sigs, nullptr))
        << "n=" << n;
    const IntervalIndex& index = filled->index;
    ASSERT_EQ(index.num_points(), n);
    ASSERT_LT(index.num_intervals(), intervals.size());  // duplicates merged
    size_t next_row = 0;
    for (size_t i = 0; i < index.num_ranges(); ++i) {
      const size_t begin = index.RangeBegin(i);
      ASSERT_EQ(begin, next_row);
      ASSERT_EQ(index.RangeStartingAt(begin), i);
      for (size_t t = 0; t < index.num_intervals(); ++t) {
        const Signature single = Signature::Single(index.intervals()[t]);
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
    // Batches and support sets read from the index equal the row scan's.
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

/// The rows of `sigs` over `table`, as core generation hands them to the
/// support counter.
IntervalRows RowsOver(const IntervalTable& table,
                      const std::vector<Signature>& sigs) {
  IntervalRows rows;
  std::vector<IntervalId> ids;
  for (const Signature& sig : sigs) {
    ids.clear();
    for (const Interval& interval : sig.intervals()) {
      ids.push_back(table.Id(interval));
    }
    rows.Append(ids);
  }
  return rows;
}

/// Both Rsscs have the same interval table, bound bits included.
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
  // +-inf coordinates; with leading intervals (some used by no row) in a
  // shuffled order, read from gathered rows and from an index.
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
    const std::vector<Interval> unused = {
        {0, 0.96, 0.99}, {kDims + 1, 0.0, 1.0}, {2, -kInf, kInf}};
    std::vector<Interval> intervals = unused;
    for (const Signature& sig : sigs) {
      for (const Interval& interval : sig.intervals()) {
        intervals.push_back(interval);
      }
    }
    const IntervalTable table(intervals);
    const IntervalRows rows = RowsOver(table, sigs);
    ASSERT_TRUE(CheckIntervalRows(table.intervals(), rows).ok());
    std::vector<Interval> shuffled(table.intervals().begin(),
                                   table.intervals().end());
    rng.Shuffle(shuffled);
    const std::vector<Interval>& leading = shuffled;

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

    // Gathered rows, without and with leading intervals.
    for (const std::vector<Interval>* lead : {&unused, &leading}) {
      const Rssc from_rows(table.intervals(), rows, *lead);
      const Rssc from_sigs(sigs, *lead);
      ExpectSameIntervals(from_rows, from_sigs);
      ASSERT_EQ(from_rows.num_signatures(), sigs.size());
      // The leading intervals first, then the rows' others first-seen.
      std::vector<Interval> expected = *lead;
      for (const Signature& sig : sigs) {
        for (const Interval& interval : sig.intervals()) {
          if (std::find(expected.begin(), expected.end(), interval) ==
              expected.end()) {
            expected.push_back(interval);
          }
        }
      }
      ASSERT_EQ(from_rows.num_intervals(), expected.size());
      for (size_t t = 0; t < expected.size(); ++t) {
        EXPECT_EQ(from_rows.interval(t), expected[t]) << t;
      }
      Rssc::Scratch scratch;
      std::vector<uint64_t> a(sigs.size());
      std::vector<uint64_t> b(sigs.size());
      for (size_t begin = 0; begin < n; begin += 64) {
        const double* group = dataset.values().data() + begin * kDims;
        const size_t count = std::min<size_t>(64, n - begin);
        from_rows.Members(group, count, kDims, scratch, a);
        from_sigs.Members(group, count, kDims, scratch, b);
        ASSERT_EQ(a, b) << "n=" << n << " group " << begin;
      }
      std::vector<uint64_t> counted(sigs.size(), 0);
      Rssc::Counter counter(from_rows, counted);
      counter.Add(dataset.values().data(), n, kDims);
      counter.Finish();
      EXPECT_EQ(counted, naive) << "n=" << n;
    }

    // The index of the shuffled intervals, read instead of the rows.
    mr::RunnerOptions options;
    options.num_threads = 2;
    options.records_per_split = 100;
    mr::LocalRunner runner(options);
    auto filled = mr::RunIndexingSupportJob(runner, dataset, table.intervals(),
                                            rows, leading);
    ASSERT_TRUE(filled.ok()) << filled.status().ToString();
    EXPECT_EQ(filled->supports, naive) << "n=" << n;
    const IntervalIndex& index = filled->index;
    const Rssc from_rows(table.intervals(), rows, index.intervals());
    const Rssc from_sigs(sigs, index.intervals());
    ExpectSameIntervals(from_rows, from_sigs);
    ASSERT_EQ(from_rows.num_intervals(), index.num_intervals());
    std::vector<uint64_t> a(sigs.size());
    std::vector<uint64_t> b(sigs.size());
    std::vector<uint64_t> from_index(sigs.size(), 0);
    Rssc::Counter counter(from_rows, index, from_index);
    for (size_t i = 0; i < index.num_ranges(); ++i) {
      from_rows.Members(index, i, a);
      from_sigs.Members(index, i, b);
      ASSERT_EQ(a, b) << "n=" << n << " range " << i;
      counter.AddRange(i);
    }
    counter.Finish();
    EXPECT_EQ(from_index, naive) << "n=" << n;
    auto counted =
        mr::RunSupportJob(runner, dataset, table.intervals(), rows, &index);
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    EXPECT_EQ(*counted, naive) << "n=" << n;
  }
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
    const auto indexing =
        RunIndexingSupportJob(runner, dataset_, table_, rows, table_);
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

  data::Dataset dataset_{10, 2};
  std::vector<core::Interval> table_ = {
      {0, 0.0, 0.5}, {0, 0.5, 1.0}, {1, 0.0, 1.0}};
};

TEST_F(SupportJobRowsTest, WellFormedRowsAreCounted) {
  LocalRunner runner(RunnerOptions{});
  const auto counted = RunSupportJob(runner, dataset_, table_,
                                     Rows({0, 2, 2, 3}, {0, 2, 1}));
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  EXPECT_EQ(*counted, (std::vector<uint64_t>{10, 10, 0}));
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
