// Kernel-backend equivalence suite (kernel-smoke): every backend that
// AvailableBackends() reports must be *bit-exact* against the scalar
// reference on every operation of the Ops table, including the hostile
// cases — partial tail words at every width, NaN/±inf coordinates,
// signed zeros, empty attribute sets, softmax ties. This is the contract
// that makes --kernel-backend a pure performance knob: the pipeline's
// byte-identical-output guarantee relies on it (DESIGN.md §14).

#include "src/core/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/gmm.h"
#include "src/core/outlier.h"
#include "src/core/p3c.h"
#include "src/core/rssc.h"
#include "src/core/signature.h"
#include "src/core/support_counter.h"
#include "src/data/dataset.h"
#include "src/data/generator.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/matrix.h"
#include "src/mr/checkpoint.h"
#include "src/mr/p3c_mr.h"
#include "src/stats/histogram.h"

namespace p3c::core::kernels {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bitwise equality for doubles: distinguishes -0.0 from +0.0 and treats
/// identical NaN payloads as equal — exactly the "byte-identical output"
/// standard the engine promises.
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The bits of a double: EXPECT_EQ on these tells -0.0 from +0.0 and
/// compares NaN payloads, where EXPECT_EQ on doubles would not.
uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<std::string> BackendNames() {
  std::vector<std::string> names;
  for (const Ops* ops : AvailableBackends()) names.emplace_back(ops->name);
  return names;
}

const Ops& BackendByName(const std::string& name) {
  for (const Ops* ops : AvailableBackends()) {
    if (name == ops->name) return *ops;
  }
  ADD_FAILURE() << "unknown backend " << name;
  return ScalarOps();
}

class KernelEquivalenceTest : public testing::TestWithParam<std::string> {
 protected:
  const Ops& ops() const { return BackendByName(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, KernelEquivalenceTest,
                         testing::ValuesIn(BackendNames()),
                         [](const auto& param_info) { return param_info.param; });

// ---- Dispatch plumbing ------------------------------------------------------

TEST(KernelDispatchTest, ScalarAlwaysAvailableAndLast) {
  const auto backends = AvailableBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends.back()->name, "scalar");
  for (const Ops* ops : backends) {
    EXPECT_NE(ops->bitmap_and_reduce, nullptr);
    EXPECT_NE(ops->support_accumulate, nullptr);
    EXPECT_NE(ops->and_popcount, nullptr);
    EXPECT_NE(ops->histogram_bin, nullptr);
    EXPECT_NE(ops->histogram_bin_rows, nullptr);
    EXPECT_NE(ops->softmax_normalize, nullptr);
    EXPECT_NE(ops->axpy, nullptr);
    EXPECT_NE(ops->outer_accumulate, nullptr);
    EXPECT_NE(ops->mahalanobis_rows, nullptr);
  }
}

TEST(KernelDispatchTest, SetBackendSelectsAndRejects) {
  for (const Ops* ops : AvailableBackends()) {
    ASSERT_TRUE(SetBackend(ops->name).ok());
    EXPECT_STREQ(Active().name, ops->name);
  }
  const Status bad = SetBackend("vector9000");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("scalar"), std::string::npos)
      << "error should list the valid choices: " << bad.message();
  ASSERT_TRUE(SetBackend("auto").ok());
}

// ---- bitmap_and_reduce ------------------------------------------------------

TEST_P(KernelEquivalenceTest, BitmapAndReduceMatchesScalar) {
  Rng rng(7);
  for (size_t num_words : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{4}, size_t{5}, size_t{8}, size_t{11}}) {
    for (size_t num_masks : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                             size_t{16}, size_t{17}}) {
      std::vector<std::vector<uint64_t>> mask_storage(num_masks);
      std::vector<const uint64_t*> masks(num_masks);
      for (size_t m = 0; m < num_masks; ++m) {
        mask_storage[m].resize(num_words);
        for (auto& w : mask_storage[m]) w = rng.Next();
        masks[m] = mask_storage[m].data();
      }
      std::vector<uint64_t> init(num_words);
      for (auto& w : init) w = rng.Next();

      std::vector<uint64_t> expected = init;
      ScalarOps().bitmap_and_reduce(expected.data(), masks.data(), num_masks,
                                    num_words);
      std::vector<uint64_t> actual = init;
      ops().bitmap_and_reduce(actual.data(), masks.data(), num_masks,
                              num_words);
      EXPECT_EQ(actual, expected)
          << "words=" << num_words << " masks=" << num_masks;
    }
  }
}

// ---- support_accumulate -----------------------------------------------------

TEST_P(KernelEquivalenceTest, SupportAccumulateMatchesScalar) {
  Rng rng(11);
  for (size_t num_words : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{4}, size_t{9}}) {
    // Mix sparse words (hybrid backends take the per-set-bit path),
    // dense words (branchless path), and the all-zero / all-one edges.
    for (int round = 0; round < 12; ++round) {
      std::vector<uint64_t> bits(num_words);
      for (auto& w : bits) {
        switch (rng.UniformInt(4)) {
          case 0: w = 0; break;
          case 1: w = ~uint64_t{0}; break;
          case 2: w = rng.Next() & rng.Next() & rng.Next(); break;  // sparse
          default: w = rng.Next(); break;                           // dense
        }
      }
      std::vector<uint64_t> expected(num_words * 64);
      for (auto& c : expected) c = rng.UniformInt(1000);
      std::vector<uint64_t> actual = expected;

      ScalarOps().support_accumulate(bits.data(), num_words, expected.data());
      ops().support_accumulate(bits.data(), num_words, actual.data());
      EXPECT_EQ(actual, expected) << "words=" << num_words;
    }
  }
}

// ---- and_popcount -----------------------------------------------------------

TEST_P(KernelEquivalenceTest, AndPopcountMatchesReference) {
  // Every mask carries one all-ones canary word past its end: a kernel
  // that read it would count up to 64 extra bits.
  Rng rng(41);
  for (size_t num_words : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                           size_t{5}, size_t{63}, size_t{64}, size_t{65}}) {
    for (size_t num_masks = 1; num_masks <= 17; ++num_masks) {
      for (int fill = 0; fill < 4; ++fill) {
        std::vector<std::vector<uint64_t>> storage(
            num_masks, std::vector<uint64_t>(num_words + 1, ~uint64_t{0}));
        std::vector<const uint64_t*> masks(num_masks);
        for (size_t m = 0; m < num_masks; ++m) {
          for (size_t w = 0; w < num_words; ++w) {
            switch (fill) {
              case 0: storage[m][w] = 0; break;
              case 1: storage[m][w] = ~uint64_t{0}; break;
              case 2: storage[m][w] = rng.Next(); break;
              // Dense words, so some bits survive a 17-mask AND.
              default: storage[m][w] = rng.Next() | rng.Next() | rng.Next();
            }
          }
          masks[m] = storage[m].data();
        }
        uint64_t expected = 0;
        for (size_t w = 0; w < num_words; ++w) {
          uint64_t word = ~uint64_t{0};
          for (size_t m = 0; m < num_masks; ++m) word &= storage[m][w];
          expected += static_cast<uint64_t>(std::popcount(word));
        }
        if (fill == 1) {
          EXPECT_EQ(expected, num_words * 64);
        }
        EXPECT_EQ(ops().and_popcount(masks.data(), num_masks, num_words),
                  expected)
            << "words=" << num_words << " masks=" << num_masks
            << " fill=" << fill;
      }
    }
  }
}

// ---- histogram_bin ----------------------------------------------------------

/// The hostile-coordinate zoo: every value class Eq. 8 binning must
/// handle without UB, and both sides of every [0, 1] boundary.
std::vector<double> HostileValues() {
  return {kNan,    -kInf,    kInf,  -0.0,  0.0,     1.0,
          1.5,     -0.25,    0.5,   1e-12, 1.0 - 1e-16,
          5e-324 /* min subnormal */, 0.999999, 2.0, 1e300,
          std::nextafter(1.0, 2.0), DBL_MAX, -DBL_MAX};
}

TEST_P(KernelEquivalenceTest, HistogramBinMatchesScalarOnHostileValues) {
  for (size_t num_bins : {size_t{1}, size_t{2}, size_t{7}, size_t{64}}) {
    const std::vector<double> xs = HostileValues();
    std::vector<uint64_t> expected(num_bins, 0);
    std::vector<uint64_t> actual(num_bins, 0);
    ScalarOps().histogram_bin(xs.data(), xs.size(), 1, num_bins,
                              expected.data());
    ops().histogram_bin(xs.data(), xs.size(), 1, num_bins, actual.data());
    EXPECT_EQ(actual, expected) << "bins=" << num_bins;

    // The scalar kernel, in turn, must agree with stats::BinIndex, the
    // formula behind Histogram::Add.
    std::vector<uint64_t> per_element(num_bins, 0);
    for (double x : xs) ++per_element[stats::BinIndex(x, num_bins)];
    EXPECT_EQ(expected, per_element) << "bins=" << num_bins;
  }
}

TEST_P(KernelEquivalenceTest, HistogramBinStridedAndRandom) {
  Rng rng(13);
  const size_t stride = 5;
  const size_t n = 997;  // prime: exercises every vector tail length
  std::vector<double> xs(n * stride, -7.0);  // off-lane poison
  for (size_t i = 0; i < n; ++i) xs[i * stride] = rng.Uniform(-0.2, 1.2);
  for (size_t num_bins : {size_t{1}, size_t{3}, size_t{17}, size_t{256}}) {
    std::vector<uint64_t> expected(num_bins, 0);
    std::vector<uint64_t> actual(num_bins, 0);
    ScalarOps().histogram_bin(xs.data(), n, stride, num_bins, expected.data());
    ops().histogram_bin(xs.data(), n, stride, num_bins, actual.data());
    EXPECT_EQ(actual, expected) << "bins=" << num_bins;
    uint64_t total = 0;
    for (uint64_t c : actual) total += c;
    EXPECT_EQ(total, n);
  }
}

// ---- histogram_bin_rows -----------------------------------------------------

/// Dataset::IsNormalized's verdict on a single value.
bool OutsideUnitRange(double x) {
  return !data::Dataset::FromRowMajor({x}, 1).value().IsNormalized();
}

TEST_P(KernelEquivalenceTest, HistogramBinRowsMatchesBinIndexAndIsNormalized) {
  Rng rng(41);
  const std::vector<double> hostile = HostileValues();
  for (size_t d : {size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{100}}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                     size_t{65}}) {
      // One value in three is hostile. A canary row of NaN follows the
      // block: reading it would move a bin 0 count and the range count.
      std::vector<double> rows((n + 1) * d, kNan);
      uint64_t expected_outside = 0;
      for (size_t i = 0; i < n * d; ++i) {
        rows[i] = rng.UniformInt(3) == 0
                      ? hostile[rng.UniformInt(hostile.size())]
                      : rng.Uniform(-0.1, 1.1);
        if (OutsideUnitRange(rows[i])) ++expected_outside;
      }
      if (n > 0) {
        const auto block = data::Dataset::FromRowMajor(
            std::vector<double>(rows.begin(),
                                rows.begin() + static_cast<ptrdiff_t>(n * d)),
            d);
        EXPECT_EQ(expected_outside == 0, block.value().IsNormalized());
      }
      for (size_t num_bins :
           {size_t{1}, size_t{2}, size_t{17}, size_t{80}}) {
        // One slot past num_bins per histogram: no value may reach it.
        std::vector<std::vector<uint64_t>> expected(
            d, std::vector<uint64_t>(num_bins + 1, 0));
        std::vector<std::vector<uint64_t>> actual = expected;
        for (size_t r = 0; r < n; ++r) {
          for (size_t j = 0; j < d; ++j) {
            ++expected[j][stats::BinIndex(rows[r * d + j], num_bins)];
          }
        }
        std::vector<uint64_t*> counts(d);
        for (size_t j = 0; j < d; ++j) counts[j] = actual[j].data();
        const uint64_t outside = ops().histogram_bin_rows(
            rows.data(), n, d, num_bins, counts.data());
        EXPECT_EQ(actual, expected)
            << "d=" << d << " n=" << n << " bins=" << num_bins;
        EXPECT_EQ(outside, expected_outside)
            << "d=" << d << " n=" << n << " bins=" << num_bins;
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, AddRowsMatchesPerValueAdd) {
  Rng rng(43);
  const size_t d = 7;
  const size_t n = 130;
  std::vector<double> rows(n * d);
  for (double& x : rows) x = rng.Uniform();
  rows[5 * d + 6] = kNan;
  rows[99 * d + 2] = 1.0;
  std::vector<stats::Histogram> expected(d, stats::Histogram(13));
  for (size_t i = 0; i < rows.size(); ++i) expected[i % d].Add(rows[i]);
  std::vector<stats::Histogram> actual(d, stats::Histogram(13));
  ASSERT_TRUE(SetBackend(GetParam()).ok());
  // Split unevenly, as a scan's ranges and runs are.
  uint64_t outside = stats::AddRows(actual, rows.data(), 1);
  outside += stats::AddRows(actual, rows.data() + d, 64);
  outside += stats::AddRows(actual, rows.data() + 65 * d, n - 65);
  outside += stats::AddRows(actual, rows.data(), 0);
  ASSERT_TRUE(SetBackend("auto").ok());
  EXPECT_EQ(outside, 1u);
  for (size_t j = 0; j < d; ++j) {
    EXPECT_EQ(actual[j].counts(), expected[j].counts()) << "attr " << j;
  }
}

// ---- softmax_normalize ------------------------------------------------------

TEST_P(KernelEquivalenceTest, SoftmaxMatchesScalarBitwise) {
  Rng rng(17);
  std::vector<std::vector<double>> cases = {
      {},                                  // k = 0
      {-3.5},                              // k = 1
      {-1.0, -1.0, -1.0},                  // exact tie -> first index
      {-kInf, -kInf},                      // all -inf (degenerate sum)
      {-kInf, -2.0, -kInf, -2.0},          // tie away from index 0
      {0.0, -0.0},                         // signed-zero tie
      {-700.0, -1.0, -700.0},              // underflow after shift
      {-2.0, -kInf, -1.0, -1.5},
  };
  for (size_t k : {size_t{2}, size_t{3}, size_t{4}, size_t{5}, size_t{7},
                   size_t{8}, size_t{9}, size_t{33}}) {
    std::vector<double> v(k);
    for (auto& x : v) x = rng.Uniform(-50.0, 0.0);
    cases.push_back(v);
  }
  for (const auto& logw : cases) {
    std::vector<double> expected = logw;
    std::vector<double> actual = logw;
    const size_t argmax_expected =
        ScalarOps().softmax_normalize(expected.data(), expected.size());
    const size_t argmax_actual =
        ops().softmax_normalize(actual.data(), actual.size());
    EXPECT_EQ(argmax_actual, argmax_expected) << "k=" << logw.size();
    EXPECT_TRUE(BitEqual(actual, expected)) << "k=" << logw.size();
  }
}

/// The softmax and log-likelihood as the E step computed them before
/// SoftmaxLogSumExp, with two exp passes: std::max for the max, an
/// in-order exp sum and max + log(sum) for the log-likelihood, then the
/// first-maximum softmax over the same values.
size_t TwoPassEStep(std::vector<double>& logw, double* log_likelihood) {
  const size_t k = logw.size();
  double max_log = -kInf;
  for (size_t i = 0; i < k; ++i) max_log = std::max(max_log, logw[i]);
  double exp_sum = 0.0;
  for (size_t i = 0; i < k; ++i) exp_sum += std::exp(logw[i] - max_log);
  *log_likelihood = max_log + std::log(exp_sum);

  double softmax_max = -kInf;
  size_t argmax = 0;
  for (size_t i = 0; i < k; ++i) {
    if (logw[i] > softmax_max) {
      softmax_max = logw[i];
      argmax = i;
    }
  }
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    logw[i] = std::exp(logw[i] - softmax_max);
    sum += logw[i];
  }
  for (size_t i = 0; i < k; ++i) logw[i] /= sum;
  return argmax;
}

TEST_P(KernelEquivalenceTest, SoftmaxLogSumExpMatchesTwoPassBitwise) {
  Rng rng(29);
  std::vector<std::vector<double>> cases = {
      {},                                  // k = 0
      {-3.5},                              // k = 1
      {-kInf},                             // k = 1, all -inf
      {kNan},                              // k = 1, NaN
      {-kInf, -kInf, -kInf},               // all -inf
      {kNan, -1.0, -2.0},                  // NaN first: never the max
      {-1.0, kNan, -0.5},                  // NaN in the middle
      {-2.0, -1.0, kNan},                  // NaN last
      {kNan, kNan},                        // only NaN
      {0.0, -0.0},                         // +-0 tie keeps the first
      {-0.0, 0.0, -0.0},                   // -+0 tie keeps the first
      {-kInf, -0.0, 0.0},                  // tie after -inf
      {kInf, -1.0},                        // +inf wins
      {-1.0, kInf, kInf},                  // +inf tie
      {kInf, kNan, -kInf},                 // +inf, NaN and -inf
      {-700.0, -1.0, -700.0},              // underflow after shift
      {-1.0, -1.0, -1.0},                  // exact tie
  };
  for (size_t k : {size_t{1}, size_t{2}, size_t{5}, size_t{16}}) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> v(k);
      for (auto& x : v) x = rng.Uniform(-60.0, 5.0);
      cases.push_back(v);
    }
  }
  std::vector<double> ties(16, -4.25);  // k = 16, every entry tied
  cases.push_back(ties);
  ties[9] = kNan;
  ties[12] = -kInf;
  cases.push_back(ties);

  for (const auto& logw : cases) {
    const std::string where = "k=" + std::to_string(logw.size());
    std::vector<double> expected = logw;
    double expected_ll = 0.0;
    const size_t expected_argmax = TwoPassEStep(expected, &expected_ll);

    std::vector<double> one_pass = logw;
    double ll = 0.0;
    EXPECT_EQ(SoftmaxLogSumExp(one_pass.data(), one_pass.size(), &ll),
              expected_argmax)
        << where;
    EXPECT_EQ(Bits(ll), Bits(expected_ll)) << where;
    EXPECT_TRUE(BitEqual(one_pass, expected)) << where;

    std::vector<double> no_ll = logw;
    EXPECT_EQ(SoftmaxLogSumExp(no_ll.data(), no_ll.size(), nullptr),
              expected_argmax)
        << where;
    EXPECT_TRUE(BitEqual(no_ll, expected)) << where;

    std::vector<double> table = logw;
    EXPECT_EQ(ops().softmax_normalize(table.data(), table.size()),
              expected_argmax)
        << where;
    EXPECT_TRUE(BitEqual(table, expected)) << where;
  }
}

// ---- axpy / outer_accumulate ------------------------------------------------

TEST_P(KernelEquivalenceTest, AxpyMatchesScalarBitwise) {
  Rng rng(19);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                   size_t{31}, size_t{100}}) {
    for (double a : {0.0, -0.0, 1.0, 0.37, -2.5, kNan}) {
      std::vector<double> x(n);
      for (auto& v : x) v = rng.Gaussian();
      if (n > 2) x[1] = -0.0;
      std::vector<double> expected(n);
      for (auto& v : expected) v = rng.Gaussian();
      std::vector<double> actual = expected;
      ScalarOps().axpy(expected.data(), x.data(), a, n);
      ops().axpy(actual.data(), x.data(), a, n);
      EXPECT_TRUE(BitEqual(actual, expected)) << "n=" << n << " a=" << a;
    }
  }
}

TEST_P(KernelEquivalenceTest, OuterAccumulateMatchesScalarBitwise) {
  Rng rng(23);
  for (size_t d : {size_t{0}, size_t{1}, size_t{2}, size_t{4}, size_t{5},
                   size_t{13}}) {
    for (double w : {0.0, 1.0, 0.37, -1.5}) {
      std::vector<double> x(d);
      for (auto& v : x) v = rng.Gaussian();
      if (d > 1) x[0] = 0.0;  // exercises the wi == 0 row-skip contract
      std::vector<double> expected(d * d);
      // Poison some rows with NaN: a skipped row must keep them intact.
      for (auto& v : expected) v = rng.UniformInt(8) == 0 ? kNan : rng.Gaussian();
      std::vector<double> actual = expected;
      ScalarOps().outer_accumulate(expected.data(), x.data(), w, d);
      ops().outer_accumulate(actual.data(), x.data(), w, d);
      EXPECT_TRUE(BitEqual(actual, expected)) << "d=" << d << " w=" << w;
    }
  }
}

TEST_P(KernelEquivalenceTest, OuterAccumulateTouchesOnlyTheLowerTriangle) {
  // A NaN with a payload no arithmetic result carries, and -0.0, which
  // any add of a product turns into +0.0 or a nonzero value: an entry
  // that keeps either was not written.
  const double sentinel_nan = std::bit_cast<double>(0x7ff8dead0000beefULL);
  Rng rng(31);
  for (size_t d : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                   size_t{19}, size_t{50}}) {
    for (double w : {0.0, -0.0, 1.0, 0.37, -1.5}) {
      const std::string where =
          "d=" + std::to_string(d) + " w=" + std::to_string(w);
      std::vector<double> x(d);
      for (auto& v : x) v = rng.Gaussian();
      // Rows whose w * x_i is 0 must be skipped whole.
      if (d > 1) x[1] = 0.0;
      if (d > 3) x[3] = -0.0;
      std::vector<double> before(d * d);
      for (size_t i = 0; i < d; ++i) {
        for (size_t j = 0; j < d; ++j) {
          double& v = before[i * d + j];
          if (j > i) {
            v = (i + j) % 2 == 0 ? sentinel_nan : -0.0;
          } else if (x[i] == 0.0) {
            v = j % 2 == 0 ? -0.0 : sentinel_nan;
          } else {
            v = rng.UniformInt(8) == 0 ? -0.0 : rng.Gaussian();
          }
        }
      }
      std::vector<double> expected = before;
      for (size_t i = 0; i < d; ++i) {
        const double wi = w * x[i];
        if (wi == 0.0) continue;
        for (size_t j = 0; j <= i; ++j) expected[i * d + j] += wi * x[j];
      }
      std::vector<double> actual = before;
      ops().outer_accumulate(actual.data(), x.data(), w, d);
      for (size_t i = 0; i < d; ++i) {
        for (size_t j = 0; j < d; ++j) {
          const size_t at = i * d + j;
          EXPECT_EQ(Bits(actual[at]), Bits(expected[at]))
              << where << " (" << i << ", " << j << ")";
          if (j > i || w * x[i] == 0.0) {
            EXPECT_EQ(Bits(actual[at]), Bits(before[at]))
                << where << " (" << i << ", " << j << ")";
          }
        }
      }
      std::vector<double> scalar = before;
      ScalarOps().outer_accumulate(scalar.data(), x.data(), w, d);
      EXPECT_TRUE(BitEqual(actual, scalar)) << where;
    }
  }
}

// ---- RSSC end to end --------------------------------------------------------

/// Random signatures over `dims` attributes; some share attributes, some
/// have a single wide interval, index `empty_at` (if in range) gets the
/// empty signature (no intervals at all — matches every point).
std::vector<Signature> MakeSignatures(size_t count, size_t dims, Rng& rng,
                                      size_t empty_at) {
  std::vector<Signature> sigs;
  sigs.reserve(count);
  for (size_t j = 0; j < count; ++j) {
    if (j == empty_at) {
      sigs.push_back(Signature::Make({}).value());
      continue;
    }
    const size_t width = 1 + rng.UniformInt(std::min<size_t>(3, dims));
    std::vector<Interval> intervals;
    for (size_t a = 0; a < width; ++a) {
      const size_t attr = (j + a * 2) % dims;
      const double lo = rng.Uniform(0.0, 0.8);
      intervals.push_back({attr, lo, lo + rng.Uniform(0.05, 0.2)});
    }
    auto made = Signature::Make(std::move(intervals));
    if (!made.ok()) {  // duplicate attr collision: fall back to 1-signature
      sigs.push_back(Signature::Single({j % dims, 0.1, 0.6}));
    } else {
      sigs.push_back(std::move(made).value());
    }
  }
  return sigs;
}

/// A dataset whose first rows carry hostile coordinates (NaN, ±inf,
/// signed zero, out-of-range) and the rest uniform noise.
data::Dataset MakeDataset(size_t n, size_t dims, Rng& rng) {
  data::Dataset dataset(n, dims);
  const std::vector<double> hostile = {kNan, kInf, -kInf, -0.0, 1.5, -0.5};
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) {
      const double v = i < hostile.size() ? hostile[(i + d) % hostile.size()]
                                          : rng.Uniform();
      dataset.Set(static_cast<data::PointId>(i), d, v);
    }
  }
  return dataset;
}

/// The ISSUE's tail-width ladder: counts straddling every word-boundary
/// shape of the bitmap (empty, single, partial word, exact word, word+1,
/// two exact words).
const size_t kSignatureCounts[] = {0, 1, 63, 64, 65, 128};

TEST_P(KernelEquivalenceTest, RsscEndToEndMatchesScalarBackend) {
  Rng rng(29);
  const size_t dims = 6;
  const data::Dataset dataset = MakeDataset(300, dims, rng);
  for (size_t count : kSignatureCounts) {
    const std::vector<Signature> sigs =
        MakeSignatures(count, dims, rng, /*empty_at=*/2);

    ASSERT_TRUE(SetBackend("scalar").ok());
    const auto supports_scalar = CountSupports(dataset, sigs, nullptr);
    const auto assign_scalar = UniqueAssignments(dataset, sigs, nullptr);

    ASSERT_TRUE(SetBackend(GetParam()).ok());
    const auto supports_backend = CountSupports(dataset, sigs, nullptr);
    const auto assign_backend = UniqueAssignments(dataset, sigs, nullptr);
    const auto supports_naive = CountSupportsNaive(dataset, sigs, nullptr);

    ASSERT_TRUE(SetBackend("auto").ok());
    EXPECT_EQ(supports_backend, supports_scalar) << "count=" << count;
    EXPECT_EQ(assign_backend, assign_scalar) << "count=" << count;
    // And both must still agree with naive per-signature containment —
    // the kernel path may not drift from the semantic definition.
    EXPECT_EQ(supports_backend, supports_naive) << "count=" << count;
  }
}

TEST_P(KernelEquivalenceTest, RsscMembersIdenticalPerGroup) {
  // 130 rows: two full 64-row groups and a 2-row tail. Under every
  // backend the membership words are the scalar backend's, their
  // popcounts are the counter's supports, and no bit lies past a group.
  Rng rng(31);
  const size_t dims = 5;
  const data::Dataset dataset = MakeDataset(130, dims, rng);
  const size_t n = dataset.num_points();
  for (size_t count : kSignatureCounts) {
    const std::vector<Signature> sigs =
        MakeSignatures(count, dims, rng, /*empty_at=*/0);
    const Rssc rssc(sigs);
    Rssc::Scratch scratch;
    std::vector<uint64_t> words_scalar(count);
    std::vector<uint64_t> words_backend(count);
    std::vector<uint64_t> popcounts(count, 0);
    for (size_t begin = 0; begin < n; begin += 64) {
      const size_t rows = std::min<size_t>(64, n - begin);
      ASSERT_TRUE(SetBackend("scalar").ok());
      const double* group = dataset.values().data() + begin * dims;
      rssc.Members(group, rows, dims, scratch, words_scalar);
      ASSERT_TRUE(SetBackend(GetParam()).ok());
      rssc.Members(group, rows, dims, scratch, words_backend);
      ASSERT_EQ(words_backend, words_scalar)
          << "count=" << count << " begin=" << begin;
      for (size_t j = 0; j < count; ++j) {
        if (rows < 64) {
          EXPECT_EQ(words_backend[j] >> rows, 0u)
              << "count=" << count << " signature " << j;
        }
        popcounts[j] += static_cast<uint64_t>(std::popcount(words_backend[j]));
      }
    }
    std::vector<uint64_t> supports(count, 0);
    Rssc::Counter counter(rssc, supports);
    counter.Add(dataset.values().data(), n, dims);
    counter.Finish();
    ASSERT_TRUE(SetBackend("auto").ok());
    EXPECT_EQ(supports, popcounts) << "count=" << count;
  }
}

TEST_P(KernelEquivalenceTest, CounterNeedsOnlyLiveCounters) {
  // The counter adds into exactly num_signatures() counters — one
  // past-the-end write would be caught by ASan and by the canary below.
  Rng rng(37);
  const size_t dims = 4;
  const data::Dataset dataset = MakeDataset(50, dims, rng);
  for (size_t count : {size_t{1}, size_t{63}, size_t{65}, size_t{127}}) {
    const size_t empty_at = count > 1 ? 1 : 0;
    const std::vector<Signature> sigs =
        MakeSignatures(count, dims, rng, empty_at);
    const Rssc rssc(sigs);
    ASSERT_TRUE(SetBackend(GetParam()).ok());
    std::vector<uint64_t> storage(count + 1, 0);
    storage.back() = 0xDEADBEEFULL;  // canary just past the live lanes
    Rssc::Counter counter(rssc, std::span<uint64_t>(storage.data(), count));
    counter.Add(dataset.values().data(), dataset.num_points(), dims);
    counter.Finish();
    ASSERT_TRUE(SetBackend("auto").ok());
    EXPECT_EQ(storage.back(), 0xDEADBEEFULL) << "count=" << count;
    // The empty signature matches every point.
    EXPECT_EQ(storage[empty_at], dataset.num_points()) << "count=" << count;
  }
}

// ---- GMM one-pass E step ----------------------------------------------------

/// A seeded random mixture: means in [0, 1), SPD covariances
/// B B^T / dim + 0.01 I, random weights except component 0, which gets
/// weight 1e-300 when k > 1.
GmmModel RandomMixture(size_t k, size_t dim, Rng& rng) {
  GmmModel model;
  for (size_t a = 0; a < dim; ++a) model.arel.push_back(a);
  double total = 0.0;
  for (size_t c = 0; c < k; ++c) {
    GaussianComponent comp;
    comp.mean.resize(dim);
    for (double& m : comp.mean) m = rng.Uniform();
    linalg::Matrix b(dim, dim);
    for (size_t i = 0; i < dim; ++i) {
      for (size_t j = 0; j < dim; ++j) b(i, j) = rng.Uniform(-0.3, 0.3);
    }
    comp.cov = linalg::Matrix(dim, dim);
    for (size_t i = 0; i < dim; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        for (size_t l = 0; l < dim; ++l) {
          comp.cov(i, j) += b(i, l) * b(j, l) / static_cast<double>(dim);
        }
      }
      comp.cov(i, i) += 0.01;
    }
    comp.weight = rng.Uniform(0.1, 1.0);
    total += comp.weight;
    model.components.push_back(std::move(comp));
  }
  for (auto& comp : model.components) comp.weight /= total;
  if (k > 1) model.components[0].weight = 1e-300;
  return model;
}

TEST_P(KernelEquivalenceTest, GmmOnePassEStepMatchesSeparateCalls) {
  // Responsibilities(x, r, &ll) evaluates each density once and takes ll
  // from those values. It must give the two-argument call's r and the
  // separate LogLikelihood(x) bit for bit, and both must equal the
  // two-pass reference (max over the densities, then an in-order exp sum
  // that evaluates every density again).
  Rng rng(41);
  ASSERT_TRUE(SetBackend(GetParam()).ok());
  for (size_t k : {size_t{1}, size_t{3}, size_t{7}}) {
    for (size_t dim : {size_t{1}, size_t{5}, size_t{30}}) {
      const GmmModel model = RandomMixture(k, dim, rng);
      const auto evaluator = GmmEvaluator::Make(model, 1e-6);
      ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();
      std::vector<linalg::Vector> points;
      for (int p = 0; p < 25; ++p) {
        linalg::Vector x(dim);
        for (double& v : x) v = rng.Uniform(-0.2, 1.2);
        points.push_back(std::move(x));
      }
      // Far enough out that every density underflows to 0 outside
      // log space.
      points.emplace_back(dim, 1e4);
      for (const linalg::Vector& x : points) {
        double max_log = -kInf;
        for (size_t c = 0; c < k; ++c) {
          max_log = std::max(max_log, evaluator->LogWeightedDensity(c, x));
        }
        double sum = 0.0;
        for (size_t c = 0; c < k; ++c) {
          sum += std::exp(evaluator->LogWeightedDensity(c, x) - max_log);
        }
        const double reference_ll = max_log + std::log(sum);
        std::vector<double> reference_r(k);
        for (size_t c = 0; c < k; ++c) {
          reference_r[c] = evaluator->LogWeightedDensity(c, x);
        }
        const size_t reference_argmax =
            ScalarOps().softmax_normalize(reference_r.data(), k);

        std::vector<double> r_two;
        std::vector<double> r_three;
        double ll = 0.0;
        const size_t argmax_two = evaluator->Responsibilities(x, r_two);
        const size_t argmax_three =
            evaluator->Responsibilities(x, r_three, &ll);
        const std::string where =
            "k=" + std::to_string(k) + " dim=" + std::to_string(dim);
        EXPECT_EQ(argmax_three, argmax_two) << where;
        EXPECT_EQ(argmax_two, reference_argmax) << where;
        EXPECT_TRUE(BitEqual(r_three, r_two)) << where;
        EXPECT_TRUE(BitEqual(r_two, reference_r)) << where;
        EXPECT_EQ(Bits(ll), Bits(evaluator->LogLikelihood(x))) << where;
        EXPECT_EQ(Bits(ll), Bits(reference_ll)) << where;
        EXPECT_TRUE(std::isfinite(ll)) << where;
      }

      // The rows API on one column block of all the points must give
      // every per-point value above bit for bit.
      const size_t rows = points.size();
      ASSERT_LE(rows, GmmEvaluator::kMaxBlockRows);
      std::vector<double> xs(dim * rows);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t i = 0; i < dim; ++i) xs[i * rows + r] = points[r][i];
      }
      std::vector<double> logw(rows * k);
      evaluator->LogWeightedDensities(xs.data(), rows, logw.data());
      std::vector<uint32_t> nearest(rows);
      evaluator->NearestComponents(xs.data(), rows, nearest.data());
      std::vector<std::vector<double>> d2(k, std::vector<double>(rows));
      for (size_t c = 0; c < k; ++c) {
        evaluator->MahalanobisRows(c, xs.data(), rows, d2[c].data());
      }
      for (size_t r = 0; r < rows; ++r) {
        const linalg::Vector& x = points[r];
        const std::string where = "k=" + std::to_string(k) +
                                  " dim=" + std::to_string(dim) +
                                  " row=" + std::to_string(r);
        double* row_logw = logw.data() + r * k;
        size_t nearest_ref = 0;
        double nearest_d2 = kInf;
        for (size_t c = 0; c < k; ++c) {
          EXPECT_EQ(Bits(row_logw[c]),
                    Bits(evaluator->LogWeightedDensity(c, x)))
              << where;
          EXPECT_EQ(Bits(d2[c][r]), Bits(evaluator->MahalanobisSquared(c, x)))
              << where;
          if (d2[c][r] < nearest_d2) {
            nearest_d2 = d2[c][r];
            nearest_ref = c;
          }
        }
        EXPECT_EQ(nearest[r], nearest_ref) << where;
        EXPECT_EQ(evaluator->ArgMax(row_logw), evaluator->HardAssign(x))
            << where;
        std::vector<double> r_ref;
        double ll_ref = 0.0;
        const size_t argmax_ref = evaluator->Responsibilities(x, r_ref, &ll_ref);
        double ll = 0.0;
        EXPECT_EQ(evaluator->Responsibilities(row_logw, &ll), argmax_ref)
            << where;
        EXPECT_TRUE(BitEqual(std::vector<double>(row_logw, row_logw + k),
                             r_ref))
            << where;
        EXPECT_EQ(Bits(ll), Bits(ll_ref)) << where;
      }
    }
  }
  ASSERT_TRUE(SetBackend("auto").ok());
}

// ---- mahalanobis_rows -------------------------------------------------------

TEST_P(KernelEquivalenceTest, MahalanobisRowsMatchesCholeskyReference) {
  // Every row of the column block must equal Cholesky::MahalanobisSquared
  // of that row bit for bit: the row counts straddle the 16-row and
  // 4-row chunks and the scalar tail, and some rows carry NaN, +-inf or
  // 1e300 coordinates (1e300 squares to inf inside the substitution).
  Rng rng(43);
  const double hostile[] = {kNan, kInf, -kInf, 1e300, -1e300};
  for (size_t dim : {size_t{1}, size_t{2}, size_t{19}, size_t{50}}) {
    const GmmModel model = RandomMixture(1, dim, rng);
    const GaussianComponent& comp = model.components[0];
    const auto chol = linalg::Cholesky::Factorize(comp.cov);
    ASSERT_TRUE(chol.ok()) << chol.status().ToString();
    const double* l = chol->lower().data().data();
    for (size_t rows : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                        size_t{15}, size_t{16}, size_t{17}, size_t{63},
                        size_t{64}}) {
      std::vector<double> xs(dim * rows);
      for (double& v : xs) v = rng.Uniform(-0.5, 1.5);
      for (size_t r = 3; r < rows; r += 7) {
        xs[(r % dim) * rows + r] = hostile[(r / 7) % std::size(hostile)];
      }
      const double canary = -12345.0;
      std::vector<double> out(rows + 1, canary);
      ops().mahalanobis_rows(l, comp.mean.data(), xs.data(), dim, rows,
                             out.data());
      EXPECT_EQ(Bits(out[rows]), Bits(canary)) << "wrote past the block";
      linalg::Vector x(dim);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t i = 0; i < dim; ++i) x[i] = xs[i * rows + r];
        EXPECT_EQ(Bits(out[r]), Bits(chol->MahalanobisSquared(x, comp.mean)))
            << "dim=" << dim << " rows=" << rows << " row=" << r;
      }
    }
  }
}

// ---- End to end: the pipelines under every backend ------------------------

/// A clustering result as JSON, interval bounds printed round-trip exact:
/// two runs agree on this string only if they found the same cores, Arel,
/// clusters, points and bounds to the last bit.
std::string ResultJson(const ClusteringResult& result) {
  char buf[64];
  std::string out = "{\"arel\": [";
  for (size_t a : result.arel) out += std::to_string(a) + ",";
  out += "], \"cores\": [";
  for (const ClusterCore& core : result.cores) {
    out += "\"" + core.signature.ToString() + " support " +
           std::to_string(core.support) + "\",";
  }
  out += "], \"clusters\": [";
  for (const ProjectedCluster& cluster : result.clusters) {
    out += "{\"intervals\": [";
    for (const Interval& iv : cluster.intervals) {
      std::snprintf(buf, sizeof(buf), "[%zu, %.17g, %.17g],", iv.attr,
                    iv.lower, iv.upper);
      out += buf;
    }
    out += "], \"points\": [";
    for (data::PointId p : cluster.points) out += std::to_string(p) + ",";
    out += "]},";
  }
  return out + "]}";
}

TEST(KernelPipelineTest, FullMvbRunIsByteIdenticalAcrossBackendsAndThreads) {
  // A full P3C+-MR (MVB) run touches every density path: the EM-init
  // orphans, the soft E step, the MVB ball, in-ball and OD jobs. The
  // point count is not a multiple of the 64-row map range, and the splits
  // are not either, so the partial blocks and every kernel tail run too.
  // The checkpoint record holds the fitted mixture, so comparing its
  // bytes pins the EM model to the bit, beyond what the clusters show.
  data::GeneratorConfig config;
  config.num_points = 2999;
  config.num_dims = 20;
  config.num_clusters = 3;
  config.seed = 19;
  const auto data = data::GenerateSynthetic(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_NE(config.num_points % 64, 0u);

  std::string reference_result;
  std::string reference_counters;
  std::string reference_checkpoint;
  for (const std::string& backend : BackendNames()) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const std::string where =
          "backend=" + backend + " threads=" + std::to_string(threads);
      const std::filesystem::path dir =
          std::filesystem::temp_directory_path() /
          ("p3c_kernel_pipeline_" + backend + "_" + std::to_string(threads));
      std::filesystem::remove_all(dir);
      ASSERT_TRUE(SetBackend(backend).ok());
      mr::P3CMROptions options;
      options.params.outlier = OutlierMode::kMVB;
      options.runner.num_threads = threads;
      options.runner.records_per_split = 700;
      options.checkpoint_dir = dir.string();
      mr::P3CMR pipeline{options};
      const auto result = pipeline.Cluster(data->dataset);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const std::string result_json = ResultJson(*result);
      const std::string counters_json =
          pipeline.counters().ToJson();
      std::ifstream in(dir / mr::kCheckpointFilename, std::ios::binary);
      const std::string checkpoint{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
      std::filesystem::remove_all(dir);
      ASSERT_FALSE(checkpoint.empty()) << where;
      if (reference_result.empty()) {
        ASSERT_FALSE(result->clusters.empty()) << where;
        reference_result = result_json;
        reference_counters = counters_json;
        reference_checkpoint = checkpoint;
        continue;
      }
      EXPECT_EQ(result_json, reference_result) << where;
      EXPECT_EQ(counters_json, reference_counters) << where;
      EXPECT_TRUE(checkpoint == reference_checkpoint) << where;
    }
  }
  ASSERT_TRUE(SetBackend("auto").ok());
}

TEST(KernelPipelineTest, SerialEmAndOutliersBitIdenticalAcrossBackends) {
  // The serial pipeline's EM init, EM and OD run the same rows API; the
  // fitted model itself must match bit for bit, not just the clusters.
  data::GeneratorConfig config;
  config.num_points = 1501;
  config.num_dims = 12;
  config.num_clusters = 2;
  config.min_cluster_dims = 4;
  config.max_cluster_dims = 6;
  config.seed = 23;
  const auto data = data::GenerateSynthetic(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  P3CParams params;
  params.outlier = OutlierMode::kNaive;
  const std::vector<ClusterCore> cores =
      P3CPipeline(params, 1).Cluster(data->dataset)->cores;
  ASSERT_FALSE(cores.empty());
  // Enough relevant attributes for the substitution order to matter.
  ASSERT_GE(RelevantAttributeUnion(cores).size(), 4u);

  ThreadPool pool(3);
  std::vector<double> reference_model;
  std::vector<int32_t> reference_assignment;
  for (const std::string& backend : BackendNames()) {
    ASSERT_TRUE(SetBackend(backend).ok());
    auto initial = InitializeFromCores(data->dataset, cores, params, &pool);
    ASSERT_TRUE(initial.ok()) << initial.status().ToString();
    auto em = RunEm(data->dataset, *initial, params, &pool);
    ASSERT_TRUE(em.ok()) << em.status().ToString();
    auto od = DetectOutliers(data->dataset, em->model, params, &pool);
    ASSERT_TRUE(od.ok()) << od.status().ToString();
    std::vector<double> model = {em->log_likelihood};
    for (const GaussianComponent& comp : em->model.components) {
      model.push_back(comp.weight);
      model.insert(model.end(), comp.mean.begin(), comp.mean.end());
      model.insert(model.end(), comp.cov.data().begin(),
                   comp.cov.data().end());
    }
    if (reference_model.empty()) {
      reference_model = std::move(model);
      reference_assignment = od->assignment;
      continue;
    }
    EXPECT_TRUE(BitEqual(model, reference_model)) << backend;
    EXPECT_EQ(od->assignment, reference_assignment) << backend;
  }
  ASSERT_TRUE(SetBackend("auto").ok());
}

}  // namespace
}  // namespace p3c::core::kernels
