// AVX2 backend. This translation unit is the only one compiled with
// -mavx2 (see src/CMakeLists.txt); the dispatcher calls into it only
// after __builtin_cpu_supports("avx2") says the running CPU can execute
// it. -mavx2 also lets GCC emit popcnt for std::popcount, so the
// dispatcher checks for popcnt as well. When the toolchain cannot target
// AVX2 the file degrades to a stub and the dispatcher falls back to
// scalar.
//
// Bit-exactness vs the scalar backend (the kernel-smoke contract):
//  - integer kernels commute trivially (AND / per-bit add);
//  - floating-point kernels vectorize only elementwise IEEE-exact ops
//    (sub, mul, div, compare, round-to-+inf) and never use FMA — this
//    file must not be compiled with -mfma, or GCC would contract
//    mul+add chains and break equivalence.

#include "src/core/kernels/kernels.h"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace p3c::core::kernels {
namespace {

void BitmapAndReduce(uint64_t* bits, const uint64_t* const* masks,
                     size_t num_masks, size_t num_words) {
  size_t w = 0;
  for (; w + 4 <= num_words; w += 4) {
    __m256i acc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bits + w));
    for (size_t m = 0; m < num_masks; ++m) {
      acc = _mm256_and_si256(
          acc,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(masks[m] + w)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(bits + w), acc);
  }
  for (; w < num_words; ++w) {
    uint64_t v = bits[w];
    for (size_t m = 0; m < num_masks; ++m) v &= masks[m][w];
    bits[w] = v;
  }
}

void SupportAccumulate(const uint64_t* bits, size_t num_words,
                       uint64_t* counters) {
  // Dense words update all 64 counters branchlessly (broadcast the word,
  // per-lane variable shift, mask to 0/1, add); sparse words keep the
  // scalar per-set-bit walk. Both orders add the same integers, so the
  // counters are identical either way.
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i four = _mm256_set1_epi64x(4);
  for (size_t w = 0; w < num_words; ++w) {
    const uint64_t word = bits[w];
    if (word == 0) continue;
    uint64_t* base = counters + w * 64;
    if (std::popcount(word) < 16) {
      uint64_t rest = word;
      while (rest != 0) {
        base[static_cast<size_t>(std::countr_zero(rest))] += 1;
        rest &= rest - 1;
      }
      continue;
    }
    const __m256i bw = _mm256_set1_epi64x(static_cast<long long>(word));
    __m256i shift = _mm256_set_epi64x(3, 2, 1, 0);
    for (size_t g = 0; g < 64; g += 4) {
      const __m256i lanes =
          _mm256_and_si256(_mm256_srlv_epi64(bw, shift), one);
      __m256i* slot = reinterpret_cast<__m256i*>(base + g);
      _mm256_storeu_si256(slot,
                          _mm256_add_epi64(_mm256_loadu_si256(slot), lanes));
      shift = _mm256_add_epi64(shift, four);
    }
  }
}

// AND of the masks over 4 * kVecs words starting at word w, popcounted
// into four 64-bit lanes. Byte counts come from a 16-entry nibble table
// (vpshufb); at most 8 per byte a vector, so the kVecs <= 8 vectors sum
// in bytes without overflow before one vpsadbw widens them.
template <size_t kVecs>
inline __m256i AndPopcountBlock(const uint64_t* const* masks,
                                size_t num_masks, size_t w) {
  static_assert(kVecs >= 1 && kVecs <= 8);
  __m256i v[kVecs];
  for (size_t i = 0; i < kVecs; ++i) {
    v[i] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(masks[0] + w + 4 * i));
  }
  for (size_t m = 1; m < num_masks; ++m) {
    const uint64_t* mask = masks[m] + w;
    for (size_t i = 0; i < kVecs; ++i) {
      v[i] = _mm256_and_si256(
          v[i], _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(mask + 4 * i)));
    }
  }
  const __m256i table = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
                                         2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3,
                                         1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  __m256i bytes = _mm256_setzero_si256();
  for (size_t i = 0; i < kVecs; ++i) {
    const __m256i lo =
        _mm256_shuffle_epi8(table, _mm256_and_si256(v[i], low_nibble));
    const __m256i hi = _mm256_shuffle_epi8(
        table, _mm256_and_si256(_mm256_srli_epi16(v[i], 4), low_nibble));
    bytes = _mm256_add_epi8(bytes, _mm256_add_epi8(lo, hi));
  }
  return _mm256_sad_epu8(bytes, _mm256_setzero_si256());
}

uint64_t AndPopcount(const uint64_t* const* masks, size_t num_masks,
                     size_t num_words) {
  // 32-word blocks keep eight vectors in registers while the masks are
  // ANDed in; the popcounts are integers, so any grouping gives the
  // scalar total.
  __m256i acc = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 32 <= num_words; w += 32) {
    acc = _mm256_add_epi64(acc, AndPopcountBlock<8>(masks, num_masks, w));
  }
  for (; w + 4 <= num_words; w += 4) {
    acc = _mm256_add_epi64(acc, AndPopcountBlock<1>(masks, num_masks, w));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; w < num_words; ++w) {
    uint64_t word = masks[0][w];
    for (size_t m = 1; m < num_masks; ++m) word &= masks[m][w];
    total += static_cast<uint64_t>(std::popcount(word));
  }
  return total;
}

size_t ScalarBinIndex(double x, size_t num_bins) {
  if (!(x > 0.0)) return 0;
  const double scaled = std::ceil(static_cast<double>(num_bins) * x);
  if (scaled >= static_cast<double>(num_bins)) return num_bins - 1;
  return static_cast<size_t>(scaled) - 1;
}

void HistogramBin(const double* xs, size_t n, size_t stride, size_t num_bins,
                  uint64_t* counts) {
  const __m256d m = _mm256_set1_pd(static_cast<double>(num_bins));
  const __m256d zero = _mm256_setzero_pd();
  alignas(32) double scaled_lanes[4];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x =
        stride == 1
            ? _mm256_loadu_pd(xs + i)
            : _mm256_set_pd(xs[(i + 3) * stride], xs[(i + 2) * stride],
                            xs[(i + 1) * stride], xs[i * stride]);
    // ceil(m*x) via mul + round-to-+inf: the same two IEEE operations the
    // scalar formula performs, so lane values match std::ceil exactly.
    const __m256d scaled = _mm256_round_pd(
        _mm256_mul_pd(m, x), _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
    // NaN compares false in GT_OQ, exactly like the scalar !(x > 0) test.
    const int positive =
        _mm256_movemask_pd(_mm256_cmp_pd(x, zero, _CMP_GT_OQ));
    const int overflow =
        _mm256_movemask_pd(_mm256_cmp_pd(scaled, m, _CMP_GE_OQ));
    _mm256_store_pd(scaled_lanes, scaled);
    for (int l = 0; l < 4; ++l) {
      size_t bin = 0;
      if ((positive & (1 << l)) != 0) {
        bin = (overflow & (1 << l)) != 0
                  ? num_bins - 1
                  : static_cast<size_t>(scaled_lanes[l]) - 1;
      }
      ++counts[bin];
    }
  }
  for (; i < n; ++i) ++counts[ScalarBinIndex(xs[i * stride], num_bins)];
}

uint64_t HistogramBinRows(const double* rows, size_t n, size_t d,
                          size_t num_bins, uint64_t* const* counts) {
  // Bin indices pass through int32 lanes: num_bins <= INT32_MAX (Ops).
  const __m256d m = _mm256_set1_pd(static_cast<double>(num_bins));
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const size_t vec_d = d - d % 4;
  // Per lane, the number of vectorized values inside [0, 1]: an in-range
  // compare mask is -1 as an integer, so subtracting it counts up.
  __m256i inside = _mm256_setzero_si256();
  uint64_t out_of_range = 0;
  alignas(16) int32_t bins[4];
  for (size_t r = 0; r < n; ++r) {
    const double* row = rows + r * d;
    size_t j = 0;
    // Four consecutive attributes of one row: each lane feeds its own
    // histogram, so the four increments never collide.
    for (; j < vec_d; j += 4) {
      const __m256d x = _mm256_loadu_pd(row + j);
      // ceil(m*x) as in HistogramBin. For x > 0 it is at least 1, and
      // min(ceil(m*x), m) - 1 is the clamped 0-based bin; the positive
      // mask zeroes the lanes that go to bin 0 (NaN and x <= 0).
      const __m256d scaled = _mm256_round_pd(
          _mm256_mul_pd(m, x), _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
      const __m256d positive = _mm256_cmp_pd(x, zero, _CMP_GT_OQ);
      const __m256d bin = _mm256_and_pd(
          positive, _mm256_sub_pd(_mm256_min_pd(scaled, m), one));
      _mm_store_si128(reinterpret_cast<__m128i*>(bins),
                      _mm256_cvttpd_epi32(bin));
      ++counts[j][bins[0]];
      ++counts[j + 1][bins[1]];
      ++counts[j + 2][bins[2]];
      ++counts[j + 3][bins[3]];
      // Ordered compares are false on NaN, as in !(x >= 0 && x <= 1).
      const __m256d in_range =
          _mm256_and_pd(_mm256_cmp_pd(x, zero, _CMP_GE_OQ),
                        _mm256_cmp_pd(x, one, _CMP_LE_OQ));
      inside = _mm256_sub_epi64(inside, _mm256_castpd_si256(in_range));
    }
    for (; j < d; ++j) {
      const double x = row[j];
      ++counts[j][ScalarBinIndex(x, num_bins)];
      if (!(x >= 0.0 && x <= 1.0)) ++out_of_range;
    }
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), inside);
  const uint64_t vectorized_inside = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  return out_of_range + n * vec_d - vectorized_inside;
}

void Axpy(double* acc, const double* x, double a, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(acc + i,
                     _mm256_add_pd(_mm256_loadu_pd(acc + i), prod));
  }
  for (; i < n; ++i) acc[i] += a * x[i];
}

void OuterAccumulate(double* out, const double* x, double w, size_t d) {
  for (size_t i = 0; i < d; ++i) {
    const double wi = w * x[i];
    if (wi == 0.0) continue;
    // Row i's lower part, j <= i: full vectors, then the scalar tail up
    // to the diagonal; nothing right of the diagonal is touched.
    double* row = out + i * d;
    const size_t len = i + 1;
    const __m256d vwi = _mm256_set1_pd(wi);
    size_t j = 0;
    for (; j + 4 <= len; j += 4) {
      const __m256d prod = _mm256_mul_pd(vwi, _mm256_loadu_pd(x + j));
      _mm256_storeu_pd(row + j,
                       _mm256_add_pd(_mm256_loadu_pd(row + j), prod));
    }
    for (; j < len; ++j) row[j] += wi * x[j];
  }
}

// Forward substitution for 4 * kVecs consecutive rows starting at row r0
// of the column block, one row per lane: lane for lane it is the scalar
// sequence (sub, then mul and sub per k in k order, div, then mul and
// add into the lane's sum), with no FMA. `y` holds 4 * kVecs * d doubles.
template <size_t kVecs>
void MahalanobisLanes(const double* l, const double* mu, const double* xs,
                      size_t d, size_t rows, size_t r0, double* y,
                      double* out) {
  constexpr size_t kWidth = 4 * kVecs;
  __m256d sq[kVecs];
  for (size_t v = 0; v < kVecs; ++v) sq[v] = _mm256_setzero_pd();
  for (size_t i = 0; i < d; ++i) {
    const double* li = l + i * d;
    const double* xi = xs + i * rows + r0;
    const __m256d vmu = _mm256_set1_pd(mu[i]);
    __m256d acc[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_sub_pd(_mm256_loadu_pd(xi + 4 * v), vmu);
    }
    for (size_t k = 0; k < i; ++k) {
      const __m256d lik = _mm256_set1_pd(li[k]);
      const double* yk = y + k * kWidth;
      for (size_t v = 0; v < kVecs; ++v) {
        acc[v] = _mm256_sub_pd(
            acc[v], _mm256_mul_pd(lik, _mm256_loadu_pd(yk + 4 * v)));
      }
    }
    const __m256d lii = _mm256_set1_pd(li[i]);
    double* yi = y + i * kWidth;
    for (size_t v = 0; v < kVecs; ++v) {
      const __m256d yv = _mm256_div_pd(acc[v], lii);
      _mm256_storeu_pd(yi + 4 * v, yv);
      sq[v] = _mm256_add_pd(sq[v], _mm256_mul_pd(yv, yv));
    }
  }
  for (size_t v = 0; v < kVecs; ++v) {
    _mm256_storeu_pd(out + r0 + 4 * v, sq[v]);
  }
}

void MahalanobisRows(const double* l, const double* mu, const double* xs,
                     size_t d, size_t rows, double* out) {
  // Vectorized across rows: 16 rows in four independent accumulators
  // (enough to hide the sub latency of the k loop), then 4-row chunks,
  // then the scalar sequence for the last rows % 4.
  thread_local std::vector<double> y;
  y.resize(16 * d);
  size_t r = 0;
  for (; r + 16 <= rows; r += 16) {
    MahalanobisLanes<4>(l, mu, xs, d, rows, r, y.data(), out);
  }
  for (; r + 4 <= rows; r += 4) {
    MahalanobisLanes<1>(l, mu, xs, d, rows, r, y.data(), out);
  }
  for (; r < rows; ++r) {
    double acc_sq = 0.0;
    for (size_t i = 0; i < d; ++i) {
      const double* li = l + i * d;
      double acc = xs[i * rows + r] - mu[i];
      for (size_t k = 0; k < i; ++k) acc -= li[k] * y[k];
      y[i] = acc / li[i];
      acc_sq += y[i] * y[i];
    }
    out[r] = acc_sq;
  }
}

}  // namespace

namespace detail {
const Ops* Avx2OpsOrNull() {
  // softmax_normalize stays scalar (see SoftmaxLogSumExp).
  static const Ops kAvx2Ops = {
      "avx2",
      BitmapAndReduce,
      SupportAccumulate,
      AndPopcount,
      HistogramBin,
      HistogramBinRows,
      ScalarOps().softmax_normalize,
      Axpy,
      OuterAccumulate,
      MahalanobisRows,
  };
  return &kAvx2Ops;
}
}  // namespace detail

}  // namespace p3c::core::kernels

#else  // !(__AVX2__ && __x86_64__)

namespace p3c::core::kernels::detail {
const Ops* Avx2OpsOrNull() { return nullptr; }
}  // namespace p3c::core::kernels::detail

#endif
