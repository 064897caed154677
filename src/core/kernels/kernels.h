#ifndef P3C_CORE_KERNELS_KERNELS_H_
#define P3C_CORE_KERNELS_KERNELS_H_

// Runtime-dispatched compute kernels for the per-point hot loops
// (DESIGN.md §14): RSSC support counting, histogram
// binning, and the GMM inner operations (Mahalanobis distances of a row
// block, the E-step softmax, moment accumulation). Every backend implements
// the same Ops table and every operation is *bit-exact* across backends —
// integer kernels trivially so, floating-point kernels by restricting
// vectorization to elementwise IEEE-exact operations (no FMA, no
// reassociated reductions, scalar std::exp). That contract is what lets
// the engine keep its byte-identical-output guarantee while swapping
// backends, and it is enforced by the kernel-smoke equivalence suite.
//
// The scalar backend is the semantic ground truth and always available;
// vectorized backends register themselves only when the compiler could
// build them and the running CPU supports them. Selection: the fastest
// available backend by default, overridable via SetBackend() (the CLI's
// --kernel-backend flag and the benches' sweep loop).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace p3c::core::kernels {

/// One backend's kernel table. All pointers are non-null.
struct Ops {
  /// Backend name ("scalar", "avx2", ...) as accepted by SetBackend().
  const char* name;

  /// bits[w] &= masks[0][w] & masks[1][w] & ... for w < num_words. Each
  /// masks[i] points at num_words consecutive words. No library path
  /// calls it any more: memberships come from the RSSC's interval row
  /// words. It stays for the pipeline bench's `kernels.rssc` probe and
  /// goes with the next change to that bench.
  void (*bitmap_and_reduce)(uint64_t* bits, const uint64_t* const* masks,
                            size_t num_masks, size_t num_words);

  /// counters[w * 64 + b] += (bits[w] >> b) & 1 for every word w <
  /// num_words and bit b. No library path calls it any more: support
  /// counting runs through and_popcount. It stays for the pipeline
  /// bench's `kernels.rssc` probe and goes with the next change to that
  /// bench.
  void (*support_accumulate)(const uint64_t* bits, size_t num_words,
                             uint64_t* counters);

  /// Sum over w < num_words of popcount(masks[0][w] & ... &
  /// masks[num_masks - 1][w]); num_masks >= 1. Each masks[i] points at
  /// num_words consecutive words. The RSSC counter's signature pass: the
  /// masks are a signature's per-interval row words, so the result is
  /// the number of rows inside every interval of the signature.
  uint64_t (*and_popcount)(const uint64_t* const* masks, size_t num_masks,
                           size_t num_words);

  /// ++counts[BinIndex(xs[i * stride])] for i < n, with the paper's Eq. 8
  /// equi-width binning over [0, 1]: bin = max(1, ceil(m*x)) - 1 clamped
  /// into [0, m-1]; NaN and anything !(x > 0) land in bin 0, x >= 1 and
  /// +inf in bin m-1 (well-defined for hostile coordinates, unlike a raw
  /// double->integer cast). num_bins >= 1. No library path calls it any
  /// more: every scan bins through histogram_bin_rows. It stays for the
  /// pipeline bench's `kernels.histogram` probe and goes with the next
  /// change to that bench.
  void (*histogram_bin)(const double* xs, size_t n, size_t stride,
                        size_t num_bins, uint64_t* counts);

  /// Bins n contiguous row-major rows of d values into d histograms of
  /// num_bins >= 1 slots each: ++counts[j][BinIndex(rows[r * d + j])] for
  /// r < n, j < d, with histogram_bin's Eq. 8 formula. Returns how many of
  /// the n * d values fail x >= 0 && x <= 1 (NaN and +-inf count, -0.0
  /// and 1.0 do not), so one pass both bins a block and checks that it
  /// is normalized. A backend may vectorize across the attributes of a
  /// row, whose lanes hit different histograms, and may pass bin indices
  /// through int32 lanes: num_bins <= INT32_MAX, which stats::NumBins
  /// guarantees (at most ceil(n^(1/3)) < 2^22 bins for any uint64 n).
  uint64_t (*histogram_bin_rows)(const double* rows, size_t n, size_t d,
                                 size_t num_bins, uint64_t* const* counts);

  /// SoftmaxLogSumExp(logw, k, nullptr): the in-place softmax of one
  /// row's log-weighted densities, returning the index of the first
  /// maximum. No library path calls it through the table; it stays for
  /// bench_kernels' softmax rows and the pipeline bench's
  /// `kernels.softmax` probe.
  size_t (*softmax_normalize)(double* logw, size_t k);

  /// acc[i] += a * x[i] for i < n (weighted-moment accumulation).
  void (*axpy)(double* acc, const double* x, double a, size_t n);

  /// Rank-one update of the lower triangle of a row-major d x d matrix:
  /// for each row i with wi = w * x[i] != 0, out[i*d + j] += wi * x[j]
  /// for j <= i, each product and sum rounded on its own (no FMA).
  /// Entries above the diagonal are neither read nor written; a caller
  /// that needs the full matrix mirrors it once when it has finished
  /// (linalg::Matrix::MirrorLower). The wi == 0 row skip is part of the
  /// contract (it preserves existing entries exactly, including signed
  /// zeros and NaN).
  void (*outer_accumulate)(double* out, const double* x, double w, size_t d);

  /// Squared Mahalanobis distances of a column block of `rows` points:
  /// for each r < rows, solves L y = x_r - mu by forward substitution
  /// and writes |y|^2 to out[r]. Coordinate i of point r is
  /// xs[i * rows + r]; `l` is the d x d row-major lower factor (entries
  /// above the diagonal are not read). Every row runs
  /// linalg::Cholesky::MahalanobisSquared's operation sequence —
  /// acc = x_i - mu_i, acc -= l_ik * y_k in k order, y_i = acc / l_ii,
  /// sum += y_i * y_i in i order, each operation rounded on its own — so
  /// a backend may vectorize across rows but never within one.
  void (*mahalanobis_rows)(const double* l, const double* mu,
                           const double* xs, size_t d, size_t rows,
                           double* out);
};

/// The scalar reference backend (always available).
const Ops& ScalarOps();

/// One row's E step over its k log-weighted densities, with one exp per
/// entry: m = the first maximum of logw (a value wins only when it
/// exceeds the running maximum, which starts at -inf, so NaN never wins
/// and a +-0 tie keeps the first), logw[i] = exp(logw[i] - m), s = their
/// sum in index order, then logw[i] /= s. When `log_sum_exp` is non-null
/// it receives m + log(s), log sum_i exp(logw[i]) of the input. Returns
/// the index of the first maximum (0 when k == 0 or nothing exceeds
/// -inf). Scalar for every backend: an AVX2 softmax ran at 0.70x
/// (k = 4) and 0.87x (k = 16) of scalar in bench_kernels.
size_t SoftmaxLogSumExp(double* logw, size_t k, double* log_sum_exp);

/// Backends usable in this binary on this CPU, preference-ordered
/// (fastest first, scalar last). Never empty.
std::vector<const Ops*> AvailableBackends();

/// The active backend. Defaults to AvailableBackends().front() on first
/// use; see SetBackend() to override. Thread-safe.
const Ops& Active();

/// Selects the active backend: "auto" re-runs detection, otherwise a
/// backend name from AvailableBackends(). Unknown or unsupported names
/// return InvalidArgument listing the valid choices. Call at startup
/// (before worker threads), not concurrently with kernel execution.
Status SetBackend(const std::string& name);

}  // namespace p3c::core::kernels

#endif  // P3C_CORE_KERNELS_KERNELS_H_
