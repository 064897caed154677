// Kernel-backend microbenchmark: every backend AvailableBackends()
// reports, timed against the scalar reference on the ported hot loops —
// RSSC support counting (the per-point accumulate and the counter's
// AND-popcount), histogram binning (strided, and the row-block op with
// its [0, 1] count), the GMM E-step softmax and the
// blocked Mahalanobis forward substitution — with the outputs
// verified bit-identical in-bench (a speedup
// that changes results is a bug, not a win). The scalar reference gets
// every row (the peak_bytes gate compares against it); any other backend
// only the ops it overrides (its function pointer differs from
// ScalarOps()'s), since an op it inherits from scalar has nothing to
// compare. Each (kernel, size, backend) cell reports the min over
// bench::Repeats() runs.
//
//   bench_kernels [--json BENCH_kernels.json]
//
// JSON is {"machine": {...}, "rows": [...]}; a row carries the backend's
// seconds, the scalar seconds on the identical workload, the speedup,
// and outputs_identical. tools/check_bench_regression.py gates the
// committed numbers: the fastest non-scalar backend must hold a >= 2x
// speedup on rssc_support at >= 256 signatures, the avx2 backend >= 2x
// on every mahalanobis_rows and and_popcount row and >= 1.5x on every
// histogram_bin_rows row, and no non-scalar row may fall below 0.9x of
// scalar.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/atomic_file.h"
#include "src/common/random.h"
#include "src/common/resource.h"
#include "src/common/stopwatch.h"
#include "src/core/kernels/kernels.h"

namespace {

using p3c::Rng;
using p3c::Stopwatch;
using p3c::core::kernels::AvailableBackends;
using p3c::core::kernels::Ops;

struct Row {
  std::string kernel;
  size_t size = 0;
  std::string backend;
  double seconds = 0.0;
  double scalar_seconds = 0.0;
  double speedup = 0.0;
  int64_t peak_bytes = 0;
  bool outputs_identical = false;
};

/// Charges a cell's working buffers to the bench scope and reads back
/// the window peak — the cell's peak_bytes column. The buffers are the
/// only tracked bytes in this binary, so window peak == working set.
class CellMemory {
 public:
  explicit CellMemory(const char* kernel)
      : charge_(p3c::resource::MemScope::kBench) {
    p3c::resource::MemoryTracker::Global().BeginPhase(kernel);
  }
  void Charge(int64_t bytes) { charge_.Set(charge_.bytes() + bytes); }
  int64_t Finish() {
    charge_.Set(0);
    return p3c::resource::MemoryTracker::Global().EndPhase();
  }

 private:
  p3c::resource::ScopedBytes charge_;
};

/// Times `fn` Repeats() times, returns the minimum (noise only inflates).
template <typename Fn>
double MinSeconds(const Fn& fn) {
  double best = 0.0;
  const size_t repeats = p3c::bench::Repeats();
  for (size_t rep = 0; rep < repeats; ++rep) {
    Stopwatch watch;
    fn();
    const double s = watch.ElapsedSeconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

// ---- RSSC support counting --------------------------------------------------
//
// support_accumulate: per matched point, counters[j] += bit j of the
// containment bitmap. The library counts through and_popcount now; the
// op stays for the pipeline bench's kernels.rssc probe. Bitmaps here are
// dense (~75% of bits set), the regime of early candidate generation
// where most 1-signatures contain most points.

Row BenchRsscSupport(const Ops& ops, size_t num_signatures) {
  const size_t num_words = num_signatures / 64;
  const size_t num_bitmaps = 512;
  // Total bit-lanes processed is held constant across sizes so every
  // cell runs a comparable amount of wall time.
  const size_t iterations = size_t{2} * 1024 * 1024 / num_words;

  Rng rng(num_signatures);
  std::vector<uint64_t> bitmaps(num_bitmaps * num_words);
  for (auto& w : bitmaps) w = rng.Next() | rng.Next();  // ~75% density

  auto run = [&](const Ops& backend, std::vector<uint64_t>& counters) {
    return MinSeconds([&] {
      std::fill(counters.begin(), counters.end(), 0);
      for (size_t i = 0; i < iterations; ++i) {
        const uint64_t* bits = bitmaps.data() + (i % num_bitmaps) * num_words;
        backend.support_accumulate(bits, num_words, counters.data());
      }
    });
  };

  std::vector<uint64_t> expected(num_signatures);
  std::vector<uint64_t> actual(num_signatures);
  CellMemory mem("rssc_support");
  mem.Charge(static_cast<int64_t>(
      (bitmaps.capacity() + expected.capacity() + actual.capacity()) *
      sizeof(uint64_t)));
  Row row{"rssc_support", num_signatures, ops.name};
  row.scalar_seconds = run(p3c::core::kernels::ScalarOps(), expected);
  row.seconds = run(ops, actual);
  row.speedup = row.seconds > 0.0 ? row.scalar_seconds / row.seconds : 0.0;
  row.peak_bytes = mem.Finish();
  row.outputs_identical = expected == actual;
  return row;
}

// ---- RSSC counter signature pass ---------------------------------------------
//
// The counter's flush: per signature, AND its interval row words over a
// 64-word chunk (4096 rows) and popcount them. 40 distinct intervals, as
// in a wide-cores-100k batch, and `num_masks` intervals per signature.

Row BenchAndPopcount(const Ops& ops, size_t num_masks) {
  constexpr size_t kIntervals = 40;
  constexpr size_t kWords = 64;
  const size_t num_signatures = p3c::bench::Scaled(20000);
  Rng rng(num_masks);
  std::vector<uint64_t> words(kIntervals * kWords);
  for (auto& w : words) w = rng.Next() | rng.Next();
  std::vector<const uint64_t*> masks(num_signatures * num_masks);
  for (auto& m : masks) m = words.data() + rng.UniformInt(kIntervals) * kWords;

  auto run = [&](const Ops& backend, std::vector<uint64_t>& counts) {
    return MinSeconds([&] {
      for (size_t j = 0; j < num_signatures; ++j) {
        counts[j] = backend.and_popcount(masks.data() + j * num_masks,
                                         num_masks, kWords);
      }
    });
  };

  std::vector<uint64_t> expected(num_signatures);
  std::vector<uint64_t> actual(num_signatures);
  CellMemory mem("and_popcount");
  mem.Charge(static_cast<int64_t>(
      (words.capacity() + expected.capacity() + actual.capacity()) *
          sizeof(uint64_t) +
      masks.capacity() * sizeof(const uint64_t*)));
  Row row{"and_popcount", num_masks, ops.name};
  row.scalar_seconds = run(p3c::core::kernels::ScalarOps(), expected);
  row.seconds = run(ops, actual);
  row.speedup = row.seconds > 0.0 ? row.scalar_seconds / row.seconds : 0.0;
  row.peak_bytes = mem.Finish();
  row.outputs_identical = expected == actual;
  return row;
}

// ---- Histogram binning ------------------------------------------------------

Row BenchHistogram(const Ops& ops, size_t num_bins) {
  const size_t n = p3c::bench::Scaled(2000000);
  Rng rng(num_bins);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.Uniform(-0.05, 1.05);  // includes both clamps

  auto run = [&](const Ops& backend, std::vector<uint64_t>& counts) {
    return MinSeconds([&] {
      std::fill(counts.begin(), counts.end(), 0);
      backend.histogram_bin(xs.data(), n, 1, num_bins, counts.data());
    });
  };

  std::vector<uint64_t> expected(num_bins);
  std::vector<uint64_t> actual(num_bins);
  CellMemory mem("histogram");
  mem.Charge(static_cast<int64_t>(
      xs.capacity() * sizeof(double) +
      (expected.capacity() + actual.capacity()) * sizeof(uint64_t)));
  Row row{"histogram", num_bins, ops.name};
  row.scalar_seconds = run(p3c::core::kernels::ScalarOps(), expected);
  row.seconds = run(ops, actual);
  row.speedup = row.seconds > 0.0 ? row.scalar_seconds / row.seconds : 0.0;
  row.peak_bytes = mem.Finish();
  row.outputs_identical = expected == actual;
  return row;
}

// ---- Row-block histogram binning --------------------------------------------
//
// The histogram scans' op: 64-row blocks (one map range) of `dim`
// attributes binned into `dim` histograms of 80 bins (the bin count of a
// 500k-point dataset), with the values outside [0, 1] counted. 512 rows
// are binned over and over, so the cell times the kernel, not DRAM.

Row BenchHistogramRows(const Ops& ops, size_t dim) {
  constexpr size_t kBins = 80;
  constexpr size_t kBlockRows = 64;
  constexpr size_t kRows = 512;
  const size_t passes = p3c::bench::Scaled(4000000) / (kRows * dim);
  Rng rng(dim);
  std::vector<double> rows(kRows * dim);
  for (auto& x : rows) x = rng.Uniform(-0.001, 1.001);  // both clamps, rarely

  auto run = [&](const Ops& backend, std::vector<uint64_t>& counts,
                 uint64_t& outside) {
    std::vector<uint64_t*> slots(dim);
    for (size_t j = 0; j < dim; ++j) slots[j] = counts.data() + j * kBins;
    return MinSeconds([&] {
      std::fill(counts.begin(), counts.end(), 0);
      outside = 0;
      for (size_t pass = 0; pass < passes; ++pass) {
        for (size_t r = 0; r < kRows; r += kBlockRows) {
          outside += backend.histogram_bin_rows(
              rows.data() + r * dim, kBlockRows, dim, kBins, slots.data());
        }
      }
    });
  };

  std::vector<uint64_t> expected(dim * kBins);
  std::vector<uint64_t> actual(dim * kBins);
  uint64_t outside_expected = 0;
  uint64_t outside_actual = 0;
  CellMemory mem("histogram_bin_rows");
  mem.Charge(static_cast<int64_t>(
      rows.capacity() * sizeof(double) +
      (expected.capacity() + actual.capacity()) * sizeof(uint64_t)));
  Row row{"histogram_bin_rows", dim, ops.name};
  row.scalar_seconds =
      run(p3c::core::kernels::ScalarOps(), expected, outside_expected);
  row.seconds = run(ops, actual, outside_actual);
  row.speedup = row.seconds > 0.0 ? row.scalar_seconds / row.seconds : 0.0;
  row.peak_bytes = mem.Finish();
  row.outputs_identical =
      expected == actual && outside_expected == outside_actual;
  return row;
}

// ---- GMM E-step softmax -----------------------------------------------------

Row BenchSoftmax(const Ops& ops, size_t k) {
  const size_t n = p3c::bench::Scaled(200000);
  Rng rng(k);
  std::vector<double> logw(n * k);
  for (auto& v : logw) v = rng.Uniform(-40.0, 0.0);

  auto run = [&](const Ops& backend, std::vector<double>& out,
                 uint64_t& argmax_hash) {
    return MinSeconds([&] {
      out = logw;
      uint64_t h = 1469598103934665603ull;
      for (size_t i = 0; i < n; ++i) {
        h = h * 31 + backend.softmax_normalize(out.data() + i * k, k);
      }
      argmax_hash = h;
    });
  };

  std::vector<double> expected;
  std::vector<double> actual;
  uint64_t hash_expected = 0;
  uint64_t hash_actual = 0;
  CellMemory mem("gmm_softmax");
  Row row{"gmm_softmax", k, ops.name};
  row.scalar_seconds =
      run(p3c::core::kernels::ScalarOps(), expected, hash_expected);
  row.seconds = run(ops, actual, hash_actual);
  // Charged after the runs: expected/actual materialize inside run().
  mem.Charge(static_cast<int64_t>(
      (logw.capacity() + expected.capacity() + actual.capacity()) *
      sizeof(double)));
  row.speedup = row.seconds > 0.0 ? row.scalar_seconds / row.seconds : 0.0;
  row.peak_bytes = mem.Finish();
  row.outputs_identical =
      hash_expected == hash_actual &&
      std::memcmp(expected.data(), actual.data(),
                  expected.size() * sizeof(double)) == 0;
  return row;
}

// ---- Blocked Mahalanobis distances -------------------------------------------
//
// The density pass of the E step, MVB and OD: k = 5 components, each
// evaluated over column blocks of 64 projected rows (the MR map range),
// at the |Arel| of the mvb-250k workload (19) and at 50.

Row BenchMahalanobisRows(const Ops& ops, size_t dim) {
  constexpr size_t kComponents = 5;
  constexpr size_t kBlockRows = 64;
  const size_t num_blocks = p3c::bench::Scaled(512);
  Rng rng(dim);
  // Lower factors with a dominant diagonal, so distances stay finite.
  std::vector<double> factors(kComponents * dim * dim, 0.0);
  std::vector<double> means(kComponents * dim);
  for (size_t c = 0; c < kComponents; ++c) {
    double* l = factors.data() + c * dim * dim;
    for (size_t i = 0; i < dim; ++i) {
      for (size_t k = 0; k < i; ++k) l[i * dim + k] = rng.Uniform(-0.1, 0.1);
      l[i * dim + i] = rng.Uniform(0.5, 1.5);
    }
  }
  for (auto& m : means) m = rng.Uniform();
  std::vector<double> xs(num_blocks * dim * kBlockRows);
  for (auto& x : xs) x = rng.Uniform();

  auto run = [&](const Ops& backend, std::vector<double>& out) {
    return MinSeconds([&] {
      for (size_t b = 0; b < num_blocks; ++b) {
        const double* block = xs.data() + b * dim * kBlockRows;
        for (size_t c = 0; c < kComponents; ++c) {
          backend.mahalanobis_rows(factors.data() + c * dim * dim,
                                   means.data() + c * dim, block, dim,
                                   kBlockRows,
                                   out.data() + (b * kComponents + c) *
                                                    kBlockRows);
        }
      }
    });
  };

  std::vector<double> expected(num_blocks * kComponents * kBlockRows);
  std::vector<double> actual(expected.size());
  CellMemory mem("mahalanobis_rows");
  mem.Charge(static_cast<int64_t>(
      (factors.capacity() + means.capacity() + xs.capacity() +
       expected.capacity() + actual.capacity()) *
      sizeof(double)));
  Row row{"mahalanobis_rows", dim, ops.name};
  row.scalar_seconds = run(p3c::core::kernels::ScalarOps(), expected);
  row.seconds = run(ops, actual);
  row.speedup = row.seconds > 0.0 ? row.scalar_seconds / row.seconds : 0.0;
  row.peak_bytes = mem.Finish();
  row.outputs_identical =
      std::memcmp(expected.data(), actual.data(),
                  expected.size() * sizeof(double)) == 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p3c;
  const char* json_path = nullptr;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }

  bench::Banner("Kernel backends — scalar vs vectorized, bit-exact",
                "the dispatch layer of DESIGN.md §14");

  // Working sets are charged to the bench scope so every row carries a
  // peak_bytes column (DESIGN.md §15).
  resource::MemoryTracker::Global().Enable(true);

  std::vector<Row> rows;
  std::printf("%16s %6s %8s %12s %12s %9s %5s\n", "kernel", "size", "backend",
              "seconds", "scalar(s)", "speedup", "ok");
  const Ops& scalar = p3c::core::kernels::ScalarOps();
  for (const Ops* ops : AvailableBackends()) {
    const bool reference = ops == &scalar;
    if (reference || ops->support_accumulate != scalar.support_accumulate) {
      for (size_t sigs : {size_t{64}, size_t{256}, size_t{1024}}) {
        rows.push_back(BenchRsscSupport(*ops, sigs));
      }
    }
    if (reference || ops->and_popcount != scalar.and_popcount) {
      for (size_t num_masks : {size_t{2}, size_t{5}}) {
        rows.push_back(BenchAndPopcount(*ops, num_masks));
      }
    }
    if (reference || ops->histogram_bin != scalar.histogram_bin) {
      for (size_t bins : {size_t{64}, size_t{256}}) {
        rows.push_back(BenchHistogram(*ops, bins));
      }
    }
    if (reference || ops->histogram_bin_rows != scalar.histogram_bin_rows) {
      for (size_t dim : {size_t{20}, size_t{100}}) {
        rows.push_back(BenchHistogramRows(*ops, dim));
      }
    }
    if (reference || ops->softmax_normalize != scalar.softmax_normalize) {
      for (size_t k : {size_t{4}, size_t{16}}) {
        rows.push_back(BenchSoftmax(*ops, k));
      }
    }
    if (reference || ops->mahalanobis_rows != scalar.mahalanobis_rows) {
      for (size_t dim : {size_t{19}, size_t{50}}) {
        rows.push_back(BenchMahalanobisRows(*ops, dim));
      }
    }
  }
  bool all_identical = true;
  for (const Row& r : rows) {
    std::printf("%16s %6zu %8s %12.6f %12.6f %8.2fx %5s\n", r.kernel.c_str(),
                r.size, r.backend.c_str(), r.seconds, r.scalar_seconds,
                r.speedup, r.outputs_identical ? "yes" : "NO");
    all_identical = all_identical && r.outputs_identical;
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "backend output diverged from the scalar reference\n");
    return 1;
  }

  if (json_path != nullptr) {
    AtomicFileWriter writer{std::string(json_path)};
    if (!writer.Open().ok()) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::FILE* f = writer.stream();
    std::fprintf(f, "{\n\"machine\": %s,\n\"rows\": [\n",
                 bench::MachineJson().c_str());
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "  {\"kernel\": \"%s\", \"size\": %zu, \"backend\": "
                   "\"%s\", \"seconds\": %.6f, \"scalar_seconds\": %.6f, "
                   "\"speedup\": %.3f, \"peak_bytes\": %lld, "
                   "\"outputs_identical\": %s}%s\n",
                   r.kernel.c_str(), r.size, r.backend.c_str(), r.seconds,
                   r.scalar_seconds, r.speedup,
                   static_cast<long long>(r.peak_bytes),
                   r.outputs_identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n}\n");
    if (!writer.Commit().ok()) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::printf("\nwrote %zu rows to %s\n", rows.size(), json_path);
  }

  bench::Rule();
  std::printf(
      "Shape check: every backend's outputs are bit-identical to the\n"
      "scalar reference (enforced above — divergence exits non-zero);\n"
      "on an AVX2 machine the vectorized backend holds >= 2x on\n"
      "rssc_support at >= 256 signatures, on mahalanobis_rows and on\n"
      "and_popcount, >= 1.5x on histogram_bin_rows, and\n"
      "every overridden op >= 0.9x of scalar (gated by\n"
      "tools/check_bench_regression.py).\n");
  return 0;
}
