#!/usr/bin/env bash
# Builds the benchmark binaries in Release and runs the engine-level
# sweeps, writing machine-readable results to the repo root:
#
#   tools/run_benches.sh               # shuffle sweep -> BENCH_shuffle.json
#                                      #   + BENCH_shuffle_metrics.json
#                                      # kernel sweep  -> BENCH_kernels.json
#                                      # then gates both via
#                                      # tools/check_bench_regression.py
#   P3C_BENCH_SCALE=4 tools/run_benches.sh
#                                      # scale record counts up 4x
#   P3C_BENCH_REPEATS=5 tools/run_benches.sh
#                                      # more repeats per cell (min wins)
#   P3C_BENCH_TRACE=1 tools/run_benches.sh
#                                      # also write BENCH_shuffle_trace.json
#                                      # (Perfetto-loadable; adds overhead,
#                                      # don't compare its timings)
#   P3C_BENCH_TOLERANCE=1.2 tools/run_benches.sh
#                                      # loosen the shuffle no-inversion
#                                      # gate (CI on shared runners)
#   P3C_BENCH_PEAK_TOLERANCE=1.5 tools/run_benches.sh
#                                      # loosen the peak_bytes memory gate
#
# The acceptance bars (enforced, non-zero exit on violation):
#   * no shuffle scaling inversion — 8-thread shuffle time must not
#     exceed the 1-thread time on any (records, reducers) cell, with
#     byte-identical output everywhere;
#   * the best vectorized kernel backend holds >= 2x over scalar on
#     rssc_support at >= 256 signatures, avx2 >= 2x on every
#     mahalanobis_rows and and_popcount row and >= 1.5x on every
#     histogram_bin_rows row, with bit-identical outputs;
#   * no memory inversion — the tracked peak_bytes of a shuffle cell
#     must not grow with the thread count, and kernel backends of one
#     cell must agree on their working set (DESIGN.md §15).

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"

echo "==== configure + build (${BUILD_DIR}, Release) ===="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target bench_mr_shuffle bench_kernels

echo "==== bench_mr_shuffle ===="
TRACE_ARGS=()
if [[ "${P3C_BENCH_TRACE:-0}" != "0" ]]; then
  TRACE_ARGS=(--trace-out BENCH_shuffle_trace.json)
fi
"${BUILD_DIR}/bench/bench_mr_shuffle" --json BENCH_shuffle.json \
    --metrics-out BENCH_shuffle_metrics.json "${TRACE_ARGS[@]}"

echo "==== bench_kernels ===="
"${BUILD_DIR}/bench/bench_kernels" --json BENCH_kernels.json

echo "==== perf contracts (tools/check_bench_regression.py) ===="
python3 tools/check_bench_regression.py \
    --shuffle BENCH_shuffle.json \
    --kernels BENCH_kernels.json \
    --shuffle-tolerance "${P3C_BENCH_TOLERANCE:-1.0}" \
    --peak-tolerance "${P3C_BENCH_PEAK_TOLERANCE:-1.25}"

echo "==== results: BENCH_shuffle.json + BENCH_shuffle_metrics.json + BENCH_kernels.json ===="
