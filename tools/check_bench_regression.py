#!/usr/bin/env python3
"""Gate the committed/fresh bench JSON against the perf contracts.

Two contracts, one per artifact (both {"machine": ..., "rows": [...]}):

BENCH_shuffle.json (bench_mr_shuffle):
  * No scaling inversion: for every (records, reducers) cell, the
    8-thread shuffle_seconds must not exceed tolerance x the 1-thread
    shuffle_seconds plus an absolute noise floor (default 0.5 ms). The
    merge plan is a pure function of the data, so adding threads must
    never add work; the noise floor exists because on a machine where
    the thread counts resolve to the same effective width the two
    measurements are of *identical* execution, and a strict float <=
    between two samples of the same distribution is a coin flip.
  * No memory inversion: when rows carry peak_bytes (DESIGN.md §15),
    the N-thread tracked peak must not exceed --peak-tolerance x the
    1-thread peak of the same cell — the shuffle's buffers are sized by
    the data, not the thread count. Skipped (reported) when the column
    is absent, so older artifacts still check.
  * output_identical must be true in every row — a shuffle that scales
    by changing results does not count.

BENCH_kernels.json (bench_kernels):
  * The fastest non-scalar backend must hold speedup >= floor on
    rssc_support at every size >= --kernel-min-size (default 256).
  * The avx2 backend must hold speedup >= MAHALANOBIS_ROWS_FLOOR (2x)
    on every mahalanobis_rows row: the blocked forward substitution is
    the E step's, MVB's and OD's per-point cost. Likewise
    AND_POPCOUNT_FLOOR (2x) on every and_popcount row, the RSSC
    counter's per-signature pass, and HISTOGRAM_BIN_ROWS_FLOOR (1.5x)
    on every histogram_bin_rows row, the histogram scans' op. A machine
    header that lists avx2 without such rows fails; a machine without
    avx2 skips them.
  * No non-scalar row may run below MIN_DISPATCHED_SPEEDUP (0.9x) of
    scalar: bench_kernels emits a non-scalar row only for an op its
    backend overrides, and `auto` dispatches every such op, so a
    slower one ships as a regression.
  * outputs_identical must be true in every row — bit-exactness is the
    contract that makes --kernel-backend a pure performance knob.
  * When rows carry peak_bytes, backends of one (kernel, size) cell
    must agree within --peak-tolerance of the smallest — the working
    set is fixed by the cell, so a backend that needs more memory is a
    regression. Skipped (reported) when the column is absent.
  * If the machine offers no non-scalar backend the speedup gate is
    skipped (reported, not failed): the scalar reference is then the
    only backend and there is nothing to compare.

Usage:
  tools/check_bench_regression.py \
      [--shuffle BENCH_shuffle.json] [--kernels BENCH_kernels.json] \
      [--shuffle-tolerance 1.0] [--noise-floor-seconds 0.0005] \
      [--kernel-floor 2.0] [--kernel-min-size 256] \
      [--peak-tolerance 1.25]

The committed artifacts are checked strictly (tolerance 1.0); CI's
perf-smoke re-runs the benches on a shared runner and checks the fresh
numbers with a small tolerance for scheduling noise.

Exit code 0 when every contract holds, 1 otherwise, 2 on bad input.
"""

import argparse
import json
import sys
from collections import defaultdict


# Slowest speedup over scalar tolerated for any op a non-scalar backend
# overrides (below 1.0 to absorb timer noise on near-parity ops).
MIN_DISPATCHED_SPEEDUP = 0.9

# Slowest avx2 speedup over scalar tolerated on mahalanobis_rows, beside
# --kernel-floor's rssc_support floor.
MAHALANOBIS_ROWS_FLOOR = 2.0

# Slowest avx2 speedup over scalar tolerated on and_popcount, the RSSC
# counter's per-signature pass.
AND_POPCOUNT_FLOOR = 2.0

# Slowest avx2 speedup over scalar tolerated on histogram_bin_rows, the
# op of every histogram scan (measured 2.4-4.2x on a shared 4-core host;
# its four scalar increments per vector bound the gain).
HISTOGRAM_BIN_ROWS_FLOOR = 1.5

AVX2_FLOORS = (("mahalanobis_rows", MAHALANOBIS_ROWS_FLOOR),
               ("and_popcount", AND_POPCOUNT_FLOOR),
               ("histogram_bin_rows", HISTOGRAM_BIN_ROWS_FLOOR))


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "rows" not in doc or "machine" not in doc:
        print(f"error: {path} is not a {{'machine': ..., 'rows': [...]}} "
              "bench artifact", file=sys.stderr)
        sys.exit(2)
    return doc


def field(row, key, path, index):
    """row[key] with a diagnostic naming the file, row, and key on
    absence — a malformed artifact should say what is wrong where, not
    die with a raw KeyError."""
    if key not in row:
        print(f"error: {path}: rows[{index}] has no '{key}' key "
              f"(row keys: {', '.join(sorted(row.keys())) or 'none'})",
              file=sys.stderr)
        sys.exit(2)
    return row[key]


def check_peaks(path, label, cells, tolerance):
    """Shared memory gate: cells maps a cell id -> {variant: peak_bytes}.
    Every variant's peak must stay within tolerance x the cell's
    smallest. Returns (failures, comparisons)."""
    failures = 0
    checked = 0
    for cell, by_variant in sorted(cells.items()):
        if len(by_variant) < 2:
            continue
        base_variant, base = min(by_variant.items(), key=lambda kv: kv[1])
        if base <= 0:
            continue
        for variant, peak in sorted(by_variant.items()):
            if variant == base_variant:
                continue
            checked += 1
            if peak > base * tolerance:
                failures += fail(
                    f"memory regression: {label} {cell}: {variant} peak "
                    f"{peak} bytes > {tolerance:.2f} x {base_variant} "
                    f"peak {base} bytes")
    return failures, checked


def check_shuffle(path, tolerance, noise_floor, peak_tolerance):
    doc = load(path)
    rows = doc["rows"]
    failures = 0
    for i, row in enumerate(rows):
        if not row.get("output_identical", False):
            failures += fail(
                f"shuffle {field(row, 'records', path, i)} records / "
                f"{field(row, 'threads', path, i)} threads / "
                f"{field(row, 'reducers', path, i)} reducers: "
                "output_identical is false")

    # threads -> shuffle_seconds per (records, reducers) cell.
    cells = defaultdict(dict)
    peak_cells = defaultdict(dict)
    have_peaks = True
    for i, row in enumerate(rows):
        key = (field(row, "records", path, i), field(row, "reducers", path, i))
        threads = field(row, "threads", path, i)
        cells[key][threads] = field(row, "shuffle_seconds", path, i)
        if "peak_bytes" in row:
            peak_cells[key][f"{threads}-thread"] = row["peak_bytes"]
        else:
            have_peaks = False
    checked = 0
    for (records, reducers), by_threads in sorted(cells.items()):
        if 1 not in by_threads:
            continue
        base = by_threads[1]
        for threads, seconds in sorted(by_threads.items()):
            if threads == 1:
                continue
            checked += 1
            if seconds > base * tolerance + noise_floor:
                failures += fail(
                    f"scaling inversion: {records} records / {reducers} "
                    f"reducers: {threads}-thread shuffle {seconds:.4f}s > "
                    f"{tolerance:.2f} x 1-thread {base:.4f}s "
                    f"+ {noise_floor * 1e3:.2f}ms noise floor")
    if have_peaks and rows:
        peak_failures, peak_checked = check_peaks(
            path, "shuffle cell", peak_cells, peak_tolerance)
        failures += peak_failures
        print(f"{path}: {peak_checked} peak_bytes comparisons, tolerance "
              f"{peak_tolerance:.2f}x")
    else:
        print(f"{path}: no peak_bytes column — memory gate skipped "
              "(artifact predates DESIGN.md §15)")
    print(f"{path}: {len(rows)} rows, {checked} thread-vs-1 comparisons, "
          f"tolerance {tolerance:.2f}x + {noise_floor * 1e3:.2f}ms"
          + (" — OK" if failures == 0 else ""))
    return failures


def check_kernels(path, floor, min_size, peak_tolerance):
    doc = load(path)
    rows = doc["rows"]
    failures = 0
    for i, row in enumerate(rows):
        if not row.get("outputs_identical", False):
            failures += fail(
                f"kernel {field(row, 'kernel', path, i)}/"
                f"{field(row, 'size', path, i)} backend "
                f"{field(row, 'backend', path, i)}: "
                "outputs_identical is false")

    peak_cells = defaultdict(dict)
    have_peaks = bool(rows)
    for i, row in enumerate(rows):
        if "peak_bytes" in row:
            cell = (field(row, "kernel", path, i),
                    field(row, "size", path, i))
            peak_cells[cell][field(row, "backend", path, i)] = \
                row["peak_bytes"]
        else:
            have_peaks = False
    if have_peaks:
        peak_failures, peak_checked = check_peaks(
            path, "kernel cell", peak_cells, peak_tolerance)
        failures += peak_failures
        print(f"{path}: {peak_checked} peak_bytes comparisons, tolerance "
              f"{peak_tolerance:.2f}x")
    else:
        print(f"{path}: no peak_bytes column — memory gate skipped "
              "(artifact predates DESIGN.md §15)")

    for i, row in enumerate(rows):
        if field(row, "backend", path, i) == "scalar":
            continue
        speedup = field(row, "speedup", path, i)
        if speedup < MIN_DISPATCHED_SPEEDUP:
            failures += fail(
                f"dispatched kernel slower than scalar: "
                f"{field(row, 'kernel', path, i)}/{field(row, 'size', path, i)}"
                f" backend {row['backend']} speedup {speedup:.2f}x < "
                f"{MIN_DISPATCHED_SPEEDUP:.2f}x")

    for kernel, kernel_floor in AVX2_FLOORS:
        avx2_rows = [r for i, r in enumerate(rows)
                     if field(r, "kernel", path, i) == kernel
                     and field(r, "backend", path, i) == "avx2"]
        if not avx2_rows:
            if "avx2" in doc["machine"].get("kernel_backends", []):
                failures += fail(
                    f"{path}: the machine offers avx2 but there is no avx2 "
                    f"{kernel} row")
            else:
                print(f"{path}: no avx2 backend — {kernel} floor skipped")
        for row in avx2_rows:
            if row["speedup"] < kernel_floor:
                failures += fail(
                    f"kernel floor: {kernel} at size {row['size']}: "
                    f"avx2 speedup {row['speedup']:.2f}x < "
                    f"{kernel_floor:.2f}x")
            else:
                print(f"{path}: {kernel}/{row['size']}: avx2 "
                      f"{row['speedup']:.2f}x >= {kernel_floor:.2f}x")

    gated = [r for i, r in enumerate(rows)
             if field(r, "kernel", path, i) == "rssc_support"
             and field(r, "size", path, i) >= min_size
             and field(r, "backend", path, i) != "scalar"]
    if not gated:
        print(f"{path}: no non-scalar backend rows — speedup gate skipped "
              "(scalar-only machine)")
        return failures

    # Best non-scalar backend per size must clear the floor.
    by_size = defaultdict(list)
    for row in gated:
        by_size[row["size"]].append(row)
    for size, size_rows in sorted(by_size.items()):
        best = max(size_rows,
                   key=lambda r: field(r, "speedup", path, rows.index(r)))
        if best["speedup"] < floor:
            failures += fail(
                f"kernel floor: rssc_support at {size} signatures: best "
                f"non-scalar backend {best['backend']} speedup "
                f"{best['speedup']:.2f}x < {floor:.2f}x")
        else:
            print(f"{path}: rssc_support/{size}: {best['backend']} "
                  f"{best['speedup']:.2f}x >= {floor:.2f}x")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="Gate bench JSON against the perf contracts.")
    parser.add_argument("--shuffle", default=None,
                        help="BENCH_shuffle.json to check")
    parser.add_argument("--kernels", default=None,
                        help="BENCH_kernels.json to check")
    parser.add_argument("--shuffle-tolerance", type=float, default=1.0,
                        help="max allowed N-thread/1-thread shuffle ratio "
                             "(default 1.0: strictly no inversion)")
    parser.add_argument("--noise-floor-seconds", type=float, default=0.0005,
                        help="absolute slack added to the shuffle gate "
                             "(default 0.5 ms — sub-millisecond timer and "
                             "scheduler noise between identical runs)")
    parser.add_argument("--kernel-floor", type=float, default=2.0,
                        help="min rssc_support speedup for the best "
                             "non-scalar backend (default 2.0)")
    parser.add_argument("--kernel-min-size", type=int, default=256,
                        help="gate rssc_support sizes >= this (default 256)")
    parser.add_argument("--peak-tolerance", type=float, default=1.25,
                        help="max allowed peak_bytes ratio between variants "
                             "of one cell (default 1.25; the tracked "
                             "footprint is deterministic, the slack covers "
                             "capacity-growth rounding)")
    args = parser.parse_args()
    if args.shuffle is None and args.kernels is None:
        parser.error("nothing to check: pass --shuffle and/or --kernels")

    failures = 0
    if args.shuffle is not None:
        failures += check_shuffle(args.shuffle, args.shuffle_tolerance,
                                  args.noise_floor_seconds,
                                  args.peak_tolerance)
    if args.kernels is not None:
        failures += check_kernels(args.kernels, args.kernel_floor,
                                  args.kernel_min_size, args.peak_tolerance)
    if failures:
        print(f"{failures} perf contract violation(s)")
        return 1
    print("all perf contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
